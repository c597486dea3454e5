"""Sylvester sequence and family, exact last-coordinate intervals, and the
branch-and-bound enumerator, cross-checked against the brute-force oracle."""

from __future__ import annotations

import bisect
import dataclasses
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbke import (
    SearchConfig,
    admissible_last_interval,
    classify,
    enumerate_tuples,
    iter_tuples,
    make_tuple,
    sylvester_family,
    sylvester_seq,
)
from orbke import enumeration, exactmath, orbifold
from orbke.enumeration import _TAIL_CLASSES, _last_windows, _Search, pool_workers, usable_cpus
from orbke.errors import InputError, NodeBudgetExceeded, WrongLength
from orbke.exactmath import TABLE_CAP, count_coprime_in_range, factorize

from conftest import coprime_counts, coprime_orders
from reference import brute_force_oracle
from test_recount import _hot_prefixes

GOLDEN_LAST = (17, 19, 23, 29, 31, 37, 41, 43, 47, 49, 53, 59)
ALL_CLASSES = ("NotFano", "OldKE", "NewOnlyKE", "NoCriterion")

# (kwargs, partial counts) of the search at a node cap of kwargs["node_cap"].
# Every cap lands inside a slice: dimension 4's three caps after 127 of
# the 248 leaves of (2, 3, 7, 37), 1,378 of the 1,429 of (2, 3, 7, 41) and
# 691 of the 717 of (2, 3, 11, 13); dimension 3's after 3 of the 15 of
# (2, 3, 11), with OldKE and NotFano still counting.
_PINNED_PARTIALS = (
    (dict(n=5, node_cap=1000), {"NewOnlyKE": 1897}),
    (dict(n=4, node_cap=500), {"NewOnlyKE": 12883}),
    (dict(n=4, node_cap=2000), {"NewOnlyKE": 435779}),
    (dict(n=4, node_cap=3500), {"NewOnlyKE": 8285139}),
    (
        dict(n=4, node_cap=300, classes=ALL_CLASSES, max_order=60),
        {"NotFano": 0, "OldKE": 96, "NewOnlyKE": 556, "NoCriterion": 523},
    ),
    (
        dict(n=3, node_cap=38, classes=ALL_CLASSES, max_order=60),
        {"NotFano": 4, "OldKE": 58, "NewOnlyKE": 116, "NoCriterion": 68},
    ),
)


# (prefix, NewOnlyKE count, nodes_visited) of each dimension-5 subtree in
# the benchmark's cost-grouped pool.  The depth-5 prefixes are one slice on
# a range table each; every slice of (2, 3, 7, 85) and (2, 3, 7, 89) has a
# periodic table that leaves primes to walk; (2, 3, 7, 29) has 70 slices.
_DIM5_SUBTREES = (
    ((2, 3, 7, 29), 7818, 1274),
    ((2, 3, 7, 47, 283), 276264, 1039),
    ((2, 3, 7, 47, 289), 288441, 1065),
    ((2, 3, 7, 47, 293), 359454, 1191),
    ((2, 3, 7, 47, 275), 125580, 686),
    ((2, 3, 7, 47, 277), 237710, 962),
    ((2, 3, 7, 47, 281), 262731, 1014),
    ((2, 3, 7, 85), 3357907, 791),
    ((2, 3, 7, 47, 247), 91191, 590),
    ((2, 3, 7, 47, 253), 103225, 629),
    ((2, 3, 7, 47, 269), 195910, 871),
    ((2, 3, 7, 47, 271), 205432, 892),
    ((2, 3, 7, 47, 221), 51280, 439),
    ((2, 3, 7, 47, 239), 98890, 615),
    ((2, 3, 7, 47, 241), 103301, 629),
    ((2, 3, 7, 89), 5262872, 689),
    ((2, 3, 7, 23), 1084, 368),
    ((2, 3, 7, 25), 1096, 374),
    ((2, 5, 7, 9), 190951, 356),
    ((3, 4, 5, 7), 32533, 347),
)


class TestSylvesterSeq:
    def test_prefix_six(self):
        assert sylvester_seq(6) == [2, 3, 7, 43, 1807, 3263443]

    def test_seed(self):
        assert sylvester_seq(1) == [2]

    def test_seven(self):
        assert sylvester_seq(7)[-1] == 10650056950807

    def test_eight(self):
        assert sylvester_seq(8)[-1] == 113423713055421844361000443

    @pytest.mark.parametrize("k", [0, -1, 9])
    def test_rejects_out_of_range(self, k):
        with pytest.raises(InputError):
            sylvester_seq(k)

    @pytest.mark.parametrize("k", range(1, 8))
    def test_reciprocal_identity(self, k):
        seq = sylvester_seq(k + 1)
        partial = sum(Fraction(1, c) for c in seq[:k])
        assert partial + Fraction(1, seq[k] - 1) == 1

    @pytest.mark.parametrize("k", range(1, 8))
    def test_product_identity(self, k):
        seq = sylvester_seq(k + 1)
        assert math.prod(seq[:k]) == seq[k] - 1

    def test_both_recursions_agree(self):
        seq = sylvester_seq(8)
        for i in range(1, 8):
            assert seq[i] == math.prod(seq[:i]) + 1
            assert seq[i] == seq[i - 1] ** 2 - seq[i - 1] + 1


class TestSylvesterFamily:
    def test_dim2(self):
        fam = sylvester_family(2)
        assert fam.prefix == (2, 3, 5)
        assert fam.last_interval == (5, 60)
        assert fam.forbidden_primes == (2, 3, 5)

    def test_dim3(self):
        # Prefix sum is 1 + 1/1722 with 1722 = 42*41, so the new bound
        # m/1722 < 3 gives exactly m < 5166; both sides brute-checked below.
        fam = sylvester_family(3)
        assert fam.prefix == (2, 3, 7, 41)
        assert fam.last_interval == (41, 3 * 42 * 41)
        assert fam.forbidden_primes == (2, 3, 7, 41)
        assert classify(make_tuple(3, (2, 3, 7, 41, 5165))).new_ok
        assert not classify(make_tuple(3, (2, 3, 7, 41, 5167))).new_ok

    def test_dim6_factors_large_prefix(self):
        fam = sylvester_family(6)
        assert fam.prefix[:6] == tuple(sylvester_seq(6))
        assert fam.prefix[6] == 10650056950807 - 2
        prod = math.prod(fam.prefix)
        assert all(prod % p == 0 for p in fam.forbidden_primes)

    @pytest.mark.parametrize("n", [1, 7])
    def test_rejects_out_of_range(self, n):
        with pytest.raises(InputError):
            sylvester_family(n)

    def test_every_member_satisfies_new_bound_dim2(self):
        fam = sylvester_family(2)
        lo, hi = fam.last_interval
        members = [
            m
            for m in range(lo + 1, hi)
            if all(m % p for p in fam.forbidden_primes)
        ]
        assert len(members) == 15
        labels = {
            m: classify(make_tuple(2, fam.prefix + (m,))).classification
            for m in members
        }
        assert all(lab in ("OldKE", "NewOnlyKE") for lab in labels.values())
        new_only = sorted(m for m, lab in labels.items() if lab == "NewOnlyKE")
        assert tuple(new_only) == GOLDEN_LAST

    def test_sampled_members_dim3(self):
        fam = sylvester_family(3)
        lo, hi = fam.last_interval
        picks = [lo + 2, (lo + hi) // 2 + 1, hi - 1]
        for m in picks:
            if all(m % p for p in fam.forbidden_primes):
                assert classify(make_tuple(3, fam.prefix + (m,))).new_ok

    def test_just_outside_interval_fails(self):
        fam = sylvester_family(2)
        hi = fam.last_interval[1]
        assert not classify(make_tuple(2, fam.prefix + (hi + 1,))).new_ok


class TestAdmissibleLastInterval:
    def test_prefix_235(self):
        iv = admissible_last_interval((2, 3, 5), 2)
        assert iv.floor == 5
        assert iv.by_class["OldKE"] == (5, 15)
        assert iv.by_class["NewOnlyKE"] == (15, 60)
        assert iv.by_class["NoCriterion"] == (60, None)
        assert iv.by_class["NotFano"] is None

    def test_prefix_237(self):
        # Reciprocal sum below 1: Fano bounded, old bound free on that range.
        iv = admissible_last_interval((2, 3, 7), 2)
        assert iv.by_class["OldKE"] == (7, 42)
        assert iv.by_class["NewOnlyKE"] is None
        assert iv.by_class["NotFano"] == (42, None)

    def test_prefix_35_dim1(self):
        # 1/3 + 1/5 leaves 7/15; Fano needs m < 15/7 < floor, so no window.
        iv = admissible_last_interval((3, 5), 1)
        assert iv.by_class["OldKE"] is None
        assert iv.by_class["NewOnlyKE"] is None
        assert iv.by_class["NotFano"] == (5, None)

    def test_rejects_empty_and_malformed(self):
        with pytest.raises(InputError):
            admissible_last_interval((), 2)
        with pytest.raises(InputError):
            admissible_last_interval((3, 2, 5), 2)
        with pytest.raises(InputError):
            admissible_last_interval((2, 3, 4), 2)
        with pytest.raises(InputError):
            admissible_last_interval((2, 3), 2)
        with pytest.raises(InputError):
            admissible_last_interval((1,), 0)

    def test_wrong_length_prefix(self):
        # The same error as make_tuple and RamTuple give for a wrong count.
        for prefix in ((2, 3), (2, 3, 5, 7)):
            with pytest.raises(WrongLength, match="dimension 2 needs a prefix of 3 orders"):
                admissible_last_interval(prefix, 2)

    @given(prefix=coprime_orders(4, min_order=2), probe=st.integers(0, 200),
           cap_offset=st.integers(0, 250))
    # Prefixes summing above 1, with a nonempty NewOnlyKE window (random
    # draws seldom give one).
    @example(prefix=(2, 3, 5, 7), probe=4, cap_offset=10)
    @example(prefix=(2, 3, 7, 41), probe=2, cap_offset=250)
    @settings(max_examples=300, deadline=None)
    def test_windows_partition_the_line_dim3(self, prefix, probe, cap_offset):
        iv = admissible_last_interval(prefix, 3)
        m = iv.floor + probe
        prod = math.prod(prefix)
        if math.gcd(m, prod) != 1 and not (m == 1 == prefix[-1]):
            return
        hits = [
            label
            for label, window in iv.by_class.items()
            if window is not None
            and window[0] <= m
            and (window[1] is None or m < window[1])
        ]
        assert len(hits) == 1
        expected = classify(make_tuple(3, prefix + (m,))).classification
        assert hits == [expected]
        _check_capped_windows(3, prefix, m, iv.floor + cap_offset, expected)

    @given(prefix=coprime_orders(2, min_order=1), probe=st.integers(0, 100),
           cap_offset=st.integers(0, 120))
    @settings(max_examples=300, deadline=None)
    def test_windows_partition_the_line_dim1_with_units(self, prefix, probe, cap_offset):
        iv = admissible_last_interval(prefix, 1)
        m = iv.floor + probe
        prod = math.prod(prefix)
        if math.gcd(m, prod) != 1 and not (m == 1 and prefix[-1] == 1):
            return
        hits = [
            label
            for label, window in iv.by_class.items()
            if window is not None
            and window[0] <= m
            and (window[1] is None or m < window[1])
        ]
        expected = classify(make_tuple(1, prefix + (m,), min_order=1)).classification
        assert hits == [expected]
        _check_capped_windows(1, prefix, m, iv.floor + cap_offset, expected)


def _check_capped_windows(n, prefix, m, cap, expected):
    """_last_windows of prefix for every subset of the classes and cap.

    The prefix is a state and its last order as the one leaf, so the
    floor is max(prefix).  The caps are `cap` and the positive cut points
    and their neighbours.  The windows of a subset are nonempty, ascending
    and disjoint, lie in [floor, cap) and carry only requested labels; m
    lies in one of them exactly when its class `expected` is requested
    and floor <= m < cap, and then in the window of that class.
    """
    *state, floor = prefix
    P = math.prod(state)
    N = sum(P // q for q in state)
    cuts = enumeration._cuts(N * floor + P, P * floor, n)
    near = {x + d for x in cuts[:2] for d in (-1, 0, 1)}
    for top in near | {cap}:
        for k in range(len(ALL_CLASSES) + 1):
            for subset in itertools.combinations(ALL_CLASSES, k):
                [(v, data, windows)] = _last_windows(
                    N, P, n, [(floor, "leaf")], top, "OldKE" in subset,
                    "NewOnlyKE" in subset, _TAIL_CLASSES.intersection(subset))
                assert (v, data) == (floor, "leaf")
                edges = [edge for _, lo, hi in windows for edge in (lo, hi)]
                assert all(floor <= lo < hi <= top for _, lo, hi in windows), (top, windows)
                assert edges == sorted(edges), (top, subset, windows)
                assert {label for label, _, _ in windows} <= set(subset)
                hits = [label for label, lo, hi in windows if lo <= m < hi]
                want = expected in subset and floor <= m < top
                assert hits == ([expected] if want else []), (top, subset)


def _as_sets(result):
    by_label = {}
    for t, report in result.tuples:
        by_label.setdefault(report.classification, set()).add(t.orders)
    return by_label


class TestEnumerateTuples:
    def test_golden_list_dim2(self):
        res = enumerate_tuples(SearchConfig(n=2, classes=("NewOnlyKE",)))
        got = [t.orders for t, _ in res.tuples]
        assert got == [(2, 3, 5, m) for m in GOLDEN_LAST]
        assert res.counts == {"NewOnlyKE": 12}

    def test_old_complete_dim2(self):
        res = enumerate_tuples(SearchConfig(n=2, classes=("OldKE",)))
        got = {t.orders for t, _ in res.tuples}
        oracle = {
            orders
            for orders, label in brute_force_oracle(2, 60)
            if label == "OldKE"
        }
        assert got == oracle
        assert len(got) == 14

    def test_dim1_has_single_old_tuple_and_no_new(self):
        res = enumerate_tuples(SearchConfig(n=1, classes=("OldKE", "NewOnlyKE")))
        got = _as_sets(res)
        assert got.get("OldKE") == {(2, 3, 5)}
        assert "NewOnlyKE" not in got
        assert res.counts == {"OldKE": 1, "NewOnlyKE": 0}

    @pytest.mark.parametrize(
        "kwargs, nodes",
        [
            (dict(n=2, classes=("OldKE", "NewOnlyKE")), 8),
            (dict(n=3, classes=("OldKE", "NewOnlyKE")), 65),
            (dict(n=3, classes=ALL_CLASSES, max_order=60), 60603),
            (dict(n=2, min_order=1, classes=ALL_CLASSES, max_order=30), 1623),
            (dict(n=4, max_order=182), 725),
        ],
        ids=["dim2", "dim3", "dim3-all", "dim2-units", "dim4-max182"],
    )
    def test_count_equals_materialize(self, kwargs, nodes, monkeypatch):
        # Both modes read the slices of one plan walk and their leaves from
        # the sieve: the same nodes, and every order's primes come from the
        # sieve, never factorize.
        def no_factorize(m):
            raise AssertionError(f"factorize({m}) called by the search")

        monkeypatch.setattr(enumeration, "factorize", no_factorize)
        cnt = enumerate_tuples(SearchConfig(mode="count", **kwargs))
        mat = enumerate_tuples(SearchConfig(mode="materialize", **kwargs))
        sizes = dict.fromkeys(cnt.counts, 0)
        for _, report in mat.tuples:
            sizes[report.classification] += 1
        assert sizes == mat.counts == cnt.counts
        assert mat.nodes_visited == cnt.nodes_visited == nodes

    def test_matches_oracle_all_classes_dim2(self):
        cfg = SearchConfig(
            n=2,
            classes=("NotFano", "OldKE", "NewOnlyKE", "NoCriterion"),
            max_order=30,
        )
        got = _as_sets(enumerate_tuples(cfg))
        oracle = {}
        for orders, label in brute_force_oracle(2, 30):
            oracle.setdefault(label, set()).add(orders)
        assert got == oracle

    def test_matches_oracle_unit_orders_dim1(self):
        cfg = SearchConfig(
            n=1,
            min_order=1,
            classes=("NotFano", "OldKE", "NewOnlyKE", "NoCriterion"),
            max_order=4,
        )
        got = _as_sets(enumerate_tuples(cfg))
        oracle = {}
        for orders, label in brute_force_oracle(1, 4, min_order=1):
            oracle.setdefault(label, set()).add(orders)
        assert got == oracle

    def test_lexicographic_order(self):
        cfg = SearchConfig(n=2, classes=("OldKE", "NewOnlyKE"))
        got = [t.orders for t, _ in enumerate_tuples(cfg).tuples]
        assert got == sorted(got)

    def test_streaming_matches_materialize(self):
        cfg = SearchConfig(n=2, classes=("OldKE", "NewOnlyKE"))
        streamed = [(t.orders, r.classification) for t, r in iter_tuples(cfg)]
        res = enumerate_tuples(cfg)
        assert streamed == [(t.orders, r.classification) for t, r in res.tuples]

    def test_materialize_starts_no_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("materialize mode started a process pool")

        monkeypatch.setattr(enumeration, "ProcessPoolExecutor", no_pool)
        for cls in ("OldKE", "NewOnlyKE"):
            serial = enumerate_tuples(SearchConfig(n=3, classes=(cls,)))
            wide = enumerate_tuples(SearchConfig(n=3, classes=(cls,), parallel_width=4))
            assert [(t.orders, r.classification) for t, r in wide.tuples] == [
                (t.orders, r.classification) for t, r in serial.tuples
            ]
            assert (wide.counts, wide.nodes_visited) == (serial.counts, serial.nodes_visited)

    def test_parallel_equals_serial_count_dim3(self):
        serial = enumerate_tuples(SearchConfig(n=3, mode="count"))
        par = enumerate_tuples(SearchConfig(n=3, mode="count", parallel_width=4))
        assert par.counts == serial.counts == {"NewOnlyKE": 2484}
        assert par.nodes_visited == serial.nodes_visited == 34

    @pytest.mark.parametrize("width", [2, 3, 4])
    def test_parallel_equals_serial_count_dim4(self, width):
        classes = ("OldKE", "NewOnlyKE")
        serial = enumerate_tuples(SearchConfig(n=4, mode="count", classes=classes))
        par = enumerate_tuples(
            SearchConfig(n=4, mode="count", classes=classes, parallel_width=width)
        )
        assert (par.counts, par.nodes_visited) == (serial.counts, serial.nodes_visited)
        assert serial.counts == {"OldKE": 2943231, "NewOnlyKE": 8369332}

    @pytest.mark.parametrize(
        "pin, pooled",
        # (2,3,7,29) holds 1,174 leaves and stays in-process; (2,3,7,79)
        # holds 17,526, above POOL_MIN_LEAVES; (2,3,7,71,103) pins a whole
        # depth-5 prefix of 17,108 leaves, so its one window is cut into runs.
        [((2, 3, 7, 29), False), ((2, 3, 7, 79), True), ((2, 3, 7, 71, 103), True)],
    )
    def test_pinned_parallel_equals_serial(self, monkeypatch, pin, pooled):
        started = []
        real_pool = enumeration.ProcessPoolExecutor

        def spy(*args, **kwargs):
            started.append(kwargs.get("max_workers"))
            return real_pool(*args, **kwargs)

        monkeypatch.setattr(enumeration, "ProcessPoolExecutor", spy)
        monkeypatch.setattr(enumeration, "usable_cpus", lambda: 2)
        serial = enumerate_tuples(SearchConfig(n=5, mode="count", prefix_filter=pin))
        par = enumerate_tuples(
            SearchConfig(n=5, mode="count", prefix_filter=pin, parallel_width=2)
        )
        assert (par.counts, par.nodes_visited) == (serial.counts, serial.nodes_visited)
        assert started == ([2] if pooled else [])

    def test_prefix_filter(self):
        res = enumerate_tuples(
            SearchConfig(n=2, classes=("NewOnlyKE",), prefix_filter=(2, 3))
        )
        assert res.counts == {"NewOnlyKE": 12}
        res = enumerate_tuples(
            SearchConfig(n=2, classes=("NewOnlyKE",), prefix_filter=(2, 5))
        )
        assert res.counts == {"NewOnlyKE": 0}

    def test_node_cap_carries_partial(self):
        with pytest.raises(NodeBudgetExceeded) as exc:
            enumerate_tuples(SearchConfig(n=3, mode="count", node_cap=20))
        partial = exc.value.partial
        assert partial.nodes_visited >= 20
        assert set(partial.counts) == {"NewOnlyKE"}
        assert partial.elapsed_s > 0

    @pytest.mark.parametrize(
        "mode, kwargs, counts",
        [
            pytest.param(mode, kwargs, counts, id=f"kwargs{i}-counts{i}{suffix}")
            for mode, suffix in (("count", ""), ("materialize", "-materialize"))
            for i, (kwargs, counts) in enumerate(_PINNED_PARTIALS)
            # Materialize classifies every tuple: the 435,779 below the
            # third cap take ~20 s, so that cap runs in count mode only.
            if mode == "count" or sum(counts.values()) < 100_000
        ],
    )
    def test_node_cap_partials_are_pinned(self, mode, kwargs, counts):
        # The partial at a cap depends on the order in which leaves are
        # visited, one node each, and is the same in both modes; these
        # values were recorded before the leaf kernel replaced the per-leaf
        # walk, and those of materialize before it shared the leaf loop.
        with pytest.raises(NodeBudgetExceeded) as exc:
            enumerate_tuples(SearchConfig(mode=mode, **kwargs))
        assert exc.value.partial.counts == counts
        assert exc.value.partial.nodes_visited == kwargs["node_cap"] + 1

    @pytest.mark.parametrize("width", [1, 2])
    @pytest.mark.parametrize("prefix, count, nodes", _DIM5_SUBTREES)
    def test_dim5_subtrees_are_pinned(self, prefix, count, nodes, width):
        # Width 2 lists the weighted plan and, below POOL_MIN_LEAVES, counts
        # it in-process; width 1 counts the lazy walk.
        res = enumerate_tuples(SearchConfig(n=5, mode="count", prefix_filter=prefix,
                                            parallel_width=width))
        assert (res.counts, res.nodes_visited) == ({"NewOnlyKE": count}, nodes)

    def test_counts_include_zero_classes(self):
        res = enumerate_tuples(
            SearchConfig(n=1, classes=("OldKE", "NewOnlyKE"), mode="count")
        )
        assert res.counts == {"OldKE": 1, "NewOnlyKE": 0}

    @pytest.mark.parametrize("walk", ["count", "materialize", "row_blocks"])
    def test_unit_orders_at_the_dimension_bound(self, walk):
        # Unit orders fill every prefix slot, so the walk recurses to full
        # depth: at the bound it may meet the node cap, never the recursion limit.
        cfg = SearchConfig(n=enumeration.MAX_SEARCH_DIM, min_order=1, max_order=2,
                           classes=orbifold.CLASSIFICATIONS, node_cap=100_000,
                           mode="materialize" if walk == "row_blocks" else walk)
        try:
            if walk == "row_blocks":
                for _ in enumeration.iter_row_blocks(cfg):
                    pass
            else:
                enumerate_tuples(cfg)
        except NodeBudgetExceeded:
            pass


class TestSearchConfigValidation:
    def test_unbounded_class_needs_max_order(self):
        with pytest.raises(InputError):
            SearchConfig(n=2, classes=("NotFano",))
        SearchConfig(n=2, classes=("NotFano",), max_order=10)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=0),
            dict(n=2, min_order=3),
            dict(n=2, mode="stream"),
            dict(n=2, classes=("Bogus",)),
            dict(n=2, classes=()),
            dict(n=2, max_order=1),
            dict(n=2, parallel_width=0),
            dict(n=2, node_cap=0),
            dict(n=2, prefix_filter=(3, 2)),
            dict(n=2, prefix_filter=(2, 4)),
            dict(n=2, prefix_filter=(2, 3, 5, 7)),
            dict(n=2, prefix_filter=(1, 3)),
            dict(n=2, min_order=1),
        ],
    )
    def test_rejects_bad_configs(self, kwargs):
        with pytest.raises(InputError):
            SearchConfig(**kwargs)

    def test_classes_are_stored_as_a_tuple(self):
        # An iterator would be used up by the validation and a list would
        # leave the frozen config unhashable.
        classes = ("OldKE", "NewOnlyKE")
        results = []
        for given in (list(classes), classes, iter(classes)):
            cfg = SearchConfig(n=3, mode="count", classes=given)
            assert cfg.classes == classes
            hash(cfg)
            res = enumerate_tuples(cfg)
            results.append((res.counts, res.nodes_visited))
        assert results[0] == results[1] == results[2]
        assert results[0][0] == {"OldKE": 1028, "NewOnlyKE": 2484}


class TestPoolWorkers:
    def test_never_more_than_jobs_or_cpus(self):
        assert pool_workers(100_000, 2) == 2
        assert pool_workers(100_000, 8) == 8
        assert pool_workers(3, 64) == 3
        assert pool_workers(2, 64) == 2

    def test_at_least_one(self):
        assert pool_workers(4, 0) == 1
        assert pool_workers(4, None) == 1

    def test_usable_cpus_follow_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 64)
        monkeypatch.setattr(enumeration.os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
        assert usable_cpus() == 2
        monkeypatch.delattr(enumeration.os, "sched_getaffinity")
        assert usable_cpus() == 64
        monkeypatch.setattr(enumeration.os, "cpu_count", lambda: None)
        assert pool_workers(4, usable_cpus()) == 1


# (interior nodes, leaves) of the NewOnlyKE search in each dimension.
_TREE_SHAPE = {3: (8, 26), 4: (73, 3512), 5: (5819, 11312563)}


class TestSlicePlan:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_weights_and_interior_nodes_sum_to_nodes_visited(self, n):
        search = _Search(SearchConfig(n=n, mode="count"))
        weights = [count_coprime_in_range(lo, hi - 1, state[3]) for state, lo, hi in search.plan()]
        interior, leaves = _TREE_SHAPE[n]
        assert (search.nodes, sum(weights)) == (interior, leaves)
        if n < 5:
            assert enumerate_tuples(SearchConfig(n=n, mode="count")).nodes_visited == (
                interior + leaves
            )

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_plan_is_lazy(self, n):
        # The first slice comes after the n nodes on its path alone, not
        # after a walk of every interior node (5,819 in dimension 5).
        search = _Search(SearchConfig(n=n, mode="count"))
        state, _, _ = next(search.plan())
        assert (len(state[0]), search.nodes) == (n, n)

    @pytest.mark.parametrize("n, workers", [(3, 2), (4, 2), (4, 3), (5, 2)])
    def test_tasks_tile_the_windows_in_order(self, n, workers, monkeypatch):
        # Each worker entry counts what it hands to count: record that.
        cfg = SearchConfig(n=n, mode="count")
        plan = list(_Search(cfg).plan())
        tasks = workers
        counted = []
        monkeypatch.setattr(_Search, "count", lambda search, runs: counted.append(list(runs)))
        for r in range(tasks):
            enumeration._count_task(cfg, tasks, r)
        assert len(counted) == tasks
        for task in counted:
            assert [(s[0][0], s[1]) for s in task] == sorted((s[0][0], s[1]) for s in task)
        # The runs of all tasks run from each prefix's candidate window's
        # start to its end without a gap or an overlap, one sieve block at most each.
        windows = {}
        for state, lo, hi in sorted((s for task in counted for s in task),
                                    key=lambda s: (s[0][0], s[1])):
            assert windows.setdefault(state[0], [lo, lo])[1] == lo < hi <= lo + exactmath._BLOCK_CAP
            windows[state[0]][1] = hi
        assert windows == {state[0]: [lo, hi] for state, lo, hi in plan}

    @pytest.mark.parametrize("workers", [2, 4])
    def test_strided_tasks_balance_the_leaves(self, workers):
        # Every one of the tasks of the dimension-5 plan, one per worker,
        # holds within 5% of the mean number of leaves.
        runs = enumeration._runs(_Search(SearchConfig(n=5, mode="count")).plan())
        weights = [exactmath._count_positive(lo, hi - 1, state[3]) for state, lo, hi in runs]
        tasks = workers
        loads = [sum(weights[r::tasks]) for r in range(tasks)]
        assert sum(loads) == _TREE_SHAPE[5][1]
        mean = sum(loads) / tasks
        assert all(abs(load - mean) <= 0.05 * mean for load in loads), loads


class TestTableReuse:
    # count takes each slice's table from coprime_table: a range table of
    # every state prime over [0, top], built for the slice alone, or a
    # periodic one of the smallest primes, whose builder keeps the last
    # one it built.  Whatever order the slices come in, each table handed
    # out must equal a gcd scan of its kind.
    @pytest.mark.parametrize("n, root", [(4, None), (5, (2, 3, 7, 89))])
    def test_reused_table_equals_a_fresh_one(self, n, root, monkeypatch):
        cfg = SearchConfig(n=n, mode="count", prefix_filter=root)
        slices = list(_Search(cfg).plan())
        shuffled = random.Random(20261019).sample(slices, len(slices))
        handed = []

        def spy(primes, top, width):
            handed.append((primes, top, width, exactmath.coprime_table(primes, top, width)))
            return handed[-1][-1]

        monkeypatch.setattr(enumeration, "coprime_table", spy)
        builder = exactmath._phi_table
        for order in (slices, shuffled):
            builder.cache_clear()
            handed.clear()
            _Search(cfg).count(order)
            assert [(primes, width) for primes, _, width, _ in handed] == [
                (state[3], hi - lo) for state, lo, hi in order]
            kinds = set()
            heads = []
            for primes, top, width, (phi, rest) in handed:
                budget = min(exactmath._TABLE_MAX, exactmath._ENTRIES_PER_V * width)
                if top is not None and top <= budget and top < math.prod(primes):
                    kinds.add("range")
                    assert rest == () and phi == coprime_counts(primes, top), primes
                    continue
                kinds.add("periodic")
                k = 0
                while k < len(primes) and math.prod(primes[:k + 1]) <= max(TABLE_CAP, budget):
                    k += 1
                assert rest == primes[k:], primes
                assert phi == coprime_counts(primes[:k], math.prod(primes[:k])), primes
                heads.append(primes[:k])
            # Below (2,3,7,89) no window is short enough for a range table.
            assert kinds == ({"range", "periodic"} if n == 4 else {"periodic"})
            # Only periodic tables go through the builder: one build each
            # time their tabulated primes change, and no more; one is kept.
            info = builder.cache_info()
            assert info.misses == 1 + sum(a != b for a, b in zip(heads, heads[1:]))
            assert (info.hits + info.misses, info.currsize) == (len(heads), 1)
            if order is slices and n == 5:
                # Neighbouring states below (2,3,7,89) share table primes.
                assert info.misses < len(heads)

    @pytest.mark.parametrize("kwargs, kinds", [
        (dict(n=4), {"range", "periodic"}),
        (dict(n=5, prefix_filter=(2, 3, 7, 89)), {"periodic"}),
        # Tail windows end at the cap, past the NewOnlyKE cut.  After a
        # unit order, states such as (1, 5, 7) sum above 1 and have new
        # cuts far below the cap.
        (dict(n=3, classes=ALL_CLASSES, max_order=40), {"range", "periodic"}),
        (dict(n=3, min_order=1, classes=ALL_CLASSES, max_order=40), {"range", "periodic"}),
        (dict(n=4, classes=ALL_CLASSES, max_order=60, prefix_filter=(2, 3, 5, 7)), {"range"}),
        # The last v of (2, 3)'s window is 6, and 1/2 + 1/3 + 1/6 = 1.
        (dict(n=2, classes=("OldKE", "NewOnlyKE"), max_order=6), {"range", "periodic"}),
        # 580 v earn a modulus 2*3*5*11*13 = 4290 past TABLE_CAP.
        (dict(n=5, prefix_filter=(2, 3, 11, 17, 65)), {"wide"}),
    ])
    def test_each_leaf_window_counts_on_its_table(self, kwargs, kinds):
        # Every slice, every leaf, every class window: the count on the
        # slice's table equals count_coprime_in_range over all the primes.
        # A range table that stops short of a window's top would fall to
        # the periodic formula, which it does not satisfy.
        cfg = SearchConfig(mode="count", **kwargs)
        search = _Search(cfg)
        seen = set()
        for (prefix, N, P, primes), lo, hi in search.plan():
            phi, rest = search.table(N, P, primes, lo, hi)
            q = len(phi) - 1
            if q != math.prod(primes[:len(primes) - len(rest)]):
                seen.add("range")
            else:
                seen.add("periodic" if q <= TABLE_CAP else "wide")
            leaves = exactmath.coprime_factorizations(lo, hi, primes)
            for v, v_primes, windows in _last_windows(N, P, cfg.n, leaves, search.cap,
                                                      search.old, search.new, search.tails):
                walked = sorted(rest + tuple(v_primes))
                for label, a, b in windows:
                    want = count_coprime_in_range(a, b - 1, primes + tuple(v_primes))
                    assert exactmath._count_positive(a, b - 1, walked, phi) == want, (
                        prefix, v, label)
        assert seen == kinds

    @pytest.mark.parametrize("n, root", [(4, None), (5, (2, 3, 7, 89))])
    def test_tasks_in_reverse_order_count_as_serial(self, n, root):
        cfg = SearchConfig(n=n, mode="count", prefix_filter=root)
        serial = enumerate_tuples(cfg)
        search = _Search(cfg)
        runs = list(enumeration._runs(search.plan()))
        tasks = 8
        assert len(runs) > tasks
        interior = search.nodes
        for r in reversed(range(tasks)):
            search.count(runs[r::tasks])
        assert (search.counts, search.nodes) == (serial.counts, serial.nodes_visited)
        # One worker entry per task, each with a search of its own.
        counts = dict.fromkeys(cfg.classes, 0)
        nodes = interior
        for r in reversed(range(tasks)):
            task_counts, task_nodes = enumeration._count_task(cfg, tasks, r)
            nodes += task_nodes
            for label, value in task_counts.items():
                counts[label] += value
        assert (counts, nodes) == (serial.counts, serial.nodes_visited)


class TestFlatLeafPass:
    # count inlines the clipping of _last_windows into its leaf loop (see
    # test_source.py::test_only_last_windows_clips_the_cut_points).  Every
    # leaf, counted alone as the run (state, v, v + 1), must give the sum
    # of count_coprime_in_range over its _last_windows windows, one node.
    @pytest.mark.parametrize("kwargs", [
        dict(n=4, classes=("OldKE", "NewOnlyKE")),
        *(dict(n=5, prefix_filter=prefix) for prefix, _, _ in _DIM5_SUBTREES),
        dict(n=3, classes=ALL_CLASSES, max_order=40),
        dict(n=3, min_order=1, classes=ALL_CLASSES, max_order=40),
        dict(n=4, classes=ALL_CLASSES, max_order=60, prefix_filter=(2, 3, 5, 7)),
        dict(n=2, classes=("OldKE", "NewOnlyKE"), max_order=6),
    ], ids=lambda kwargs: "-".join(f"{k}={v}" for k, v in kwargs.items() if k != "classes"))
    def test_each_leaf_counts_its_last_windows(self, kwargs):
        cfg = SearchConfig(mode="count", **kwargs)
        search = _Search(cfg)
        leaves = 0
        for state, lo, hi in _Search(cfg).plan():
            _, N, P, primes = state
            for v, v_primes, windows in _last_windows(
                    N, P, cfg.n, exactmath.coprime_factorizations(lo, hi, primes), search.cap,
                    search.old, search.new, search.tails):
                want = dict.fromkeys(cfg.classes, 0)
                for label, a, b in windows:
                    want[label] += count_coprime_in_range(a, b - 1, primes + tuple(v_primes))
                search.counts = dict.fromkeys(cfg.classes, 0)
                search.count([(state, v, v + 1)])
                leaves += 1
                assert (search.counts, search.nodes) == (want, leaves), (state[0], v)
        assert leaves > 0


def _recount_new(n, prefix):
    """NewOnlyKE tuples after prefix, by classifying coprime last orders upward.

    With S > 1 the verdict runs OldKE, NewOnlyKE, NoCriterion as m grows
    (both bounds are monotone in m), so the first NoCriterion ends the scan.
    """
    prod = math.prod(prefix)
    total = 0
    for m in itertools.count(prefix[-1]):
        if math.gcd(m, prod) != 1:
            continue
        label = classify(make_tuple(n, prefix + (m,))).classification
        if label == "NoCriterion":
            return total
        total += label == "NewOnlyKE"


class TestIndependentRecount:
    def test_dim3_total(self):
        assert sum(_recount_new(3, p) for p, _ in _hot_prefixes(3)) == 2484

    def test_dim4_sampled_prefixes(self):
        # The scan of a prefix runs up to n/(S-1); prefixes past 20000 are
        # left out of the draw to bound the test's run time.
        eligible = [p for p, s in _hot_prefixes(4) if 4 / (s - 1) <= 20000]
        for prefix in random.Random(20260814).sample(eligible, 10):
            res = enumerate_tuples(SearchConfig(n=4, mode="count", prefix_filter=prefix))
            assert res.counts == {"NewOnlyKE": _recount_new(4, prefix)}, prefix

    @pytest.mark.parametrize("root", [(2, 3, 7, 23), (2, 3, 7, 25)])
    def test_dim5_leaf_prefixes(self, root):
        # Every leaf prefix below root is rescanned (each scan ends below
        # 20000, which bounds the run time): their sum against the count of
        # the whole subtree, and seeded ones against a count pinned to them.
        hot = _hot_prefixes(5, root)
        assert all(5 / (s - 1) <= 20000 for _, s in hot)
        recounts = {p: _recount_new(5, p) for p, _ in hot}
        res = enumerate_tuples(SearchConfig(n=5, mode="count", prefix_filter=root))
        assert res.counts == {"NewOnlyKE": sum(recounts.values())}
        for prefix in random.Random(20261018).sample(sorted(recounts), 10):
            res = enumerate_tuples(SearchConfig(n=5, mode="count", prefix_filter=prefix))
            assert res.counts == {"NewOnlyKE": recounts[prefix]}, prefix


_RANK = {"OldKE": 0, "NewOnlyKE": 1, "NoCriterion": 2, "NotFano": 3}


def _label(n, N, P, m):
    """Class of last order m after a prefix N/P, from the three inequalities."""
    if not m * (P - N) < P:
        return "NotFano"
    if n * m * (N - P) < P:
        return "OldKE"
    if m * (N - P) < n * P:
        return "NewOnlyKE"
    return "NoCriterion"


def _reference_windows(n, N, P, floor, cap):
    """(label, lo, hi) class windows of m in [floor, cap), by bisection.

    Along m the class only moves forward through OldKE, NewOnlyKE and then
    NoCriterion (sum above 1) or NotFano (sum below 1), so each window
    edge is the first m of a higher rank.  Without a cap the bounded
    classes end below (n + 1) * P + 2.
    """
    ms = range(floor, (n + 1) * P + 2 if cap is None else cap)
    edges = [bisect.bisect_left(ms, k, key=lambda m: _RANK[_label(n, N, P, m)])
             for k in range(5)]
    edges[4] = len(ms)
    return [(label, floor + edges[k], floor + edges[k + 1]) for label, k in _RANK.items()]


def _reference_leaves(search, slice_):
    """(counts, nodes) of one plan slice (state, lo, hi), leaf by leaf.

    Each next order v in [lo, hi) coprime to P is factorized, its leaf's
    class windows are found by bisection on the inequalities and counted
    by count_coprime_in_range over all of the leaf's primes: no table,
    sieve or cut points.
    """
    (_, N, P, primes), lo, hi = slice_
    counts = dict.fromkeys(search.cfg.classes, 0)
    nodes = 0
    for v in range(lo, hi):
        if math.gcd(v, P) != 1:
            continue
        nodes += 1
        leaf_primes = set(primes) | set(factorize(v).primes)
        for label, lo, hi in _reference_windows(search.n, N * v + P, P * v, v, search.cap):
            if label in counts:
                counts[label] += count_coprime_in_range(lo, hi - 1, leaf_primes)
    return counts, nodes


def _kernel_leaves(cfg, slice_):
    search = _Search(cfg)
    search.count([slice_])
    return search.counts, search.nodes


def _state(prefix):
    P = math.prod(prefix)
    primes = tuple(p for m in prefix for p in factorize(m).primes)
    return prefix, sum(P // m for m in prefix), P, primes


class TestLeafKernel:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=1, min_order=1, classes=ALL_CLASSES, max_order=40),
            dict(n=2, classes=ALL_CLASSES, max_order=120),
            dict(n=2, min_order=1, classes=ALL_CLASSES, max_order=30),
            dict(n=3, classes=("OldKE", "NewOnlyKE")),
            dict(n=3, classes=ALL_CLASSES, max_order=60),
            dict(n=3, min_order=1, classes=("NewOnlyKE", "NoCriterion"), max_order=60),
            dict(n=4, classes=("OldKE", "NewOnlyKE")),
        ],
    )
    def test_matches_per_leaf_counts(self, kwargs):
        # The first prefixes carry every bounded class; the seeded draw
        # reaches the sparse tail of the walk.
        cfg = SearchConfig(mode="count", **kwargs)
        slices = list(_Search(cfg).plan())
        rng = random.Random(20261018)
        for slice_ in slices[:4] + rng.sample(slices[4:], min(4, len(slices) - 4)):
            assert _kernel_leaves(cfg, slice_) == _reference_leaves(_Search(cfg), slice_), slice_[0]

    @pytest.mark.parametrize(
        "prefix, max_order",
        # The first prefix's 387 v pay for a range table of its primes over
        # [0, 1400]; the second's 201 v cannot pay for [0, 4300], so its
        # periodic table holds 1009 and leaves 1013 and 4099 to the walk.
        [((2, 1009, 1013), 1400), ((1009, 1013, 4099), 4300)],
    )
    def test_primes_past_the_table_cap(self, prefix, max_order):
        cfg = SearchConfig(n=3, mode="count", classes=ALL_CLASSES, max_order=max_order)
        # The slice of the pinned prefix, its primes from the sieve checked
        # against factorize.
        [slice_] = _Search(dataclasses.replace(cfg, prefix_filter=prefix)).plan()
        assert slice_[0] == _state(prefix)
        counts, nodes = _kernel_leaves(cfg, slice_)
        assert nodes > 0 and counts["NotFano"] > 0
        assert (counts, nodes) == _reference_leaves(_Search(cfg), slice_)


class TestCountNew:
    def test_dim2(self):
        assert enumerate_tuples(SearchConfig(n=2, mode="count")).counts == {"NewOnlyKE": 12}

    def test_dim1(self):
        assert enumerate_tuples(SearchConfig(n=1, mode="count")).counts == {"NewOnlyKE": 0}



# (n, max_order, min_order, labels absent) of the searches whose every row
# TestRowFields re-derives.  Dimension 1 has no NewOnlyKE tuple, and with
# orders >= 2 no NoCriterion one; dimension 2 has its first NoCriterion
# tuple past 60.
_ROW_SEARCHES = [(1, 60, 2, {"NewOnlyKE", "NoCriterion"}), (2, 40, 2, {"NoCriterion"}),
                 (3, 30, 2, set()), (4, 24, 2, set()), (1, 30, 1, {"NewOnlyKE"}),
                 (2, 30, 1, set()), (3, 20, 1, set()), (4, 16, 1, set())]


class TestRowFields:
    """Each row's fields are its orders' own: rows reads nothing of the search's (N, P)."""

    @staticmethod
    def _labels(cfg):
        rows = list(enumeration.iter_rows(cfg))
        for orders, fields in rows:
            assert fields == orbifold.fano_fields(cfg.n, orders), orders
        return {fields[-1] for _, fields in rows}

    @pytest.mark.parametrize("n, cap, min_order, absent", _ROW_SEARCHES)
    def test_every_class_with_a_cap(self, n, cap, min_order, absent):
        cfg = SearchConfig(n=n, classes=ALL_CLASSES, max_order=cap, min_order=min_order)
        assert self._labels(cfg) == set(ALL_CLASSES) - absent

    def test_bounded_classes_dim3(self):
        assert self._labels(SearchConfig(n=3, classes=("OldKE", "NewOnlyKE"))) == {
            "OldKE", "NewOnlyKE"}

    # (class, pinned head, m per block) of heads whose one class window up
    # to 20,000 spans three sieve blocks: (2, 3) sums below 1, so every m
    # from 7 on is NotFano; (2, 3, 5) sums above 1 and is NoCriterion from
    # m = 60 on.
    LONG_WINDOWS = [("NotFano", (2, 3), [2731, 2730, 1204]),
                    ("NoCriterion", (2, 3, 5), [2185, 2184, 949])]

    @pytest.mark.parametrize("label, head, lengths", LONG_WINDOWS)
    def test_one_window_over_several_blocks(self, label, head, lengths):
        cfg = SearchConfig(n=len(head) - 1, classes=(label,), prefix_filter=head,
                           max_order=20000)
        blocks = list(enumeration.iter_row_blocks(cfg))
        assert [len(ms) for *_, ms in blocks] == lengths
        assert {(h, verdict[-1]) for h, _, _, verdict, _ in blocks} == {(head, label)}
        assert self._labels(cfg) == {label}
        flat = [(head + (m,), fields) for *_, ms in blocks for m in ms
                for fields in [orbifold.fano_fields(cfg.n, head + (m,))]]
        assert list(enumeration.iter_rows(cfg)) == flat
