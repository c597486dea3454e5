"""Sylvester sequence and family, exact last-coordinate intervals, and the
branch-and-bound enumerator, cross-checked against the brute-force oracle."""

from __future__ import annotations

import bisect
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbke import (
    SearchConfig,
    admissible_last_interval,
    brute_force_oracle,
    classify,
    count_new,
    enumerate_tuples,
    iter_tuples,
    make_tuple,
    sylvester_family,
    sylvester_seq,
)
from orbke import enumeration
from orbke.enumeration import _Search, pool_workers, usable_cpus
from orbke.errors import InputError, NodeBudgetExceeded, SearchSpaceTooLarge
from orbke.exactmath import count_coprime_in_range, factorize

from conftest import coprime_orders

GOLDEN_LAST = (17, 19, 23, 29, 31, 37, 41, 43, 47, 49, 53, 59)
ALL_CLASSES = ("NotFano", "OldKE", "NewOnlyKE", "NoCriterion")

# (kwargs, partial counts) of the search at a node cap of kwargs["node_cap"].
_PINNED_PARTIALS = (
    (dict(n=5, node_cap=1000), {"NewOnlyKE": 1897}),
    (dict(n=4, node_cap=500), {"NewOnlyKE": 12883}),
    (dict(n=4, node_cap=2000), {"NewOnlyKE": 435779}),
    (
        dict(n=4, node_cap=300, classes=ALL_CLASSES, max_order=60),
        {"NotFano": 0, "OldKE": 96, "NewOnlyKE": 556, "NoCriterion": 523},
    ),
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

    @given(prefix=coprime_orders(4, min_order=2), probe=st.integers(0, 200))
    @settings(max_examples=300, deadline=None)
    def test_windows_partition_the_line_dim3(self, prefix, probe):
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

    @given(prefix=coprime_orders(2, min_order=1), probe=st.integers(0, 100))
    @settings(max_examples=300, deadline=None)
    def test_windows_partition_the_line_dim1_with_units(self, prefix, probe):
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
        # Both modes share one child step at every depth: the same nodes,
        # and every order's primes come from the sieve, never factorize.
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
        # depth-5 prefix of 17,108 leaves, so its one window is cut by v range.
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

    def test_counts_include_zero_classes(self):
        res = enumerate_tuples(
            SearchConfig(n=1, classes=("OldKE", "NewOnlyKE"), mode="count")
        )
        assert res.counts == {"OldKE": 1, "NewOnlyKE": 0}


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


class TestPoolWorkers:
    def test_never_more_than_cpus_or_tasks(self):
        assert pool_workers(100_000, 6, 2) == 2
        assert pool_workers(100_000, 10**6, 8) == 8
        assert pool_workers(4, 3, 64) == 3
        assert pool_workers(2, 6, 64) == 2

    def test_at_least_one(self):
        assert pool_workers(4, 0, 8) == 1
        assert pool_workers(4, 6, None) == 1

    def test_usable_cpus_follow_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 64)
        monkeypatch.setattr(enumeration.os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
        assert usable_cpus() == 2
        monkeypatch.delattr(enumeration.os, "sched_getaffinity")
        assert usable_cpus() == 64
        monkeypatch.setattr(enumeration.os, "cpu_count", lambda: None)
        assert pool_workers(4, 6, usable_cpus()) == 1


# (interior nodes, leaves) of the NewOnlyKE search in each dimension.
_TREE_SHAPE = {3: (8, 26), 4: (73, 3512), 5: (5819, 11312563)}


class TestSlicePlan:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_weights_and_interior_nodes_sum_to_nodes_visited(self, n):
        search = _Search(SearchConfig(n=n, mode="count"))
        slices = search.plan()
        interior, leaves = _TREE_SHAPE[n]
        assert (search.nodes, sum(s[3] for s in slices)) == (interior, leaves)
        if n < 5:
            assert enumerate_tuples(SearchConfig(n=n, mode="count")).nodes_visited == (
                interior + leaves
            )

    @pytest.mark.parametrize("n, workers", [(3, 2), (4, 2), (4, 3), (5, 2)])
    def test_tasks_tile_the_windows_in_order(self, n, workers):
        search = _Search(SearchConfig(n=n, mode="count"))
        slices = search.plan()
        total = sum(s[3] for s in slices)
        tasks = enumeration.pool_tasks(slices, workers)
        pieces = [piece for task in tasks for piece in task]
        for task in tasks:
            assert sum(s[3] for s in task) * 4 * workers <= total
        assert [(s[0][0], s[1]) for s in pieces] == sorted((s[0][0], s[1]) for s in pieces)
        # Each prefix's pieces run from its candidate window's start to its
        # end without a gap, and each weighs the leaves in its range.
        windows = {}
        for state, lo, hi, weight in pieces:
            assert weight == count_coprime_in_range(lo, hi - 1, state[3])
            assert windows.setdefault(state[0], [lo, lo])[1] == lo < hi
            windows[state[0]][1] = hi
        want = {}
        for prefix, N, P, _ in _Search(search.cfg).prefixes(n):
            window = search._next_window(prefix, N, P)
            if window is not None:
                want[prefix] = list(window)
        assert windows == want


def _hot_prefixes(n, root=()):
    """(prefix, S) for the sorted coprime (n+1)-prefixes below root that can carry NewOnlyKE.

    Fraction arithmetic only, as in acceptance criterion [02]; shares no
    code with the interval solver.  NewOnlyKE needs S > 1.  An entry m with
    k prefix slots left (its own included) and partial sum s before it can
    push S above 1 only if s + k/m > 1, since later entries are >= m; and
    once s >= 1, S - 1 >= s + 1/m - 1 and the last order is >= m, so the
    new bound needs m*(s - 1) + 1 < n.  Both tests fail for every larger m
    once they fail.
    """
    out = []

    def rec(prefix, s):
        k = n + 1 - len(prefix)
        if k == 0:
            if s > 1:
                out.append((prefix, s))
            return
        for m in itertools.count(prefix[-1] + 1 if prefix else 2):
            if s + Fraction(k, m) <= 1 or (s >= 1 and m * (s - 1) + 1 >= n):
                break
            if math.gcd(m, math.prod(prefix)) == 1:
                rec(prefix + (m,), s + Fraction(1, m))

    rec(root, sum(Fraction(1, m) for m in root))
    return out


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


def _reference_leaves(search, state):
    """(counts, nodes) below one depth-n state, leaf by leaf.

    Each next order v in the window coprime to P is factorized, its
    leaf's class windows are found by bisection on the inequalities and
    counted by count_coprime_in_range over all of the leaf's primes: no
    table, sieve or cut points.
    """
    prefix, N, P, primes = state
    counts = dict.fromkeys(search.cfg.classes, 0)
    nodes = 0
    window = search._next_window(prefix, N, P)
    for v in range(*window) if window else ():
        if math.gcd(v, P) != 1:
            continue
        nodes += 1
        leaf_primes = set(primes) | set(factorize(v).primes)
        for label, lo, hi in _reference_windows(search.n, N * v + P, P * v, v, search.cap):
            if label in counts:
                counts[label] += count_coprime_in_range(lo, hi - 1, leaf_primes)
    return counts, nodes


def _kernel_leaves(cfg, state):
    search = _Search(cfg)
    search.count(state)
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
        states = list(_Search(cfg).prefixes(cfg.n))
        rng = random.Random(20261018)
        for state in states[:4] + rng.sample(states[4:], min(4, len(states) - 4)):
            assert _kernel_leaves(cfg, state) == _reference_leaves(_Search(cfg), state), state[0]

    @pytest.mark.parametrize(
        "prefix, max_order",
        # 2 * 1009 > TABLE_CAP leaves 1009 and 1013 outside the table; in
        # the second prefix no prime fits, so the table is empty.
        [((2, 1009, 1013), 1400), ((1009, 1013, 4099), 4300)],
    )
    def test_primes_past_the_table_cap(self, prefix, max_order):
        cfg = SearchConfig(n=3, mode="count", classes=ALL_CLASSES, max_order=max_order)
        state = _state(prefix)
        counts, nodes = _kernel_leaves(cfg, state)
        assert nodes > 0 and counts["NotFano"] > 0
        assert (counts, nodes) == _reference_leaves(_Search(cfg), state)


class TestCountNew:
    def test_dim2(self):
        assert count_new(2) == 12

    def test_dim1(self):
        assert count_new(1) == 0

    @pytest.mark.parametrize("n", [0, 6])
    def test_rejects_out_of_range(self, n):
        with pytest.raises(InputError):
            count_new(n)


class TestBruteForceOracle:
    def test_contains_new_example(self):
        out = dict(brute_force_oracle(2, 20))
        assert out[(2, 3, 5, 17)] == "NewOnlyKE"

    def test_no_new_below_order_five(self):
        assert all(label != "NewOnlyKE" for _, label in brute_force_oracle(2, 5))

    def test_dim1_small_scan(self):
        # The only pairwise-coprime sorted triples with entries in [2,5].
        out = dict(brute_force_oracle(1, 5))
        assert out == {(2, 3, 5): "OldKE", (3, 4, 5): "NotFano"}

    def test_guard(self):
        with pytest.raises(SearchSpaceTooLarge):
            brute_force_oracle(3, 100)
