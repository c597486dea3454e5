"""Tuple construction, the exact existence bounds, and link data."""

from __future__ import annotations

import copy
import gc
import pickle
from dataclasses import FrozenInstanceError
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbke import (
    SearchConfig, classify, enumeration, enumerate_tuples, iter_tuples, link_weights, make_tuple,
    orbifold)
from orbke.errors import InputError, OrderBelowMinimum, PairwiseCoprimeViolation, WrongLength
from orbke.orbifold import CLASSIFICATIONS, RamTuple, check_orders

from conftest import assert_pairwise_coprime, coprime_orders


_REBUILDS = [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))]
_REBUILD_IDS = ["copy", "deepcopy", "pickle"]

# RamTuple fields the constructor rejects: unsorted orders, a wrong length,
# bool entries.
_BAD_FIELDS = [
    (2, (2, 5, 3, 17)),
    (2, (2, 3, 5)),
    (1, (2, 3, 5, 7)),
    (2, (True, 3, 5, 17)),
    (True, (2, 3, 5)),
]


def _constructor_error(n, orders):
    """The exception type RamTuple(n, orders) raises."""
    with pytest.raises(InputError) as exc:
        RamTuple(n, orders)
    return type(exc.value)


class TestMakeTuple:
    def test_canonicalizes_sorted(self):
        t = make_tuple(2, [5, 2, 17, 3])
        assert t.orders == (2, 3, 5, 17)
        assert t.n == 2

    def test_wrong_length(self):
        with pytest.raises(WrongLength):
            make_tuple(2, [2, 3, 5])

    def test_coprime_violation_names_the_pair(self):
        with pytest.raises(PairwiseCoprimeViolation) as exc:
            make_tuple(2, [2, 3, 4, 5])
        assert "2" in str(exc.value) and "4" in str(exc.value)

    def test_order_below_minimum(self):
        with pytest.raises(OrderBelowMinimum):
            make_tuple(2, [1, 3, 5, 7])

    def test_unit_orders_allowed_when_enabled(self):
        t = make_tuple(1, [1, 1, 1], min_order=1)
        assert t.orders == (1, 1, 1)

    def test_repeated_non_unit_orders_rejected(self):
        with pytest.raises(PairwiseCoprimeViolation):
            make_tuple(1, [2, 2, 3])


class TestRamTuple:
    @pytest.mark.parametrize(
        "n, orders",
        [(0, (2, 3)), (-1, (2,)), (-2, ()), (2, (0, 2, 3, 5)), (1, (-3, 2, 5))],
    )
    def test_rejects_dimension_or_order_below_one(self, n, orders):
        with pytest.raises(InputError):
            RamTuple(n, orders)

    def test_unit_orders_construct(self):
        assert RamTuple(1, (1, 1, 1)).orders == (1, 1, 1)

    @pytest.mark.parametrize("orders", [
        [2, 3, 5, 17], iter((2, 3, 5, 17)), np.array([2, 3, 5, 17]), range(2, 18, 5)])
    def test_orders_stored_as_tuple(self, orders):
        t = RamTuple(2, orders)
        assert type(t.orders) is tuple and t.orders in ((2, 3, 5, 17), (2, 7, 12, 17))
        assert all(type(m) is int for m in t.orders)

    def test_list_orders_hash_and_compare_as_tuple(self):
        t = RamTuple(2, [2, 3, 5, 17])
        assert t == RamTuple(2, (2, 3, 5, 17))
        assert hash(t) == hash(RamTuple(2, (2, 3, 5, 17)))
        assert len({t, RamTuple(2, (2, 3, 5, 17))}) == 1

    @pytest.mark.parametrize("orders", [[2, 5, 3, 17], (2, 3, 17, 5)])
    def test_unsorted_rejected(self, orders):
        with pytest.raises(InputError, match="sorted"):
            RamTuple(2, orders)

    def test_is_a_tuple(self):
        t = RamTuple(2, (2, 3, 5, 17))
        n, orders = t
        assert (n, orders) == (t.n, t.orders) == (t[0], t[1]) == (2, (2, 3, 5, 17))
        assert len(t) == 2 and t == (2, (2, 3, 5, 17)) and hash(t) == hash((2, (2, 3, 5, 17)))

    def test_is_frozen(self):
        t = RamTuple(2, (2, 3, 5, 17))
        for name in ("n", "orders", "other"):
            with pytest.raises(FrozenInstanceError):
                setattr(t, name, 3)
            with pytest.raises(FrozenInstanceError):
                delattr(t, name)
        assert t == (2, (2, 3, 5, 17))

    @pytest.mark.parametrize("rebuild", _REBUILDS, ids=_REBUILD_IDS)
    def test_copy_and_pickle_round_trip(self, rebuild):
        t = RamTuple(3, (2, 3, 7, 43, 1811))
        u = rebuild(t)
        assert type(u) is RamTuple and u == t and hash(u) == hash(t)
        assert type(u.orders) is tuple and all(type(m) is int for m in u.orders)

    @pytest.mark.parametrize("rebuild", _REBUILDS, ids=_REBUILD_IDS)
    @pytest.mark.parametrize("n, orders", _BAD_FIELDS)
    def test_copy_and_pickle_run_the_checks(self, rebuild, n, orders):
        # A record smuggled past __new__ fails to rebuild with the constructor's error.
        bad = tuple.__new__(RamTuple, (n, orders))
        with pytest.raises(_constructor_error(n, orders)):
            rebuild(bad)

    @pytest.mark.parametrize("n, orders", _BAD_FIELDS)
    def test_make_and_replace_run_the_checks(self, n, orders):
        error = _constructor_error(n, orders)
        t = RamTuple(2, (2, 3, 5, 17))
        with pytest.raises(error):
            RamTuple._make((n, orders))
        with pytest.raises(error):
            t._replace(n=n, orders=orders)
        if n == 2:
            with pytest.raises(error):
                t._replace(orders=orders)
        assert RamTuple._make((2, [2, 3, 5, 17])) == t._replace(n=2) == t
        assert type(t._replace(orders=(2, 3, 5, 19))) is RamTuple

    def test_search_rows_run_the_checks(self, monkeypatch):
        # materialize builds every RamTuple through the constructor.
        fields = orbifold.fano_fields(2, (2, 3, 5, 17))
        monkeypatch.setattr(enumeration._Search, "rows",
                            lambda self: iter([((2, 5, 3, 17), fields)]))
        with pytest.raises(InputError, match="sorted"):
            list(iter_tuples(SearchConfig(n=2)))
        with pytest.raises(InputError, match="sorted"):
            enumerate_tuples(SearchConfig(n=2))


class TestFirstChern:
    # c1 = sum(1/mi) - 1, as classify reports it.
    def test_new_example(self):
        assert classify(make_tuple(2, [2, 3, 5, 17])).c1 == Fraction(47, 510)

    def test_trivial_orbifold(self):
        assert classify(make_tuple(2, [1, 1, 1, 1], min_order=1)).c1 == 3

    def test_sylvester_boundary(self):
        assert classify(make_tuple(2, [2, 3, 7, 43])).c1 == Fraction(-1, 1806)


class TestClassify:
    def test_new_only(self):
        r = classify(make_tuple(2, [2, 3, 5, 17]))
        assert r.classification == "NewOnlyKE"
        assert r.c1 == Fraction(47, 510)
        assert r.old_rhs == Fraction(3, 34)  # 45/510
        assert r.new_rhs == Fraction(3, 17)  # 90/510
        assert r.fano and r.new_ok and not r.old_ok

    def test_old(self):
        r = classify(make_tuple(2, [2, 3, 5, 13]))
        assert r.classification == "OldKE"
        assert r.c1 == Fraction(43, 390)
        assert r.old_ok and r.new_ok

    def test_no_criterion(self):
        r = classify(make_tuple(2, [2, 3, 5, 61]))
        assert r.classification == "NoCriterion"
        assert r.fano and not r.new_ok and not r.old_ok

    def test_not_fano(self):
        r = classify(make_tuple(2, [2, 3, 7, 43]))
        assert r.classification == "NotFano"
        assert r.c1 == Fraction(-1, 1806)
        assert not r.fano

    def test_old_lhs_is_c1(self):
        r = classify(make_tuple(2, [2, 3, 5, 13]))
        assert r.old_lhs == r.c1

    def test_fields_are_integers(self):
        r = classify(make_tuple(2, [2, 3, 5, 17]))
        assert (r.n, r.m_max, r.D, r.P) == (2, 17, 47, 510)
        assert all(type(x) is int for x in (r.n, r.m_max, r.D, r.P))

    def test_report_is_frozen(self):
        r = classify(make_tuple(2, [2, 3, 5, 17]))
        with pytest.raises(FrozenInstanceError):
            r.D = 1

    def test_report_is_a_tuple_of_its_fields(self):
        r = classify(make_tuple(2, [2, 3, 5, 17]))
        fields = (2, 17, 47, 510, True, False, True, "NewOnlyKE")
        assert r == fields and tuple(r) == fields and hash(r) == hash(fields)
        n, m_max, D, P, *_, label = r
        assert (n, m_max, D, P, label, len(r)) == (r.n, r.m_max, r.D, r.P, r[-1], 8)

    def test_report_is_frozen_after_a_read(self):
        r = classify(make_tuple(2, [2, 3, 5, 17]))
        assert r.c1 == Fraction(47, 510)
        for name in ("n", "classification", "c1", "new_rhs", "other"):
            with pytest.raises(FrozenInstanceError):
                setattr(r, name, 1)
            with pytest.raises(FrozenInstanceError):
                delattr(r, name)
        assert r.c1 == Fraction(47, 510) and r.D == 47

    def test_no_dict(self):
        # A report holds its fields only, before and after a read.
        r = classify(make_tuple(2, [2, 3, 5, 17]))
        assert r.new_rhs == Fraction(3, 17)
        assert not hasattr(r, "__dict__")
        assert not [x for x in gc.get_referents(r) if type(x) is dict]

    @pytest.mark.parametrize("rebuild", _REBUILDS, ids=_REBUILD_IDS)
    def test_round_trip_after_reading_c1(self, rebuild):
        r = classify(make_tuple(3, [2, 3, 7, 43, 1811]))
        sides = (r.c1, r.old_lhs, r.old_rhs, r.new_rhs)
        u = rebuild(r)
        assert type(u) is type(r) and u == r and hash(u) == hash(r)
        assert (u.c1, u.old_lhs, u.old_rhs, u.new_rhs) == sides
        assert all(type(x) is Fraction for x in (u.c1, u.old_lhs, u.old_rhs, u.new_rhs))


def _spy_fractions(monkeypatch):
    """Count the Fractions that orbifold builds; the list grows by one per build."""
    built = []

    def counting(*args):
        built.append(args)
        return Fraction(*args)

    monkeypatch.setattr(orbifold, "Fraction", counting)
    return built


def _fraction_sides(t):
    """(c1, old_lhs, old_rhs, new_rhs) from the definition, one Fraction at a time."""
    n, m_max = t.n, max(t.orders)
    c1 = sum((Fraction(1, m) for m in t.orders), Fraction(0)) - 1
    return c1, c1, Fraction(n + 1, n * m_max), Fraction(n + 1, m_max)


def _sides(r):
    return r.c1, r.old_lhs, r.old_rhs, r.new_rhs


class TestDerivedFractions:
    """classify reports integers; each read of a side builds its Fraction."""

    def test_classify_builds_no_fraction(self, monkeypatch):
        built = _spy_fractions(monkeypatch)
        r = classify(make_tuple(2, [2, 3, 5, 17]))
        assert (r.classification, built) == ("NewOnlyKE", [])
        assert r.c1 == Fraction(47, 510) and len(built) == 1
        assert (r.c1, r.old_lhs, r.c1) == (Fraction(47, 510),) * 3 and len(built) == 4
        assert (r.old_rhs, r.new_rhs) == (Fraction(3, 34), Fraction(3, 17))
        assert len(built) == 6

    def test_dim3_stream_builds_no_fraction(self, monkeypatch):
        built = _spy_fractions(monkeypatch)
        reports = [r for _, r in iter_tuples(SearchConfig(n=3, mode="materialize"))]
        assert len(reports) == 2484 and built == []
        assert reports[0].c1 > 0 and len(built) == 1

    @pytest.mark.parametrize("n", [2, 3])
    def test_sides_match_definition_on_every_small_tuple(self, n):
        cfg = SearchConfig(n=n, mode="materialize", classes=CLASSIFICATIONS, max_order=30)
        seen = set()
        for t, r in iter_tuples(cfg):
            assert _sides(r) == _fraction_sides(t), t.orders
            c1, _, old_rhs, new_rhs = _fraction_sides(t)
            assert (r.fano, r.old_ok, r.new_ok) == (c1 > 0, c1 < old_rhs, c1 < new_rhs)
            seen.add(r.classification)
        # dimension 2 below 61 has no NoCriterion tuple; dimension 3 has all four.
        assert seen == set(CLASSIFICATIONS) - ({"NoCriterion"} if n == 2 else set())

    @pytest.mark.parametrize("min_order", [1, 2])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_materialized_pairs_equal_make_tuple_and_classify(self, n, min_order):
        cfg = SearchConfig(n=n, classes=CLASSIFICATIONS, max_order=30, min_order=min_order)
        result = enumerate_tuples(cfg)
        assert any(t.orders[0] == 1 for t, _ in result.tuples) == (min_order == 1)
        labels = []
        for t, r in result.tuples:
            expected = make_tuple(n, t.orders, min_order)
            assert (type(t), type(r)) == (RamTuple, orbifold.FanoReport)
            assert (t, r) == (expected, classify(expected)), t.orders
            assert all(type(x) is int for x in (t.n, *t.orders, r.n, r.m_max, r.D, r.P))
            labels.append(r.classification)
        assert result.counts == {label: labels.count(label) for label in CLASSIFICATIONS}

    def test_sides_match_definition_on_non_coprime_tuple(self):
        t = RamTuple(2, (2, 4, 6, 8))
        r = classify(t)
        assert (r.D, r.P) == (16, 384)
        assert _sides(r) == _fraction_sides(t) == (
            Fraction(1, 24), Fraction(1, 24), Fraction(3, 16), Fraction(3, 8))
        assert r.classification == "OldKE"

    def test_same_tuple_reports_equal_and_hash_alike(self):
        t = make_tuple(3, [2, 3, 7, 43, 1811])
        fresh, read = classify(t), classify(t)
        _sides(read)
        assert fresh == read and hash(fresh) == hash(read)
        assert len({fresh, read, classify(RamTuple(3, list(t.orders)))}) == 1
        assert fresh != classify(make_tuple(3, [2, 3, 7, 43, 1817]))


class TestLinkWeights:
    def test_new_example(self):
        ld = link_weights(make_tuple(2, [2, 3, 5, 17]))
        assert ld.M == 510
        assert ld.weights == (255, 170, 102, 30)

    def test_trivial(self):
        ld = link_weights(make_tuple(2, [1, 1, 1, 1], min_order=1))
        assert ld.M == 1
        assert ld.weights == (1, 1, 1, 1)

    def test_sylvester_boundary(self):
        ld = link_weights(make_tuple(2, [2, 3, 7, 43]))
        assert ld.M == 1806
        assert ld.weights == (903, 602, 258, 42)


class TestIsPairwiseCoprime:
    # check_orders is the one pairwise-coprime check: it returns coprime
    # orders and raises PairwiseCoprimeViolation on a shared prime.
    def test_prime_power_entry(self):
        assert check_orders([2, 3, 5, 49], 2) == (2, 3, 5, 49)

    def test_shared_factor(self):
        with pytest.raises(PairwiseCoprimeViolation, match=r"gcd\(3,15\)=3"):
            check_orders([2, 3, 5, 15], 2)

    def test_singleton(self):
        assert check_orders([7], 2) == (7,)

    def test_empty(self):
        assert check_orders([], 2) == ()

    def test_repeated_units(self):
        assert check_orders([1, 1, 1], 1) == (1, 1, 1)


@st.composite
def _tuples(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    min_order = draw(st.sampled_from([1, 2]))
    orders = draw(coprime_orders(n + 2, min_order=min_order))
    return make_tuple(n, orders, min_order=min_order)


class TestProperties:
    @given(t=_tuples(), seed=st.randoms(use_true_random=False))
    @settings(max_examples=300, deadline=None)
    def test_permutation_invariance(self, t, seed):
        shuffled = list(t.orders)
        seed.shuffle(shuffled)
        t2 = make_tuple(t.n, shuffled, min_order=1)
        assert t2.orders == t.orders
        assert classify(t2).c1 == classify(t).c1
        assert classify(t2) == classify(t)

    @given(t=_tuples())
    @settings(max_examples=300, deadline=None)
    def test_weight_identity(self, t):
        assert_pairwise_coprime(t.orders)
        ld = link_weights(t)
        assert all(w * m == ld.M for w, m in zip(ld.weights, t.orders))

    @given(t=_tuples())
    @settings(max_examples=300, deadline=None)
    def test_implication_lattice(self, t):
        r = classify(t)
        if r.old_ok:
            assert r.new_ok
        expected = (
            "NotFano"
            if not r.fano
            else "OldKE"
            if r.old_ok
            else "NewOnlyKE"
            if r.new_ok
            else "NoCriterion"
        )
        assert r.classification == expected

    @given(t=_tuples())
    @settings(max_examples=300, deadline=None)
    def test_first_chern_formula(self, t):
        assert classify(t).c1 == sum(Fraction(1, m) for m in t.orders) - 1

    @given(t=_tuples())
    @settings(max_examples=300, deadline=None)
    def test_classify_matches_fraction_definition(self, t):
        n, m_max = t.n, t.orders[-1]
        c1 = sum(Fraction(1, m) for m in t.orders) - 1
        old_rhs, new_rhs = Fraction(n + 1, n * m_max), Fraction(n + 1, m_max)
        r = classify(t)
        assert (r.c1, r.old_lhs, r.old_rhs, r.new_rhs) == (c1, c1, old_rhs, new_rhs)
        assert (r.fano, r.old_ok, r.new_ok) == (c1 > 0, c1 < old_rhs, c1 < new_rhs)
