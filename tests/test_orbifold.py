"""Tuple construction, the exact existence bounds, and link data."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbke import classify, link_weights, make_tuple
from orbke.errors import InputError, OrderBelowMinimum, PairwiseCoprimeViolation, WrongLength
from orbke.orbifold import RamTuple, check_orders

from conftest import assert_pairwise_coprime, coprime_orders


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
