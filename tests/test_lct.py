"""Threshold criteria: delta/beta arithmetic, the 1/c < beta test, the
normal-crossing check, and the two low-degree del Pezzo case analyses."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbke import (
    INF,
    DelPezzo2,
    DelPezzo4,
    SncFanoData,
    beta_of_delta,
    classify,
    delta_pn,
    dp2_check,
    dp4_check,
    ke_criterion,
    make_tuple,
    monomial_lct,
    snc_ke_check,
    snc_threshold,
)
from orbke.errors import InputError, InvalidQuadricPencil, NotFanoOrbifold

from conftest import coprime_orders


class TestUnboundedSentinel:
    def test_singleton_and_repr(self):
        assert str(INF) == "inf" and repr(INF) == "inf"
        assert type(INF)() is INF

    def test_no_order_against_rationals(self):
        # Production code only asks `is INF`; an ordering would let a
        # missed special case rank INF silently instead of failing loudly.
        with pytest.raises(TypeError):
            INF < Fraction(1)
        with pytest.raises(TypeError):
            Fraction(1) < INF
        assert INF == INF
        assert INF != Fraction(1)

    def test_hashable(self):
        assert len({INF, INF}) == 1


class TestSncFanoData:
    def test_orders_property(self):
        data = SncFanoData(2, ((1, 2), (1, 3), (4, 5)))
        assert data.orders == (2, 3, 5)

    @pytest.mark.parametrize(
        "entries",
        [((0, 2),), ((1, 1),), ((1, 0),), ((-1, 3),), ((1, 2.5),)],
    )
    def test_rejects_bad_entries(self, entries):
        with pytest.raises(InputError):
            SncFanoData(2, entries)

    def test_rejects_bad_dimension(self):
        with pytest.raises(InputError):
            SncFanoData(0, ((1, 2),))


class TestDeltaPn:
    def test_half_quartic(self):
        assert delta_pn(SncFanoData(2, ((4, 2),))) == Fraction(2, 3)

    def test_four_lines(self):
        data = SncFanoData(2, tuple((1, m) for m in (2, 3, 5, 17)))
        assert delta_pn(data) == Fraction(1483, 1530)

    def test_empty(self):
        assert delta_pn(SncFanoData(2, ())) == 0

    def test_above_one(self):
        assert delta_pn(SncFanoData(2, ((4, 5),))) == Fraction(16, 15)


class TestBetaOfDelta:
    def test_two_thirds(self):
        assert beta_of_delta(Fraction(2, 3)) == 2

    def test_symmetric_point(self):
        assert beta_of_delta(Fraction(1, 2)) == 1

    @pytest.mark.parametrize("bad", [Fraction(1), Fraction(0), Fraction(16, 15), Fraction(-1, 2)])
    def test_rejects_outside_open_interval(self, bad):
        with pytest.raises(NotFanoOrbifold):
            beta_of_delta(bad)

    @given(d=st.fractions(min_value=Fraction(1, 100), max_value=Fraction(99, 100)))
    @settings(max_examples=100, deadline=None)
    def test_exact_formula(self, d):
        assert beta_of_delta(d) == d / (1 - d)


class TestThresholds:
    def test_snc_235(self):
        assert snc_threshold((2, 3, 5)) == Fraction(1, 4)

    def test_snc_single(self):
        assert snc_threshold((2,)) == 1

    def test_snc_empty_is_unbounded(self):
        assert snc_threshold(()) is INF

    def test_monomial(self):
        assert monomial_lct((1,)) == 1
        assert monomial_lct((1, 2)) == Fraction(1, 2)
        assert monomial_lct((4,)) == Fraction(1, 4)

    def test_monomial_rejects_empty_and_nonpositive(self):
        with pytest.raises(InputError):
            monomial_lct(())
        with pytest.raises(InputError):
            monomial_lct((1, 0))

    @given(orders=st.lists(st.integers(2, 50), min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_snc_monotone_in_orders(self, orders):
        c = snc_threshold(tuple(orders))
        assert c == Fraction(1, max(orders) - 1)
        bumped = snc_threshold(tuple(m + 1 for m in orders))
        assert bumped <= c


class TestKeCriterion:
    def test_smooth_dp2_numbers(self):
        assert ke_criterion(Fraction(1), Fraction(2))

    def test_equality_fails_strictness(self):
        assert not ke_criterion(Fraction(1, 2), Fraction(2))
        assert ke_criterion(Fraction(1, 2), Fraction(2) + Fraction(1, 10**9))

    def test_unbounded_always_passes(self):
        assert ke_criterion(INF, Fraction(1, 10**6))

    def test_rejects_nonpositive(self):
        with pytest.raises(InputError):
            ke_criterion(Fraction(0), Fraction(2))
        with pytest.raises(InputError):
            ke_criterion(Fraction(1), Fraction(0))


class TestSncKeCheck:
    def test_half_quartic_passes(self):
        rep = snc_ke_check(SncFanoData(2, ((4, 2),)))
        assert rep.passes
        assert rep.delta == Fraction(2, 3)
        assert rep.beta == 2
        assert rep.c == 1
        assert rep.method == "identity-cover"
        assert "snc-arrangement-asserted-not-verified" in rep.assumptions

    def test_four_lines_passes_and_matches_classify(self):
        data = SncFanoData(2, tuple((1, m) for m in (2, 3, 5, 17)))
        rep = snc_ke_check(data)
        assert rep.passes
        assert classify(make_tuple(2, (2, 3, 5, 17))).new_ok

    def test_delta_above_one_fails_without_raising(self):
        rep = snc_ke_check(SncFanoData(2, ((4, 5),)))
        assert not rep.passes
        assert rep.delta == Fraction(16, 15)
        assert rep.beta is None
        names = [name for name, _, _, _ in rep.conditions]
        assert "delta-below-one" in names

    def test_empty_boundary_fails(self):
        rep = snc_ke_check(SncFanoData(3, ()))
        assert not rep.passes
        assert rep.delta == 0

    def test_condition_rows_shape(self):
        rep = snc_ke_check(SncFanoData(2, ((4, 2),)))
        for name, lhs, rhs, holds in rep.conditions:
            assert isinstance(name, str)
            assert holds == (lhs < rhs)
        assert rep.passes == all(h for _, _, _, h in rep.conditions)

    @given(
        entries=st.lists(
            st.tuples(st.integers(1, 4), st.integers(2, 60)),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_theorem_and_example_forms_agree(self, entries):
        data = SncFanoData(2, tuple(entries))
        delta = delta_pn(data)
        if not 0 < delta < 1:
            return
        m_max = max(data.orders)
        beta = beta_of_delta(delta)
        assert (m_max - 1 < beta) == (m_max * (1 - delta) < 1)
        rep = snc_ke_check(data)
        row_names = [name for name, _, _, _ in rep.conditions]
        assert "max-order-minus-one-below-beta" in row_names
        assert "scaled-complement-below-one" in row_names

    @given(n=st.integers(1, 4), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_hyperplane_specialization_equals_new_bound(self, n, data):
        orders = data.draw(coprime_orders(n + 2, min_order=2))
        report = classify(make_tuple(n, orders))
        snc = snc_ke_check(SncFanoData(n, tuple((1, m) for m in orders)))
        assert snc.passes == (report.fano and report.new_ok)


class TestDelPezzo2:
    def test_a1_a2_passes(self):
        rep = dp2_check(DelPezzo2((1, 2)))
        assert rep.passes
        assert rep.c == Fraction(2, 3)
        assert rep.beta == 2
        assert rep.delta == Fraction(2, 3)
        assert rep.method == "quotient-cover"

    def test_a3_equality_fails(self):
        rep = dp2_check(DelPezzo2((3,)))
        assert not rep.passes
        assert rep.c == Fraction(1, 2)

    def test_smooth_passes_with_unbounded_threshold(self):
        rep = dp2_check(DelPezzo2(()))
        assert rep.passes
        assert rep.c is INF

    @pytest.mark.parametrize("bad", [(0,), (-1,), (2.0,), ("A1",)])
    def test_rejects_bad_labels(self, bad):
        with pytest.raises(InputError):
            DelPezzo2(bad)

    @given(sings=st.lists(st.integers(1, 8), max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_passes_iff_all_labels_at_most_a2(self, sings):
        rep = dp2_check(DelPezzo2(tuple(sings)))
        assert rep.passes == all(k <= 2 for k in sings)


class TestDelPezzo4:
    def test_distinct_lambdas(self):
        rep = dp4_check(DelPezzo4((1, 2, 3)))
        assert rep.passes
        assert rep.method == "disjoint-ramification"
        assert rep.c is INF
        assert rep.delta == 0 and rep.beta == 1

    def test_coincident_lambdas(self):
        rep = dp4_check(DelPezzo4((1, 1, 2)))
        assert rep.passes
        assert rep.method == "quotient-of-quadric"

    def test_zero_lambda_rejected(self):
        with pytest.raises(InvalidQuadricPencil):
            DelPezzo4((0, 1, 2))

    def test_wrong_arity_rejected(self):
        with pytest.raises(InputError):
            DelPezzo4((1, 2))

    def test_rational_lambdas_accepted(self):
        rep = dp4_check(DelPezzo4((Fraction(1, 2), Fraction(2, 3), 5)))
        assert rep.passes
        assert rep.method == "disjoint-ramification"

    def test_string_lambda_rejected(self):
        # String parsing is the CLI's job; the library wants rationals.
        with pytest.raises(InputError):
            DelPezzo4((Fraction(1, 2), "2/3", 5))

    @given(
        lams=st.lists(
            st.fractions(min_value=-5, max_value=5, max_denominator=20).filter(
                lambda x: x != 0
            ),
            min_size=3,
            max_size=3,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_always_ke_with_correct_method(self, lams):
        rep = dp4_check(DelPezzo4(tuple(lams)))
        assert rep.passes
        expected = (
            "disjoint-ramification" if len(set(lams)) == 3 else "quotient-of-quadric"
        )
        assert rep.method == expected
        assert "pencil-diagonalizability-asserted-not-verified" in rep.assumptions
