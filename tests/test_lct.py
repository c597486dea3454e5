"""Threshold criteria: delta/beta arithmetic, the 1/c < beta test, the
normal-crossing check, and the two low-degree del Pezzo case analyses."""

from __future__ import annotations

import copy
import dataclasses
import itertools
import math
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orbke
from orbke import (
    INF,
    DelPezzo2,
    DelPezzo4,
    KeReport,
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


    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_copies_are_the_sentinel(self, protocol):
        # Callers test `is INF`, so every copy must be the one object.
        assert copy.copy(INF) is INF
        assert copy.deepcopy(INF) is INF
        assert pickle.loads(pickle.dumps(INF, protocol)) is INF
        assert copy.deepcopy(dp2_check(DelPezzo2(()))).c is INF


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

    # (n, largest order) of the exhaustive runs: 2,979 tuples in all.
    EXHAUSTIVE = ((1, 40), (2, 20))

    def test_hyperplane_specialization_on_every_small_tuple(self):
        # One criterion, two codes: the snc check on the n + 2 degree-1
        # hyperplanes passes exactly when classify finds the tuple Fano and
        # within the new bound, on every pairwise-coprime tuple in range.
        checked = 0
        for n, top in self.EXHAUSTIVE:
            for orders in itertools.combinations(range(2, top + 1), n + 2):
                if any(math.gcd(a, b) != 1 for a, b in itertools.combinations(orders, 2)):
                    continue
                report = classify(make_tuple(n, orders))
                snc = snc_ke_check(SncFanoData(n, tuple((1, m) for m in orders)))
                assert snc.passes == (report.fano and report.new_ok), (n, orders)
                checked += 1
        assert checked == 2979


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


def _assert_rows_decide_the_verdict(rep):
    for name, lhs, rhs, holds in rep.conditions:
        assert isinstance(name, str)
        assert holds == (lhs < rhs)
    assert rep.passes == all(holds for *_, holds in rep.conditions)


def _fraction_snc_rows(data):
    """(delta, beta, rows) of snc_ke_check by plain Fraction arithmetic, from the definitions."""
    delta = sum((d * (1 - Fraction(1, m)) for d, m in data.entries), Fraction(0)) / (data.n + 1)
    rows = [("zero-below-delta", Fraction(0), delta, 0 < delta),
            ("delta-below-one", delta, Fraction(1), delta < 1)]
    if not 0 < delta < 1:
        return delta, None, rows
    beta, m_max = delta / (1 - delta), max(data.orders)
    rows.append(("max-order-minus-one-below-beta", Fraction(m_max - 1), beta, m_max - 1 < beta))
    rows.append(("scaled-complement-below-one", m_max * (1 - delta), Fraction(1),
                 m_max * (1 - delta) < 1))
    return delta, beta, rows


def _assert_fraction_fields(rep):
    assert type(rep.delta) is Fraction
    assert rep.beta is None or type(rep.beta) is Fraction
    assert rep.c is INF or type(rep.c) is Fraction
    for name, lhs, rhs, holds in rep.conditions:
        assert (type(name), type(lhs), type(rhs), type(holds)) == (str, Fraction, Fraction, bool)


class TestIntegerDecisions:
    """The integer comparisons give the reports plain Fraction arithmetic gives, field by field."""

    def test_snc_matches_fraction_arithmetic(self):
        rng = random.Random(2801)
        for _ in range(2000):
            n = rng.randint(1, 4)
            entries = tuple((rng.randint(1, 4), rng.randint(2, 60))
                            for _ in range(rng.randint(0, n + 3)))
            data = SncFanoData(n, entries)
            rep = snc_ke_check(data)
            delta, beta, rows = _fraction_snc_rows(data)
            assert (rep.delta, rep.beta, list(rep.conditions)) == (delta, beta, rows), data
            _assert_fraction_fields(rep)

    def test_dp2_matches_fraction_arithmetic(self):
        rng = random.Random(2802)
        for sings in [()] + [tuple(rng.randint(1, 9) for _ in range(rng.randint(1, 5)))
                             for _ in range(500)]:
            rep = dp2_check(DelPezzo2(sings))
            local = [Fraction(2, k + 1) for k in sorted(sings)]
            c = min(local, default=INF)
            rows = [(f"A{k}-local-threshold", 1 / t, Fraction(2), 1 / t < 2)
                    for k, t in zip(sorted(sings), local)]
            inv = Fraction(0) if c is INF else 1 / c
            rows.append(("reciprocal-threshold-below-beta", inv, Fraction(2), inv < 2))
            assert (rep.delta, rep.beta, rep.c, list(rep.conditions)) == (
                Fraction(2, 3), Fraction(2), c, rows)
            _assert_fraction_fields(rep)

    def test_dp4_fields(self):
        _assert_fraction_fields(dp4_check(DelPezzo4((1, 2, 3))))

    @given(c=st.fractions(min_value=Fraction(1, 50), max_value=50),
           beta=st.fractions(min_value=Fraction(1, 50), max_value=50))
    @settings(max_examples=300, deadline=None)
    def test_ke_criterion_matches_fraction_arithmetic(self, c, beta):
        assert ke_criterion(c, beta) is (1 / c < beta)


class TestReportInvariants:
    def test_inconsistent_beta_raises(self):
        fields = dict(c=INF, conditions=(), method="identity-cover")
        assert KeReport(delta=Fraction(2, 3), beta=Fraction(2), **fields).beta == 2
        # delta outside (0, 1) has no beta to check against.
        assert KeReport(delta=Fraction(0), beta=Fraction(1), **fields).beta == 1
        for delta, beta in ((Fraction(2, 3), Fraction(3)), (Fraction(1, 2), Fraction(1, 2)),
                            (Fraction(2, 3), Fraction(-2))):
            with pytest.raises(AssertionError, match="beta inconsistent with delta"):
                KeReport(delta=delta, beta=beta, **fields)

    def test_inconsistent_beta_raises_under_optimize(self):
        # The bare assert shows that -O strips assert statements in the child.
        script = (
            "from fractions import Fraction\n"
            "from orbke import INF, KeReport\n"
            "assert False\n"
            "try:\n"
            "    KeReport(delta=Fraction(2, 3), beta=Fraction(3), c=INF, conditions=(),\n"
            "             method='identity-cover')\n"
            "except AssertionError as exc:\n"
            "    print(exc)\n"
        )
        src = str(Path(orbke.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              capture_output=True, text=True, env=env)
        assert (proc.returncode, proc.stdout) == (0, "beta inconsistent with delta\n"), proc.stderr

    def test_dp2_rows(self):
        rng = random.Random(2501)
        lists = [()] + [
            tuple(rng.randint(1, 8) for _ in range(rng.randint(0, 6))) for _ in range(200)
        ]
        for sings in lists:
            rep = dp2_check(DelPezzo2(sings))
            _assert_rows_decide_the_verdict(rep)
            assert len(rep.conditions) == len(sings) + 1

    @pytest.mark.parametrize("lambdas", [
        (1, 2, 3), (Fraction(1, 2), Fraction(2, 3), 5), (-1, 1, 2),
        (1, 1, 2), (3, 1, 3), (2, 2, 2),
    ])
    def test_dp4_rows(self, lambdas):
        rep = dp4_check(DelPezzo4(lambdas))
        _assert_rows_decide_the_verdict(rep)
        assert rep.passes

    @pytest.mark.parametrize("entries", [
        (), ((4, 2),), ((4, 5),), ((1, 2), (1, 3), (1, 5), (1, 17)),
        ((1, 2), (1, 3), (1, 7), (1, 43)),
    ])
    def test_snc_rows(self, entries):
        _assert_rows_decide_the_verdict(snc_ke_check(SncFanoData(2, entries)))

    def test_passes_is_derived_not_stored(self):
        rep = dp2_check(DelPezzo2((1, 2)))
        assert "passes" not in {f.name for f in dataclasses.fields(KeReport)}
        assert "passes" not in dataclasses.asdict(rep)
        with pytest.raises(TypeError):
            KeReport(
                delta=rep.delta, beta=rep.beta, c=rep.c, passes=True,
                conditions=rep.conditions, method=rep.method,
            )
