"""Input validation at every public entry point.

An integer input is any numbers.Integral but bool (errors.check_int), a
sequence of orders is checked by orbifold.check_orders, and a rejected
value raises InputError (exit 1 through the CLI) rather than a TypeError
later or a silent truncation.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from orbke import (
    DelPezzo2,
    OracleConfig,
    SearchConfig,
    SncFanoData,
    admissible_last_interval,
    brute_force_oracle,
    classify,
    count_coprime_in_range,
    count_new,
    estimate_bp_threshold,
    estimate_monomial_threshold,
    factorize,
    make_tuple,
    monomial_lct,
    snc_threshold,
    sylvester_family,
    sylvester_seq,
    verify_threshold,
)
from orbke.errors import (
    InputError,
    OrderBelowMinimum,
    PairwiseCoprimeViolation,
    check_int,
    check_rational,
)
from orbke.oracle import ExponentEstimate
from orbke.orbifold import RamTuple, check_orders

GRID = tuple(Fraction(k, 4) for k in range(1, 9))

# Each entry point with one integer argument replaced by x.  Unit orders are
# admitted where an order or a cap of 1 would let True pass as 1.
ENTRY_POINTS = {
    "make_tuple-n": lambda x: make_tuple(x, [2, 3, 5, 17]),
    "make_tuple-order": lambda x: make_tuple(2, [x, 3, 5, 17], min_order=1),
    "make_tuple-min_order": lambda x: make_tuple(2, [2, 3, 5, 17], min_order=x),
    "RamTuple-n": lambda x: RamTuple(x, (2, 3, 5, 17)),
    "RamTuple-order": lambda x: RamTuple(2, (x, 3, 5, 17)),
    "SearchConfig-n": lambda x: SearchConfig(n=x),
    "SearchConfig-min_order": lambda x: SearchConfig(n=2, min_order=x, max_order=10),
    "SearchConfig-max_order": lambda x: SearchConfig(n=2, min_order=1, max_order=x),
    "SearchConfig-parallel_width": lambda x: SearchConfig(n=2, parallel_width=x),
    "SearchConfig-node_cap": lambda x: SearchConfig(n=2, node_cap=x),
    "SearchConfig-prefix_filter": lambda x: SearchConfig(
        n=2, min_order=1, max_order=10, prefix_filter=(x, 3)),
    "admissible_last_interval-n": lambda x: admissible_last_interval((2, 3, 5), x),
    "admissible_last_interval-prefix": lambda x: admissible_last_interval((x, 3, 5), 2),
    "sylvester_seq": lambda x: sylvester_seq(x),
    "sylvester_family": lambda x: sylvester_family(x),
    "count_new": lambda x: count_new(x),
    "brute_force_oracle-n": lambda x: brute_force_oracle(x, 10),
    "brute_force_oracle-max_order": lambda x: brute_force_oracle(2, x, min_order=1),
    "brute_force_oracle-min_order": lambda x: brute_force_oracle(2, 10, min_order=x),
    "factorize": lambda x: factorize(x),
    "count_coprime_in_range-lo": lambda x: count_coprime_in_range(x, 10, (2,)),
    "count_coprime_in_range-hi": lambda x: count_coprime_in_range(1, x, (2,)),
    "count_coprime_in_range-prime": lambda x: count_coprime_in_range(1, 10, (x,)),
    "SncFanoData-n": lambda x: SncFanoData(x, ((4, 2),)),
    "SncFanoData-degree": lambda x: SncFanoData(2, ((x, 2),)),
    "SncFanoData-order": lambda x: SncFanoData(2, ((4, x),)),
    "DelPezzo2": lambda x: DelPezzo2((x,)),
    "snc_threshold": lambda x: snc_threshold([x]),
    "monomial_lct": lambda x: monomial_lct([x, 2]),
    "OracleConfig-samples_per_shell": lambda x: OracleConfig(
        samples_per_shell=x, lambda_grid=GRID),
    "OracleConfig-seed": lambda x: OracleConfig(lambda_grid=GRID, seed=x),
    "OracleConfig-lambda_grid": lambda x: OracleConfig(lambda_grid=(x, 3, 4)),
    "classify": lambda x: classify(RamTuple(1, (x, 3, 5))),
    "check_orders": lambda x: check_orders([x, 3], 1),
    "estimate_monomial_threshold": lambda x: estimate_monomial_threshold(
        [x], OracleConfig(lambda_grid=GRID)),
    "estimate_bp_threshold": lambda x: estimate_bp_threshold(x, OracleConfig(lambda_grid=GRID)),
}


@pytest.mark.parametrize("bad", [2.7, "2", True], ids=repr)
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_non_integers_and_bools_are_rejected(entry, bad):
    with pytest.raises(InputError):
        ENTRY_POINTS[entry](bad)


def test_numpy_integers_are_accepted_as_int():
    t = make_tuple(np.int64(2), np.array([17, 2, 5, 3]), min_order=np.int64(2))
    assert t.orders == (2, 3, 5, 17) and all(type(m) is int for m in (t.n, *t.orders))
    data = SncFanoData(np.int64(2), ((np.int64(4), np.int64(2)),))
    assert data.entries == ((4, 2),) and all(type(v) is int for v in (data.n, *data.entries[0]))
    assert monomial_lct(np.array([2, 3])) == Fraction(1, 3)
    assert factorize(np.int64(12)).primes == (2, 3)
    cfg = SearchConfig(n=np.int64(2), max_order=np.int64(60), classes=("NewOnlyKE", "OldKE"))
    assert type(cfg.n) is int and type(cfg.max_order) is int
    t = RamTuple(np.int64(2), tuple(np.array([2, 3, 5, 17])))
    assert t == RamTuple(2, (2, 3, 5, 17)) and all(type(m) is int for m in (t.n, *t.orders))


def test_check_int_bounds_raise_the_given_error():
    assert check_int(np.int32(5), "x", 1, 5) == 5
    with pytest.raises(InputError, match=r"x must be in 1\.\.5, got 6"):
        check_int(6, "x", 1, 5)
    with pytest.raises(OrderBelowMinimum, match="x must be >= 2, got 1"):
        check_int(1, "x", 2, error=OrderBelowMinimum)
    with pytest.raises(InputError, match="x must be <= 0, got 1"):
        check_int(1, "x", hi=0)


def test_check_rational():
    assert check_rational(np.int64(3), "x") == 3
    assert check_rational(Fraction(1, 3), "x") == Fraction(1, 3)
    for bad in (0.5, "1/2", True):
        with pytest.raises(InputError):
            check_rational(bad, "x")


class TestCheckOrders:
    def test_returns_plain_ints(self):
        assert check_orders((np.int64(1), 1, 2, 3), 1) == (1, 1, 2, 3)

    def test_below_minimum(self):
        with pytest.raises(OrderBelowMinimum):
            check_orders((1, 3, 5), 2)

    def test_unsorted(self):
        with pytest.raises(InputError, match="sorted"):
            check_orders((3, 2, 5), 2)

    @pytest.mark.parametrize(
        "orders, message",
        [((2, 3, 4, 5), "gcd(2,4)=2"), ((2, 3, 9, 10), "gcd(3,9)=3"), ((5, 7, 35), "gcd(5,35)=5")],
    )
    def test_names_the_first_shared_prime(self, orders, message):
        with pytest.raises(PairwiseCoprimeViolation) as info:
            check_orders(orders, 2)
        assert str(info.value) == message

    def test_search_pins_checked_prefix(self):
        cfg = SearchConfig(n=2, prefix_filter=(np.int64(2), 3))
        assert cfg.prefix_filter == (2, 3) and all(type(m) is int for m in cfg.prefix_filter)
        for pf in ((3, 2), (2, 4), (1, 3)):
            with pytest.raises(InputError):
                SearchConfig(n=2, prefix_filter=pf)


ESTIMATE = ExponentEstimate(
    threshold_estimate=0.5, confidence_halfwidth=0.1,
    per_lambda_slopes=((Fraction(1, 4), 0.0), (Fraction(3, 4), -1.0)),
)


@pytest.mark.parametrize("tol", ["0.1", True, 0, -0.1, math.inf, math.nan], ids=repr)
def test_tolerance_is_one_check(tol):
    with pytest.raises(InputError, match="tolerance"):
        OracleConfig(lambda_grid=GRID, tolerance=tol)
    with pytest.raises(InputError, match="tolerance"):
        verify_threshold(Fraction(1, 2), ESTIMATE, tol)


def test_tolerance_accepts_real_numbers():
    cfg = OracleConfig(lambda_grid=GRID, tolerance=Fraction(1, 10))
    assert cfg.tolerance == 0.1 and type(cfg.tolerance) is float
    assert verify_threshold(Fraction(1, 2), ESTIMATE, np.float64(0.01))
    assert verify_threshold(Fraction(2, 5), ESTIMATE, 1)
    assert not verify_threshold(Fraction(2, 5), ESTIMATE, 0.2)


@pytest.mark.parametrize("bad", ["1e-9", True, None], ids=repr)
def test_cutoffs_must_be_real_numbers(bad):
    cuts = [1e-8, bad, 1e-10, 1e-11, 1e-12]
    with pytest.raises(InputError, match="cutoffs must be real numbers"):
        OracleConfig(lambda_grid=GRID, cutoffs=tuple(cuts))


def test_cutoffs_accept_real_numbers():
    cfg = OracleConfig(lambda_grid=GRID, cutoffs=(
        Fraction(1, 10**8), np.float64(1e-9), 1e-10, np.float32(1e-11), 1e-12))
    assert all(type(e) is float for e in cfg.cutoffs)
