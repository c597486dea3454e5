"""Acceptance gate: ten go/no-go criteria with pinned values and budgets.

Each criterion records one PASS/FAIL line; the lines are echoed after the
pytest summary (see conftest.py) and printed live under `pytest -s`.
Frozen counts (12 / 2484 / 8369332, the dimension-2 sets, the family
interval) are regression constants computed by this package and verified
against the independent brute-force oracle where feasible.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from fractions import Fraction

from orbke import (
    DelPezzo2,
    DelPezzo4,
    OracleConfig,
    SearchConfig,
    SncFanoData,
    admissible_last_interval,
    classify,
    count_coprime_in_range,
    dp2_check,
    dp4_check,
    enumerate_tuples,
    estimate_bp_threshold,
    estimate_monomial_threshold,
    make_tuple,
    monomial_lct,
    snc_ke_check,
    sylvester_family,
    sylvester_seq,
    verify_threshold,
)

from reference import brute_force_oracle

RESULTS: list[str] = []

GOLDEN = tuple((2, 3, 5, m) for m in (17, 19, 23, 29, 31, 37, 41, 43, 47, 49, 53, 59))

ORACLE_SEED = 20260814


def _criterion(num, label, budget_s, body):
    t0 = time.perf_counter()
    try:
        body()
        elapsed = time.perf_counter() - t0
        assert elapsed < budget_s, f"criterion {num} took {elapsed:.1f}s, budget {budget_s}s"
    except BaseException:
        line = f"FAIL  [{num:02d}] {label}"
        RESULTS.append(line)
        print(line)
        raise
    line = f"PASS  [{num:02d}] {label} ({elapsed:.2f}s)"
    RESULTS.append(line)
    print(line)


def test_criterion_01_dim2_golden_list():
    def body():
        res = enumerate_tuples(SearchConfig(n=2, classes=("NewOnlyKE",)))
        got = tuple(t.orders for t, _ in res.tuples)
        assert got == GOLDEN
        assert res.counts == {"NewOnlyKE": 12}

    _criterion(1, "dimension-2 new-only enumeration equals the 12-tuple list", 1.0, body)


def test_criterion_02_dim2_completeness():
    def body():
        # Brute scan of every sorted coprime tuple with entries <= 100.
        brute_new = {o for o, lab in brute_force_oracle(2, 100) if lab == "NewOnlyKE"}
        assert brute_new == set(GOLDEN)
        # Enumerator agrees with the oracle as sets on the shared range.
        res = enumerate_tuples(SearchConfig(n=2, classes=("NewOnlyKE",), max_order=100))
        assert {t.orders for t, _ in res.tuples} == brute_new
        # Exact tail: when the three leading reciprocals sum to S <= 1, the
        # old bound n*m*(S-1) < 1 holds for every last coordinate m, so a
        # new-only tuple needs S > 1.  Exhausting S > 1 with exact
        # arithmetic forces the prefix (2,3,5), whose admissible window
        # sits inside the scanned range, so the scan was complete.
        hot = []
        for m0 in itertools.count(2):
            if Fraction(3, m0) <= 1:
                break
            for m1 in itertools.count(m0 + 1):
                if Fraction(1, m0) + Fraction(2, m1) <= 1:
                    break
                if math.gcd(m0, m1) > 1:
                    continue
                for m2 in itertools.count(m1 + 1):
                    s = Fraction(1, m0) + Fraction(1, m1) + Fraction(1, m2)
                    if s <= 1:
                        break
                    if math.gcd(m2, m0 * m1) == 1:
                        hot.append((m0, m1, m2))
        assert hot == [(2, 3, 5)]
        window = admissible_last_interval((2, 3, 5), 2).by_class["NewOnlyKE"]
        assert window == (15, 60)
        assert window[1] <= 100

    _criterion(2, "dimension-2 new-only completeness (scan + exact tail)", 30.0, body)


def test_criterion_03_dim3_count():
    def body():
        res = enumerate_tuples(SearchConfig(n=3, mode="count"))
        assert res.counts == {"NewOnlyKE": 2484}
        assert 2484 >= 10**3

    _criterion(3, "dimension-3 new-only count is 2484 (>= 10^3)", 60.0, body)


def test_criterion_04_dim4_count():
    def body():
        res = enumerate_tuples(SearchConfig(n=4, mode="count"))
        assert res.counts == {"NewOnlyKE": 8369332}
        assert 8369332 >= 10**6

    _criterion(4, "dimension-4 new-only count is 8369332 (>= 10^6)", 600.0, body)


def test_criterion_05_sylvester_suite():
    def body():
        seq = sylvester_seq(8)
        assert seq[:6] == [2, 3, 7, 43, 1807, 3263443]
        for i in range(1, 8):
            assert seq[i] == math.prod(seq[:i]) + 1
            assert seq[i] == seq[i - 1] ** 2 - seq[i - 1] + 1
        for k in range(1, 9):
            prod = math.prod(seq[:k])
            partial = sum(Fraction(1, c) for c in seq[:k])
            assert partial + Fraction(1, prod) == 1

    _criterion(5, "sequence recursions and reciprocal identity through k=8", 10.0, body)


def test_criterion_06_family_range():
    def body():
        fam = sylvester_family(2)
        assert fam.last_interval == (5, 60)
        assert classify(make_tuple(2, (2, 3, 5, 59))).classification == "NewOnlyKE"
        assert classify(make_tuple(2, (2, 3, 5, 61))).classification == "NoCriterion"

    _criterion(6, "family interval (5,60): 59 passes, 61 does not", 10.0, body)


def test_criterion_07_cross_criterion_equivalence():
    def body():
        rng = random.Random(20260814)
        pool = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)
        for _ in range(10**4):
            n = rng.randint(1, 4)
            primes = rng.sample(pool, n + 2)
            orders = tuple(sorted(p ** rng.randint(1, 2) for p in primes))
            report = classify(make_tuple(n, orders))
            snc = snc_ke_check(SncFanoData(n, tuple((1, m) for m in orders)))
            assert snc.passes == (report.fano and report.new_ok), orders

    _criterion(7, "snc criterion equals the new bound on 10^4 random tuples", 120.0, body)


def test_criterion_08_del_pezzo():
    def body():
        for r in range(3):
            for sub in itertools.combinations_with_replacement((1, 2), r):
                assert dp2_check(DelPezzo2(sub)).passes, sub
        for bad in ((3,), (1, 3), (2, 2, 4), (1, 2, 3), (6,)):
            assert not dp2_check(DelPezzo2(bad)).passes, bad
        rng = random.Random(7)
        for _ in range(200):
            lams = tuple(
                Fraction(rng.choice([x for x in range(-6, 7) if x]), rng.randint(1, 4))
                for _ in range(3)
            )
            rep = dp4_check(DelPezzo4(lams))
            assert rep.passes
            want = (
                "disjoint-ramification"
                if len(set(lams)) == 3
                else "quotient-of-quadric"
            )
            assert rep.method == want, lams

    _criterion(8, "del Pezzo cases: A1/A2 pass, k>=3 fails; pencil methods", 30.0, body)


def test_criterion_09_oracle_agreement():
    def body():
        def grid(analytic):
            c = Fraction(analytic)
            return tuple(c * Fraction(60 + 5 * k, 100) for k in range(17))

        for exponents in ((1,), (2,), (4,)):
            analytic = monomial_lct(exponents)
            t0 = time.perf_counter()
            cfg = OracleConfig(lambda_grid=grid(analytic), seed=ORACLE_SEED)
            est = estimate_monomial_threshold(exponents, cfg)
            assert time.perf_counter() - t0 < 120.0
            assert verify_threshold(analytic, est, 0.1), (exponents, est.threshold_estimate)
        for n in (2, 3, 4):
            analytic = Fraction(2, n)
            t0 = time.perf_counter()
            cfg = OracleConfig(lambda_grid=grid(analytic), seed=ORACLE_SEED)
            est = estimate_bp_threshold(n, cfg)
            assert time.perf_counter() - t0 < 120.0
            assert verify_threshold(analytic, est, 0.1), (n, est.threshold_estimate)

    _criterion(9, "oracle thresholds within 10% of 1/a and 2/n", 720.0, body)


def test_criterion_10_coprime_counting():
    def body():
        rng = random.Random(31415)
        pool = (2, 3, 5, 7, 11, 13)
        for _ in range(100):
            lo = rng.randint(-(10**6), 10**6)
            hi = lo + rng.randint(0, 10**4)
            primes = tuple(rng.sample(pool, rng.randint(0, len(pool))))
            modulus = math.prod(primes) if primes else 1
            brute = sum(1 for k in range(lo, hi + 1) if math.gcd(k, modulus) == 1)
            assert count_coprime_in_range(lo, hi, primes) == brute, (lo, hi, primes)

    _criterion(10, "coprime counting equals brute scan on 100 instances", 60.0, body)
