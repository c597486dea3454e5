"""Monte-Carlo integrability oracle: protocol validation, determinism,
slope behavior at the grid extremes, and threshold recovery.

Module tests run with reduced sample counts to stay fast; the full-budget
agreement runs for every acceptance case live in test_acceptance.py.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from orbke import (
    OracleConfig,
    estimate_bp_threshold,
    estimate_monomial_threshold,
    monomial_lct,
    verify_threshold,
)
from orbke.errors import InputError, ThresholdOutsideGrid
from orbke.oracle import MAX_CELLS, MAX_EVALUATIONS, _check_work

# Shallower ladder + fewer samples: ~10x faster, still adequate for the
# coarse checks below (acceptance runs use the defaults).
FAST = dict(samples_per_shell=8_000, cutoffs=tuple(10.0**-k for k in range(8, 17, 2)))


def grid_around(analytic):
    center = Fraction(analytic)
    return tuple(center * Fraction(60 + 5 * k, 100) for k in range(17))


class TestOracleConfigValidation:
    def test_defaults_need_only_a_grid(self):
        cfg = OracleConfig(lambda_grid=grid_around(1))
        assert cfg.samples_per_shell == 40_000
        assert len(cfg.cutoffs) == 9

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(samples_per_shell=10),
            dict(samples_per_shell=2.5),
            dict(cutoffs=(0.5, 0.25)),
            dict(cutoffs=(0.5, 0.25, 0.5, 0.1, 0.05)),
            dict(cutoffs=(2.0, 1.0, 0.5, 0.25, 0.1)),
            dict(cutoffs=(1.0, 0.5, 0.25, 0.125, 0.0625)),
            dict(lambda_grid=(1, 2)),
            dict(lambda_grid=(2, 1, 3)),
            dict(lambda_grid=(0, 1, 2)),
            dict(seed=-1),
            dict(seed=1.5),
            dict(seed=2**63),
            dict(tolerance=0),
            dict(tolerance=float("inf")),
        ],
    )
    def test_rejects_bad_configs(self, kwargs):
        base = dict(lambda_grid=(Fraction(1, 2), 1, Fraction(3, 2)))
        base.update(kwargs)
        with pytest.raises(InputError):
            OracleConfig(**base)


class TestWorkCaps:
    # Every config here is one unit over a cap; the estimators must refuse
    # it before sampling, so none of these tests allocates a large array.
    CUTS = (0.5, 0.25, 0.125, 0.0625, 0.03125)

    def test_monomial_cells_cap(self):
        cfg = OracleConfig(
            samples_per_shell=MAX_CELLS // 2 + 1, cutoffs=self.CUTS,
            lambda_grid=grid_around(Fraction(1, 2)),
        )
        with pytest.raises(InputError, match="array cells"):
            estimate_monomial_threshold((1, 2), cfg)

    def test_bp_cells_cap_before_roots(self):
        cfg = OracleConfig(samples_per_shell=1000, cutoffs=self.CUTS, lambda_grid=(1, 2, 3))
        with pytest.raises(InputError, match="array cells"):
            estimate_bp_threshold(MAX_CELLS // 1000 + 1, cfg)

    def test_evaluations_cap(self):
        samples = 1_000_000
        points = MAX_EVALUATIONS // (samples * len(self.CUTS)) + 1
        cfg = OracleConfig(
            samples_per_shell=samples, cutoffs=self.CUTS,
            lambda_grid=tuple(range(1, points + 1)),
        )
        with pytest.raises(InputError, match="evaluations"):
            estimate_monomial_threshold((1,), cfg)

    def test_caps_are_inclusive(self):
        samples = MAX_CELLS // 4
        points = MAX_EVALUATIONS // (samples * len(self.CUTS))
        cfg = OracleConfig(
            samples_per_shell=samples, cutoffs=self.CUTS,
            lambda_grid=tuple(range(1, points + 1)),
        )
        assert samples * 4 == MAX_CELLS
        assert samples * len(self.CUTS) * points == MAX_EVALUATIONS
        _check_work(cfg, 4)


class TestNoAdmissibleSamples:
    def test_bp_cutoffs_above_the_inradius(self):
        # For n = 2 the two lines have orthogonal normals, so the squared
        # distances to them sum to |x|^2 <= 1 and no point of the ball is
        # farther than 1/sqrt(2) from both: every draw is cut away.
        cfg = OracleConfig(
            samples_per_shell=1000, cutoffs=(0.9, 0.8, 0.75, 0.72, 0.71),
            lambda_grid=grid_around(1),
        )
        with pytest.raises(InputError, match="no admissible samples at cutoff 0.9"):
            estimate_bp_threshold(2, cfg)


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        cfg = OracleConfig(lambda_grid=grid_around(1), seed=7, **FAST)
        a = estimate_monomial_threshold((1,), cfg)
        b = estimate_monomial_threshold((1,), cfg)
        assert a.threshold_estimate == b.threshold_estimate
        assert a.per_lambda_slopes == b.per_lambda_slopes

    def test_different_seed_different_noise(self):
        g = grid_around(1)
        a = estimate_monomial_threshold((1,), OracleConfig(lambda_grid=g, seed=1, **FAST))
        b = estimate_monomial_threshold((1,), OracleConfig(lambda_grid=g, seed=2, **FAST))
        assert a.per_lambda_slopes != b.per_lambda_slopes

    def test_bp_same_seed_bit_identical(self):
        cfg = OracleConfig(lambda_grid=grid_around(1), seed=11, **FAST)
        a = estimate_bp_threshold(2, cfg)
        b = estimate_bp_threshold(2, cfg)
        assert a.threshold_estimate == b.threshold_estimate
        assert a.per_lambda_slopes == b.per_lambda_slopes


class TestMonomialThreshold:
    @pytest.mark.parametrize("exponents", [(1,), (2,), (1, 2)])
    def test_recovers_analytic_threshold(self, exponents):
        analytic = monomial_lct(exponents)
        cfg = OracleConfig(lambda_grid=grid_around(analytic), **FAST)
        est = estimate_monomial_threshold(exponents, cfg)
        assert verify_threshold(analytic, est, 0.1)
        assert est.confidence_halfwidth > 0

    def test_slopes_flat_below_and_steep_above(self):
        # At lambda = lambda*/2 the integral converges (slope ~ 0); at
        # 2 lambda* it grows like eps^(2a(lambda* - lambda)) = eps^-2.
        cfg = OracleConfig(
            lambda_grid=(Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), 1),
            **FAST,
        )
        est = estimate_monomial_threshold((2,), cfg)
        slopes = dict(est.per_lambda_slopes)
        assert abs(slopes[Fraction(1, 4)]) < 0.05
        assert slopes[1] == pytest.approx(-2.0, rel=0.05)

    def test_threshold_below_grid(self):
        cfg = OracleConfig(lambda_grid=(2, 3, 4), **FAST)
        with pytest.raises(ThresholdOutsideGrid) as exc:
            estimate_monomial_threshold((1,), cfg)
        assert exc.value.direction == "below"

    def test_threshold_above_grid(self):
        cfg = OracleConfig(
            lambda_grid=(Fraction(1, 10), Fraction(2, 10), Fraction(3, 10)), **FAST
        )
        with pytest.raises(ThresholdOutsideGrid) as exc:
            estimate_monomial_threshold((1,), cfg)
        assert exc.value.direction == "above"

    def test_rejects_bad_exponents(self):
        cfg = OracleConfig(lambda_grid=grid_around(1), **FAST)
        with pytest.raises(InputError):
            estimate_monomial_threshold((), cfg)
        with pytest.raises(InputError):
            estimate_monomial_threshold((0,), cfg)


class TestBpThreshold:
    def test_recovers_n2(self):
        cfg = OracleConfig(lambda_grid=grid_around(1), **FAST)
        est = estimate_bp_threshold(2, cfg)
        assert verify_threshold(1, est, 0.1)

    def test_estimate_inside_grid(self):
        cfg = OracleConfig(lambda_grid=grid_around(Fraction(2, 3)), **FAST)
        est = estimate_bp_threshold(3, cfg)
        lams = [float(l) for l, _ in est.per_lambda_slopes]
        assert min(lams) <= est.threshold_estimate <= max(lams)

    def test_rejects_n_below_two(self):
        cfg = OracleConfig(lambda_grid=grid_around(1), **FAST)
        with pytest.raises(InputError):
            estimate_bp_threshold(1, cfg)


class TestVerifyThreshold:
    def _fake(self, value):
        cfg = OracleConfig(lambda_grid=grid_around(1), **FAST)
        est = estimate_monomial_threshold((1,), cfg)
        return type(est)(
            threshold_estimate=value,
            confidence_halfwidth=est.confidence_halfwidth,
            per_lambda_slopes=est.per_lambda_slopes,
        )

    def test_accepts_within_tolerance(self):
        assert verify_threshold(1, self._fake(1.02), 0.1)

    def test_rejects_outside_tolerance(self):
        assert not verify_threshold(Fraction(1, 2), self._fake(0.7), 0.1)

    def test_boundary_is_inclusive(self):
        # Dyadic boundary so the float comparison is exact.
        assert verify_threshold(1, self._fake(1.0625), 0.0625)

    def test_rejects_bad_tolerance(self):
        with pytest.raises(InputError):
            verify_threshold(1, self._fake(1.0), 0)
        # An infinite tolerance would pass every estimate.
        with pytest.raises(InputError):
            verify_threshold(1, self._fake(1.0), float("inf"))
