"""Monte-Carlo integrability oracle: protocol validation, determinism,
slope behavior at the grid extremes, threshold recovery, and the row-layout
integrands against their complex (samples, lines) references.

Module tests run with reduced sample counts to stay fast; the full-budget
agreement runs for every acceptance case live in test_acceptance.py.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from orbke import (
    OracleConfig,
    estimate_bp_threshold,
    estimate_monomial_threshold,
    monomial_lct,
    verify_threshold,
)
from orbke.errors import InputError, ThresholdOutsideGrid
from orbke.oracle import (
    MAX_CELLS,
    MAX_EVALUATIONS,
    _bp_sampler,
    _check_work,
    _estimate,
    _log_mean_exp,
    _monomial_sampler,
    _shell_rng,
)

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


# ---------------------------------------------------------------------------
# Reference integrands: the (samples, lines) layout in complex arithmetic
# that the row layout replaced.  Same draws in the same order.


def _reference_monomial(exps, n_s):
    a_vec = np.array(exps, dtype=float)

    def sample(rng, eps):
        k = len(exps)
        pick_log = rng.random((n_s, k)) < 0.5
        u = rng.random((n_s, k))
        r_area = np.sqrt(eps * eps + u * (1 - eps * eps))
        r_log = np.exp(u * math.log(eps))
        r = np.where(pick_log, r_log, r_area)
        dens = 0.5 * (2 * r / (1 - eps * eps)) + 0.5 / (r * math.log(1 / eps))
        log_w = (np.log(2 * math.pi * r) - np.log(dens)).sum(axis=1)
        return np.log(r) @ a_vec, log_w, np.ones(n_s, dtype=bool)

    return sample


def _reference_direction_times_radius(rng, size, radius):
    g = rng.standard_normal((size, 4))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    xy = g * radius(rng.random(size))[:, None]
    return xy[:, 0] + 1j * xy[:, 1], xy[:, 2] + 1j * xy[:, 3]


def _reference_bp(n, n_s):
    zetas = np.array([np.exp(1j * math.pi * (2 * j + 1) / n) for j in range(n)])
    inv_sqrt2 = 1 / math.sqrt(2)
    w_ball, w_origin, w_tube = 0.4, 0.3, 0.3
    vol_ball = math.pi ** 2 / 2
    area_s3 = 2 * math.pi ** 2

    def sample(rng, eps):
        log_inv_eps = math.log(1 / eps)
        comp = rng.choice(3, size=n_s, p=[w_ball, w_origin, w_tube])
        u = np.empty(n_s, dtype=complex)
        v = np.empty(n_s, dtype=complex)
        for c_id, radius in ((0, lambda t: t ** 0.25), (1, lambda t: np.exp(t * math.log(eps)))):
            idx = np.flatnonzero(comp == c_id)
            if idx.size:
                u[idx], v[idx] = _reference_direction_times_radius(rng, idx.size, radius)
        tube_idx = np.flatnonzero(comp == 2)
        if tube_idx.size:
            tube_line = rng.integers(0, n, size=tube_idx.size)
            c = np.sqrt(rng.random(tube_idx.size)) * np.exp(
                1j * rng.random(tube_idx.size) * 2 * math.pi)
            tube_rad = np.exp(rng.random(tube_idx.size) * math.log(eps))
            w = tube_rad * np.exp(1j * rng.random(tube_idx.size) * 2 * math.pi)
            z = zetas[tube_line]
            u[tube_idx] = (c * z + w) * inv_sqrt2
            v[tube_idx] = (c - w * np.conj(z)) * inv_sqrt2
        norm2 = (u * np.conj(u) + v * np.conj(v)).real
        w_abs = np.abs((u[:, None] - v[:, None] * zetas[None, :]) * inv_sqrt2)
        if tube_idx.size:
            w_abs[tube_idx, tube_line] = tube_rad
        c_all = (u[:, None] * np.conj(zetas)[None, :] + v[:, None]) * inv_sqrt2
        mask = (norm2 <= 1.0) & (w_abs.min(axis=1) >= eps)
        dens = np.zeros(n_s)
        dens += w_ball * (norm2 <= 1.0) / vol_ball
        rad = np.sqrt(norm2)
        with np.errstate(divide="ignore"):
            dens += np.where((rad >= eps) & (rad <= 1.0),
                             w_origin / (area_s3 * log_inv_eps * rad ** 4), 0.0)
        tube_ok = (np.abs(c_all) <= 1.0) & (w_abs >= eps) & (w_abs <= 1.0)
        dens += w_tube * np.where(
            tube_ok, 1.0 / (math.pi * 2 * math.pi * w_abs ** 2 * log_inv_eps), 0.0
        ).sum(axis=1) / n
        with np.errstate(divide="ignore"):
            log_f = np.where(mask, np.log(w_abs).sum(axis=1) + n * math.log(math.sqrt(2)), 0.0)
            log_w = np.where(mask, -np.log(dens), 0.0)
        return log_f, log_w, mask

    return sample


REFERENCE_SAMPLES = 2000
REFERENCE_SHELLS = (0, 4, 8)
DEFAULT_CUTOFFS = OracleConfig(lambda_grid=(1, 2, 3)).cutoffs


def _assert_same_integrand(sampler, reference, seed):
    # One sampler serves every shell, as in _estimate, so its reused scratch
    # is exercised across shells.
    for shell in REFERENCE_SHELLS:
        eps = DEFAULT_CUTOFFS[shell]
        log_f, log_w, mask = sampler(_shell_rng(seed, shell), eps)
        ref_f, ref_w, ref_mask = reference(_shell_rng(seed, shell), eps)
        np.testing.assert_array_equal(mask, ref_mask)
        assert mask.any()
        # Both logs pass through zero, where no relative bound holds; the
        # 1e-14 floor is about 50 ulps of 1.0.
        np.testing.assert_allclose(log_f[mask], ref_f[mask], rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(log_w[mask], ref_w[mask], rtol=1e-12, atol=1e-14)


class TestRowLayoutMatchesReference:
    @pytest.mark.parametrize("seed", [3, 20260814])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_bp(self, n, seed):
        _assert_same_integrand(
            _bp_sampler(n, REFERENCE_SAMPLES), _reference_bp(n, REFERENCE_SAMPLES), seed
        )

    @pytest.mark.parametrize("seed", [3, 20260814])
    @pytest.mark.parametrize("exps", [(1,), (4,), (1, 3), (2, 2, 5)])
    def test_monomial(self, exps, seed):
        _assert_same_integrand(
            _monomial_sampler(exps, REFERENCE_SAMPLES),
            _reference_monomial(exps, REFERENCE_SAMPLES), seed,
        )


class TestInPlaceIntegration:
    @pytest.mark.parametrize("make, arg, k_coeff, analytic", [
        (_bp_sampler, 3, 6.0, Fraction(2, 3)),
        (_monomial_sampler, (1, 2), 4.0, Fraction(1, 2)),
    ])
    def test_estimate_leaves_sampler_arrays_alone(self, make, arg, k_coeff, analytic):
        cfg = OracleConfig(lambda_grid=grid_around(analytic), **FAST)
        inner = make(arg, cfg.samples_per_shell)
        seen = []

        def spy(rng, eps):
            out = inner(rng, eps)
            seen.append((out, tuple(a.copy() for a in out)))
            return out

        _estimate(spy, k_coeff, cfg)
        assert len(seen) == len(cfg.cutoffs)
        for out, copies in seen:
            for got, want in zip(out, copies):
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("center", [800.0, -800.0])
    def test_log_mean_exp_is_stable_near_800(self, center):
        # exp(800) overflows and exp(-800) underflows, so only the shift by
        # the maximum keeps the result finite.
        arg = center + np.random.default_rng(5).uniform(-30.0, 2.0, 500)
        total = 640
        top = float(arg.max())
        want = top + math.log(math.fsum(math.exp(a - top) for a in arg) / total)
        got = _log_mean_exp(arg.copy(), total)
        assert math.isfinite(got)
        assert got == pytest.approx(want, rel=1e-14)
