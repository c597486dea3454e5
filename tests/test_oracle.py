"""Monte-Carlo integrability oracle: protocol validation, determinism,
slope behavior at the grid extremes, threshold recovery over seeds and
edge inputs, and the sampler's weights against the volume of the domain.

Module tests run with reduced sample counts to stay fast; the full-budget
agreement runs for every acceptance case live in test_acceptance.py.
"""

from __future__ import annotations

import math
import threading
import warnings
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
from orbke import oracle
from orbke.errors import InputError, ThresholdOutsideGrid
from orbke.oracle import (
    MAX_CELLS,
    MAX_EVALUATIONS,
    MAX_GRID_POINTS,
    MAX_POWER,
    _check_work,
    _estimate,
    _integrate_ladder,
    _power_sampler,
    _rng,
    _slope_fit,
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
            # Grids that the Fractions order but the floats do not: they
            # overflow, flush to zero or merge neighbors.
            dict(lambda_grid=tuple(k * Fraction(10 ** 400) for k in (1, 2, 3))),
            dict(lambda_grid=tuple(Fraction(k, 10 ** 400) for k in (1, 2, 3))),
            dict(lambda_grid=tuple(1 + Fraction(k, 10 ** 30) for k in (0, 1, 2))),
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

    @pytest.fixture(autouse=True)
    def no_sampler(self, monkeypatch):
        # The caps are checked before the sampler is called, so calling it
        # here fails the test instead of raising the cap's InputError.
        def sample(*args):
            raise AssertionError("sampler called before the work caps were checked")

        monkeypatch.setattr(oracle, "_power_sampler", sample)

    def test_monomial_cells_cap(self):
        cfg = OracleConfig(
            samples_per_shell=MAX_CELLS // 2 + 1, cutoffs=self.CUTS,
            lambda_grid=grid_around(Fraction(1, 2)),
        )
        with pytest.raises(InputError, match="array cells"):
            estimate_monomial_threshold((1, 2), cfg)

    def test_bp_cells_cap(self):
        # u^n + v^n has two coordinates whatever n is.
        cfg = OracleConfig(
            samples_per_shell=MAX_CELLS // 2 + 1, cutoffs=self.CUTS, lambda_grid=(1, 2, 3),
        )
        with pytest.raises(InputError, match="array cells"):
            estimate_bp_threshold(3, cfg)

    def test_powers_cap(self):
        cfg = OracleConfig(samples_per_shell=1000, cutoffs=self.CUTS, lambda_grid=(1, 2, 3))
        with pytest.raises(InputError, match="exponent"):
            estimate_monomial_threshold((1, MAX_POWER + 1), cfg)
        with pytest.raises(InputError, match="n must be"):
            estimate_bp_threshold(MAX_POWER + 1, cfg)

    def test_evaluations_cap(self):
        # The one draw is evaluated at every probe point and compared at
        # every cut: 999,001 x (996 + 5) = 10^9 + 1 evaluations.
        samples = 999_001
        points = 996
        cfg = OracleConfig(
            samples_per_shell=samples, cutoffs=self.CUTS,
            lambda_grid=tuple(range(1, points + 1)),
        )
        assert samples * (points + len(self.CUTS)) == MAX_EVALUATIONS + 1
        with pytest.raises(InputError, match="evaluations"):
            estimate_monomial_threshold((1,), cfg)

    def test_grid_points_cap(self):
        # API callers skip the CLI's grid parser, so the config itself
        # refuses more than MAX_GRID_POINTS probe points.
        grid = tuple(range(1, MAX_GRID_POINTS + 1))
        cfg = OracleConfig(samples_per_shell=1000, cutoffs=self.CUTS, lambda_grid=grid)
        assert len(cfg.lambda_grid) == MAX_GRID_POINTS
        with pytest.raises(InputError, match=f"lambda_grid has {MAX_GRID_POINTS + 1} points"):
            OracleConfig(samples_per_shell=1000, cutoffs=self.CUTS,
                         lambda_grid=grid + (MAX_GRID_POINTS + 1,))

    def test_caps_are_inclusive(self):
        samples = MAX_CELLS // 4
        points = MAX_EVALUATIONS // samples - len(self.CUTS)
        cfg = OracleConfig(
            samples_per_shell=samples, cutoffs=self.CUTS,
            lambda_grid=tuple(range(1, points + 1)),
        )
        assert samples * 4 == MAX_CELLS
        assert samples * (points + len(self.CUTS)) == MAX_EVALUATIONS
        _check_work(cfg, 4)


class TestNoAdmissibleSamples:
    def test_cut_above_almost_all_of_the_polydisc(self):
        # |z_1 ... z_50| > 0.9 needs every radius within about 0.002 of 1
        # on average: a set of volume far below 1e-50 of the polydisc's.
        cfg = OracleConfig(
            samples_per_shell=1000, cutoffs=(0.9, 0.8, 0.75, 0.72, 0.71),
            lambda_grid=grid_around(1),
        )
        with pytest.raises(InputError, match="no admissible samples at cutoff 0.9"):
            estimate_monomial_threshold((1,) * 50, cfg)


class TestHugeGrids:
    """A lambda grid too large for float arithmetic is an input error, not a direction."""

    @staticmethod
    def _grid(scale):
        return tuple(Fraction(k * 10**scale) for k in (1, 2, 3))

    @pytest.mark.parametrize("estimate, arg", [
        (estimate_monomial_threshold, (1,)), (estimate_bp_threshold, 2),
    ])
    @pytest.mark.parametrize("scale, message", [
        (307, "-2 lambda log|f| overflows a float at lambda = 1e+307"),
        (160, "the slope fit of log I"),
    ])
    def test_rejected_without_warnings(self, estimate, arg, scale, message):
        cfg = OracleConfig(samples_per_shell=2000, lambda_grid=self._grid(scale), seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError) as info:
                estimate(arg, cfg)
        assert str(info.value).startswith(message)

    def test_log_i_overflow_is_rejected(self, monkeypatch):
        # -2 lambda log f = 1e308 is finite, but adding log w = 1.7e308 is not.
        def sample(powers, is_sum, n_s, rng, eps):
            return np.full(n_s, -1.0), np.full(n_s, 1.7e308), np.ones(n_s, dtype=bool)

        monkeypatch.setattr(oracle, "_power_sampler", sample)
        cfg = OracleConfig(samples_per_shell=1000,
                           lambda_grid=tuple(Fraction(k * 10**307) for k in (5, 6, 7)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="log I is not a finite float at lambda = 5e"):
                _estimate((1,), False, cfg)

    def test_slope_fit_overflow_is_rejected(self):
        log_eps = np.log(OracleConfig(lambda_grid=(1, 2, 3)).cutoffs)
        row = np.array([k * 1e160 * (-1) ** k for k in range(len(log_eps))])
        # One fit over every row: the row out of range is the one named.
        log_i = np.stack([np.zeros_like(row), row * 1e-10, row, 2 * row])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="the slope fit of log I [(]up to 8e[+]160[)]"):
                _slope_fit(log_eps, log_i)
            # Just inside the float range the fit goes through.
            slopes, ses = _slope_fit(log_eps, log_i[:2])
        assert all(map(math.isfinite, slopes + ses))
        assert slopes[0] == ses[0] == 0.0


class TestNoCutoffFloor:
    """Radii, |f| and densities are logs, so a ladder down to 1e-300 (and a
    cut t^d far below the doubles) estimates as well as the default one."""

    @pytest.mark.parametrize("estimate, arg, analytic", [
        (estimate_bp_threshold, 2, 1),
        (estimate_monomial_threshold, [2], monomial_lct([2])),
    ])
    def test_within_tolerance_at_1e_300(self, estimate, arg, analytic):
        cuts = tuple(10.0 ** -k for k in range(296, 301))
        cfg = OracleConfig(samples_per_shell=4000, cutoffs=cuts,
                           lambda_grid=grid_around(analytic), seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = estimate(arg, cfg)
        assert verify_threshold(analytic, est, 0.1)


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
    @pytest.mark.parametrize("exponents", [(1,), (2,), (1, 2), (100,), (1, 2, 3), (3, 5, 7)])
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

    def test_grid_miss_is_an_input_error_naming_its_direction(self):
        # One of the two error families, so the CLI exits 1 on it with no
        # clause of its own, and its message carries the direction.
        exc = ThresholdOutsideGrid("below", "the threshold lies below the grid")
        assert isinstance(exc, InputError) and isinstance(exc, ValueError)
        assert exc.direction == "below"
        assert str(exc) == "threshold outside grid (below): the threshold lies below the grid"

    def test_rejects_bad_exponents(self):
        cfg = OracleConfig(lambda_grid=grid_around(1), **FAST)
        with pytest.raises(InputError):
            estimate_monomial_threshold((), cfg)
        with pytest.raises(InputError):
            estimate_monomial_threshold((0,), cfg)


class TestBpThreshold:
    @pytest.mark.parametrize("n", [2, 10, 50])
    def test_recovers_analytic_threshold(self, n):
        cfg = OracleConfig(lambda_grid=grid_around(Fraction(2, n)), **FAST)
        est = estimate_bp_threshold(n, cfg)
        assert verify_threshold(Fraction(2, n), est, 0.1)

    def test_estimate_inside_grid(self):
        cfg = OracleConfig(lambda_grid=grid_around(Fraction(2, 3)), **FAST)
        est = estimate_bp_threshold(3, cfg)
        lams = [float(l) for l, _ in est.per_lambda_slopes]
        assert min(lams) <= est.threshold_estimate <= max(lams)

    def test_rejects_n_below_two(self):
        cfg = OracleConfig(lambda_grid=grid_around(1), **FAST)
        with pytest.raises(InputError):
            estimate_bp_threshold(1, cfg)


class TestSeeds:
    # The benchmark's oracle inputs at the default config, over other seeds.
    @pytest.mark.parametrize("estimate, arg, analytic", [
        (estimate_monomial_threshold, (1,), 1),
        (estimate_monomial_threshold, (2,), Fraction(1, 2)),
        (estimate_monomial_threshold, (4,), Fraction(1, 4)),
        (estimate_bp_threshold, 2, 1),
        (estimate_bp_threshold, 3, Fraction(2, 3)),
        (estimate_bp_threshold, 4, Fraction(1, 2)),
    ])
    @pytest.mark.parametrize("seed", range(1, 11))
    def test_default_config_within_tolerance(self, estimate, arg, analytic, seed):
        est = estimate(arg, OracleConfig(lambda_grid=grid_around(analytic), seed=seed))
        assert verify_threshold(analytic, est, 0.1), est.threshold_estimate


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
# The sampler's weights


class TestDensity:
    @pytest.mark.parametrize("powers, is_sum", [
        ((4,), False), ((1, 2, 3), False), ((4, 4), True), ((3, 5, 7), True),
    ])
    def test_weights_integrate_the_polydisc(self, powers, is_sum):
        # At lambda = 0 the mean of w * mask estimates the volume pi^k of the
        # polydisc, less {|f| <= t^d}, which is far below the noise at
        # t = 1e-8.  A wrong term of the mixture density misses it.
        n_s = 40_000
        log_f, log_w, mask = _power_sampler(powers, is_sum, n_s, _rng(1), 1e-8)
        w = np.where(mask, np.exp(log_w), 0.0)
        volume = math.pi ** len(powers)
        se = float(w.std()) / math.sqrt(n_s)
        assert abs(float(w.mean()) - volume) <= 3 * se
        assert se < 0.05 * volume


class TestInPlaceIntegration:
    @pytest.mark.parametrize("powers, is_sum, analytic", [
        ((3, 3), True, Fraction(2, 3)),
        ((1, 2), False, Fraction(1, 2)),
    ])
    def test_estimate_leaves_sampler_arrays_alone(self, powers, is_sum, analytic, monkeypatch):
        # One draw serves the whole ladder: the sampler runs exactly once, at
        # the deepest cutoff, and once the run is over its arrays are as it
        # returned them, so the pipeline only read them.
        cfg = OracleConfig(lambda_grid=grid_around(analytic), **FAST)
        calls = []

        def spy(*args):
            out = _power_sampler(*args)
            calls.append((args[-1], out, tuple(a.copy() for a in out)))
            return out

        monkeypatch.setattr(oracle, "_power_sampler", spy)
        _estimate(powers, is_sum, cfg)
        assert [eps for eps, *_ in calls] == [cfg.cutoffs[-1]]
        (_, out, copies), = calls
        for got, want in zip(out, copies):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("center", [800.0, -800.0])
    def test_log_mean_exp_is_stable_near_800(self, center):
        # exp(800) overflows and exp(-800) underflows, so only the shift by
        # the maximum keeps the result finite.  Every kept draw clears every
        # cut, so each shell's log I is the log-mean-exp of all of them.
        arg = center + np.random.default_rng(5).uniform(-30.0, 2.0, 500)
        total = 640
        top = float(arg.max())
        want = top + math.log(math.fsum(math.exp(a - top) for a in arg) / total)
        log_f = np.full(total, -1.0)
        log_w = np.zeros(total)
        log_w[:500] = arg - 1.0
        mask = np.arange(total) < 500
        (got,) = _integrate_ladder(log_f, log_w, mask, 1, FAST["cutoffs"], [0.5])
        assert np.isfinite(got).all()
        assert got.tolist() == pytest.approx([want] * len(FAST["cutoffs"]), rel=1e-14)

    @pytest.mark.parametrize("powers, is_sum, cutoffs, deep", [
        ((1, 2), False, FAST["cutoffs"], False),
        ((3, 3), True, FAST["cutoffs"], False),
        # 68 decades: the deepest shell's terms outgrow the shallowest's by
        # far more than the ~745 a double's exp can span.
        ((4,), False, tuple(10.0 ** -k for k in range(8, 77, 17)), True),
    ], ids=["product", "sum", "ladder-68-decades"])
    def test_segments_match_direct_shell_sums(self, powers, is_sum, cutoffs, deep):
        # Each shell's log I from the segments equals a direct masked
        # log-mean-exp over that shell's draws, shifted by its own maximum
        # and summed exactly.
        n_s, d = 4000, max(powers)
        log_f, log_w, mask = _power_sampler(powers, is_sum, n_s, _rng(3), cutoffs[-1])
        lam_f = [0.25, 0.5, 1.0, 2.0]
        got = _integrate_ladder(log_f, log_w, mask, d, cutoffs, lam_f)
        assert got.shape == (len(lam_f), len(cutoffs))
        shared_underflows = False
        for row, lam in zip(got, lam_f):
            x = -2.0 * lam * log_f + log_w
            for j, t in enumerate(cutoffs):
                inside = x[mask & (log_f > d * math.log(t))]
                top = float(inside.max())
                want = top + math.log(math.fsum(np.exp(inside - top)) / n_s)
                assert row[j] == pytest.approx(want, rel=1e-12), (lam, t)
            # One shift shared by the ladder, the deepest shell's maximum,
            # loses the shallowest shell to underflow on the deep ladder.
            shallow = x[mask & (log_f > d * math.log(cutoffs[0]))]
            shared_underflows |= float(np.exp(shallow - x[mask].max()).sum()) == 0.0
        assert shared_underflows == deep


# ---------------------------------------------------------------------------
# One draw per run: the same seed gives the same estimate, failures


SMALL = dict(samples_per_shell=3000, cutoffs=FAST["cutoffs"])


class TestSameSeedRuns:
    @pytest.mark.parametrize("kind, arg, analytic", [
        ("bp", 2, 1), ("bp", 3, Fraction(2, 3)), ("bp", 4, Fraction(1, 2)),
        ("bp", 5, Fraction(2, 5)), ("monomial", (1,), 1),
        ("monomial", (2, 2, 5), Fraction(1, 5)),
    ])
    def test_two_runs_agree_bit_for_bit(self, kind, arg, analytic):
        # A run is serial and its randomness is the seed's Philox stream
        # alone: a second run repeats every slope and starts no thread.
        estimate = estimate_bp_threshold if kind == "bp" else estimate_monomial_threshold
        cfg = OracleConfig(lambda_grid=grid_around(analytic), seed=5, **SMALL)
        before = threading.active_count()
        first = estimate(arg, cfg)
        assert estimate(arg, cfg) == first
        assert threading.active_count() == before

    def test_failure_names_the_first_failing_cutoff(self, monkeypatch):
        # The draw keeps points in the deep shells only.  However many
        # shallow shells it leaves empty, the run reports cutoff 0, the
        # shallowest empty one in ladder order, not the cutoff it drew at.
        cfg = OracleConfig(lambda_grid=grid_around(1), **SMALL)
        for empty in range(1, len(cfg.cutoffs)):
            cut = math.log(cfg.cutoffs[empty - 1])
            kept = []

            def sample(*args):
                log_f, log_w, mask = _power_sampler(*args)
                kept.append(int(np.count_nonzero(mask & (log_f <= cut))))
                return log_f, log_w, mask & (log_f <= cut)

            monkeypatch.setattr(oracle, "_power_sampler", sample)
            with pytest.raises(InputError,
                               match=f"no admissible samples at cutoff {cfg.cutoffs[0]}:"):
                _estimate((1,), False, cfg)
            assert kept[0] > 0, empty
