"""Stochastic verification of integrability thresholds.

The exact modules assert that |f|^(-2*lambda) is locally integrable exactly
for lambda below a rational threshold.  This module checks such claims
numerically, without trusting the algebra: for each lambda on a probe grid
it estimates the cutoff integral

    I(eps, lambda) = integral of |f|^(-2 lambda) over the domain minus the
                     eps-neighborhood of the zero divisor of f

across a ladder of shrinking cutoffs eps, fits the growth exponent of
I against eps on log-log axes, and locates the lambda where that exponent
departs from zero.  Below the threshold I(eps) stays bounded (slope near 0);
above it I(eps) blows up like a power of 1/eps (slope near the theoretical
supercritical value, which is linear in lambda with a coefficient K
computable from the input: each unit of lambda past the threshold steepens
the blow-up by K).

Threshold extraction uses a fixed slope cut of half the theoretical
supercritical slope one grid step past the threshold, i.e. level -K*h/2
for grid spacing h: a grid point is called supercritical when its fitted
slope sits at or below the cut, the crossing is located by linear
interpolation, and the known h/2 offset of the cut level is subtracted.
If every grid point lands on one side of the cut the grid missed the
threshold and ThresholdOutsideGrid reports the direction.

Both integrands run through one pipeline, _estimate.  An integrand is a
sampler plus its coefficient K: for each cutoff shell the sampler draws
samples_per_shell points and returns the arrays (log f, log w, mask), where
f is |f| at each point, w its importance weight (domain measure over
sampling density) and mask marks the points inside the cutoff domain.  The
pipeline turns each shell into log I(eps, lambda) = log mean(|f|^(-2 lambda)
* w * mask) for every lambda, fits one slope per lambda and extracts the
threshold.  Sampling is importance-weighted toward the divisor
(uniform-area/log-radius mixtures), since uniform sampling under-resolves
the singular locus.

Arrays are laid out as rows of samples.  A point of C^2 is four real rows
(Re u, Im u, Re v, Im v), and a quantity with one value per line or per
coordinate is an (n, samples) array reduced along axis 0, so every numpy
call runs over long contiguous rows in real arithmetic.  Each sampler
keeps its scratch arrays from shell to shell.  The pipeline masks log f
and log w once per shell, then integrates every lambda in place in one
reused buffer.

All randomness flows from counter-based Philox streams keyed by (seed,
shell), so estimates are bit-identical for a given config no matter how the
(lambda, shell) work is scheduled.  Before anything is sampled, the array
cells per shell and the integrand evaluations of a run are checked against
MAX_CELLS and MAX_EVALUATIONS.  Results are test instruments only; no exact
code path consumes them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import InputError, ThresholdOutsideGrid, check_int, check_rational

_MIN_SHELLS = 5
_MIN_SAMPLES = 1000
_SEED_LIMIT = 2 ** 63
# Work caps, checked before anything is sampled: array cells per shell
# (samples x integrand width) and integrand evaluations (samples x shells x
# probe points).  The defaults use 1.6e5 cells (bp n=4) and 6.1e6
# evaluations.
MAX_CELLS = 4_000_000
MAX_EVALUATIONS = 10 ** 9
# No config with more probe points passes the evaluation cap.
MAX_GRID_POINTS = MAX_EVALUATIONS // (_MIN_SAMPLES * _MIN_SHELLS)


@dataclass(frozen=True)
class OracleConfig:
    """Monte-Carlo protocol parameters.

    cutoffs must decrease strictly within (0, 1); a geometric ladder makes
    the log-log fit evenly weighted.  The default ladder is deep (1e-8 down
    to 1e-16) on purpose: one grid step below the threshold the cutoff
    integral converges like eps^q with q ~ 0.1, so shallow ladders leave a
    transient slope that spills past the cut and drags the estimate low.
    lambda_grid holds the rationals to probe, sorted increasing; the
    threshold finder assumes near-uniform spacing.  tolerance is the
    default relative error for verify_threshold.  seed keys the Philox
    streams and must lie in [0, 2**63).
    """

    samples_per_shell: int = 40_000
    cutoffs: tuple = (1e-8, 1e-9, 1e-10, 1e-11, 1e-12, 1e-13, 1e-14, 1e-15, 1e-16)
    lambda_grid: tuple = ()
    seed: int = 20260814
    tolerance: float = 0.1

    def __post_init__(self):
        object.__setattr__(self, "samples_per_shell",
                           check_int(self.samples_per_shell, "samples_per_shell", _MIN_SAMPLES))
        if any(isinstance(e, bool) or not isinstance(e, Real) for e in self.cutoffs):
            raise InputError(f"cutoffs must be real numbers, got {self.cutoffs!r}")
        cuts = tuple(float(e) for e in self.cutoffs)
        if len(cuts) < _MIN_SHELLS:
            raise InputError(f"need at least {_MIN_SHELLS} cutoff shells, got {len(cuts)}")
        if any(not 0 < e < 1 for e in cuts):
            raise InputError("cutoffs must lie in (0, 1)")
        if any(cuts[i] <= cuts[i + 1] for i in range(len(cuts) - 1)):
            raise InputError("cutoffs must be strictly decreasing")
        grid = tuple(check_rational(x, "lambda_grid point") for x in self.lambda_grid)
        if len(grid) < 3:
            raise InputError("lambda_grid needs at least 3 probe points")
        if any(grid[i] >= grid[i + 1] for i in range(len(grid) - 1)):
            raise InputError("lambda_grid must be strictly increasing")
        if grid[0] <= 0:
            raise InputError("lambda_grid must be positive")
        object.__setattr__(self, "seed", check_int(self.seed, "seed", 0, _SEED_LIMIT - 1))
        object.__setattr__(self, "tolerance", _check_tolerance(self.tolerance))
        object.__setattr__(self, "cutoffs", cuts)
        object.__setattr__(self, "lambda_grid", grid)


def _check_tolerance(tol) -> float:
    """tol as a float: a real number but bool, finite and positive."""
    if isinstance(tol, bool) or not isinstance(tol, Real) or not (math.isfinite(tol) and tol > 0):
        raise InputError(f"tolerance must be a positive finite real, got {tol!r}")
    return float(tol)


@dataclass(frozen=True)
class ExponentEstimate:
    """Fitted threshold with a coarse confidence halfwidth.

    per_lambda_slopes echoes every probed lambda with its fitted log-log
    growth exponent; threshold_estimate always lies within the probed
    range (clamped after the cut-offset correction).
    """

    threshold_estimate: float
    confidence_halfwidth: float
    per_lambda_slopes: tuple

    def __post_init__(self):
        lams = [float(l) for l, _ in self.per_lambda_slopes]
        if not lams or not min(lams) <= self.threshold_estimate <= max(lams):
            raise AssertionError("threshold estimate escaped the probed grid")


def _check_work(cfg: OracleConfig, width: int) -> None:
    """Reject a run whose arrays or evaluation count exceed the work caps."""
    cells = cfg.samples_per_shell * width
    if cells > MAX_CELLS:
        raise InputError(
            f"samples_per_shell x integrand width = {cells} array cells exceeds "
            f"the cap {MAX_CELLS}"
        )
    evals = cfg.samples_per_shell * len(cfg.cutoffs) * len(cfg.lambda_grid)
    if evals > MAX_EVALUATIONS:
        raise InputError(
            f"samples_per_shell x cutoffs x lambda_grid = {evals} evaluations "
            f"exceeds the cap {MAX_EVALUATIONS}"
        )


def _shell_rng(seed: int, shell: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed, shell]))


def _slope_fit(log_eps, log_i):
    """Least-squares slope of log I against log eps, with its standard error."""
    x = np.asarray(log_eps)
    y = np.asarray(log_i)
    m = len(x)
    xm = x - x.mean()
    sxx = float(xm @ xm)
    slope = float(xm @ (y - y.mean())) / sxx
    resid = y - y.mean() - slope * xm
    dof = max(m - 2, 1)
    se = math.sqrt(max(float(resid @ resid), 0.0) / dof / sxx)
    return slope, se


def _log_mean_exp(buf, total: int) -> float:
    """log(sum(exp(buf)) / total), stabilized; buf must be nonempty.

    buf is overwritten: it is shifted by its maximum and exponentiated in
    place.
    """
    top = float(buf.max())
    buf -= top
    np.exp(buf, out=buf)
    return top + math.log(float(buf.sum()) / total)


def _extract_threshold(grid, slopes, ses, k_coeff) -> ExponentEstimate:
    lams = [float(l) for l in grid]
    h = (lams[-1] - lams[0]) / (len(lams) - 1)
    cut = -k_coeff * h / 2.0
    flagged = [s <= cut for s in slopes]
    per = tuple((grid[i], slopes[i]) for i in range(len(grid)))
    if all(flagged):
        raise ThresholdOutsideGrid(
            "below", f"every probed lambda is supercritical (slopes <= {cut:.3g}); "
            "the threshold lies below the grid"
        )
    if not any(flagged):
        raise ThresholdOutsideGrid(
            "above", f"no probed lambda is supercritical (slopes > {cut:.3g}); "
            "the threshold lies above the grid"
        )
    i = flagged.index(True)
    if i == 0:
        crossing = lams[0]
        se_local = ses[0]
    else:
        s0, s1 = slopes[i - 1], slopes[i]
        crossing = lams[i - 1] + (cut - s0) * (lams[i] - lams[i - 1]) / (s1 - s0)
        se_local = 0.5 * (ses[i - 1] + ses[i])
    est = min(max(crossing - h / 2.0, lams[0]), lams[-1])
    halfwidth = h / 2.0 + se_local / k_coeff
    return ExponentEstimate(
        threshold_estimate=est, confidence_halfwidth=halfwidth, per_lambda_slopes=per
    )


def _estimate(sample, k_coeff: float, cfg: OracleConfig) -> ExponentEstimate:
    """Shared pipeline: sample each shell, integrate every lambda, fit, extract.

    sample(rng, eps) returns (log_f, log_w, mask) for one shell's draws:
    the log of |f|, the log importance weight (domain measure over sampling
    density), and which draws lie in the cutoff domain.  Entries outside
    the mask are ignored; the returned arrays are only read.

    Each shell is integrated in place: log_f and log_w are masked once, and
    every lambda reuses one buffer for -2 lambda log_f + log_w, its shift by
    the maximum and its exponential.  The mean runs over all the shell's
    draws, so masked-out draws count as zeros.
    """
    lam_f = [float(l) for l in cfg.lambda_grid]
    log_eps = np.empty(len(cfg.cutoffs))
    log_i = np.empty((len(lam_f), len(cfg.cutoffs)))
    scratch = np.empty(cfg.samples_per_shell)
    for shell, eps in enumerate(cfg.cutoffs):
        log_eps[shell] = math.log(eps)
        log_f, log_w, mask = sample(_shell_rng(cfg.seed, shell), eps)
        if not mask.any():
            raise InputError(
                f"no admissible samples at cutoff {eps}: the cutoff neighborhood "
                "covers the sampled domain or samples_per_shell is too small"
            )
        if not mask.all():
            log_f, log_w = log_f[mask], log_w[mask]
        buf = scratch[:log_f.size]
        for j, lam in enumerate(lam_f):
            np.multiply(log_f, -2.0 * lam, out=buf)
            buf += log_w
            log_i[j, shell] = _log_mean_exp(buf, mask.size)
    fits = [_slope_fit(log_eps, row) for row in log_i]
    return _extract_threshold(
        cfg.lambda_grid, [sl for sl, _ in fits], [se for _, se in fits], k_coeff
    )


# ---------------------------------------------------------------------------
# Monomial integrand on a polydisc


def estimate_monomial_threshold(exponents, cfg: OracleConfig) -> ExponentEstimate:
    """Probe the integrability threshold of |prod z_j^(a_j)|^(-2 lambda).

    Domain: unit polydisc minus the eps-neighborhood of the coordinate
    divisor, i.e. every |z_j| runs over [eps, 1].  Each radius is drawn
    from an equal mixture of the uniform-area density 2r/(1-eps^2) and the
    log-uniform density 1/(r log(1/eps)), which keeps the weight of the
    near-divisor region heavy enough for stable tails.  The supercritical
    slope coefficient is K = 2 * (sum of the maximal exponents), since each
    coordinate attaining a_max contributes 2 - 2*lambda*a_max to the decay
    exponent past the threshold.
    """
    exps = tuple(check_int(a, "exponent", 1) for a in exponents)
    if not exps:
        raise InputError("exponent list must be nonempty")
    _check_work(cfg, len(exps))
    a_max = max(exps)
    return _estimate(
        _monomial_sampler(exps, cfg.samples_per_shell), 2.0 * a_max * exps.count(a_max), cfg
    )


def _monomial_sampler(exps, n_s):
    """sample(rng, eps) for the monomial integrand, one row per coordinate."""
    k = len(exps)
    a_col = np.array(exps, dtype=float)[:, None]
    # Scratch reused by every shell; log_f, log_w and mask are new each shell.
    scratch = tuple(np.empty((k, n_s)) for _ in range(3))

    def sample(rng, eps):
        r, tmp, dens = scratch
        # Draws keep their (samples, coordinates) shape; the transposes are
        # (coordinates, samples) rows.
        pick_log = rng.random((n_s, k)).T < 0.5
        u = rng.random((n_s, k)).T
        np.multiply(u, math.log(eps), out=r)
        np.exp(r, out=r)
        np.multiply(u, 1 - eps * eps, out=tmp)
        tmp += eps * eps
        np.sqrt(tmp, out=tmp)
        # r = pick_log ? r_log : r_area, selected exactly by 0/1 products.
        r *= pick_log
        tmp *= ~pick_log
        r += tmp
        # Mixture density r/(1-eps^2) + 1/(2 r log(1/eps)).
        np.multiply(r, math.log(1 / eps), out=dens)
        np.divide(0.5, dens, out=dens)
        np.divide(r, 1 - eps * eps, out=tmp)
        dens += tmp
        np.log(dens, out=dens)
        # Angular part integrates to 2*pi*r per coordinate.
        np.multiply(r, 2 * math.pi, out=tmp)
        np.log(tmp, out=tmp)
        tmp -= dens
        log_w = np.add.reduce(tmp, axis=0)
        np.log(r, out=r)
        r *= a_col
        return np.add.reduce(r, axis=0), log_w, np.ones(n_s, dtype=bool)

    return sample


# ---------------------------------------------------------------------------
# Binomial u^n + v^n on the unit ball of C^2


def _direction_times_radius(rng, size, radius):
    """Rows (Re u, Im u, Re v, Im v) of points of C^2 with uniform direction
    on S^3 and length radius(uniform)."""
    g = np.ascontiguousarray(rng.standard_normal((size, 4)).T)
    scale = radius(rng.random(size))
    norm2 = g[0] * g[0]
    for row in g[1:]:
        norm2 += row * row
    scale /= np.sqrt(norm2)
    g *= scale
    return g


def estimate_bp_threshold(n: int, cfg: OracleConfig) -> ExponentEstimate:
    """Probe the integrability threshold of |u^n + v^n|^(-2 lambda).

    Domain: unit ball of C^2 minus the eps-neighborhood of the zero set,
    which is the union of the n complex lines u = zeta*v over the n-th
    roots zeta of -1 (distance to such a line is |u - zeta*v|/sqrt(2)).
    The blow-up past the threshold 2/n is driven by the origin where all
    lines meet, with decay exponent 4 - 2*lambda*n, so K = 2n.

    Sampling mixes three components: uniform on the ball, an origin
    component (log-uniform radius, uniform direction), and per-line tube
    components (uniform position along the line, log-uniform transverse
    radius).  The importance weight is the reciprocal of the full mixture
    density, evaluated exactly for every sample.
    """
    n = check_int(n, "n", 2)
    _check_work(cfg, n)
    return _estimate(_bp_sampler(n, cfg.samples_per_shell), 2.0 * n, cfg)


def _bp_sampler(n, n_s):
    """sample(rng, eps) for the binomial integrand, one row per line.

    A point is four real rows (Re u, Im u, Re v, Im v), and every per-line
    quantity is an (n, samples) array built from real multiply-adds.
    """
    # zeta_j = za_j + i zb_j.  Unit direction along line j is (zeta_j, 1)/sqrt(2);
    # unit normal is (1, -conj(zeta_j))/sqrt(2).  In those coordinates
    # dist(x, L_j) = |w_j| with w_j = (u - zeta_j v)/sqrt(2).
    angles = [math.pi * (2 * j + 1) / n for j in range(n)]
    za, zb = np.cos(angles), np.sin(angles)
    inv_sqrt2 = 1 / math.sqrt(2)
    w_ball, w_origin, w_tube = 0.4, 0.3, 0.3
    vol_ball = math.pi ** 2 / 2
    area_s3 = 2 * math.pi ** 2
    # Scratch reused by every shell: the point rows, three per-line arrays
    # and four single rows.  Only log_f, log_w and mask are new each shell.
    scratch = (
        np.empty((4, n_s)), np.empty((n, n_s)), np.empty((n, n_s)),
        np.empty((n, n_s), dtype=bool), np.empty((4, n_s)),
    )

    def sample(rng, eps):
        x, w_abs, terms, tube_ok, (norm2, p, q, t) = scratch
        log_inv_eps = math.log(1 / eps)
        comp = rng.choice(3, size=n_s, p=[w_ball, w_origin, w_tube])
        for c_id, radius in (
            (0, lambda t: t ** 0.25),
            (1, lambda t: np.exp(t * math.log(eps))),
        ):
            idx = np.flatnonzero(comp == c_id)
            if idx.size:
                for row, vals in zip(x, _direction_times_radius(rng, idx.size, radius)):
                    row[idx] = vals

        tube_idx = np.flatnonzero(comp == 2)
        m = tube_idx.size
        if m:
            tube_line = rng.integers(0, n, size=m)
            c_rad = np.sqrt(rng.random(m))
            c_ang = rng.random(m) * 2 * math.pi
            tube_rad = np.exp(rng.random(m) * math.log(eps))
            s_ang = rng.random(m) * 2 * math.pi
            cr, ci = c_rad * np.cos(c_ang), c_rad * np.sin(c_ang)
            wr, wi = tube_rad * np.cos(s_ang), tube_rad * np.sin(s_ang)
            a, b = za[tube_line], zb[tube_line]
            # x = c * direction + w * normal, in real rows.
            x[0, tube_idx] = (cr * a - ci * b + wr) * inv_sqrt2
            x[1, tube_idx] = (cr * b + ci * a + wi) * inv_sqrt2
            x[2, tube_idx] = (cr - (wr * a + wi * b)) * inv_sqrt2
            x[3, tube_idx] = (ci - (wi * a - wr * b)) * inv_sqrt2

        ur, ui, vr, vi = x
        np.multiply(ur, ur, out=norm2)
        for row in (ui, vr, vi):
            np.multiply(row, row, out=t)
            norm2 += t
        # Per line j, with zeta_j v = p + i q: 2|w_j|^2 = (ur - p)^2 + (ui - q)^2.
        for j in range(n):
            a, b = za[j], zb[j]
            np.multiply(vr, a, out=p)
            np.multiply(vi, b, out=t)
            p -= t
            np.multiply(vr, b, out=q)
            np.multiply(vi, a, out=t)
            q += t
            np.subtract(ur, p, out=t)
            np.multiply(t, t, out=w_abs[j])
            np.subtract(ui, q, out=t)
            t *= t
            w_abs[j] += t
        w_abs *= 0.5
        # The along-line coordinate c_j = (conj(zeta_j) u + v)/sqrt(2) has
        # |c_j|^2 + |w_j|^2 = |x|^2 (parallelogram law), so the tube's
        # along-line bound |c_j| <= 1 reads |w_j|^2 >= |x|^2 - 1.
        np.subtract(norm2, 1.0, out=t)
        np.greater_equal(w_abs, t, out=tube_ok)
        np.sqrt(w_abs, out=w_abs)
        if m:
            # A tube sample's distance to its own line is the sampled radius
            # exactly; recomputing it as u - zeta*v cancels catastrophically
            # once the radius is near float epsilon.
            w_abs[tube_line, tube_idx] = tube_rad
        inside = norm2 <= 1.0
        mask = inside & (np.minimum.reduce(w_abs, axis=0) >= eps)
        tube_ok &= w_abs >= eps
        tube_ok &= w_abs <= 1.0

        # Mixture density: ball + origin + the mean of the n tube densities.
        # A point on a line or at the origin divides by zero here; it lies
        # outside the mask, whose entries are overwritten below.
        with np.errstate(divide="ignore", invalid="ignore"):
            np.multiply(norm2, norm2, out=t)
            dens = np.divide(inside & (norm2 >= eps * eps), t)
            dens *= w_origin / (area_s3 * log_inv_eps)
            np.multiply(inside, w_ball / vol_ball, out=t)
            dens += t
            # Tube j has density 1/(pi * 2 pi |w_j|^2 log(1/eps)): uniform on
            # the unit disc along the line, log-uniform in the transverse radius.
            np.multiply(w_abs, w_abs, out=terms)
            np.divide(tube_ok, terms, out=terms)
            tube_norm = math.pi * 2 * math.pi * log_inv_eps
            dens += np.add.reduce(terms, axis=0) * (w_tube / (n * tube_norm))

            # |u^n + v^n| equals the product of the n line distances times
            # sqrt(2)^n; summing logs of the patched distances stays stable
            # arbitrarily close to the divisor.
            log_f = np.add.reduce(np.log(w_abs, out=w_abs), axis=0)
            log_f += n * math.log(math.sqrt(2))
            log_w = np.log(dens)
        np.negative(log_w, out=log_w)
        outside = ~mask
        np.copyto(log_f, 0.0, where=outside)
        np.copyto(log_w, 0.0, where=outside)
        return log_f, log_w, mask

    return sample


def verify_threshold(analytic, est: ExponentEstimate, tol: float) -> bool:
    """Relative agreement test: |estimate - analytic| / analytic <= tol."""
    analytic = check_rational(analytic, "analytic threshold")
    if analytic <= 0:
        raise InputError("analytic threshold must be positive")
    tol = _check_tolerance(tol)
    return abs(est.threshold_estimate - float(analytic)) / float(analytic) <= tol
