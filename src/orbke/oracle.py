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
sampler factory plus its width (array cells per sample) and coefficient K:
for each cutoff shell a sampler draws samples_per_shell points and returns
the arrays (log f, log w, mask), where f is |f| at each point, w its
importance weight (domain measure over sampling density) and mask marks
the points inside the cutoff domain.  The pipeline turns each shell into
log I(eps, lambda) = log mean(|f|^(-2 lambda) * w * mask) for every
lambda, fits one slope per lambda and extracts the threshold.  Sampling
is importance-weighted toward the divisor (uniform-area/log-radius
mixtures), since uniform sampling under-resolves the singular locus.

Arrays are laid out as rows of samples, so every numpy call runs over
long rows in real arithmetic.  A point of C^2 is four real rows (Re u,
Im u, Re v, Im v).  The monomial sampler holds one row per coordinate and
reduces along axis 0; the binomial sampler takes its lines one at a time
over blocks of columns and adds each line's row into running rows, in
the order such a reduction adds them.  Samplers are stateless: each call
allocates its own arrays and returns fresh ones.  The pipeline masks
log f and log w once per shell, then integrates every lambda in place in
one buffer.

The shells run on a concurrent.futures thread pool of min(usable CPUs,
shells, MAX_CELLS // cells) workers, whose map hands them out in ladder
order and yields each shell's log I for every lambda in that order; the
slope fits run once every shell is in.  A shell's arrays are allocated by
its sampler call and die with it, and their size follows the shell's
cells, so the memory in flight is about workers x cells, which the worker
bound keeps within MAX_CELLS: a run at the cell cap is serial.  numpy's
draws and ufuncs release the GIL, so the workers' shells overlap.

All randomness flows from counter-based Philox streams keyed by (seed,
shell), so estimates are bit-identical for a given config no matter how the
(lambda, shell) work is scheduled, and a threaded run equals a serial one
bit for bit.  Before anything is sampled, the array cells per shell and the
integrand evaluations of a run are checked against MAX_CELLS and
MAX_EVALUATIONS.  While a run integrates and fits, -2 lambda log f, each
log I and each fit's residual sum must stay finite floats, or the run
raises InputError: a grid that large cannot place the threshold.  Results
are test instruments only; no exact code path consumes them.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from numbers import Real

import numpy as np

from . import enumeration
from .errors import InputError, ThresholdOutsideGrid, check_int, check_rational

_MIN_SHELLS = 5
_MIN_SAMPLES = 1000
_SEED_LIMIT = 2 ** 63
# Work caps, checked before anything is sampled: array cells per shell
# (samples x integrand width) and integrand evaluations (samples x shells x
# probe points).  The shell workers are capped so that their cells in
# flight (workers x cells) also stay within MAX_CELLS.  The defaults use
# 1.6e5 cells (bp n=4) and 6.1e6 evaluations.
MAX_CELLS = 4_000_000
MAX_EVALUATIONS = 10 ** 9
# No config with more probe points passes the evaluation cap.
MAX_GRID_POINTS = MAX_EVALUATIONS // (_MIN_SAMPLES * _MIN_SHELLS)
# Smallest cutoff the binomial sampler computes with: its density divides
# by |x|^4 and |w_j|^2, which underflow for eps below this (eps^4 is then
# no longer a normal double).
BP_MIN_CUTOFF = 2.0 ** -255
# Columns per block of the binomial sampler's post-draw arithmetic.
_BP_BLOCK = 8192


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
        # The estimators probe the grid as floats, which can overflow,
        # flush to zero or merge neighbors where the Fractions do not.
        try:
            floats = [float(l) for l in grid]
        except OverflowError:
            floats = [math.inf]
        if not (all(math.isfinite(l) and l > 0 for l in floats)
                and all(a < b for a, b in zip(floats, floats[1:]))):
            raise InputError(
                "lambda_grid must stay finite, positive and strictly increasing as floats"
            )
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


def _check_work(cfg: OracleConfig, width: int) -> int:
    """Array cells per shell of a run, once it is known to fit the work caps."""
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
    return cells


def _shell_rng(seed: int, shell: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed, shell]))


def _slope_fit(log_eps, log_i):
    """Least-squares slope of log I against log eps, with its standard error.

    A residual sum that is not finite (log I so large that the fit leaves
    the float range) raises InputError.
    """
    x = np.asarray(log_eps)
    y = np.asarray(log_i)
    m = len(x)
    with np.errstate(over="ignore", invalid="ignore"):
        xm = x - x.mean()
        sxx = float(xm @ xm)
        slope = float(xm @ (y - y.mean())) / sxx
        resid = y - y.mean() - slope * xm
        rss = float(resid @ resid)
    if not math.isfinite(rss):
        raise InputError(
            f"the slope fit of log I (up to {float(np.abs(y).max()):.3g}) against "
            "log eps overflows a float; probe a smaller lambda_grid"
        )
    dof = max(m - 2, 1)
    se = math.sqrt(max(rss, 0.0) / dof / sxx)
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


def _shell_workers(cfg: OracleConfig, cells: int) -> int:
    """Workers for a run: at most one per usable CPU and per shell, and few
    enough that workers x cells stays within MAX_CELLS (so a run at the
    cell cap is serial)."""
    cpus = enumeration.usable_cpus() or 1
    return max(1, min(cpus, len(cfg.cutoffs), MAX_CELLS // cells))


def _integrate_shell(sample, cfg: OracleConfig, lam_f, shell: int) -> list:
    """Sample one shell and return log I(eps, lambda) for every lambda.

    log_f and log_w are masked once, and every lambda reuses one buffer
    for -2 lambda log_f + log_w, its shift by the maximum and its
    exponential.  The mean runs over all the shell's draws, so masked-out
    draws count as zeros.  A lambda for which -2 lambda log_f or log I is
    not a finite float raises InputError: a grid that large says nothing
    about the threshold.  Float products round monotonically, so
    -2 lambda log_f is finite for every draw exactly when 2 lambda times
    the largest |log_f| is.
    """
    eps = cfg.cutoffs[shell]
    log_f, log_w, mask = sample(_shell_rng(cfg.seed, shell), eps)
    kept = int(np.count_nonzero(mask))
    if not kept:
        raise InputError(
            f"no admissible samples at cutoff {eps}: the cutoff neighborhood "
            "covers the sampled domain or samples_per_shell is too small"
        )
    if kept < mask.size:
        log_f, log_w = log_f[mask], log_w[mask]
    span = max(float(log_f.max()), -float(log_f.min()))
    buf = np.empty(kept)
    row = []
    for lam in lam_f:
        if not math.isfinite(2.0 * lam * span):
            raise InputError(
                f"-2 lambda log|f| overflows a float at lambda = {lam:.3g}, cutoff {eps}; "
                "probe a smaller lambda_grid"
            )
        np.multiply(log_f, -2.0 * lam, out=buf)
        with np.errstate(over="ignore", invalid="ignore"):
            buf += log_w
            log_i = _log_mean_exp(buf, mask.size)
        if not math.isfinite(log_i):
            raise InputError(
                f"log I is not a finite float at lambda = {lam:.3g}, cutoff {eps}; "
                "probe a smaller lambda_grid"
            )
        row.append(log_i)
    return row


def _estimate(make_sample, width: int, k_coeff: float, cfg: OracleConfig) -> ExponentEstimate:
    """Shared pipeline: sample each shell, integrate every lambda, fit, extract.

    make_sample() builds the sampler; sample(rng, eps) returns fresh
    arrays (log_f, log_w, mask) for one shell's draws: the log of |f|, the
    log importance weight (domain measure over sampling density), and
    which draws lie in the cutoff domain.  Entries outside the mask are
    ignored, and the arrays are only read.

    The work caps are checked first, for width cells per sample, and only
    then is the sampler built.  The shells run on a pool of
    _shell_workers(cfg, cells) threads, whose map yields their rows of
    log I in ladder order, raises the failure of the earliest failing
    shell, as a serial run would, and cancels the shells not yet started.
    """
    cells = _check_work(cfg, width)
    sample = make_sample()
    lam_f = [float(l) for l in cfg.lambda_grid]
    with ThreadPoolExecutor(_shell_workers(cfg, cells)) as pool:
        rows = list(pool.map(partial(_integrate_shell, sample, cfg, lam_f),
                             range(len(cfg.cutoffs))))
    log_eps = np.array([math.log(eps) for eps in cfg.cutoffs])
    fits = [_slope_fit(log_eps, row) for row in zip(*rows)]
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
    a_max = max(exps)
    return _estimate(
        partial(_monomial_sampler, exps, cfg.samples_per_shell), len(exps),
        2.0 * a_max * exps.count(a_max), cfg,
    )


def _monomial_sampler(exps, n_s):
    """sample(rng, eps) for the monomial integrand, one row per coordinate."""
    k = len(exps)
    a_col = np.array(exps, dtype=float)[:, None]

    def sample(rng, eps):
        # In-place arithmetic holds the temporaries to these three arrays.
        r, tmp, dens = (np.empty((k, n_s)) for _ in range(3))
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
    g = rng.standard_normal((size, 4)).T
    scale = radius(rng.random(size))
    norm2 = g[0] * g[0]
    for row in g[1:]:
        norm2 += row * row
    scale /= np.sqrt(norm2)
    g *= scale
    return g


def _bp_components(rng, size, weights):
    """Masks (ball, inner) of size samples' mixture components, as rng.choice draws them.

    rng.choice(3, size, p=weights) labels each of size uniforms with the
    number of entries of cdf = cumsum(weights) / last entry at or below
    it.  The same uniforms give label 0 (the ball) where `ball`, 1 (the
    origin) where `inner & ~ball` and 2 (the tubes) where `~inner`, with
    no label array, and leave the stream where choice leaves it.
    """
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    pick = rng.random(size)
    return pick < cdf[0], pick < cdf[1]


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
    density, evaluated exactly for every sample.  Cutoffs below
    BP_MIN_CUTOFF are rejected before anything is sampled.
    """
    n = check_int(n, "n", 2)
    if cfg.cutoffs[-1] < BP_MIN_CUTOFF:
        raise InputError(
            f"cutoff {cfg.cutoffs[-1]} is below {BP_MIN_CUTOFF:.3g}, where the "
            "sampling density of u^n + v^n underflows"
        )
    return _estimate(partial(_bp_sampler, n, cfg.samples_per_shell), n, 2.0 * n, cfg)


def _bp_sampler(n, n_s):
    """sample(rng, eps) for the binomial integrand, one row per real coordinate.

    A point is four real rows (Re u, Im u, Re v, Im v).  After the draws,
    the arithmetic runs over blocks of _BP_BLOCK columns, and within a
    block over the n lines one at a time: each line's distance row adds
    into running rows (log f, the tube density sum, every distance >= eps),
    so no (n, samples) array is ever held.  The running sums add the lines
    in order, as a reduction along the line axis does, so every value is
    bit-identical to the (n, samples) form.
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

    def draw_tubes(rng, m, eps):
        """Line, transverse radius and point rows of m tube points:
        c * direction + w * normal of a uniform line, with c uniform on the
        unit disc and |w| log-uniform in [eps, 1]."""
        lines = rng.integers(0, n, size=m)
        c_rad = np.sqrt(rng.random(m))
        c_ang = rng.random(m) * 2 * math.pi
        w_rad = np.exp(rng.random(m) * math.log(eps))
        w_ang = rng.random(m) * 2 * math.pi
        cr, ci = np.cos(c_ang) * c_rad, np.sin(c_ang) * c_rad
        wr, wi = np.cos(w_ang) * w_rad, np.sin(w_ang) * w_rad
        a, b = za[lines], zb[lines]
        rows = ((cr * a - ci * b + wr) * inv_sqrt2, (cr * b + ci * a + wi) * inv_sqrt2,
                (cr - (wr * a + wi * b)) * inv_sqrt2, (ci - (wi * a - wr * b)) * inv_sqrt2)
        return lines, w_rad, rows

    def sample(rng, eps):
        x = np.empty((4, n_s))
        # Each sample's tube line (n where it has none) and tube radius.
        line = np.full(n_s, n, dtype=np.int32)
        rad = np.empty(n_s)
        ball, inner = _bp_components(rng, n_s, (w_ball, w_origin, w_tube))
        for idx, radius in (
            (np.flatnonzero(ball), lambda t: t ** 0.25),
            (np.flatnonzero(inner & ~ball), lambda t: np.exp(t * math.log(eps))),
        ):
            if idx.size:
                x[:, idx] = _direction_times_radius(rng, idx.size, radius)
        tube_idx = np.flatnonzero(~inner)
        if tube_idx.size:
            line[tube_idx], rad[tube_idx], x[:, tube_idx] = draw_tubes(rng, tube_idx.size, eps)
        log_f, log_w = np.empty(n_s), np.empty(n_s)
        mask = np.empty(n_s, dtype=bool)
        log_inv_eps = math.log(1 / eps)
        # A point on a line or at the origin divides by zero or takes log 0;
        # it lies outside the mask, and its log f and log w are set to 0.
        with np.errstate(divide="ignore", invalid="ignore"):
            for lo in range(0, n_s, _BP_BLOCK):
                cols = slice(lo, lo + _BP_BLOCK)
                ur, ui, vr, vi = x[:, cols]
                norm2 = ur * ur + ui * ui + vr * vr + vi * vi
                # The along-line coordinate c_j = (conj(zeta_j) u + v)/sqrt(2)
                # has |c_j|^2 + |w_j|^2 = |x|^2 (parallelogram law), so the
                # tube's along-line bound |c_j| <= 1 reads |w_j|^2 >= |x|^2 - 1.
                lim = norm2 - 1.0
                # The sums start at +0, and 0 + x is x for every term added:
                # none is -0 (logs of distances, 0 or 1 over squares).
                far, tube_sum, lf = True, 0.0, 0.0
                for j in range(n):
                    # With zeta_j v = p + i q: 2|w_j|^2 = (ur - p)^2 + (ui - q)^2.
                    p = vr * za[j] - vi * zb[j]
                    q = vr * zb[j] + vi * za[j]
                    w = ((ur - p) ** 2 + (ui - q) ** 2) * 0.5
                    ok = w >= lim
                    w = np.sqrt(w)
                    # A tube sample's distance to its own line is the sampled
                    # radius exactly; recomputing it as u - zeta*v cancels
                    # catastrophically once the radius is near float epsilon.
                    np.copyto(w, rad[cols], where=line[cols] == j)
                    far &= w >= eps
                    ok &= (w >= eps) & (w <= 1.0)
                    # Tube j has density 1/(pi * 2 pi |w_j|^2 log(1/eps)): uniform
                    # on the unit disc along the line, log-uniform in the
                    # transverse radius.
                    tube_sum += ok / (w * w)
                    # |u^n + v^n| is the product of the n line distances times
                    # sqrt(2)^n; summing logs of the patched distances stays
                    # stable arbitrarily close to the divisor.
                    lf += np.log(w)
                inside = norm2 <= 1.0
                keep = mask[cols] = inside & far
                # Mixture density: ball + origin + the mean of the n tube densities.
                dens = ((norm2 >= eps * eps) & inside) / (norm2 * norm2)
                dens *= w_origin / (area_s3 * log_inv_eps)
                dens += inside * (w_ball / vol_ball)
                dens += tube_sum * (w_tube / (n * (math.pi * 2 * math.pi * log_inv_eps)))
                log_f[cols] = np.where(keep, lf + n * math.log(math.sqrt(2)), 0.0)
                log_w[cols] = np.where(keep, -np.log(dens), 0.0)
        return log_f, log_w, mask

    return sample


def verify_threshold(analytic, est: ExponentEstimate, tol: float) -> bool:
    """Relative agreement test: |estimate - analytic| / analytic <= tol."""
    analytic = check_rational(analytic, "analytic threshold")
    if analytic <= 0:
        raise InputError("analytic threshold must be positive")
    tol = _check_tolerance(tol)
    return abs(est.threshold_estimate - float(analytic)) / float(analytic) <= tol
