"""Stochastic verification of integrability thresholds.

The exact modules assert that |f|^(-2*lambda) is locally integrable exactly
for lambda below a rational threshold c.  This module checks such claims
numerically, without trusting the algebra: for each lambda on a probe grid
it estimates the sublevel-cutoff integral

    I(eps, lambda) = integral of |f|^(-2 lambda) over the points of the
                     unit polydisc where |f| > eps

across a ladder of shrinking cutoffs, fits the growth exponent of I
against the cutoff on log-log axes, and locates the lambda where that
exponent departs from zero.  Below the threshold I stays bounded (slope
near 0); past it I grows like eps^(-2(lambda - c)) for every f (Kollar,
"Singularities of pairs", Proc. Symp. Pure Math. 62, 1997, section 8).
A cutoff t of the ladder cuts at eps = t^d, with d the largest power in
f, so against log t the supercritical slope is -K(lambda - c) with
K = 2d: each unit of lambda past the threshold steepens the blow-up by K.

Threshold extraction uses a fixed slope cut of half the theoretical
supercritical slope one grid step past the threshold, i.e. level -K*h/2
for grid spacing h: a grid point is called supercritical when its fitted
slope sits at or below the cut, the crossing is located by linear
interpolation, and the known h/2 offset of the cut level is subtracted.
If every grid point lands on one side of the cut the grid missed the
threshold and ThresholdOutsideGrid reports the direction.

Both integrands, a product of coordinate powers (monomial) and a sum of
them (u^n + v^n), run through one sampler, _power_sampler, and one
pipeline, _estimate(powers, is_sum, cfg): an integrand is its powers and
whether they add or multiply, and its width, the number of coordinates,
is the array cells per sample.  The shells {|f| > t^d} of the ladder are
nested, so one draw at the deepest cutoff covers all of them without
bias: the sampler draws samples_per_shell points once and returns the
arrays (log f, log w, mask), where f is |f| at each point, w its
importance weight (domain measure over sampling density) and mask marks
the points inside the deepest cutoff domain.  Each kept draw falls in one
segment, the shallowest shell whose cut it clears, and shell j reads
segments 0..j, so every shell shares the same random numbers.  The
pipeline turns the draw into
log I(t, lambda) = log mean(|f|^(-2 lambda) * w * [|f| > t^d]) for every
shell and lambda, fits the slopes of all lambdas in one least-squares
pass and extracts the threshold.  Sampling is importance-weighted toward
the zero set: most draws solve one coordinate for a log-uniform |f|,
since uniform sampling under-resolves the singular locus.

Arrays are laid out as rows of samples, one row per coordinate, so every
numpy call runs over long rows in real arithmetic.  Radii, |f| and
densities are held as logs, so no cutoff a double can hold underflows.
The pipeline sorts the kept draws by segment once, then integrates each
lambda in one pass over one buffer, shifting each segment by its own
maximum.

All randomness flows from one counter-based Philox stream keyed by the
seed, so a given config gives bit-identical estimates.  Before anything
is sampled, the array cells of the draw and the integrand evaluations of a
run (samples x (probe points + shells)) are checked against MAX_CELLS and
MAX_EVALUATIONS, and a config holds at most MAX_GRID_POINTS probe points.
While a run integrates and fits, -2 lambda log f, each log I and each
fit's residual sum must stay finite floats, or the run raises InputError:
a grid that large cannot place the threshold.  Results are test
instruments only; no exact code path consumes them.
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
# Work caps, checked before anything is sampled: array cells of the draw
# (samples x integrand width) and integrand evaluations (samples x (probe
# points + shells)): the one draw is evaluated once per probe point and
# compared once per shell cut.  The defaults use 4e4 cells per coordinate
# (8e4 for bp) and 1.04e6 evaluations.
MAX_CELLS = 4_000_000
MAX_EVALUATIONS = 10 ** 9
# Probe points per run.  Each costs about 46 us and 0.5 KiB that the
# evaluation cap does not count (its Fraction, float, slope and fit); a
# full grid at 1,000 samples runs `oracle monomial` in 0.61 s at 44.5 MiB
# peak RSS on a 2-CPU Xeon VM.
MAX_GRID_POINTS = 10_000
# Largest power of a coordinate: d log t and every m log r then stay
# finite floats for every cutoff t a double can hold.
MAX_POWER = 10 ** 300


@dataclass(frozen=True)
class OracleConfig:
    """Monte-Carlo protocol parameters.

    cutoffs must decrease strictly within (0, 1); a geometric ladder makes
    the log-log fit evenly weighted.  The default ladder is deep (1e-8 down
    to 1e-16) on purpose: one grid step below the threshold the cutoff
    integral converges like eps^q with q ~ 0.1, so shallow ladders leave a
    transient slope that spills past the cut and drags the estimate low.
    lambda_grid holds 3 to MAX_GRID_POINTS rationals to probe, sorted
    increasing; the threshold finder assumes near-uniform spacing.
    tolerance is the default relative error for verify_threshold.
    samples_per_shell is the size of the one draw, at the deepest cutoff,
    that every shell reads.
    seed keys the Philox stream and must lie in [0, 2**63).
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
        if len(grid) > MAX_GRID_POINTS:
            raise InputError(
                f"lambda_grid has {len(grid)} points, more than the cap {MAX_GRID_POINTS}"
            )
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


def _check_work(cfg: OracleConfig, width: int) -> None:
    """Raise InputError if a run of this width exceeds a work cap."""
    cells = cfg.samples_per_shell * width
    if cells > MAX_CELLS:
        raise InputError(
            f"samples_per_shell x integrand width = {cells} array cells exceeds "
            f"the cap {MAX_CELLS}"
        )
    evals = cfg.samples_per_shell * (len(cfg.lambda_grid) + len(cfg.cutoffs))
    if evals > MAX_EVALUATIONS:
        raise InputError(
            f"samples_per_shell x (lambda_grid + cutoffs) = {evals} evaluations "
            f"exceeds the cap {MAX_EVALUATIONS}"
        )


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def _slope_fit(log_eps, log_i):
    """Least-squares slopes of the rows of log I against log eps, with
    their standard errors, as two lists.

    A row whose residual sum is not finite (log I so large that the fit
    leaves the float range) raises InputError, naming the first such row.
    """
    x = np.asarray(log_eps)
    xm = x - x.mean()
    sxx = float(xm @ xm)
    with np.errstate(over="ignore", invalid="ignore"):
        y = log_i - np.mean(log_i, axis=1, keepdims=True)
        slopes = y @ xm / sxx
        y -= slopes[:, None] * xm
        rss = np.einsum("ij,ij->i", y, y)
    bad = ~np.isfinite(rss)
    if bad.any():
        raise InputError(
            f"the slope fit of log I (up to {float(np.abs(log_i[bad.argmax()]).max()):.3g}) "
            "against log eps overflows a float; probe a smaller lambda_grid"
        )
    ses = np.sqrt(np.maximum(rss, 0.0) / max(len(x) - 2, 1) / sxx)
    return slopes.tolist(), ses.tolist()


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


def _integrate_ladder(log_f, log_w, mask, power, cutoffs, lam_f) -> np.ndarray:
    """log I(t, lambda) of every ladder cutoff t (columns) for every lambda
    (rows), from one draw at the deepest cutoff.

    The draws where mask holds make up the deepest shell.  Each of them
    gets a segment, the shallowest shell j whose cut power * log t_j it
    clears (the count of shallower cuts it misses), and they are stably
    sorted by segment, so shell j reads segments 0..j.  For each lambda
    one pass over the draws forms x = -2 lambda log_f + log_w, takes each
    segment's maximum and its sum of exp(x - maximum); shell j's log I is
    the log-sum-exp of segments 0..j less log(mask.size), so draws outside
    a shell count as zeros.  Shifting each segment by its own maximum
    keeps a ladder spanning hundreds of decades from underflowing its
    shallow shells.  The input arrays are only read.

    A shallow shell without a kept draw raises InputError naming the
    shallowest cutoff.  A lambda for which -2 lambda log_f or a log I is
    not a finite float raises InputError naming the shallowest shell it
    reaches: a grid that large says nothing about the threshold.  Float
    products round monotonically, so -2 lambda log_f is finite over a shell
    exactly when 2 lambda times the shell's largest |log_f| is.
    """
    cuts = [power * math.log(t) for t in cutoffs]
    log_f, log_w = log_f[mask], log_w[mask]
    # A small unsigned dtype makes the stable sort a radix sort.
    seg = np.zeros(len(log_f), np.min_scalar_type(len(cuts)))
    for cut in cuts[:-1]:
        seg += log_f <= cut
    counts = np.bincount(seg, minlength=len(cuts))
    if not counts[0]:
        raise InputError(
            f"no admissible samples at cutoff {cutoffs[0]}: the cutoff neighborhood "
            "covers the sampled domain or samples_per_shell is too small"
        )
    order = np.argsort(seg, kind="stable")
    log_f, log_w = log_f[order], log_w[order]
    full = counts > 0
    sizes = counts[full]
    starts = np.cumsum(sizes) - sizes
    # Shell j's last nonempty segment, and its largest |log_f|.
    last = np.cumsum(full) - 1
    span = np.maximum.accumulate(np.maximum.reduceat(np.abs(log_f), starts))[last].tolist()
    log_total = math.log(mask.size)
    buf = np.empty(len(log_f))
    log_i = np.empty((len(lam_f), len(cuts)))
    for row, lam in zip(log_i, lam_f):
        if not math.isfinite(2.0 * lam * span[-1]):
            j = next(j for j, s in enumerate(span) if not math.isfinite(2.0 * lam * s))
            raise InputError(
                f"-2 lambda log|f| overflows a float at lambda = {lam:.3g}, "
                f"cutoff {cutoffs[j]}; probe a smaller lambda_grid"
            )
        np.multiply(log_f, -2.0 * lam, out=buf)
        with np.errstate(over="ignore", invalid="ignore"):
            buf += log_w
            top = np.maximum.reduceat(buf, starts)
            buf -= np.repeat(top, sizes)
            np.exp(buf, out=buf)
            top += np.log(np.add.reduceat(buf, starts))
            np.take(np.logaddexp.accumulate(top), last, out=row)
        row -= log_total
        bad = ~np.isfinite(row)
        if bad.any():
            raise InputError(
                f"log I is not a finite float at lambda = {lam:.3g}, "
                f"cutoff {cutoffs[int(bad.argmax())]}; probe a smaller lambda_grid"
            )
    return log_i


def _estimate(powers, is_sum: bool, cfg: OracleConfig) -> ExponentEstimate:
    """Shared pipeline for f = sum (is_sum) or product of z_j^(m_j), m the
    powers: draw once, integrate every shell and lambda, fit, extract.

    The work caps are checked first, for len(powers) cells per sample, and
    only then is _power_sampler called, once, at the deepest cutoff, on
    the Philox stream of the seed; _integrate_ladder reads every shell of
    the ladder from that one draw.  The cut is at |f| > t^d, d the largest
    power, so K = 2d.
    """
    _check_work(cfg, len(powers))
    d = max(powers)
    log_f, log_w, mask = _power_sampler(powers, is_sum, cfg.samples_per_shell,
                                        _rng(cfg.seed), cfg.cutoffs[-1])
    lam_f = [float(l) for l in cfg.lambda_grid]
    log_i = _integrate_ladder(log_f, log_w, mask, d, cfg.cutoffs, lam_f)
    slopes, ses = _slope_fit([math.log(t) for t in cfg.cutoffs], log_i)
    return _extract_threshold(cfg.lambda_grid, slopes, ses, 2.0 * d)


# ---------------------------------------------------------------------------
# Sums and products of coordinate powers on the unit polydisc


def estimate_monomial_threshold(exponents, cfg: OracleConfig) -> ExponentEstimate:
    """Probe the integrability threshold 1/d of |prod z_j^(a_j)|^(-2 lambda),
    d the largest exponent: cutoff t cuts at |f| > t^d, so K = 2d."""
    exps = tuple(check_int(a, "exponent", 1, MAX_POWER) for a in exponents)
    if not exps:
        raise InputError("exponent list must be nonempty")
    return _estimate(exps, False, cfg)


def estimate_bp_threshold(n: int, cfg: OracleConfig) -> ExponentEstimate:
    """Probe the integrability threshold 2/n of |u^n + v^n|^(-2 lambda):
    cutoff t cuts at |f| > t^n, so K = 2n."""
    n = check_int(n, "n", 2, MAX_POWER)
    return _estimate((n, n), True, cfg)


def _log_radii(u, lt, out):
    """Write to out the log radii of uniforms u (overwritten) under the
    per-coordinate density q: half uniform on the unit disc (r^2 = 1 - 2u
    below u = 1/2), half log-uniform on [t, 1] (r = t^(2u - 1) above).
    Each branch reads log 1 or 0 * log t where the other one is taken."""
    u *= 2.0
    u -= 1.0
    np.log(np.maximum(np.negative(u, out=out), u >= 0, out=out), out=out)
    out *= 0.5
    np.maximum(u, 0.0, out=u)
    u *= lt
    out += u


def _log_abs_sum(la, lb, s2):
    """log|A + B| from log|A|, log|B| and s2, the sin^2 of half the angle
    between A and B, scaled by the larger term: with rho = lo/hi <= 1,
    |A + B|^2 = hi^2 ((1 - rho)^2 + 4 rho s2)."""
    hi = np.maximum(la, lb)
    rho = np.exp(np.minimum(la, lb) - hi)
    return hi + 0.5 * np.log((1.0 - rho) ** 2 + 4.0 * rho * s2)


def _log_abs_terms(lr, m, s2, is_sum):
    """log|f| of the terms z_i^(m_i), with log radii in the rows of lr: of
    their product, or of their sum at the relative angles of the rows of s2."""
    lp = lr * m
    if not is_sum:
        return np.add.reduce(lp, axis=0)
    acc = lp[0]
    for row, s in zip(lp[1:], s2):
        acc = _log_abs_sum(acc, row, s)
    return acc


def _power_sampler(powers, is_sum, n_s, rng, t):
    """Draw n_s points from rng for f = sum or product of z_j^(m_j) over
    the unit polydisc of C^k, cut at |f| > t^d with d the largest power,
    and return fresh arrays (log_f, log_w, mask): the log of |f|, the log
    importance weight (domain measure over sampling density), and which
    draws lie in the cut domain.  Entries outside the mask mean nothing.

    The mixture has k + 1 components, each over a fixed block of columns.
    The first fifth draws every coordinate from the product density q of
    _log_radii.  Block j draws the others from q and |w| log-uniform on
    [t^d, top], top = 1 for a product and k for a sum, and solves
    |z_j|^(m_j) = |w - rest| (or |w| / |rest|), so that |f| = |w| exactly.
    At a uniform root, that is density q(z_-j) p_w(|f|) |d_j f|^2 / m_j
    with p_w(w) = 1 / (2 pi |w|^2 log(top / t^d)).  The weight is the
    reciprocal of the mixture density, each component weighted by its
    share of the columns.

    Densities depend on radii and |f| alone, so the only angles drawn are
    the relative ones a sum needs for |f| and |w - rest|: rows of sin^2 of
    half angles after the k rows of uniforms.  Everything is a log.
    """
    k = len(powers)
    d = max(powers)
    m = np.array(powers, dtype=float)[:, None]
    n_base = round(0.2 * n_s)
    ends = [n_base + (n_s - n_base) * j // k for j in range(k + 1)]
    blocks = [slice(a, b) for a, b in zip(ends, ends[1:])]
    base = slice(0, n_base)
    # Block j solves its row j and draws the others from q: with one
    # coordinate only the first block draws from q.
    drawn = slice(0, n_s) if k > 1 else base
    others = [np.arange(k) != j for j in range(k)]
    with np.errstate(divide="ignore"):
        log_shares = np.log(np.diff([0] + ends) / n_s)
    log_base, log_shares = log_shares[0], log_shares[1:, None] + np.log(m)
    log_top = math.log(k) if is_sum else 0.0
    lt = math.log(t)
    log_cut = d * lt
    u = rng.random((2 * k - 1 if is_sum else k, n_s))
    u, s2 = u[:k], u[k:]
    # Block j's |w| first: _log_radii overwrites the uniforms it reads.
    log_f = np.empty(n_s)
    for j, cols in enumerate(blocks):
        np.multiply(u[j, cols], log_cut - log_top, out=log_f[cols])
        log_f[cols] += log_top
    lr = np.empty((k, n_s))
    _log_radii(u[:, drawn], lt, lr[:, drawn])
    # Half angles uniform on [-pi/2, pi/2) and off 0 by half a step of
    # the draws, so that no sum cancels to 0.
    s2 -= 0.5 - 2.0 ** -54
    np.sin(s2 * math.pi, out=s2)
    s2 *= s2
    for j, cols in enumerate(blocks):
        log_w = log_f[cols]
        if k > 1:
            rest = _log_abs_terms(lr[others[j], cols], m[others[j]], s2[:, cols], is_sum)
            log_w = _log_abs_sum(log_w, rest, s2[-1, cols]) if is_sum else log_w - rest
        np.divide(log_w, m[j], out=lr[j, cols])
    log_f[base] = _log_abs_terms(lr[:, base], m, s2[:, base], is_sum)
    log_wt = np.maximum.reduce(lr, axis=0)
    mask = (log_wt <= 0.0) & (log_f > log_cut)
    # Capping the radii outside the mask at 1 keeps every density finite.
    np.minimum(lr, 0.0, out=lr)
    # q_i = s_i / r_i^2, s_i = r_i^2 / (2 pi) + [r_i >= t] / (4 pi log(1/t)),
    # whose first term alone a double holds below t only as a log.
    high = lr >= lt
    lr *= 2.0
    ls = np.exp(lr, out=u)
    ls /= 2 * math.pi
    np.add(ls, 1 / (4 * math.pi * -lt), out=ls, where=high)
    with np.errstate(divide="ignore"):
        np.log(ls, out=ls)
    if not high.all():
        ls[~high] = lr[~high] - math.log(2 * math.pi)
    # log of the mixture density over prod_i q_i: the first block's term
    # plus block j's c_j [(r_j^m_j / |f|)^2] / s_j for each j, with
    # c_j = m_j / (2 pi log(top / t^d)).
    extra = lr * m - 2.0 * log_f if is_sum else 0.0
    lr -= ls
    np.add.reduce(lr, axis=0, out=log_wt)
    terms = np.subtract(log_shares - math.log(2 * math.pi * (log_top - log_cut)), ls, out=ls)
    terms += extra
    top = np.maximum(np.maximum.reduce(terms, axis=0, out=lr[0]), log_base, out=lr[0])
    terms -= top
    np.exp(terms, out=terms)
    log_wt -= top
    mix = np.exp(np.subtract(log_base, top, out=top), out=top)
    for row in terms:
        mix += row
    log_wt -= np.log(mix, out=mix)
    return log_f, log_wt, mask


def verify_threshold(analytic, est: ExponentEstimate, tol: float) -> bool:
    """Relative agreement test: |estimate - analytic| / analytic <= tol."""
    analytic = check_rational(analytic, "analytic threshold")
    if analytic <= 0:
        raise InputError("analytic threshold must be positive")
    tol = _check_tolerance(tol)
    return abs(est.threshold_estimate - float(analytic)) / float(analytic) <= tol
