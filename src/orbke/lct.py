"""Arithmetic Kähler-Einstein criteria via integrability thresholds.

Everything here reduces KE existence checks to exact rational
inequalities, decided in integers by cross-multiplication: a Fraction is
built only for a value a report records or a function returns.  Ingredients:

  delta  volume-weighted boundary mass, (sum d_i (1 - 1/m_i)) / (n+1)
  beta   delta / (1 - delta), defined for 0 < delta < 1
  c      integrability threshold of the covering density; for a simple
         normal crossing boundary it is min_i 1/(m_i - 1), and +infinity
         when there is no ramification at all

and the sufficient criterion is the strict inequality 1/c < beta.  The
threshold c = +infinity is an explicit sentinel object (INF), never a large
number: the disjoint-ramification argument concludes "no local obstruction"
outright, not a limit.

A criterion failure (including the boundary case 1/c = beta) means the
sufficient test failed, not that no KE metric exists.

The A_k label convention: an A_k point is the cyclic quotient singularity
C^2/Z_{k+1} with action (u, v) -> (eps u, eps^-1 v), so its local threshold
is 2/(k+1); A_1 and A_2 pass against beta = 2, A_3 hits equality and fails
the strict test.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, InvalidQuadricPencil, NotFanoOrbifold, check_int, check_rational
from .exactmath import Rat


class Unbounded:
    """Singleton sentinel for an infinite integrability threshold.

    Callers test for it with `is INF`: it equals and hashes by identity,
    and copy, deepcopy and pickle return it (it reduces to the name INF).
    It has no ordering, so comparing it with a rational raises TypeError
    rather than silently ranking it.  1/INF is treated as exact zero where
    a reciprocal is recorded.  repr/str is "inf" for serialization.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"

    __str__ = __repr__

    def __reduce__(self):
        return "INF"


INF = Unbounded()

# Argument routes a KeReport can cite.  identity-cover: criterion applied
# directly on the variety with its boundary.  quotient-cover: thresholds of
# local quotient-singularity models feed the same criterion.  The two
# quadric routes belong to the degree-4 case analysis.
METHODS = ("identity-cover", "quotient-cover", "disjoint-ramification", "quotient-of-quadric")


@dataclass(frozen=True)
class SncFanoData:
    """Boundary data on projective n-space: divisors of degree d with order m.

    entries are (degree, order) pairs, degree >= 1 and order >= 2, each
    meaning the divisor enters the boundary with coefficient 1 - 1/order.
    The simple-normal-crossing hypothesis on the divisor arrangement is an
    input assertion, echoed in the report, never verified geometrically.
    """

    n: int
    entries: tuple

    def __post_init__(self):
        object.__setattr__(self, "n", check_int(self.n, "dimension", 1))
        object.__setattr__(self, "entries", tuple(
            (check_int(d, "degree", 1), check_int(m, "order", 2)) for d, m in self.entries
        ))

    @property
    def orders(self) -> tuple:
        return tuple(m for _, m in self.entries)


@dataclass(frozen=True)
class KeReport:
    """Outcome of one KE criterion evaluation.

    conditions rows are (name, lhs, rhs, holds) with every row meaning the
    strict inequality lhs < rhs; passes, a property, is their conjunction.
    delta, beta and the row sides are Fractions, c a Fraction or INF.
    beta is None when delta lies outside (0,1) (no Fano normalization
    exists, so the criterion fails on the delta rows alone); otherwise it
    must equal delta/(1 - delta), or AssertionError (under python -O too).
    assumptions carries input hypotheses asserted rather than verified.
    """

    delta: Rat
    beta: object
    c: object
    conditions: tuple
    method: str
    assumptions: tuple = ()

    def __post_init__(self):
        if self.method not in METHODS:
            raise InputError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.beta is not None:
            a, b = self.delta.numerator, self.delta.denominator
            if 0 < a < b and self.beta.numerator * (b - a) != self.beta.denominator * a:
                raise AssertionError("beta inconsistent with delta")

    @property
    def passes(self) -> bool:
        return all(holds for *_, holds in self.conditions)


@dataclass(frozen=True)
class DelPezzo2:
    """A degree-2 del Pezzo surface described by its A_k singular points."""

    singularities: tuple

    def __post_init__(self):
        object.__setattr__(self, "singularities", tuple(
            check_int(k, "singularity label k of A_k", 1) for k in self.singularities
        ))


@dataclass(frozen=True)
class DelPezzo4:
    """A diagonal degree-4 del Pezzo surface, given by the three quadric
    pencil parameters (lambda2, lambda3, lambda4), all nonzero."""

    lambdas: tuple

    def __post_init__(self):
        vals = tuple(self.lambdas)
        if len(vals) != 3:
            raise InputError(f"exactly 3 pencil parameters required, got {len(vals)}")
        vals = tuple(check_rational(lam, "pencil parameter") for lam in vals)
        if 0 in vals:
            raise InvalidQuadricPencil("zero pencil parameter degenerates the quadric")
        object.__setattr__(self, "lambdas", vals)


# ---------------------------------------------------------------------------
# Scalar operations


def delta_pn(data: SncFanoData) -> Rat:
    """Exact delta = (sum of d_i (1 - 1/m_i)) / (n + 1), the sum kept in integers; 0 if empty."""
    N, P = 0, 1
    for d, m in data.entries:
        N, P = N * m + d * (m - 1) * P, P * m
    return Fraction(N, P * (data.n + 1))


def beta_of_delta(delta) -> Rat:
    """beta = delta / (1 - delta), requiring 0 < delta < 1."""
    delta = check_rational(delta, "delta")
    a, b = delta.numerator, delta.denominator
    if not 0 < a < b:
        raise NotFanoOrbifold(
            f"beta needs 0 < delta < 1 (got {delta}): boundary empty or not Fano"
        )
    return Fraction(a, b - a)


def snc_threshold(orders):
    """min over orders m of 1/(m-1); INF for an empty list (no ramification)."""
    orders = tuple(check_int(m, "order", 2) for m in orders)
    if not orders:
        return INF
    return Fraction(1, max(orders) - 1)


def monomial_lct(exponents) -> Rat:
    """Integrability threshold of |prod z_j^(a_j)|^(-2 lambda): min_j 1/a_j."""
    exponents = tuple(check_int(a, "exponent", 1) for a in exponents)
    if not exponents:
        raise InputError("exponent list must be nonempty")
    return Fraction(1, max(exponents))


def ke_criterion(c, beta) -> bool:
    """The sufficient KE test: strict 1/c < beta (always true for c = INF)."""
    beta = check_rational(beta, "beta")
    if beta.numerator <= 0:
        raise InputError(f"beta must be positive, got {beta}")
    if c is INF:
        return True
    c = check_rational(c, "threshold c")
    if c.numerator <= 0:
        raise InputError(f"threshold must be positive, got {c}")
    # With c = p/q and beta = r/s, all positive: 1/c < beta iff q*s < r*p.
    return c.denominator * beta.denominator < beta.numerator * c.numerator


_ZERO, _ONE = Fraction(0), Fraction(1)
_DP2_DELTA, _DP2_BETA = Fraction(2, 3), Fraction(2)


# ---------------------------------------------------------------------------
# Criterion reports


def snc_ke_check(data: SncFanoData) -> KeReport:
    """Full criterion for a simple-normal-crossing boundary on P^n.

    Never raises on a Fano failure: delta outside (0,1) yields a failing
    report whose delta rows show which side broke (beta is then None).
    When 0 < delta < 1 the report records the criterion in both equivalent
    forms, max_order - 1 < beta and max_order * (1 - delta) < 1, and
    raises AssertionError if they disagree.
    """
    delta = delta_pn(data)
    a, b = delta.numerator, delta.denominator
    c = snc_threshold(data.orders)
    conditions = [
        ("zero-below-delta", _ZERO, delta, 0 < a),
        ("delta-below-one", delta, _ONE, a < b),
    ]
    beta = None
    if 0 < a < b:
        # 0 < delta needs a divisor, so c = 1/(max_order - 1) is finite here.
        beta = beta_of_delta(delta)
        m_max = max(data.orders)
        theorem_form = ke_criterion(c, beta)
        example_form = m_max * (b - a) < b  # m_max * (1 - delta) < 1
        if theorem_form != example_form:
            raise AssertionError(f"criterion forms disagree for {data}, delta={delta}")
        conditions += [
            ("max-order-minus-one-below-beta", Fraction(m_max - 1), beta, theorem_form),
            ("scaled-complement-below-one", Fraction(m_max * (b - a), b), _ONE, example_form),
        ]
    return KeReport(
        delta=delta,
        beta=beta,
        c=c,
        conditions=tuple(conditions),
        method="identity-cover",
        assumptions=("snc-arrangement-asserted-not-verified",),
    )


def dp2_check(s: DelPezzo2) -> KeReport:
    """Degree-2 del Pezzo criterion: every A_k threshold 2/(k+1) against beta=2.

    The smooth model carries delta = 2/3 and beta = 2; each A_k point
    contributes local threshold 2/(k+1), so c is their minimum (INF when
    smooth) and the strict test 1/c < 2 passes exactly when every k <= 2.
    A_3 lands on equality and fails.
    """
    ks = sorted(s.singularities)
    c = Fraction(2, ks[-1] + 1) if ks else INF
    conditions = []
    reciprocal = _ZERO  # 1/c: the largest k's (k+1)/2, or exact zero when smooth
    for k in ks:
        reciprocal = Fraction(k + 1, 2)  # 1/(2/(k+1)), below beta = 2 iff k + 1 < 4
        conditions.append((f"A{k}-local-threshold", reciprocal, _DP2_BETA, k + 1 < 4))
    overall = ke_criterion(c, _DP2_BETA)
    conditions.append(("reciprocal-threshold-below-beta", reciprocal, _DP2_BETA, overall))
    return KeReport(
        delta=_DP2_DELTA,
        beta=_DP2_BETA,
        c=c,
        conditions=tuple(conditions),
        method="quotient-cover",
    )


def dp4_check(s: DelPezzo4) -> KeReport:
    """Degree-4 diagonal del Pezzo: KE holds for every nonzero pencil.

    Pairwise distinct parameters give three coverings with disjoint
    ramification, hence threshold INF (method disjoint-ramification); a
    coincident pair identifies the surface as a quadric quotient, KE by
    transport (method quotient-of-quadric).  Zero parameters are rejected
    at construction.
    """
    l2, l3, l4 = s.lambdas
    distinct = l2 != l3 and l2 != l4 and l3 != l4
    method = "disjoint-ramification" if distinct else "quotient-of-quadric"
    conditions = (
        ("reciprocal-threshold-below-beta", _ZERO, _ONE, ke_criterion(INF, _ONE)),
    )
    return KeReport(
        delta=_ZERO,
        beta=_ONE,
        c=INF,
        conditions=conditions,
        method=method,
        assumptions=("pencil-diagonalizability-asserted-not-verified",),
    )
