"""Hyperplane-arrangement orbifolds on P^n and the exact existence bounds.

A tuple of n+2 pairwise-coprime ramification indices (m0,...,m_{n+1}),
attached to n+2 hyperplanes in general position, determines the orbifold
up to isomorphism, so tuples are canonicalized to sorted order.  The first
Chern class identifies with the rational number sum(1/mi) - 1; positivity
and two strict upper bounds against (n+1)/(n*max) and (n+1)/max classify
each tuple into exactly one of four verdicts:

    NotFano      c1 <= 0
    OldKE        c1 > 0 and c1 < (n+1)/(n*m_max)   (previously known bound)
    NewOnlyKE    c1 > 0 and c1 < (n+1)/m_max only  (new metrics)
    NoCriterion  c1 > 0 but neither bound holds

All comparisons are exact; equality on a bound classifies as the weaker
verdict.  The associated odd-dimensional link data M = prod(mi),
wi = M/mi is carried alongside.  For pairwise coprime exponents every
vertex of the Brieskorn graph is isolated, so the link of
sum z_i^{m_i} = 0 is a homology sphere for every n, and by Brieskorn's
criterion it is homeomorphic to the sphere S^{2n+1} for n >= 2, which is
what makes these counts sphere-metric counts there.  For n = 1 the link
is a homology 3-sphere that need not be S^3: (2, 3, 5) gives the
Poincare homology sphere.  The verdict counts orbifold
structures; the metric correspondence can fail in the presence of a
holomorphic contact structure, which this package does not attempt to
detect (reports carry the caveat).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import OrderBelowMinimum, PairwiseCoprimeViolation, WrongLength, InputError
from .exactmath import Rat, harmonic_sum

CLASSIFICATIONS = ("NotFano", "OldKE", "NewOnlyKE", "NoCriterion")


@dataclass(frozen=True)
class RamTuple:
    """Sorted ramification indices of an n-dimensional arrangement orbifold."""

    n: int
    orders: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise InputError(f"dimension must be >= 1, got {self.n}")
        if len(self.orders) != self.n + 2:
            raise WrongLength(
                f"dimension {self.n} needs {self.n + 2} orders, got {len(self.orders)}"
            )
        if any(self.orders[i] > self.orders[i + 1] for i in range(len(self.orders) - 1)):
            raise InputError("orders must be sorted; use make_tuple to canonicalize")
        if self.orders[0] < 1:
            raise OrderBelowMinimum(f"order {self.orders[0]} is below 1")


@dataclass(frozen=True)
class FanoReport:
    """Exact evaluation of the positivity and both existence bounds.

    old_lhs equals c1 (both bounds share the left-hand side); old_ok and
    new_ok are the raw strict inequalities, independent of positivity.
    """

    c1: Rat
    fano: bool
    old_lhs: Rat
    old_rhs: Rat
    new_rhs: Rat
    old_ok: bool
    new_ok: bool
    classification: str


@dataclass(frozen=True)
class LinkData:
    """Weighted link data: M = prod(orders), weights wi = M/mi."""

    M: int
    weights: tuple[int, ...]


def is_pairwise_coprime(orders) -> bool:
    """True iff gcd(mi, mj) = 1 for every pair i != j."""
    prod = 1
    for m in orders:
        if math.gcd(m, prod) != 1:
            return False
        prod *= m
    return True


def _first_coprime_violation(orders):
    for i in range(len(orders)):
        for j in range(i + 1, len(orders)):
            g = math.gcd(orders[i], orders[j])
            if g != 1:
                return orders[i], orders[j], g
    return None


def make_tuple(n: int, orders, min_order: int = 2) -> RamTuple:
    """Validate and canonicalize ramification indices into a RamTuple.

    min_order=1 admits multiplicity-zero divisors (the arrangement
    degenerates to a smaller one); the default 2 matches the usual setting
    where all entries are then automatically distinct.
    """
    if n < 1:
        raise InputError(f"dimension must be >= 1, got {n}")
    if min_order not in (1, 2):
        raise InputError(f"min_order must be 1 or 2, got {min_order}")
    orders = tuple(int(m) for m in orders)
    if len(orders) != n + 2:
        raise WrongLength(f"dimension {n} needs {n + 2} orders, got {len(orders)}")
    for m in orders:
        if m < min_order:
            raise OrderBelowMinimum(f"order {m} is below the minimum {min_order}")
    if not is_pairwise_coprime(orders):
        a, b, g = _first_coprime_violation(orders)
        raise PairwiseCoprimeViolation(f"gcd({a},{b})={g}")
    return RamTuple(n, tuple(sorted(orders)))


def first_chern(t: RamTuple) -> Rat:
    """c1 of the pair, identified with sum(1/mi) - 1."""
    return harmonic_sum(t.orders) - 1


def classify(t: RamTuple) -> FanoReport:
    """Evaluate both existence bounds exactly and attach the verdict.

    min over i of 1/mi is 1/(largest order), so both right-hand sides use
    the last entry of the sorted tuple.  With P = prod(mi) the first Chern
    class is D/P for the integer D = sum(P/mi) - P, so each comparison is
    one integer inequality: c1 > 0 iff D > 0, c1 < (n+1)/(n*m_max) iff
    n*m_max*D < (n+1)*P, and c1 < (n+1)/m_max iff m_max*D < (n+1)*P.
    """
    n = t.n
    m_max = t.orders[-1]
    P = math.prod(t.orders)
    D = sum(P // m for m in t.orders) - P
    c1 = Fraction(D, P)
    fano = D > 0
    old_ok = n * m_max * D < (n + 1) * P
    new_ok = m_max * D < (n + 1) * P
    if not fano:
        label = "NotFano"
    elif old_ok:
        label = "OldKE"
    elif new_ok:
        label = "NewOnlyKE"
    else:
        label = "NoCriterion"
    return FanoReport(
        c1=c1,
        fano=fano,
        old_lhs=c1,
        old_rhs=Fraction(n + 1, n * m_max),
        new_rhs=Fraction(n + 1, m_max),
        old_ok=old_ok,
        new_ok=new_ok,
        classification=label,
    )


def link_weights(t: RamTuple) -> LinkData:
    """M = prod(mi) and the weight vector wi = M/mi (so wi*mi = M)."""
    M = math.prod(t.orders)
    return LinkData(M=M, weights=tuple(M // m for m in t.orders))
