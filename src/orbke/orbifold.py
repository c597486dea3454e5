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

A tuple is a `RamTuple` (n, orders) and its evaluation a `FanoReport`;
both are immutable named tuples, each built by one tuple construction.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction

from .errors import InputError, OrderBelowMinimum, PairwiseCoprimeViolation, WrongLength, check_int
from .exactmath import Rat

CLASSIFICATIONS = ("NotFano", "OldKE", "NewOnlyKE", "NoCriterion")


class _Frozen:
    """Immutable attributes, as on a frozen dataclass: no name can be set or deleted."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class RamTuple(_Frozen, namedtuple("RamTuple", "n orders")):
    """Sorted ramification indices of an n-dimensional arrangement orbifold.

    A tuple (n, orders).  Construction checks structure only (integer
    entries, dimension, length, sorted, first order >= 1): the search
    builds one per tuple from coprime orders, and outside input goes
    through `make_tuple` and `check_orders`.  Orders are stored as a tuple
    of plain ints, whatever sequence of Integral entries (numpy integers,
    say) they came as.  Every way to build one runs these checks: `_make`
    and `_replace` call the constructor, and copy and pickle rebuild
    through `__new__`.
    """

    __slots__ = ()

    def __new__(cls, n, orders):
        if type(n) is not int:
            n = check_int(n, "dimension")
        if type(orders) is not tuple or set(map(type, orders)) - {int}:
            orders = tuple(check_int(m, "order") for m in orders)
        if n < 1:
            raise InputError(f"dimension must be >= 1, got {n}")
        if len(orders) != n + 2:
            raise WrongLength(f"dimension {n} needs {n + 2} orders, got {len(orders)}")
        if list(orders) != sorted(orders):
            raise InputError("orders must be sorted; use make_tuple to canonicalize")
        if orders[0] < 1:
            raise OrderBelowMinimum(f"order {orders[0]} is below 1")
        return tuple.__new__(cls, (n, orders))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class FanoReport(_Frozen, namedtuple(
        "FanoReport", "n m_max D P fano old_ok new_ok classification")):
    """Exact evaluation of the positivity and both existence bounds.

    A tuple of the fields: integers, three flags and the verdict:
    c1 = D/P with P the product of the orders, and m_max the largest
    order; old_ok and new_ok are the raw strict inequalities, independent
    of positivity.  The rational sides of the inequalities are derived
    properties, each built as a Fraction on every read: c1, old_lhs (an
    alias of c1, as both bounds share the left-hand side),
    old_rhs = (n+1)/(n*m_max) and new_rhs = (n+1)/m_max.  A report holds
    its fields only: no `__dict__`, as on a RamTuple.  Equality and
    hashing see the fields only.
    """

    __slots__ = ()

    @property
    def c1(self) -> Rat:
        return Fraction(self.D, self.P)

    old_lhs = c1

    @property
    def old_rhs(self) -> Rat:
        return Fraction(self.n + 1, self.n * self.m_max)

    @property
    def new_rhs(self) -> Rat:
        return Fraction(self.n + 1, self.m_max)


@dataclass(frozen=True)
class LinkData:
    """Weighted link data: M = prod(orders), weights wi = M/mi."""

    M: int
    weights: tuple[int, ...]


def check_orders(orders, min_order: int) -> tuple[int, ...]:
    """orders as plain ints >= min_order, checked nondecreasing and pairwise coprime.

    One gcd scan against the product of the earlier orders finds the first
    order sharing a prime, and PairwiseCoprimeViolation names that pair.
    """
    return _sorted_coprime(tuple(check_int(m, "order", min_order, error=OrderBelowMinimum)
                                 for m in orders))


def _sorted_coprime(orders: tuple[int, ...]) -> tuple[int, ...]:
    prod = 1
    for i, m in enumerate(orders):
        if i and m < orders[i - 1]:
            raise InputError(f"orders must be sorted nondecreasing, got {orders}")
        if math.gcd(m, prod) != 1:
            a = next(a for a in orders[:i] if math.gcd(a, m) != 1)
            raise PairwiseCoprimeViolation(f"gcd({a},{m})={math.gcd(a, m)}")
        prod *= m
    return orders


def make_tuple(n: int, orders, min_order: int = 2) -> RamTuple:
    """Validate and canonicalize ramification indices into a RamTuple.

    min_order=1 admits multiplicity-zero divisors (the arrangement
    degenerates to a smaller one); the default 2 matches the usual setting
    where all entries are then automatically distinct.
    """
    n = check_int(n, "dimension", 1)
    min_order = check_int(min_order, "min_order", 1, 2)
    orders = sorted(check_int(m, "order") for m in orders)
    if len(orders) != n + 2:
        raise WrongLength(f"dimension {n} needs {n + 2} orders, got {len(orders)}")
    check_int(orders[0], "order", min_order, error=OrderBelowMinimum)  # the smallest order
    return RamTuple(n, _sorted_coprime(tuple(orders)))


def verdict_fields(n: int, m_max: int, D: int, P: int) -> tuple:
    """The fields of a FanoReport after n: (m_max, D, P, fano, old_ok, new_ok, label).

    m_max is the largest order, P the product of the orders and D/P the
    first Chern class.  Each comparison is one integer inequality:
    c1 > 0 iff D > 0, c1 < (n+1)/(n*m_max) iff n*m_max*D < (n+1)*P, and
    c1 < (n+1)/m_max iff m_max*D < (n+1)*P.  This is the one place a
    label is decided: `fano_fields` calls it for a tuple of orders, and
    the search's rows call it with the sums of each row's own orders.
    """
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
    return m_max, D, P, fano, old_ok, new_ok, label


def fano_fields(n: int, orders: tuple[int, ...]) -> tuple:
    """The `verdict_fields` of sorted orders: m_max, P and D computed from the orders.

    min over i of 1/mi is 1/(largest order), so both right-hand sides use
    the last entry.  With P = prod(mi) the first Chern class is D/P for
    the integer D = sum(P/mi) - P.  `classify` wraps these fields in a
    FanoReport.
    """
    P = math.prod(orders)
    return verdict_fields(n, orders[-1], sum(map(P.__floordiv__, orders)) - P, P)


def classify(t: RamTuple) -> FanoReport:
    """Evaluate both existence bounds exactly and attach the verdict (see fano_fields).

    No Fraction is built here: the report derives them on each read.
    """
    return FanoReport(t.n, *fano_fields(t.n, t.orders))


def link_weights(t: RamTuple) -> LinkData:
    """M = prod(mi) and the weight vector wi = M/mi (so wi*mi = M)."""
    M = math.prod(t.orders)
    return LinkData(M=M, weights=tuple(M // m for m in t.orders))
