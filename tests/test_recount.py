"""The frozen NewOnlyKE counts, recounted by a path that shares no code with the package.

Nothing here imports orbke (`test_source` pins that).  The recount works
from the definitions in the orbifold module's docstring: c1 = sum(1/m_i) - 1
over the n+2 orders, and a tuple is NewOnlyKE when c1 > 0 and
c1 < (n+1)/m_max but not c1 < (n+1)/(n*m_max).  It walks the prefixes in
Fractions, finds each window of the last order by bisection on those three
inequalities and counts the orders in it coprime to the prefix by
Legendre's recursion.
"""

from __future__ import annotations

import bisect
import itertools
import math
from fractions import Fraction


def _hot_prefixes(n, root=()):
    """(prefix, S) for the sorted coprime (n+1)-prefixes below root that can carry NewOnlyKE.

    Fraction arithmetic only, as in acceptance criterion [02]; shares no
    code with the interval solver.  NewOnlyKE needs S > 1.  An entry m with
    k prefix slots left (its own included) and partial sum s before it can
    push S above 1 only if s + k/m > 1, since later entries are >= m; and
    once s >= 1, S - 1 >= s + 1/m - 1 and the last order is >= m, so the
    new bound needs m*(s - 1) + 1 < n.  Both tests fail for every larger m
    once they fail.
    """
    out = []

    def rec(prefix, s):
        k = n + 1 - len(prefix)
        if k == 0:
            if s > 1:
                out.append((prefix, s))
            return
        for m in itertools.count(prefix[-1] + 1 if prefix else 2):
            if s + Fraction(k, m) <= 1 or (s >= 1 and m * (s - 1) + 1 >= n):
                break
            if math.gcd(m, math.prod(prefix)) == 1:
                rec(prefix + (m,), s + Fraction(1, m))

    rec(root, sum(Fraction(1, m) for m in root))
    return out


def _rank(n, s, m):
    """Rank of the class of last order m after a prefix sum s: 0 OldKE, 1 NewOnlyKE, 2 NoCriterion, 3 NotFano.

    The three inequalities on c1 = s + 1/m - 1 are taken times m*P > 0,
    with s = N/P in lowest terms: d = c1*m*P = (N - P)*m + P.
    """
    N, P = s.numerator, s.denominator
    d = (N - P) * m + P
    if not d > 0:
        return 3
    if n * d < (n + 1) * P:
        return 0
    if d < (n + 1) * P:
        return 1
    return 2


def _primes(x):
    """The distinct primes of x, by trial division."""
    out = []
    p = 2
    while p * p <= x:
        if x % p == 0:
            out.append(p)
            while x % p == 0:
                x //= p
        p += 1
    if x > 1:
        out.append(x)
    return out


def _legendre(x, primes):
    """The integers in [1, x] coprime to every one of primes."""
    if not primes or x == 0:
        return x
    return _legendre(x, primes[1:]) - _legendre(x // primes[0], primes[1:])


def _recount_new(n, prefix, s):
    """NewOnlyKE tuples prefix + (m,) with m >= max(prefix) coprime to the prefix.

    Along m both bounds hold and then fail, the new one last, so the class
    runs OldKE, NewOnlyKE, NoCriterion: the window is [first m of rank 1,
    first m of rank 2), and the new bound fails by m = ceil(n/(s - 1)).
    """
    ms = range(prefix[-1], max(prefix[-1], math.ceil(n / (s - 1))) + 1)
    lo, hi = (ms[0] + bisect.bisect_left(ms, k, key=lambda m: _rank(n, s, m)) for k in (1, 2))
    primes = sorted({p for entry in prefix for p in _primes(entry)})
    return _legendre(hi - 1, primes) - _legendre(lo - 1, primes)


def _recount(n):
    return sum(_recount_new(n, prefix, s) for prefix, s in _hot_prefixes(n))


def test_dim3_new_only_ke():
    assert _recount(3) == 2484


def test_dim4_new_only_ke():
    assert _recount(4) == 8369332
