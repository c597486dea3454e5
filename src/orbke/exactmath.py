"""Exact integer and rational arithmetic substrate.

Rationals are fractions.Fraction, re-exported as Rat: always lowest terms,
positive denominator, exact comparisons.  No floating point is used anywhere
in criteria evaluation.

Factorization is trial division up to a fixed bound followed by Brent's
cycle-finding rho with deterministic parameter seeding, which covers the
intended range (inputs up to ~1e14) in well under a second.  This is not a
general-purpose factoring library.  When trial division reaches a p with
p*p above the cofactor, the cofactor is 1 or prime and no primality test
runs; Miller-Rabin and rho see only cofactors left when the bound runs out.

Coprime counting is inclusion-exclusion over the squarefree products d of
the given primes, pruned: a d with no multiple in the range adds zero, as
does every multiple of d, so the walk visits only products up to the top
of the range.  Ranges reaching below 1 are reflected onto positive ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError

Rat = Fraction

# Trial division handles everything below this bound squared.
_TRIAL_BOUND = 10_000

# Deterministic Miller-Rabin witness set, exact for n < 3.3e24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@dataclass(frozen=True)
class FactoredInt:
    """A positive integer with its complete prime factorization.

    `factors` is a tuple of (prime, exponent) pairs with strictly
    increasing primes; the product of prime**exponent equals `value`.
    """

    value: int
    factors: tuple[tuple[int, int], ...]

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def __post_init__(self):
        prod = 1
        for p, e in self.factors:
            prod *= p ** e
        if prod != self.value:
            raise ValueError("factorization does not multiply back to value")


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with a fixed witness set (deterministic below 3.3e24)."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int) -> int:
    """A nontrivial factor of composite odd n, deterministic parameter sweep."""
    if n % 2 == 0:
        return 2
    # Brent's variant; (y0, c) stepped deterministically until a split shows.
    for c in range(1, 1000):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            # backtrack one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed to split {n}")  # pragma: no cover


def factorize(n: int) -> FactoredInt:
    """Complete prime factorization of n >= 1; n = 1 has no factors.

    Deterministic.  Trial division stops at the first p with p*p > n: the
    cofactor then has no prime factor below p and is below p*p, so it is 1
    or a prime and is recorded without a primality test.  Only when the
    trial bound runs out first does the cofactor go to Miller-Rabin and
    Brent rho with a fixed parameter sweep.
    """
    if not isinstance(n, int) or isinstance(n, bool):
        raise InputError(f"factorize expects an integer, got {type(n).__name__}")
    if n < 1:
        raise InputError(f"factorize expects n >= 1, got {n}")
    value = n
    counts: dict[int, int] = {}
    for p in range(2, _TRIAL_BOUND):
        if p * p > n:
            if n > 1:
                counts[n] = 1
            break
        while n % p == 0:
            counts[p] = counts.get(p, 0) + 1
            n //= p
    else:
        # The bound ran out with p*p <= n, so n > 1 may still be composite.
        stack = [n]
        while stack:
            m = stack.pop()
            if is_probable_prime(m):
                counts[m] = counts.get(m, 0) + 1
                continue
            d = _brent_rho(m)
            stack.append(d)
            stack.append(m // d)
    return FactoredInt(value, tuple(sorted(counts.items())))


def _count_positive(lo: int, hi: int, primes: tuple[int, ...]) -> int:
    """Count of k in [lo, hi], 1 <= lo, coprime to the ascending `primes`.

    Inclusion-exclusion over the squarefree products d of the primes, each
    adding (-1)^(number of primes) * (hi//d - (lo-1)//d), the multiples of d
    in range.  Products are built level by level (one more prime each) in
    ascending prime order.  A d with no multiple in range adds zero, and so
    does every multiple of d, so d is not extended; in particular the first
    d*p > hi ends the extensions of d.
    """
    if lo > hi:
        return 0
    below = lo - 1
    total = hi - below
    level = [(1, 0)]  # (product, index of the first prime it may take next)
    sign = -1
    while level:
        extended = []
        for d, start in level:
            for i in range(start, len(primes)):
                e = d * primes[i]
                if e > hi:
                    break
                term = hi // e - below // e
                if term:
                    total += sign * term
                    extended.append((e, i + 1))
        level = extended
        sign = -sign
    return total


def count_coprime_in_range(lo: int, hi: int, primes) -> int:
    """Exact count of k in the closed interval [lo, hi] coprime to all `primes`.

    An empty range (lo > hi) counts 0.  Primality of the entries is the
    caller's contract; distinctness is checked; their order is free.  The
    range splits into its positive part, its negative part reflected (-k
    is coprime exactly when k is) and 0, which is coprime only to the empty
    set of primes.  Both positive ranges go through the pruned
    inclusion-exclusion of `_count_positive`, whose work is bounded by the
    squarefree products of the primes up to hi, not by all 2^k subsets.
    """
    primes = tuple(primes)
    if len(set(primes)) != len(primes):
        raise InputError(f"primes must be distinct, got {primes}")
    if any(p < 2 for p in primes):
        raise InputError(f"primes must be >= 2, got {primes}")
    ascending = tuple(sorted(primes))
    zero = int(not primes and lo <= 0 <= hi)
    return (
        _count_positive(max(lo, 1), hi, ascending)
        + _count_positive(max(-hi, 1), -lo, ascending)
        + zero
    )


def coprime_in_range(lo: int, hi: int, modulus: int):
    """Yield k in [lo, hi] with gcd(k, modulus) == 1, ascending."""
    for k in range(lo, hi + 1):
        if math.gcd(k, modulus) == 1:
            yield k


def harmonic_sum(orders) -> Rat:
    """Exact sum of reciprocals of the given positive integers."""
    total = Fraction(0)
    for m in orders:
        if m < 1:
            raise InputError(f"orders must be >= 1, got {m}")
        total += Fraction(1, m)
    return total
