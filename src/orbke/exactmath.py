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
The walk counts on top of a table of the integers coprime to a small
modulus q (Legendre's phi(x, a) with the small-prime table of
Meissel-Lehmer), so its products run only over the primes outside q;
`count_coprime_in_range` uses the empty table q = 1, and the search
tabulates the smallest primes of a prefix once for all of its leaves.

`coprime_factorizations` gives the distinct primes of every integer in a
window by a segmented sieve (Bays-Hudson), for the search's orders at
every depth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, compress

from .errors import InputError

Rat = Fraction

# Trial division handles everything below this bound squared.
_TRIAL_BOUND = 10_000

# Largest modulus of a coprime-count table (see coprime_table).
TABLE_CAP = 4096

# Sizes of the first and of the largest block of coprime_factorizations.
_BLOCK_FIRST = 256
_BLOCK_CAP = 8192

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


def coprime_table(primes: tuple[int, ...]):
    """(phi, rest): a coprime-count table for the smallest of the ascending `primes`.

    q is the product of the longest run of the smallest primes with
    q <= TABLE_CAP, and phi[r] = #{1 <= k <= r : gcd(k, q) = 1} for
    0 <= r <= q, so phi has q + 1 entries and phi[q] is Euler's phi(q).
    rest holds the primes left out of q, ascending.  With no prime small
    enough, q = 1 and phi is the empty table (0, 1).
    """
    q = 1
    k = 0
    while k < len(primes) and q * primes[k] <= TABLE_CAP:
        q *= primes[k]
        k += 1
    marks = bytearray([1]) * (q + 1)
    marks[0] = 0
    for p in primes[:k]:
        marks[p::p] = bytes(q // p)
    return tuple(accumulate(marks)), primes[k:]


_NO_TABLE = (0, 1)


def _count_positive(lo: int, hi: int, primes: tuple[int, ...] | list[int], phi=_NO_TABLE) -> int:
    """Count of k in [lo, hi], 1 <= lo, coprime to the ascending `primes` and to q.

    phi is a table from `coprime_table` for a modulus q coprime to every
    prime in `primes`, so the count of k <= x coprime to q is
    phi_q(x) = (x // q) * phi[q] + phi[x % q].  Inclusion-exclusion over
    the squarefree products d of the primes adds (-1)^(number of primes)
    * (phi_q(hi//d) - phi_q((lo-1)//d)): the multiples k = d*j in range
    with j coprime to q, which are coprime to q as d is.  The empty table
    gives phi_q(x) = x, plain inclusion-exclusion.  Products are built
    level by level (one more prime each) in ascending prime order.  A d
    whose term is zero leaves no such k in range, and so does every
    multiple of d, so d is not extended; in particular the first d*p > hi
    ends the extensions of d.
    """
    if lo > hi:
        return 0
    q = len(phi) - 1
    per = phi[q]
    below = lo - 1
    total = (hi // q - below // q) * per + phi[hi % q] - phi[below % q]
    level = [(1, 0)]  # (product, index of the first prime it may take next)
    sign = -1
    while level:
        extended = []
        for d, start in level:
            for i in range(start, len(primes)):
                e = d * primes[i]
                if e > hi:
                    break
                x = hi // e
                y = below // e
                term = (x // q - y // q) * per + phi[x % q] - phi[y % q]
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
    inclusion-exclusion of `_count_positive` with the empty table, whose
    work is bounded by the squarefree products of the primes up to hi, not
    by all 2^k subsets.
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


def _primes_upto(top: int) -> list[int]:
    """All primes p <= top, by the sieve of Eratosthenes."""
    marks = bytearray([1]) * (top + 1)
    marks[:2] = b"\0\0"
    for p in range(2, math.isqrt(top) + 1):
        if marks[p]:
            marks[p * p::p] = bytes(len(range(p * p, top + 1, p)))
    return list(compress(range(top + 1), marks))


def coprime_factorizations(lo: int, hi: int, skip: tuple[int, ...] = ()):
    """Yield (v, primes of v) for the v in [lo, hi), lo >= 1, coprime to `skip`.

    The v come ascending, and the primes of v are its distinct primes,
    ascending: the same as `factorize(v).primes`.  A segmented sieve:
    each block [start, end) first drops the multiples of the `skip`
    primes, then is sieved by the other primes p <= isqrt(end - 1), and
    dividing out every power of them leaves each entry a cofactor of 1 or
    a prime above isqrt(end - 1).  Blocks start at _BLOCK_FIRST entries
    and double up to _BLOCK_CAP, so a short window costs a short sieve
    and a long one a bounded amount of memory.  The sieving primes grow
    with the blocks: when isqrt(end - 1) passes their limit, the limit
    becomes the larger of that root and twice the old limit, so the
    primes held are bounded by the orders reached, not by hi.
    """
    sieving = []
    limit = 0
    start = lo
    size = _BLOCK_FIRST
    while start < hi:
        end = min(start + size, hi)
        width = end - start
        keep = bytearray([1]) * width
        for p in skip:
            keep[-start % p::p] = bytes(len(range(-start % p, width, p)))
        factors = [[] for _ in range(width)]
        rest = list(range(start, end))
        top = math.isqrt(end - 1)
        if top > limit:
            limit = max(top, 2 * limit)
            sieving = [p for p in _primes_upto(limit) if p not in skip]
        for p in sieving:
            if p > top:
                break
            for j in range(-start % p, width, p):
                factors[j].append(p)
            power = p
            while power < end:
                for j in range(-start % power, width, power):
                    rest[j] //= p
                power *= p
        for j in compress(range(width), keep):
            if rest[j] > 1:
                factors[j].append(rest[j])
        yield from zip(compress(range(start, end), keep), compress(factors, keep))
        start = end
        size = min(2 * size, _BLOCK_CAP)


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
