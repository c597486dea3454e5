"""Exact integer and rational arithmetic substrate.

Rationals are fractions.Fraction, re-exported as Rat: always lowest terms,
positive denominator, exact comparisons.  No floating point is used anywhere
in criteria evaluation.

Factorization is trial division, accepted for inputs up to FACTOR_CAP =
1e14, so it takes at most 5e6 divisions; it is not a general-purpose
factoring library.

Coprime counting is inclusion-exclusion over the squarefree products d
of the given primes, pruned: a d with no multiple in the range adds
zero, as does every multiple of d, so the products, built one prime at a
time, stop at the top of the range.  Ranges reaching below 1 are
reflected onto positive ones.  The count runs on top of a table of the
running count of integers coprime to some of the primes (Legendre's
phi(x, a) with the small-prime table of Meissel-Lehmer), so its products
run only over the primes left out; `count_coprime_in_range` uses the
empty table.  `coprime_table` sizes a table by the window of orders that
will read it: a range table spans [0, top] for every prime, and each
term is then two lookups; a periodic table holds the smallest primes,
and the one built last is kept, so the search builds one only when the
tabulated primes differ from the last prefix's.

`coprime_factorizations` gives the distinct primes of every integer in a
window coprime to given primes, for the search's orders at every depth:
block by block, a keep-mask (`_keep_mask`) drops the multiples of the
given primes, and each kept v is factored by one gcd with the product of
the small sieving primes and a table of the block's larger ones.
`coprime_blocks` lists the integers of a window coprime to given primes
by the same keep-mask, one list per block, for the search's last
coordinates; `coprime_in_range` yields them one at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, compress, count

from .errors import InputError, check_int

Rat = Fraction

# Largest input of factorize: its trial divisors stay at most 1e7.
FACTOR_CAP = 10**14

# A coprime-count table for a window of w readers may spend
# min(_TABLE_MAX, _ENTRIES_PER_V * w) entries, and a periodic one may take
# a modulus up to TABLE_CAP whatever w is (see coprime_table).
TABLE_CAP = 4096
_ENTRIES_PER_V = 8
_TABLE_MAX = 1 << 16

# Entries per sieve block of coprime_factorizations and coprime_blocks.
_BLOCK_CAP = 8192


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


def factorize(n: int) -> FactoredInt:
    """Complete prime factorization of 1 <= n <= FACTOR_CAP; n = 1 has no factors.

    Trial division by 2 and then by each odd d while d*d is at most the
    cofactor left.  A cofactor above 1 then has no prime factor up to its
    square root, so it is prime, proved by the division itself.
    """
    n = check_int(n, "factorize input", 1, FACTOR_CAP)
    value = n
    factors = []
    for d in chain((2,), count(3, 2)):
        if d * d > n:
            break
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            factors.append((d, e))
    if n > 1:
        factors.append((n, 1))
    return FactoredInt(value, tuple(factors))


def coprime_table(primes: tuple[int, ...], top: int | None, width: int):
    """(phi, rest): a coprime-count table for the ascending `primes`, sized for `width` readers.

    phi[x] = #{1 <= k <= x : gcd(k, Q) = 1} for the product Q of the
    tabulated primes, and rest holds the primes left out, ascending.  A
    table may spend budget = min(_TABLE_MAX, _ENTRIES_PER_V * width)
    entries.  top, when given, is the largest x a count will look up.

    A range table spans [0, top]: when top is at most the budget and below
    the product of all the primes, every prime is tabulated (Q is their
    product, rest is empty) and phi has top + 1 entries.  It is built for
    the caller and not kept.

    Otherwise the table is periodic: Q = q, the product of the longest run
    of the smallest primes with q <= max(TABLE_CAP, budget), and phi spans
    [0, q], so phi[q] is Euler's phi(q).  With no prime small enough, q = 1
    and phi is the empty table (0, 1).  The last periodic table built is
    kept, so a run of states with the same tabulated primes builds one.
    """
    budget = min(_TABLE_MAX, _ENTRIES_PER_V * width)
    if top is not None and top <= budget and top < math.prod(primes):
        return _running_counts(primes, top), ()
    cap = max(TABLE_CAP, budget)
    q = 1
    k = 0
    while k < len(primes) and q * primes[k] <= cap:
        q *= primes[k]
        k += 1
    return _phi_table(primes[:k]), primes[k:]


def _running_counts(primes, top: int) -> tuple[int, ...]:
    """(phi[0], ..., phi[top]) with phi[x] the count of 1 <= k <= x divisible by none of the primes."""
    marks = bytearray([1]) * (top + 1)
    marks[0] = 0
    for p in primes:
        marks[p::p] = bytes(len(range(p, top + 1, p)))
    return tuple(accumulate(marks))


@lru_cache(maxsize=1)
def _phi_table(head: tuple[int, ...]) -> tuple[int, ...]:
    """The periodic phi of coprime_table for q = prod(head); one table is kept, the last built."""
    return _running_counts(head, math.prod(head))


_NO_TABLE = (0, 1)


def _count_positive(lo: int, hi: int, primes: tuple[int, ...] | list[int], phi=_NO_TABLE) -> int:
    """Count of k in [lo, hi], 1 <= lo, coprime to the ascending `primes` and to Q.

    phi is a table from `coprime_table` for a product Q of primes coprime
    to every prime in `primes`.  Inclusion-exclusion over the squarefree
    products d of the primes adds (-1)^(number of primes) * (phi_Q(hi//d)
    - phi_Q((lo-1)//d)), with phi_Q(x) the count of k <= x coprime to Q:
    the multiples k = d*j in range with j coprime to Q, which are coprime
    to Q as d is.  When the table spans [0, hi] (always for a range table,
    and for a periodic one whose modulus is at least hi), each phi_Q(x) is
    the lookup phi[x].  Otherwise the table is periodic with
    modulus q = len(phi) - 1 and phi_Q(x) = (x // q) * phi[q] + phi[x % q];
    the empty table gives phi_Q(x) = x, plain inclusion-exclusion.
    The signed products are built one prime at a time, in ascending order:
    `terms` holds (d, sign of d's extensions) for every product kept so
    far, and each prime p extends the terms kept before it, giving e =
    d*p.  An e above hi, or one whose term is zero, leaves no such k in
    range, and so does every multiple of e, so e is not kept and never
    extended; a prime above hi ends the walk.
    """
    if lo > hi:
        return 0
    q = len(phi) - 1
    per = phi[q]
    below = lo - 1
    span = hi <= q
    if span:
        total = phi[hi] - phi[below]
    else:
        total = (hi // q - below // q) * per + phi[hi % q] - phi[below % q]
    terms = [(1, -1)]
    for p in primes:
        if p > hi:
            break
        for d, sign in terms[:]:
            e = d * p
            if e > hi:
                continue
            x = hi // e
            y = below // e
            if span:
                term = phi[x] - phi[y]
            else:
                term = (x // q - y // q) * per + phi[x % q] - phi[y % q]
            if term:
                total += sign * term
                terms.append((e, -sign))
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
    lo, hi = check_int(lo, "lo"), check_int(hi, "hi")
    primes = tuple(check_int(p, "prime", 2) for p in primes)
    if len(set(primes)) != len(primes):
        raise InputError(f"primes must be distinct, got {primes}")
    ascending = tuple(sorted(primes))
    zero = int(not primes and lo <= 0 <= hi)
    return (
        _count_positive(max(lo, 1), hi, ascending)
        + _count_positive(max(-hi, 1), -lo, ascending)
        + zero
    )


def _keep_mask(start: int, width: int, primes) -> bytearray:
    """Keep-mask of [start, start + width): entry j is 0 when a prime divides start + j, else 1.

    A prime whose first multiple lies past the window marks nothing, so it
    costs one remainder and no slice assignment.
    """
    keep = bytearray([1]) * width
    for p in primes:
        first = -start % p
        if first < width:
            keep[first::p] = bytes(len(range(first, width, p)))
    return keep


@lru_cache(maxsize=64)
def _primes_upto(top: int) -> tuple[int, ...]:
    """All primes p <= top, by the sieve of Eratosthenes.

    The last 64 tops are kept: `coprime_factorizations` asks for the same
    few tops call after call (75 times for 12 tops in a count below
    (2, 3, 7, 29)).  A kept tuple is shared by every caller.
    """
    marks = bytearray([1]) * (top + 1)
    marks[:2] = b"\0\0"
    for p in range(2, math.isqrt(top) + 1):
        if marks[p]:
            marks[p * p::p] = bytes(len(range(p * p, top + 1, p)))
    return tuple(compress(range(top + 1), marks))


def _split(g: int, primes) -> list[int]:
    """The distinct primes of a squarefree g whose primes all lie in the ascending `primes`.

    Trial division stops once p*p exceeds what is left, which is then 1
    or a prime.
    """
    found = []
    for p in primes:
        if p * p > g:
            break
        if g % p == 0:
            found.append(p)
            g //= p
    if g > 1:
        found.append(g)
    return found


def coprime_factorizations(lo: int, hi: int, skip: tuple[int, ...] = ()):
    """Yield (v, primes of v) for the v in [lo, hi), lo >= 1, coprime to `skip`.

    The v come ascending, and the primes of v are its distinct primes,
    ascending: the same as `factorize(v).primes`.  Block by block: each
    block [start, end) drops the multiples of the `skip` primes by one
    keep-mask (`_keep_mask`), and only its kept entries are factored.  The
    sieving primes are the primes outside `skip` up to a limit of at least
    isqrt(end - 1).  The small ones, those p with p**3 < end, multiply
    into Q, so one g = gcd(v, Q) is the product of the small primes of v.
    g is split into primes by trial division (`_split`), through a cache
    that lives for one block, and the cofactor v // g is freed of their
    powers by gcd.  What is left has only primes p with p**3 >= end > v,
    so at most two, and at most one above isqrt(end - 1).  The larger of
    them up to isqrt(end - 1) is read from the block's table `large`,
    which one slice assignment per larger sieving prime fills, ascending,
    so the largest one dividing an entry is the one left there; dividing
    out its powers leaves 1 or one prime, below or above it.

    Blocks hold at most _BLOCK_CAP entries, as in coprime_blocks, so a
    long window costs a bounded amount of memory.  The sieving primes grow
    with the blocks: when isqrt(end - 1) passes their limit, the limit
    becomes the larger of that root and twice the old limit, so the primes
    held are bounded by the orders reached, not by hi; Q takes each small
    prime as the blocks reach it.
    """
    gcd = math.gcd
    sieving = []
    limit = 0
    small = 0
    Q = 1
    start = lo
    while start < hi:
        end = min(start + _BLOCK_CAP, hi)
        width = end - start
        top = math.isqrt(end - 1)
        if top > limit:
            limit = max(top, 2 * limit)
            sieving = [p for p in _primes_upto(limit) if p not in skip]
        while small < len(sieving) and sieving[small] ** 3 < end:
            Q *= sieving[small]
            small += 1
        large = [0] * width
        for p in sieving[small:]:
            if p > top:
                break
            first = -start % p
            large[first::p] = [p] * len(range(first, width, p))
        split = {}
        for j in compress(range(width), _keep_mask(start, width, skip)):
            v = start + j
            g = gcd(v, Q)
            primes = split.get(g)
            if primes is None:
                primes = split[g] = _split(g, sieving)
            r = v // g
            h = gcd(r, g)
            while h > 1:
                r //= h
                h = gcd(r, h)
            if r == 1:
                yield v, primes[:]
                continue
            p = large[j]
            if not p:
                yield v, primes + [r]
                continue
            r //= p
            while r % p == 0:
                r //= p
            if r == 1:
                yield v, primes + [p]
            elif r < p:
                yield v, primes + [r, p]
            else:
                yield v, primes + [p, r]
        start = end


def coprime_blocks(lo: int, hi: int, primes):
    """Yield the k in [lo, hi] divisible by none of the `primes` as ascending lists, one per block.

    A sieve, block by block: each block of at most _BLOCK_CAP entries is
    one keep-mask (`_keep_mask`), and the list of its kept entries is
    yielded unless it is empty.  An empty range (lo > hi) yields nothing,
    0 is kept only for no primes, and a prime wider than a block marks at
    most one entry of it.
    """
    start = lo
    while start <= hi:
        end = min(start + _BLOCK_CAP, hi + 1)
        kept = list(compress(range(start, end), _keep_mask(start, end - start, primes)))
        if kept:
            yield kept
        start = end


def coprime_in_range(lo: int, hi: int, primes):
    """Yield the k in [lo, hi] divisible by none of the `primes`, ascending (see coprime_blocks)."""
    for block in coprime_blocks(lo, hi, primes):
        yield from block
