"""Factorization, coprime counting, and exact rational arithmetic."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbke import classify, count_coprime_in_range, factorize
from orbke import exactmath
from orbke.errors import InputError, OrderBelowMinimum, WrongLength
from orbke.exactmath import (
    _BLOCK_CAP,
    FACTOR_CAP,
    TABLE_CAP,
    FactoredInt,
    _count_positive,
    _keep_mask,
    coprime_factorizations,
    coprime_in_range,
    coprime_table,
)
from orbke.orbifold import RamTuple

from conftest import coprime_counts


def _trial_division(n):
    """Reference factorization: divide by every d while d*d <= n."""
    factors = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            factors.append((d, e))
        d += 1
    if n > 1:
        factors.append((n, 1))
    return tuple(factors)


def _is_prime(p):
    return _trial_division(p) == ((p, 1),)


def _first_primes(count):
    primes = []
    k = 2
    while len(primes) < count:
        if all(k % p for p in primes):
            primes.append(k)
        k += 1
    return primes


class TestFactorize:
    def test_unit_has_no_factors(self):
        f = factorize(1)
        assert f.value == 1
        assert f.factors == ()
        assert f.primes == ()

    def test_510(self):
        assert factorize(510).factors == ((2, 1), (3, 1), (5, 1), (17, 1))

    def test_1807(self):
        assert factorize(1807).factors == ((13, 1), (139, 1))

    def test_prime_power(self):
        assert factorize(2**10 * 3**4).factors == ((2, 10), (3, 4))

    def test_large_semiprime(self):
        # Trial division runs up to the smaller factor.
        p, q = 1_000_003, 1_000_033
        assert factorize(p * q).factors == ((p, 1), (q, 1))

    def test_sylvester_tail_values(self):
        # c7 and c7 - 2 arise in the dimension-6 family construction.
        c7 = 10650056950807
        assert factorize(c7).factors == ((547, 1), (607, 1), (1033, 1), (31051, 1))
        assert math.prod(p**e for p, e in factorize(c7 - 2).factors) == c7 - 2

    @pytest.mark.parametrize("bad", [0, -5, 2.0, "6", True])
    def test_rejects_nonpositive_and_nonint(self, bad):
        with pytest.raises(InputError):
            factorize(bad)

    def test_matches_trial_division_below_200000(self):
        for n in range(1, 200_000):
            assert factorize(n).factors == _trial_division(n), n

    @pytest.mark.parametrize(
        "n",
        [
            9973 * 10007,  # the cofactor left after 9973 is a prime
            10007**2,  # a prime squared: the division stops at that prime
            9_999_991,  # a prime below 10**8
            1_000_000_000_039,  # a 13-digit prime
            10_009 * 10_037,  # two close primes
            2 * 9973 * 10007,
            10**8 - 1,
            10**8 + 1,
        ],
    )
    def test_cofactors(self, n):
        f = factorize(n)
        assert f.factors == _trial_division(n)
        assert all(_is_prime(p) for p in f.primes)

    def test_carmichael_numbers_split_into_three_primes(self):
        # 561 and 1729 fool the Fermat test; division does not.
        assert factorize(561).factors == ((3, 1), (11, 1), (17, 1))
        assert factorize(1729).factors == ((7, 1), (13, 1), (19, 1))

    def test_cap_itself_factors(self):
        assert factorize(FACTOR_CAP).factors == ((2, 14), (5, 14))

    @pytest.mark.parametrize("n", [
        FACTOR_CAP + 1,
        # A strong pseudoprime to the twelve prime bases up to 37, above the cap.
        3317044064679887385961981,
    ])
    def test_above_the_cap_raises(self, n):
        with pytest.raises(InputError, match="factorize input must be in 1.."):
            factorize(n)

    def test_largest_prime_below_the_cap_returns_itself(self):
        # The worst case under the cap: division runs to its square root.
        p = 99_999_999_999_973
        assert factorize(p).factors == ((p, 1),)

    def test_matches_sympy_factorint(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(29)
        for _ in range(300):
            # Sizes spread evenly over the digit counts up to the cap.
            n = rng.randint(1, 10 ** rng.randint(1, 14))
            assert factorize(n).factors == tuple(sorted(sympy.factorint(n).items())), n

    def test_factored_int_checks_product(self):
        with pytest.raises(ValueError):
            FactoredInt(10, ((2, 1), (3, 1)))

    @given(st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=300, deadline=None)
    def test_roundtrip_and_primality(self, n):
        f = factorize(n)
        assert math.prod(p**e for p, e in f.factors) == n
        assert all(_is_prime(p) for p in f.primes)
        assert list(f.primes) == sorted(set(f.primes))


def _check_stack_walk(lo, hi, primes):
    """_count_positive over [lo, hi], lo >= 1, against a gcd scan.

    On the table coprime_table builds for the primes with no top and no
    window (periodic, modulus at most TABLE_CAP), with the rest walked; on
    the one it builds for top hi and a window of hi v (a range table below
    the primes' product, else a periodic one of up to 8*hi entries); and
    on the empty table with every prime walked.
    """
    modulus = math.prod(primes)
    scan = sum(1 for k in range(lo, hi + 1) if math.gcd(k, modulus) == 1)
    ascending = tuple(sorted(primes))
    top = max(hi, 0)
    for phi, rest in (coprime_table(ascending, None, 0), coprime_table(ascending, top, top)):
        assert _count_positive(lo, hi, rest, phi) == scan, (lo, hi, primes, len(phi))
    assert _count_positive(lo, hi, ascending) == scan, (lo, hi, primes)


class TestCountCoprimeInRange:
    def test_totient_of_30(self):
        assert count_coprime_in_range(1, 30, (2, 3, 5)) == 8

    def test_family_window(self):
        assert count_coprime_in_range(6, 59, (2, 3, 5)) == 15

    def test_empty_range(self):
        assert count_coprime_in_range(10, 9, (2,)) == 0

    def test_no_primes_counts_everything(self):
        assert count_coprime_in_range(4, 9, ()) == 6

    def test_rejects_duplicates(self):
        with pytest.raises(InputError):
            count_coprime_in_range(1, 10, (2, 2))

    def test_rejects_nonprime_small(self):
        with pytest.raises(InputError):
            count_coprime_in_range(1, 10, (1, 3))

    @given(
        lo=st.integers(min_value=-(10**6), max_value=10**6),
        width=st.integers(min_value=0, max_value=10**4),
        primes=st.lists(st.sampled_from([2, 3, 5, 7, 11, 13]), unique=True),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force_scan(self, lo, width, primes):
        hi = lo + width
        modulus = math.prod(primes) if primes else 1
        brute = sum(1 for k in range(lo, hi + 1) if math.gcd(k, modulus) == 1)
        assert count_coprime_in_range(lo, hi, tuple(primes)) == brute

    def test_seeded_ranges_match_brute_force_scan(self):
        # count_coprime_in_range on every range, and the search's stack walk
        # _count_positive on the positive part of it, both on the primes'
        # coprime_table and on the empty one, against a gcd scan.
        rng = random.Random(20261018)
        pool = _first_primes(10)
        cases = [(lo, lo + w) for lo in (-40, -7, -1, 0, 1, 2) for w in (0, 1, 10, 60)]
        cases += [(-60, -1), (-60, -59), (-5, 5), (0, 0), (1, 1), (0, 97), (1, 97)]
        for _ in range(300):
            lo = rng.randint(-3000, 3000)
            cases.append((lo, lo + rng.randint(-3, 3000)))
        for lo, hi in cases:
            for size in range(11):
                primes = rng.sample(pool, size)  # unsorted on purpose
                if rng.random() < 0.3:
                    primes.append(rng.choice((3001, 6007, 104_729)))  # mostly above hi
                modulus = math.prod(primes)
                brute = sum(1 for k in range(lo, hi + 1) if math.gcd(k, modulus) == 1)
                assert count_coprime_in_range(lo, hi, primes) == brute, (lo, hi, primes)
                _check_stack_walk(max(lo, 1), hi, primes)
        # The leaf shapes of the search: a table with no prime or one prime
        # left over (the median leaf: 43 after the table of 2*3*5*7*19 =
        # 3990 below (2,3,7,43,1805)), primes past TABLE_CAP, and long
        # ranges that wrap the table many times.
        shapes = [(), (4099,), (5, 4099), (2, 3, 7, 43), (2, 3, 5, 7, 19, 43),
                  (2, 3, 5, 7, 11, 13), (2, 3, 5, 7, 11, 4099, 4111), (3, 5, 7, 11, 1811)]
        for primes in shapes:
            for _ in range(6):
                lo = rng.randint(1, 30_000)
                _check_stack_walk(lo, lo + rng.randint(-2, 20_000), primes)
            for lo, hi in ((1, 1), (7, 7), (4100, 4100), (9, 8), (1, 0), (1, 60_000)):
                _check_stack_walk(lo, hi, primes)

    def test_forty_primes_to_a_million(self):
        # The full subset sum would have 2^40 terms.
        primes = _first_primes(40)
        hi = 10**6
        sieve = bytearray([1]) * (hi + 1)
        sieve[0] = 0
        for p in primes:
            sieve[p::p] = bytes(len(range(p, hi + 1, p)))
        assert count_coprime_in_range(1, hi, primes) == sum(sieve)
        assert count_coprime_in_range(-hi, -1, primes[::-1]) == sum(sieve)
        assert count_coprime_in_range(-hi, hi, primes) == 2 * sum(sieve)

    def test_zero_is_coprime_only_to_no_primes(self):
        assert count_coprime_in_range(0, 0, ()) == 1
        assert count_coprime_in_range(0, 0, (2,)) == 0
        assert count_coprime_in_range(-1, 1, (7,)) == 2

    def test_generator_agrees_with_count(self):
        vals = list(coprime_in_range(6, 59, (2, 3, 5)))
        assert vals == sorted(vals)
        assert len(vals) == 15
        assert vals[0] == 7 and vals[-1] == 59


class TestCoprimeTable:
    @pytest.mark.parametrize(
        "primes",
        [(), (2,), (2, 3, 7), (2, 3, 5, 7, 11), (2, 3, 5, 7, 19, 43), (5, 4099), (4099,)],
    )
    def test_matches_gcd_scan(self, primes):
        phi, rest = coprime_table(primes, None, 0)
        q = len(phi) - 1
        assert q <= TABLE_CAP
        assert q * math.prod(rest) == math.prod(primes)
        assert rest == primes[len(primes) - len(rest):]
        assert phi == coprime_counts(primes[:len(primes) - len(rest)], q)

    def test_range_table_within_the_budget(self):
        # A window of 125 v may spend 8 * 125 = 1000 entries: top 1000,
        # below the product 171,570, tabulates every prime over [0, 1000].
        primes = (2, 3, 5, 7, 19, 43)
        phi, rest = coprime_table(primes, 1000, 125)
        assert rest == () and phi == coprime_counts(primes, 1000)
        # One entry past the budget, or no top: the periodic table of
        # 2*3*5*7*19 = 3990.
        for top in (1001, None):
            phi, rest = coprime_table(primes, top, 125)
            assert rest == (43,) and phi == coprime_counts(primes[:5], 3990)
        # A top at or past the product: every prime fits a periodic table.
        phi, rest = coprime_table((2, 3, 7), 42, 100)
        assert rest == () and phi == coprime_counts((2, 3, 7), 42)

    def test_wide_windows_widen_the_periodic_modulus(self):
        # The primes below (2,3,7,43,1807), the heaviest dimension-5 slice.
        # From 2935 v on, a window may spend 23,480 entries, enough for
        # 2*3*7*13*43 = 23478; the budget stops at 2^16, so the slice's
        # 3,261,634 v tabulate no further prime.
        primes = (2, 3, 7, 13, 43, 139)
        for width, head in ((512, 4), (2934, 4), (2935, 5), (3_261_634, 5)):
            phi, rest = coprime_table(primes, None, width)
            assert rest == primes[head:] and len(phi) == math.prod(primes[:head]) + 1, width
        assert phi == coprime_counts(primes[:5], 23478)
        assert len(phi) - 1 <= exactmath._TABLE_MAX


class TestCoprimeFactorizations:
    def test_seeded_windows_match_factorize(self):
        # Windows cross the block edges (_BLOCK_CAP, 2 * _BLOCK_CAP, ...
        # past the start), one ends one entry past its first block and one
        # fills exactly one, and every window holds primes and 2*prime
        # entries, whose largest prime lies above the square root of its
        # block's end.
        rng = random.Random(20261018)
        edge = _BLOCK_CAP
        windows = [(1, 20_000), (edge - 3, 2 * edge - 2), (3 * edge - 2, 4 * edge - 2),
                   (10**6 - 300, 10**6 + _BLOCK_CAP + 300), (10**9 - 50, 10**9 + 150),
                   (1009 * 1013, 1009 * 1013 + 1)]
        for _ in range(6):
            lo = rng.randrange(1, 10**7)
            windows.append((lo, lo + rng.randrange(1, 512)))
        skips = [(), (2, 3, 7), (2, 3, 5, 7, 19, 43), (3, 10007), (1009, 1013)]
        for lo, hi in windows:
            skip = rng.choice(skips)
            got = list(coprime_factorizations(lo, hi, skip))
            want = [
                (v, factorize(v).primes)
                for v in range(lo, hi)
                if all(v % p for p in skip)
            ]
            assert [(v, tuple(ps)) for v, ps in got] == want, (lo, hi, skip)

    def test_empty_window(self):
        assert list(coprime_factorizations(5, 5)) == []

    def test_sieving_primes_grow_with_the_blocks(self, monkeypatch):
        # The first block of a window reaching 10**14 ends below 8,200, so
        # it needs no sieving prime above 90, whatever the window's end.
        tops = []
        primes_upto = exactmath._primes_upto
        monkeypatch.setattr(exactmath, "_primes_upto", lambda top: tops.append(top) or primes_upto(top))
        assert next(coprime_factorizations(3, 10**14, (2,))) == (3, [3])
        assert tops and max(tops) <= 100


def _gcd_scan(lo, hi, primes):
    """Reference: the k in [lo, hi] with gcd(k, prod(primes)) == 1, one gcd each."""
    modulus = math.prod(primes)
    return [k for k in range(lo, hi + 1) if math.gcd(k, modulus) == 1]


class TestCoprimeInRange:
    """The block sieve of coprime_in_range against a plain gcd scan."""

    PRIMES = [(), (2,), (2, 3, 5), (2, 3, 7, 43), (2, 3, 5, 7, 19, 43), (3, 10007),
              (1009, 1013), (5, 13, 1_000_003)]

    def test_is_a_generator(self):
        gen = coprime_in_range(1, 10, (2,))
        assert iter(gen) is gen
        assert list(gen) == [1, 3, 5, 7, 9]

    def test_seeded_windows_match_gcd_scan(self):
        rng = random.Random(20261019)
        for _ in range(200):
            lo = rng.randrange(1, 10**9)
            hi = lo + rng.randrange(-2, 3 * _BLOCK_CAP // 4)
            primes = rng.choice(self.PRIMES)
            assert list(coprime_in_range(lo, hi, primes)) == _gcd_scan(lo, hi, primes), (
                lo, hi, primes)

    @pytest.mark.parametrize("lo, hi", [
        (1, _BLOCK_CAP),
        (1, _BLOCK_CAP + 1),
        (_BLOCK_CAP - 5, _BLOCK_CAP + 5),
        (10**6 - 7, 10**6 + 2 * _BLOCK_CAP + 11),
        (3, 3 * _BLOCK_CAP + 1),
    ])
    def test_windows_across_block_edges(self, lo, hi):
        for primes in self.PRIMES:
            assert list(coprime_in_range(lo, hi, primes)) == _gcd_scan(lo, hi, primes), primes

    def test_primes_wider_than_the_window(self):
        # Each prime marks at most one entry of the window, or none.
        for lo, hi in [(1, 5), (10006, 10008), (10007, 10007), (20015, 20020), (1, 1)]:
            for primes in [(10007,), (3, 10007), (1_000_003,), (10007, 1_000_003)]:
                assert list(coprime_in_range(lo, hi, primes)) == _gcd_scan(lo, hi, primes)
        assert list(coprime_in_range(10006, 10008, (10007,))) == [10006, 10008]

    def test_empty_windows(self):
        for primes in self.PRIMES:
            assert list(coprime_in_range(7, 6, primes)) == []
            assert list(coprime_in_range(100, 1, primes)) == []
        assert list(coprime_in_range(6, 6, (2, 3))) == []

    def test_lo_one(self):
        # 1 is coprime to everything, so it leads every window from 1.
        for primes in self.PRIMES:
            got = list(coprime_in_range(1, 500, primes))
            assert got[0] == 1 and got == _gcd_scan(1, 500, primes)
        assert list(coprime_in_range(1, 1, (2, 3))) == [1]


def _slice_mask(start, width, primes):
    """Reference keep-mask: one slice assignment per prime, wide primes included."""
    keep = bytearray([1]) * width
    for p in primes:
        first = -start % p
        keep[first::p] = bytes(len(range(first, width, p)))
    return keep


class TestKeepMask:
    """_keep_mask skips primes that miss the window; the mask must not change."""

    def test_seeded_windows_match_slice_mask(self):
        rng = random.Random(20261020)
        for _ in range(500):
            start = rng.randrange(1, 10**7)
            width = rng.randrange(0, 64)
            pool = [2, 3, 5, 7, 11, 13, 31, 61, 67, 127, 10007]
            primes = sorted(rng.sample(pool, rng.randrange(6)))
            assert _keep_mask(start, width, primes) == _slice_mask(start, width, primes), (
                start, width, primes)

    @pytest.mark.parametrize("width", [0, 1, 2, 5])
    def test_primes_wider_than_the_window(self, width):
        # first multiple at the window's last entry, just past it, and far past it.
        for start in range(10001, 10012):
            for primes in [(10007,), (7, 10007), (10007, 1_000_003), (2, 3, 10007)]:
                got = _keep_mask(start, width, primes)
                assert got == _slice_mask(start, width, primes), (start, width, primes)
                assert list(got) == [int(all((start + j) % p for p in primes))
                                     for j in range(width)]


def harmonic_sum(orders):
    """Reference sum of reciprocals, one Fraction at a time."""
    return sum((Fraction(1, m) for m in orders), Fraction(0))


def c1_plus_one(orders):
    """sum(1/mi) as classify computes it, on integers: c1 + 1 = D/P + 1."""
    return classify(RamTuple(len(orders) - 2, tuple(sorted(orders)))).c1 + 1


class TestHarmonicSum:
    # The harmonic sum of the orders is c1 + 1; classify computes it as an
    # integer numerator over the product of the orders.
    def test_235(self):
        assert c1_plus_one([2, 3, 5]) == harmonic_sum([2, 3, 5]) == Fraction(31, 30)

    def test_empty(self):
        # No orbifold has fewer than three orders, so there is no empty sum.
        with pytest.raises(WrongLength):
            RamTuple(1, ())

    def test_sylvester_prefix(self):
        assert c1_plus_one([2, 3, 7, 43]) == Fraction(1805, 1806)

    def test_rejects_nonpositive(self):
        with pytest.raises(OrderBelowMinimum):
            RamTuple(1, (0, 2, 3))

    @given(st.lists(st.integers(min_value=1, max_value=10**6), min_size=3, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_exactness(self, orders):
        # Orders need not be coprime here: the integer path is exact for any.
        assert c1_plus_one(orders) == harmonic_sum(orders)


_rats = st.fractions(
    min_value=-100, max_value=100, max_denominator=1_000_000
)


class TestRatArithmetic:
    @given(a=_rats, b=_rats, c=_rats)
    @settings(max_examples=200, deadline=None)
    def test_field_axioms_on_triples(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a and a * b == b * a

    @given(x=_rats)
    @settings(max_examples=100, deadline=None)
    def test_normalization_idempotent(self, x):
        y = Fraction(x.numerator, x.denominator)
        assert y.numerator == x.numerator and y.denominator == x.denominator
        assert y.denominator > 0
        assert math.gcd(y.numerator, y.denominator) == 1
