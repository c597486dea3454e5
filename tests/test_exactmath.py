"""Factorization, coprime counting, and exact rational arithmetic."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbke import count_coprime_in_range, factorize, harmonic_sum
from orbke import exactmath
from orbke.errors import InputError
from orbke.exactmath import (
    _BLOCK_CAP,
    _BLOCK_FIRST,
    _TRIAL_BOUND,
    TABLE_CAP,
    FactoredInt,
    coprime_factorizations,
    coprime_in_range,
    coprime_table,
    is_probable_prime,
)


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

    def test_large_semiprime_past_trial_bound(self):
        # Both factors exceed the trial-division bound; exercises rho.
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
            9973 * 10007,  # split by trial division, cofactor just past the bound
            10007**2,  # the bound runs out: a square of a prime above it
            9_999_991,  # a prime below the bound squared
            1_000_000_000_039,  # a 13-digit prime
            10_009 * 10_037,  # two primes above the bound
            2 * 9973 * 10007,
            _TRIAL_BOUND**2 - 1,
            _TRIAL_BOUND**2 + 1,
        ],
    )
    def test_cofactors_at_the_trial_bound(self, n):
        f = factorize(n)
        assert f.factors == _trial_division(n)
        assert all(is_probable_prime(p) for p in f.primes)

    def test_factored_int_checks_product(self):
        with pytest.raises(ValueError):
            FactoredInt(10, ((2, 1), (3, 1)))

    @given(st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=300, deadline=None)
    def test_roundtrip_and_primality(self, n):
        f = factorize(n)
        assert math.prod(p**e for p, e in f.factors) == n
        assert all(is_probable_prime(p) for p in f.primes)
        assert list(f.primes) == sorted(set(f.primes))


class TestPrimality:
    def test_known_primes(self):
        for p in (2, 3, 31051, 1_000_003, 2**31 - 1):
            assert is_probable_prime(p)

    def test_known_composites(self):
        # 561 and 1729 are Carmichael numbers; cheap pseudoprime traps.
        for c in (1, 0, 561, 1729, 1807, 2**31):
            assert not is_probable_prime(c)


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
        vals = list(coprime_in_range(6, 59, 30))
        assert vals == sorted(vals)
        assert len(vals) == 15
        assert vals[0] == 7 and vals[-1] == 59


class TestCoprimeTable:
    @pytest.mark.parametrize(
        "primes",
        [(), (2,), (2, 3, 7), (2, 3, 5, 7, 11), (2, 3, 5, 7, 19, 43), (5, 4099), (4099,)],
    )
    def test_matches_gcd_scan(self, primes):
        phi, rest = coprime_table(primes)
        q = len(phi) - 1
        assert q <= TABLE_CAP
        assert q * math.prod(rest) == math.prod(primes)
        assert rest == primes[len(primes) - len(rest):]
        running = [0]
        for k in range(1, q + 1):
            running.append(running[-1] + (math.gcd(k, q) == 1))
        assert list(phi) == running


class TestCoprimeFactorizations:
    def test_seeded_windows_match_factorize(self):
        # Windows cross the growing block edges (256, 768, 1792, ... past
        # the start), and every window holds primes and 2*prime entries,
        # whose largest prime lies above the square root of its block's end.
        rng = random.Random(20261018)
        edge = _BLOCK_FIRST
        windows = [(1, 20_000), (edge - 3, edge + 5), (3 * edge - 2, 3 * edge + 2),
                   (10**6 - 300, 10**6 + _BLOCK_CAP + 300), (10**9 - 50, 10**9 + 150),
                   (1009 * 1013, 1009 * 1013 + 1)]
        for _ in range(6):
            lo = rng.randrange(1, 10**7)
            windows.append((lo, lo + rng.randrange(1, 2 * _BLOCK_FIRST)))
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
        # The first block of a window reaching 10**14 ends below 300, so
        # it needs no sieving prime above 17, whatever the window's end.
        tops = []
        primes_upto = exactmath._primes_upto
        monkeypatch.setattr(exactmath, "_primes_upto", lambda top: tops.append(top) or primes_upto(top))
        assert next(coprime_factorizations(3, 10**14, (2,))) == (3, [3])
        assert tops and max(tops) <= 100


class TestHarmonicSum:
    def test_235(self):
        assert harmonic_sum([2, 3, 5]) == Fraction(31, 30)

    def test_empty(self):
        assert harmonic_sum([]) == 0

    def test_sylvester_prefix(self):
        assert harmonic_sum([2, 3, 7, 43]) == Fraction(1805, 1806)

    def test_rejects_nonpositive(self):
        with pytest.raises(InputError):
            harmonic_sum([2, 0, 3])

    @given(st.lists(st.integers(min_value=1, max_value=10**6), max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_exactness(self, orders):
        total = harmonic_sum(orders)
        assert total == sum(Fraction(1, m) for m in orders)


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
