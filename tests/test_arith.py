import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclotomy import arith

from _oracles import (
    naive_cosine_sum,
    naive_divisors,
    naive_mobius,
    naive_ramanujan,
    naive_totient,
)


class TestFactorize:
    def test_one_gives_empty_product(self):
        assert arith.factorize(1) == []

    def test_small_examples(self):
        assert arith.factorize(12) == [(2, 2), (3, 1)]
        assert arith.factorize(105) == [(3, 1), (5, 1), (7, 1)]
        assert arith.factorize(1024) == [(2, 10)]

    def test_roundtrip_small_range(self):
        for n in range(1, 3000):
            fac = arith.factorize(n)
            prod = 1
            for p, e in fac:
                assert arith.is_prime(p)
                assert e >= 1
                prod *= p**e
            assert prod == n
            assert [p for p, _ in fac] == sorted(p for p, _ in fac)

    @given(st.integers(min_value=1, max_value=10**12))
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_random(self, n):
        prod = 1
        for p, e in arith.factorize(n):
            assert arith.is_prime(p)
            prod *= p**e
        assert prod == n

    def test_beyond_trial_division(self):
        # parts with no prime factor below 1024 and at least 1024**2 go through Pollard rho
        n = 1000000007 * 998244353
        assert arith.factorize(n) == [(998244353, 1), (1000000007, 1)]
        assert arith.factorize((2**31 - 1) ** 2) == [(2**31 - 1, 2)]
        assert arith.factorize(2**61 - 1) == [(2**61 - 1, 1)]

    @pytest.mark.parametrize(
        "factors",
        [
            [(1019, 1), (1021, 1)],
            [(1021, 2)],
            [(1021, 1), (1031, 1)],
            [(1031, 2)],
            [(1031, 3)],
            [(1031, 1), (1033, 1), (1039, 1)],
            [(999979, 1), (999983, 1)],
            [(999983, 2)],
            [(1031, 1), (2**31 - 1, 1)],
        ],
    )
    def test_around_the_trial_bound(self, factors):
        n = 1
        for p, e in factors:
            n *= p**e
        assert arith.factorize(n) == factors

    def test_products_of_primes_past_the_trial_bound(self):
        rng = random.Random(1031)
        primes = []
        while len(primes) < 60:
            p = rng.randrange(1024, 10**6)
            if arith.is_prime(p):
                primes.append(p)
        for _ in range(200):
            picked = [rng.choice(primes) for _ in range(rng.randint(1, 3))]
            n = 1
            for p in picked:
                n *= p
            expected = sorted((p, picked.count(p)) for p in set(picked))
            assert arith.factorize(n) == expected
            assert arith.factorize(6 * n) == [(2, 1), (3, 1)] + expected

    def test_largest_index(self):
        assert arith.factorize(2**63 - 1) == [
            (7, 2),
            (73, 1),
            (127, 1),
            (337, 1),
            (92737, 1),
            (649657, 1),
        ]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            arith.factorize(0)
        with pytest.raises(ValueError):
            arith.factorize(2**63)


class TestDivisors:
    def test_examples(self):
        assert arith.divisors(1) == [1]
        assert arith.divisors(12) == [1, 2, 3, 4, 6, 12]
        assert arith.divisors(8) == [1, 2, 4, 8]

    def test_against_oracle(self):
        for n in range(1, 400):
            assert arith.divisors(n) == naive_divisors(n)

    def test_count_matches_factorization(self):
        for n in range(1, 2000):
            count = 1
            for _, e in arith.factorize(n):
                count *= e + 1
            divs = arith.divisors(n)
            assert len(divs) == count
            assert all(n % d == 0 for d in divs)


class TestMobiusTotient:
    def test_mobius_examples(self):
        assert arith.mobius(1) == 1
        assert arith.mobius(6) == 1
        assert arith.mobius(12) == 0
        assert arith.mobius(30) == -1

    def test_mobius_against_oracle(self):
        for n in range(1, 500):
            assert arith.mobius(n) == naive_mobius(n)

    def test_totient_examples(self):
        assert arith.totient(1) == 1
        assert arith.totient(7) == 6
        assert arith.totient(12) == naive_totient(12) == 4

    def test_totient_against_oracle(self):
        for n in range(1, 500):
            assert arith.totient(n) == naive_totient(n)

    def test_mobius_divisor_sum(self):
        # sum of mu(d) over d | n vanishes except at n = 1
        for n in range(1, 100_000 + 1):
            total = sum(arith.mobius(d) for d in arith.divisors(n))
            assert total == (1 if n == 1 else 0)

    def test_totient_divisor_sum(self):
        for n in range(1, 100_000 + 1):
            assert sum(arith.totient(d) for d in arith.divisors(n)) == n

    def test_totient_multiplicative(self):
        for m in range(1, 101):
            for n in range(1, 10**4 // m + 1):
                if math.gcd(m, n) == 1:
                    assert arith.totient(m * n) == arith.totient(m) * arith.totient(n)


class TestGcd:
    def test_examples(self):
        assert arith.gcd(12, 8) == 4

    def test_gcd_with_zero_is_identity(self):
        # the convention that makes c_n(0) = phi(n) under Kluyver's formula
        assert arith.gcd(12, 0) == 12


class TestRamanujanSum:
    def test_spec_examples(self):
        assert arith.ramanujan_sum(6, 1, "kluyver") == 1
        assert arith.ramanujan_sum(12, 0, "hoelder") == 4
        assert arith.ramanujan_sum(12, 4, "kluyver") == -2

    def test_q_zero_is_totient(self):
        for n in range(1, 80):
            for method in arith.RAMANUJAN_METHODS:
                assert arith.ramanujan_sum(n, 0, method) == arith.totient(n)

    def test_q_one_is_mobius(self):
        for n in range(1, 80):
            assert arith.ramanujan_sum(n, 1) == arith.mobius(n)

    def test_methods_agree_small(self):
        for n in range(1, 61):
            for q in range(61):
                values = {
                    arith.ramanujan_sum(n, q, method)
                    for method in arith.RAMANUJAN_METHODS
                }
                assert len(values) == 1, (n, q, values)

    def test_against_oracle(self):
        for n in range(1, 40):
            for q in range(40):
                assert arith.ramanujan_sum(n, q) == naive_ramanujan(n, q)

    def test_periodicity(self):
        # c_n(q) = c_n(q mod n), with c_n(0) = c_n(n) = phi(n)
        for n in range(1, 201):
            base = [arith.ramanujan_sum(n, q) for q in range(n)]
            assert base[0] == arith.totient(n) == arith.ramanujan_sum(n, n)
            for q in range(3 * n + 1):
                assert arith.ramanujan_sum(n, q) == base[q % n]

    def test_newton_reduces_q_mod_n(self):
        # c_n(q) has period n in q; newton must not run q Newton steps
        for n in (1, 2, 12, 97, 360, 1001):
            for q in (n - 1, n, n + 1, 3 * n + 2, 10**8):
                assert arith.ramanujan_sum(n, q, "newton") == arith.ramanujan_sum(
                    n, q, "kluyver"
                ), (n, q)

    def test_multiplicative_in_n(self):
        # unordered pairs with m*n <= 2000 are covered by m <= sqrt(2000)
        for m in range(1, 45):
            for n in range(1, 2000 // m + 1):
                if math.gcd(m, n) == 1:
                    for q in range(101):
                        assert arith.ramanujan_sum(m * n, q) == arith.ramanujan_sum(
                            m, q
                        ) * arith.ramanujan_sum(n, q)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            arith.ramanujan_sum(0, 1)
        with pytest.raises(ValueError):
            arith.ramanujan_sum(6, -1)
        with pytest.raises(ValueError):
            arith.ramanujan_sum(6, 1, "euler")

    def test_definition_residual_is_tiny(self):
        for n in (720, 997, 5040):
            for q in (0, 1, 360, 5039):
                value = arith._cosine_sum(n, q)
                assert abs(value - round(value)) < 1e-6

    @pytest.mark.parametrize(
        "n",
        # 1, 2, primes, prime powers, either side of 4096 and composites to 20000
        [1, 2, 3, 97, 4093, 19997, 2187, 4096, 15625, 16129, 4097, 2310, 18018, 20000],
    )
    def test_cosine_sum_is_bit_identical_to_the_oracle(self, n):
        # q sharing each prime p of n, so that every gcd(n, q) > 1 case runs
        shared = [q for p, _ in arith.factorize(n) for q in (n // p, p, p * 1001)]
        for q in [0, 1, 2, 7, n - 1, n, 5 * n, 3 * n + 2, 10**18, 2**63] + shared:
            value = arith._cosine_sum(n, q)
            assert value == naive_cosine_sum(n, q), (n, q)
            assert round(value) == arith.ramanujan_sum(n, q, "kluyver"), (n, q)

    @given(
        st.integers(min_value=1, max_value=3000),
        st.integers(min_value=0, max_value=2**64 - 1),
        st.integers(min_value=1, max_value=3000),
    )
    @settings(max_examples=300, deadline=None)
    def test_cosine_sum_matches_the_oracle_at_random_points(self, n, q, k):
        # a random q is mostly coprime to n; the second is a multiple of gcd(n, k)
        for q in (q, q // n * math.gcd(n, k)):
            assert arith._cosine_sum(n, q) == naive_cosine_sum(n, q), (n, q)

    def test_cosine_sum_evaluates_one_cosine_per_unit_of_n_over_gcd(self, monkeypatch):
        angles = []
        monkeypatch.setattr(arith, "cos", lambda x: angles.append(x) or math.cos(x))
        for n in (1, 2, 12, 97, 360, 2310, 4096, 20000):
            for q in (0, 1, 2, 6, 35, n // 2, n - 1, n, 10**18):
                angles.clear()
                arith._cosine_sum(n, q)
                assert len(angles) == arith.totient(n // math.gcd(n, q)), (n, q)

    def test_definition_peaks_small_and_factorizes_nothing_new(self):
        # q = 1 sieves n bytes; q = 2 holds phi(n/2) doubles
        n = 200_000
        expected = {q: arith.ramanujan_sum(n, q) for q in (0, 1, 2, 10**5)}
        entries = arith._factorize.cache_info().currsize
        tracemalloc.start()
        try:
            for q, value in expected.items():
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                assert arith.ramanujan_sum(n, q, "definition") == value
                peak = tracemalloc.get_traced_memory()[1] - before
                assert peak < 2**20, (q, peak)
        finally:
            tracemalloc.stop()
        assert arith._factorize.cache_info().currsize == entries

    def test_definition_retains_no_memory(self):
        # each call sieves n transient bytes and keeps nothing but the
        # factorization of n
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for n in range(15000, 20000, 167):
                arith.ramanujan_sum(n, 7, "definition")
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 2**20, retained

    def test_definition_residual_error(self, monkeypatch):
        monkeypatch.setattr(arith, "_cosine_sum", lambda n, q: 0.5)
        with pytest.raises(arith.DefinitionResidualError):
            arith.ramanujan_sum(6, 1, "definition")

    def test_hoelder_rejects_an_inexact_totient_quotient(self, monkeypatch):
        # c_6(2): gcd 2, reduced index 3 with mu(3) = -1; 7 / 4 is inexact.
        monkeypatch.setattr(arith, "totient", lambda n: n + 1)
        with pytest.raises(ArithmeticError, match="totient quotient must be exact"):
            arith._hoelder(6, 2)


class TestPrimality:
    def test_against_sieve(self):
        limit = 20_000
        sieve = bytearray([1]) * (limit + 1)
        sieve[0:2] = b"\x00\x00"
        for p in range(2, int(limit**0.5) + 1):
            if sieve[p]:
                sieve[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
        for n in range(limit + 1):
            assert arith.is_prime(n) == bool(sieve[n]), n

    def test_large_known_values(self):
        assert arith.is_prime(2**61 - 1)
        assert not arith.is_prime(2**62 - 1)
        assert not arith.is_prime(3825123056546413051)  # strong pseudoprime to small bases

    def test_rejects_input_above_the_proven_witness_bound(self):
        # the largest prime below 2**64 is decided; a strong pseudoprime to
        # every witness base (2 .. 37) above the bound is refused, not passed
        assert arith.is_prime(2**64 - 59)
        assert not arith.is_prime(2**64 - 1)
        with pytest.raises(ValueError, match="below 2\\*\\*64"):
            arith.is_prime(2**64)
        with pytest.raises(ValueError, match="below 2\\*\\*64"):
            arith.is_prime(399165290221 * 798330580441)
