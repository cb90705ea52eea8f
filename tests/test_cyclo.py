import pickle

import pytest

from cyclotomy import arith, cyclo, intpoly
from cyclotomy.cyclo import (
    ALGORITHMS,
    CyclotomicResult,
    InternalIdentityError,
    NotCoprimeError,
    cyclotomic,
    cyclotomic_of_power,
    cyclotomic_poly,
    radical_reduce,
)

from _oracles import naive_cyclotomic


KNOWN = {
    1: [-1, 1],
    2: [1, 1],
    3: [1, 1, 1],
    4: [1, 0, 1],
    6: [1, -1, 1],
    8: [1, 0, 0, 0, 1],
    12: [1, 0, -1, 0, 1],
}


class TestCyclotomic:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_known_values(self, algorithm):
        for n, expected in KNOWN.items():
            assert cyclotomic(n, algorithm).poly == expected

    @pytest.mark.parametrize("algorithm", sorted(cyclo._DISPATCH))
    def test_every_algorithm_builds_phi_1_and_phi_2(self, algorithm):
        # cyclotomic() and the cache have no special case for n <= 2
        assert cyclo._DISPATCH[algorithm](1) == [-1, 1]
        assert cyclo._DISPATCH[algorithm](2) == [1, 1]

    def test_result_fields(self):
        result = cyclotomic(12, "newton_ramanujan")
        assert result.n == 12
        assert result.algorithm == "newton_ramanujan"
        assert result.poly == [1, 0, -1, 0, 1]

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_matches_independent_oracle(self, algorithm):
        for n in range(1, 40):
            assert cyclotomic(n, algorithm).poly == naive_cyclotomic(n)

    def test_all_algorithms_agree_small(self):
        for n in range(1, 121):
            polys = {tuple(cyclotomic(n, a).poly) for a in ALGORITHMS}
            assert len(polys) == 1, n

    def test_first_height_two_coefficient(self):
        assert cyclotomic(105, "mobius_product").poly[7] == -2

    def test_mobius_product_is_a_two_term_chain(self, monkeypatch):
        # 255255 = 3*5*7*11*13*17: 32 numerator and 32 denominator factors
        expected = cyclotomic(255255, "dual_form").poly

        def general_path(*args):
            raise AssertionError("mobius_product left the two-term kernels")

        for name in ("_mul_packed", "_series_inverse", "_div_school"):
            monkeypatch.setattr(intpoly, name, general_path)
        assert cyclotomic(255255, "mobius_product").poly == expected

    def test_mobius_product_starts_from_its_first_factor(self, monkeypatch):
        # at a prime p the only numerator factor is X**p - 1, so Phi_p is
        # one division and no multiply
        calls = []
        real = intpoly.poly_mul
        monkeypatch.setattr(intpoly, "poly_mul", lambda a, b: calls.append(1) or real(a, b))
        assert cyclo._mobius_product(199999) == [1] * 199999
        assert calls == []

    @pytest.mark.parametrize("n", [1, 2, 30030, 199999])
    def test_dual_form_lifts_only_a_non_squarefree_index(self, monkeypatch, n):
        # at a squarefree n the radical is n itself, so there is nothing to
        # lift: substituting X**1 would only copy the list
        exponents = []
        real = intpoly.substitute_power
        monkeypatch.setattr(
            intpoly, "substitute_power", lambda p, e: exponents.append(e) or real(p, e)
        )
        assert cyclotomic(n, "dual_form").poly == cyclotomic(n, "mobius_product").poly
        assert 1 not in exponents

    @pytest.mark.parametrize("n", [21504, 28224, 27000, 30030, 23814, 28125, 180180])
    def test_recursive_at_mixed_indices(self, n):
        # 21504 = 2**10*3*7, 28224 = 2**6*3**2*7**2, 27000 = 2**3*3**3*5**3,
        # the squarefree 30030 = 2*3*5*7*11*13, 23814 = 2*3**5*7**2 (least
        # prime to the first power), 28125 = 3**2*5**5 and
        # 180180 = 2**2*3**2*5*7*11*13
        assert cyclotomic(n, "recursive").poly == cyclotomic(n, "mobius_product").poly

    def test_recursive_finds_phi_only_on_its_least_primes_layer(self, monkeypatch):
        # At n = 2**3 * 315 the memo holds Phi_8e for e | 315 only: each X**8e - 1
        # is first divided by X**4e - 1 in full, in increasing e, and no Phi_d
        # with 8 not dividing d is ever a quotient
        n = 2**3 * 3**2 * 5 * 7
        expected = cyclotomic_poly(n)
        binomial, quotients = [], []
        div_binomial = intpoly._div_binomial
        exact_div = intpoly.poly_exact_div

        def counting_binomial(p, q):
            if p[0] == -1 and len(p) - p.count(0) == 2:  # p is X**d - 1
                binomial.append((len(p) - 1, len(q) - 1))
            return div_binomial(p, q)

        monkeypatch.setattr(intpoly, "_div_binomial", counting_binomial)
        monkeypatch.setattr(
            intpoly, "poly_exact_div", lambda p, q: quotients.append(exact_div(p, q)) or quotients[-1]
        )
        assert cyclotomic(n, "recursive").poly == expected
        layer = arith.divisors(315)
        assert binomial == [(8 * e, 4 * e) for e in layer]
        found = {d for d in arith.divisors(n) if cyclotomic_poly(d) in quotients}
        assert found == {8 * e for e in layer}

    def test_squarefree_series_equals_the_two_term_chain(self):
        # 2*99991 has one factor 1 - X**2 below the series' precision
        for r in [k for k in range(1, 3001) if arith.mobius(k)] + [30030, 255255, 199999, 2 * 99991]:
            assert cyclo._squarefree_series(r) == cyclo._mobius_product(r), r

    @pytest.mark.parametrize("r", [r for r in range(1, 2000) if arith.mobius(r)] + [30030])
    def test_squarefree_series_checks_catch_a_wrong_mobius_sign(self, r, monkeypatch):
        # flip mu(r/d) at each divisor d that the series reads,
        # d < min(phi(r)/2 + 10, phi(r) + 1): one of its two checks catches
        # every such flip at every squarefree r < 2000, a census the
        # comment in _squarefree_series cites
        real = arith.mobius
        expected = cyclo._mobius_product(r)
        cyclo._cyclotomic_cached.cache_clear()
        for d in arith.divisors(r):
            if d >= min(arith.totient(r) // 2 + 10, arith.totient(r) + 1):
                break
            monkeypatch.setattr(arith, "mobius", lambda k: -real(k) if k == r // d else real(k))
            with pytest.raises(InternalIdentityError):
                cyclotomic(r, "radical")
            with pytest.raises(InternalIdentityError):
                cyclo._cyclotomic_cached(r)
            monkeypatch.undo()
            assert list(cyclo._cyclotomic_cached(r)) == expected, d  # no wrong entry was cached
            cyclo._cyclotomic_cached.cache_clear()

    def test_newton_ramanujan_at_a_large_prime(self):
        # phi = 65536 coefficients; the scalar Newton loop took about 80 s
        assert cyclotomic(65537, "newton_ramanujan").poly == cyclotomic_poly(65537)

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            cyclotomic(6, "fft")

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            cyclotomic(0)


class TestInvariants:
    def test_degree_monic_constant_palindrome(self):
        for n in range(1, 301):
            poly = cyclotomic_poly(n)
            assert poly[-1] == 1
            assert len(poly) - 1 == arith.totient(n)
            if n == 1:
                assert poly == [-1, 1]
            else:
                assert poly[0] == 1
                assert poly == poly[::-1]
                assert poly[1] == -arith.mobius(n)

    def test_fundamental_identity(self):
        for n in range(1, 301):
            product = intpoly.poly_prod(
                [cyclotomic_poly(d) for d in arith.divisors(n)]
            )
            assert product == cyclo._x_pow_minus_1(n)

    def test_power_sums_are_ramanujan_sums(self):
        for n in range(1, 61):
            sums = intpoly.power_sums(cyclotomic_poly(n), 2 * n)
            for q in range(2 * n + 1):
                assert sums[q] == arith.ramanujan_sum(n, q)

    def test_cache_is_filled_by_two_term_steps(self, monkeypatch):
        # Phi_n is memoised from the radical algorithm, the power series at
        # rad(n) lifted to n, whose every step is a multiply or division by
        # some 1 - X**d: no packed multiply and no dense division, at any
        # size, whether through the cache or by the algorithm's name
        indices = (1, 2, 12, 105, 1024, 30030, 255255)
        expected = {n: cyclotomic(n, "dual_form").poly for n in indices}

        def general_path(*args):
            raise AssertionError("the cache left the two-term kernels")

        cyclo._cyclotomic_cached.cache_clear()
        for name in ("_mul_packed", "_series_inverse", "_div_school"):
            monkeypatch.setattr(intpoly, name, general_path)
        for n in indices:
            assert list(cyclo._cyclotomic_cached(n)) == expected[n], n
            assert cyclotomic(n, "radical").poly == expected[n], n

    def test_cache_runs_the_series_once_per_radical(self, monkeypatch):
        # a non-squarefree n lifts the cached Phi of its radical
        calls = []
        series = cyclo._squarefree_series

        def counting(n):
            calls.append(n)
            return series(n)

        monkeypatch.setattr(cyclo, "_squarefree_series", counting)
        cyclo._cyclotomic_cached.cache_clear()
        for n in range(1, 61):
            assert list(cyclo._cyclotomic_cached(n)) == naive_cyclotomic(n), n
        assert calls == [k for k in range(1, 61) if arith.mobius(k) != 0]

    def test_cache_returns_fresh_lists(self):
        poly = cyclotomic_poly(12)
        poly[0] = 999
        assert cyclotomic_poly(12) == [1, 0, -1, 0, 1]

    def test_cyclotomic_poly_leaves_the_phi_cache_alone(self):
        # a single read computes Phi_n by radical and stores nothing: at a
        # prime, a squarefree and a non-squarefree index, none of them in
        # the emptied cache, its counters stay where they were
        cyclo._cyclotomic_cached.cache_clear()
        before = cyclo._cyclotomic_cached.cache_info()
        for n in (7919, 2 * 3 * 5 * 7 * 11, 2**3 * 3**2 * 7):
            first, second = cyclotomic_poly(n), cyclotomic_poly(n)
            assert first == second == cyclotomic(n, "mobius_product").poly, n
            assert first is not second, n
        assert cyclo._cyclotomic_cached.cache_info() == before

    def test_concurrent_use_is_deterministic(self):
        # everything is a pure function; hammer the shared caches from
        # several threads and check against the sequential answers
        from concurrent.futures import ThreadPoolExecutor

        tasks = [(n, a) for n in range(1, 80) for a in ALGORITHMS]
        expected = {(n, a): cyclotomic(n, a).poly for n, a in tasks}
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda t: cyclotomic(*t).poly, tasks * 2))
        for (n, a), got in zip(tasks * 2, results):
            assert got == expected[(n, a)], (n, a)


class TestRadicalReduce:
    def test_examples(self):
        assert radical_reduce(12) == (6, 2)
        assert radical_reduce(7) == (7, 1)
        assert radical_reduce(8) == (2, 4)
        assert radical_reduce(1) == (1, 1)

    def test_reduction_identity(self):
        for n in range(1, 201):
            r, e = radical_reduce(n)
            assert r * e == n
            assert arith.mobius(r) != 0  # the radical is squarefree
            assert cyclotomic_poly(n) == intpoly.substitute_power(
                cyclotomic_poly(r), e
            )


class TestCyclotomicOfPower:
    def test_examples(self):
        assert cyclotomic_of_power(1, 6) == [-1, 0, 0, 0, 0, 0, 1]
        assert cyclotomic_of_power(4, 3) == [1, 0, 0, 0, 0, 0, 1]

    def test_rejects_non_coprime(self):
        with pytest.raises(NotCoprimeError):
            cyclotomic_of_power(4, 2)
        with pytest.raises(NotCoprimeError):
            cyclotomic_of_power(6, 9)

    def test_equals_substitution_when_coprime(self):
        for n in range(1, 41):
            for m in range(1, 200 // n + 1):
                if arith.is_coprime(n, m):
                    assert cyclotomic_of_power(n, m) == intpoly.substitute_power(
                        cyclotomic_poly(n), m
                    )

    def test_n_one_reduces_to_fundamental_identity(self):
        for m in range(1, 30):
            assert cyclotomic_of_power(1, m) == cyclo._x_pow_minus_1(m)


class TestResultValidation:
    def test_rejects_wrong_degree(self):
        message = r"^deg Phi_4 is 1, expected phi\(4\) = 2$"
        with pytest.raises(InternalIdentityError, match=message):
            CyclotomicResult(n=4, poly=[1, 1], algorithm="recursive")

    def test_rejects_non_monic(self):
        with pytest.raises(InternalIdentityError, match="^Phi_4 is not monic$"):
            CyclotomicResult(n=4, poly=[1, 0, 2], algorithm="recursive")

    def test_rejects_wrong_constant_term(self):
        with pytest.raises(InternalIdentityError, match=r"^Phi_4\(0\) is -1, expected 1$"):
            CyclotomicResult(n=4, poly=[-1, 0, 1], algorithm="recursive")

    def test_result_is_an_immutable_record(self):
        result = CyclotomicResult(12, [1, 0, -1, 0, 1], "radical")
        assert result == CyclotomicResult(n=12, poly=[1, 0, -1, 0, 1], algorithm="radical")
        assert result != CyclotomicResult(12, [1, 0, -1, 0, 1], "recursive")
        assert result != (12, [1, 0, -1, 0, 1], "radical")
        assert repr(result) == (
            "CyclotomicResult(n=12, poly=[1, 0, -1, 0, 1], algorithm='radical')"
        )
        with pytest.raises(AttributeError):
            result.n = 13
        with pytest.raises(AttributeError):
            del result.poly
        with pytest.raises(TypeError):
            hash(result)  # poly is a list
        assert pickle.loads(pickle.dumps(result)) == result

    def test_exact_arithmetic_failures_surface_as_identity_errors(self, monkeypatch):
        # a division that should be exact by the identities but is not
        # indicates an implementation bug and must raise the distinct error
        def broken(p, q):
            raise intpoly.NotDivisibleError("injected")

        monkeypatch.setattr(intpoly, "poly_exact_div", broken)
        with pytest.raises(InternalIdentityError):
            cyclotomic(12, "recursive")
