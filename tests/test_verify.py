import hashlib
import pickle
import tracemalloc
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclotomy import arith, cyclo, intpoly, verify
from cyclotomy.verify import (
    CheckReport,
    SweepResult,
    check_coefficient_facts,
    check_polynomial_identities,
    check_ramanujan_identities,
    check_totient_identities,
)


def _by_name(reports, name):
    matches = [r for r in reports if r.identity_name == name]
    assert len(matches) == 1
    return matches[0]


class TestPolynomialChecks:
    def test_coprime_pair_all_pass(self):
        reports = check_polynomial_identities(4, 3)
        assert {r.identity_name for r in reports} == {
            "fundamental_product",
            "power_substitution_product",
            "dual_inversion",
        }
        assert all(r.passed for r in reports)

    def test_n_one_reduces_to_fundamental(self):
        for m in (1, 5, 12):
            reports = check_polynomial_identities(1, m)
            assert all(r.passed for r in reports)

    def test_noncoprime_counterexample(self):
        reports = check_polynomial_identities(4, 2)
        counter = _by_name(reports, "noncoprime_counterexample")
        assert counter.passed  # the two sides really differ
        assert _by_name(reports, "fundamental_product").passed

    def test_noncoprime_degree_certificate_matches_the_full_comparison(self):
        # the outcome the sweep decides by degree is the one that building
        # and comparing both sides gives, at every non-coprime n*m <= 300
        divisors = verify._divisor_table(300)
        for n in range(2, 151):
            fundamental = verify._fundamental(n, arith.divisors(n))
            for m in range(2, 300 // n + 1):
                if gcd(n, m) == 1:
                    continue
                rhs = [cyclo.cyclotomic_poly(d * n) for d in arith.divisors(m)]
                full = verify._distinct(
                    intpoly.substitute_power(cyclo.cyclotomic_poly(n), m),
                    intpoly.poly_prod(rhs),
                )
                outcomes = verify._polynomial_checks(n, m, fundamental, divisors(m))
                assert outcomes[0] == ("fundamental_product", None)
                assert outcomes[-1] == ("noncoprime_counterexample", full)

    def test_tied_degrees_take_the_full_comparison(self, monkeypatch):
        # Phi_2 and Phi_4 read as the constant 1 padded to two terms: the
        # lengths tie at (2, 2), 2 * (2 - 1) == (2 - 1) + (2 - 1), so the
        # check builds both sides, which then coincide
        real = cyclo._cyclotomic_cached
        monkeypatch.setattr(
            cyclo, "_cyclotomic_cached", lambda k: (1, 0) if k in (2, 4) else real(k)
        )
        reports = check_polynomial_identities(2, 2)
        assert _by_name(reports, "noncoprime_counterexample") == CheckReport(
            "noncoprime_counterexample",
            (("n", 2), ("m", 2)),
            False,
            "sides coincide: 1",
        )

    def test_dual_inversion_failure_is_a_report(self, monkeypatch):
        # Phi_12 + 1 in the cache, which every side reads: both checks that
        # take Phi_12 at (4, 3) fail, the fundamental product at 4 does not
        real = cyclo._cyclotomic_cached

        def perturbed(k):
            poly = list(real(k))
            if k == 12:
                poly[0] += 1
            return tuple(poly)

        monkeypatch.setattr(cyclo, "_cyclotomic_cached", perturbed)
        reports = check_polynomial_identities(4, 3)
        dual = _by_name(reports, "dual_inversion")
        assert not dual.passed
        assert dual.witness.startswith("left = ")
        assert "; right = " in dual.witness
        assert _by_name(reports, "fundamental_product").passed
        assert not _by_name(reports, "power_substitution_product").passed

    def test_params_recorded(self):
        report = check_polynomial_identities(4, 3)[0]
        assert report.params == (("n", 4), ("m", 3))


class TestTotientChecks:
    def test_divisor_sum_example(self):
        report = _by_name(check_totient_identities(12, 1), "totient_divisor_sum")
        assert report.passed  # 1+1+2+2+2+4 = 12

    def test_scaled_divisor_sum_example(self):
        report = _by_name(
            check_totient_identities(4, 3), "totient_scaled_divisor_sum"
        )
        assert report.passed  # phi(4)+phi(12) = 6 = 3*phi(4)

    def test_trivial_pair(self):
        reports = check_totient_identities(1, 1)
        assert len(reports) == 3
        assert all(r.passed for r in reports)

    def test_noncoprime_pair_only_divisor_sum(self):
        reports = check_totient_identities(4, 2)
        assert [r.identity_name for r in reports] == ["totient_divisor_sum"]

    def test_noncoprime_pair_asks_phi_only_for_the_divisors_of_n(self, monkeypatch):
        calls = []
        real = arith.totient

        def counting(k):
            calls.append(k)
            return real(k)

        monkeypatch.setattr(arith, "totient", counting)
        check_totient_identities(12, 8)
        assert calls == arith.divisors(12)  # no phi(m), phi(mn) or phi(dn)


class TestRamanujanChecks:
    def test_divisible_branch(self):
        reports = check_ramanujan_identities(1, 4, 4)
        assert all(r.passed for r in reports)

    def test_nondivisible_branch(self):
        reports = check_ramanujan_identities(1, 4, 2)
        assert all(r.passed for r in reports)

    def test_q_zero_reduces_to_degree_comparison(self):
        for n, m in ((1, 4), (5, 4), (9, 10)):
            reports = check_ramanujan_identities(n, m, 0)
            assert all(r.passed for r in reports)

    def test_rejects_noncoprime(self):
        with pytest.raises(ValueError):
            check_ramanujan_identities(4, 2, 1)


class TestCoefficientChecks:
    def test_examples(self):
        for n in (4, 6, 105):
            assert all(r.passed for r in check_coefficient_facts(n))

    def test_rejects_n_one(self):
        with pytest.raises(ValueError):
            check_coefficient_facts(1)

    def test_first_power_sum_witness(self, monkeypatch):
        real = arith.ramanujan_sum

        def shifted(n, q, method="kluyver"):
            return real(n, q, method) + ((n, q) == (6, 1))

        monkeypatch.setattr(arith, "ramanujan_sum", shifted)
        report = _by_name(check_coefficient_facts(6), "first_power_sum")
        assert report == CheckReport(
            "first_power_sum", (("n", 6),), False, "S_1 = 1; mu(n) = 1; c_n(1) = 2"
        )


class TestCheckReport:
    def test_failed_report_requires_witness(self):
        with pytest.raises(ValueError, match="^a failed report requires a witness$"):
            CheckReport("fundamental_product", (("n", 1),), False)

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError, match="^unknown identity label 'made_up_identity'$"):
            CheckReport("made_up_identity", (), True)

    def test_report_is_an_immutable_hashable_record(self):
        report = CheckReport("first_power_sum", (("n", 6),), False, "S_1 = 1")
        same = CheckReport(
            identity_name="first_power_sum", params=(("n", 6),), passed=False, witness="S_1 = 1"
        )
        assert report == same and hash(report) == hash(same)
        assert report != CheckReport("first_power_sum", (("n", 6),), True)
        assert report != ("first_power_sum", (("n", 6),), False, "S_1 = 1")
        assert CheckReport("fundamental_product", (("n", 1),), True).witness is None
        assert repr(report) == (
            "CheckReport(identity_name='first_power_sum', params=(('n', 6),), "
            "passed=False, witness='S_1 = 1')"
        )
        with pytest.raises(AttributeError):
            report.passed = True
        with pytest.raises(AttributeError):
            del report.witness
        assert pickle.loads(pickle.dumps(report)) == report

    def test_sweep_result_is_a_mutable_record(self):
        failure = CheckReport("fundamental_product", (("n", 1),), False, "w")
        result = SweepResult("poly", 3, [failure])
        assert result == SweepResult(suite="poly", checks=3, failures=[failure])
        assert not result.passed and SweepResult("poly", 3, []).passed
        assert repr(result) == (
            "SweepResult(suite='poly', checks=3, failures=[CheckReport("
            "identity_name='fundamental_product', params=(('n', 1),), passed=False, "
            "witness='w')])"
        )
        result.checks -= 1
        result.failures.append(failure)
        assert result == SweepResult("poly", 2, [failure, failure])
        with pytest.raises(TypeError):
            hash(result)

    def test_witness_rendering_truncates(self):
        lhs = [1] * 101
        rhs = [2] * 101
        assert verify._equal(lhs, lhs) is None
        assert "terms elided" in verify._equal(lhs, rhs)

    def test_distinct_failure_has_witness(self):
        assert verify._distinct([3], [4]) is None
        assert "coincide" in verify._distinct([3], [3])


class TestSweeps:
    def test_polynomial_sweep_small(self, monkeypatch):
        result = verify.sweep_polynomial(60)
        assert result.suite == "poly"
        assert result.passed
        assert result.checks == 721

        # the first sweep filled the Phi cache, whose misses divide; the
        # checks themselves never do
        def forbidden(*_args):
            raise AssertionError("verify divided polynomials")

        monkeypatch.setattr(intpoly, "poly_exact_div", forbidden)
        again = verify.sweep_polynomial(60)
        assert again.passed
        assert again.checks == result.checks

    def test_polynomial_sweep_equals_the_pairwise_checks(self, monkeypatch):
        # a wrong X**6 - 1 makes the fundamental check fail at n = 6, so the
        # sweep's failures and witnesses are compared, not only its count.
        # The Phi cache builds Phi_6 from X**6 - 1 too, so it is filled for
        # every index the sweep reads before the corruption goes in.
        for k in range(1, 41):
            cyclo._cyclotomic_cached(k)
        x_pow_minus_1 = cyclo._x_pow_minus_1

        def corrupted(n):
            poly = x_pow_minus_1(n)
            if n == 6:
                poly[0] = 2
            return poly

        monkeypatch.setattr(cyclo, "_x_pow_minus_1", corrupted)
        assert len(self._sweep_failures_equal_the_pairwise_ones(40)) == 6  # m = 1 .. 6 at n = 6

    def test_polynomial_sweep_reports_a_wrong_phi_1_with_the_pairwise_witness(self, monkeypatch):
        # Phi_1 read as -200 + X and X**2 - 1 as a constant: X - 1 differs
        # from Phi_1, so the sweep deduces nothing and runs every check,
        # and the fundamental check at 2 fails with the witness of the
        # pairwise check, its sides compared as polynomials.
        for k in range(1, 9):
            cyclo._cyclotomic_cached(k)
        cached, x_pow_minus_1 = cyclo._cyclotomic_cached, cyclo._x_pow_minus_1
        monkeypatch.setattr(
            cyclo, "_cyclotomic_cached", lambda k: (-200, 1) if k == 1 else cached(k)
        )
        monkeypatch.setattr(
            cyclo, "_x_pow_minus_1", lambda n: [4281925432] if n == 2 else x_pow_minus_1(n)
        )
        failures = self._sweep_failures_equal_the_pairwise_ones(8)
        fundamental = _by_name(check_polynomial_identities(2, 1), "fundamental_product")
        assert fundamental.witness == "left = X^2 - 199*X - 200; right = 4281925432"
        assert fundamental in failures

    def test_polynomial_sweep_multiplies_only_the_checks_it_computes(self, monkeypatch):
        for k in range(1, 61):  # so no cold Phi multiplies or substitutes
            cyclo._cyclotomic_cached(k)
        products = self._count_calls(monkeypatch, cyclo, "_cyclotomic_product")
        assert verify.sweep_polynomial(60).passed
        # the power substitution's right side at each coprime pair (n, m)
        # with m = 1 or a prime power, and no fundamental product; every
        # non-coprime pair up to 60 is decided by degree
        expected = [
            [d * n for d in arith.divisors(m)]
            for n in range(1, 61)
            for m in range(1, 60 // n + 1)
            if gcd(n, m) == 1 and len(arith.factorize(m)) < 2
        ]
        assert [indices for (indices,) in products] == expected

    def _count_calls(self, monkeypatch, module, name):
        calls = []
        real = getattr(module, name)

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(module, name, counting)
        return calls

    def test_polynomial_sweep_reads_phi_only_through_the_cache(self, monkeypatch):
        for k in range(1, 61):  # so no cold Phi reads the cache itself
            cyclo._cyclotomic_cached(k)
        cached = self._count_calls(monkeypatch, cyclo, "_cyclotomic_cached")
        public = self._count_calls(monkeypatch, cyclo, "cyclotomic_poly")
        assert verify.sweep_polynomial(60).passed
        assert set(cached) == {(k,) for k in range(1, 61)}
        assert public == []

    def test_polynomial_sweep_builds_each_x_pow_minus_1_once_per_n(self, monkeypatch):
        for k in range(1, 61):  # so no cold Phi builds X**d - 1 either
            cyclo._cyclotomic_cached(k)
        calls = self._count_calls(monkeypatch, cyclo, "_x_pow_minus_1")
        assert verify.sweep_polynomial(60).passed
        assert len(calls) == 60

    def test_polynomial_sweep_substitutes_only_at_m_one_or_a_prime_power(self, monkeypatch):
        for k in range(1, 61):  # so no cold Phi substitutes X**e either
            cyclo._cyclotomic_cached(k)
        index = {id(cyclo._cyclotomic_cached(k)): k for k in range(1, 61)}
        calls = self._count_calls(monkeypatch, intpoly, "substitute_power")
        assert verify.sweep_polynomial(60).passed
        # at each n, Phi_1(X**n) for the premise X**n - 1 == Phi_1(X**n),
        # then Phi_n(X**m) at each coprime pair with m = 1 or a prime power,
        # and nowhere else; poly_prod's lifts from its exponent lattice take
        # products, not a cached Phi
        expected = []
        for n in range(1, 61):
            expected.append((1, n))
            expected += [
                (n, m)
                for m in range(1, 60 // n + 1)
                if gcd(n, m) == 1 and len(arith.factorize(m)) < 2
            ]
        assert [(index[id(p)], m) for p, m in calls if id(p) in index] == expected

    @staticmethod
    def _sweep_failures_equal_the_pairwise_ones(max_n):
        # sweep_polynomial(max_n) against the public check at every pair:
        # the same count and the same failures, witnesses included
        pairwise = [
            r
            for n in range(1, max_n + 1)
            for m in range(1, max_n // n + 1)
            for r in check_polynomial_identities(n, m)
        ]
        result = verify.sweep_polynomial(max_n)
        assert result.checks == len(pairwise)
        assert result.failures == [r for r in pairwise if not r.passed]
        return result.failures

    def test_polynomial_sweep_computes_the_checks_at_prime_powers(self, monkeypatch):
        # Phi_9 read as Phi_9 * (X + 2) and X**9 - 1 as the product of the
        # Phi_d it reads: every fundamental product holds, and only (1, 9),
        # a prime power m, fails, which no check at m = 1 implies
        for k in range(1, 13):  # the Phi cache builds Phi_9 from X**9 - 1
            cyclo._cyclotomic_cached(k)
        cached, x_pow_minus_1 = cyclo._cyclotomic_cached, cyclo._x_pow_minus_1
        phi_9 = tuple(intpoly.poly_mul(cached(9), [2, 1]))
        x_9 = intpoly.poly_mul(x_pow_minus_1(9), [2, 1])
        monkeypatch.setattr(cyclo, "_cyclotomic_cached", lambda k: phi_9 if k == 9 else cached(k))
        monkeypatch.setattr(cyclo, "_x_pow_minus_1", lambda n: x_9 if n == 9 else x_pow_minus_1(n))
        failures = self._sweep_failures_equal_the_pairwise_ones(12)
        assert [(f.identity_name, f.params) for f in failures] == [
            ("power_substitution_product", (("n", 1), ("m", 9))),
            ("dual_inversion", (("n", 1), ("m", 9))),
        ]

    def test_polynomial_sweep_checks_the_mobius_values_it_reads(self, monkeypatch):
        # mu(6) read as -1 fails only dual inversions, at (1, 6) and
        # (1, 12), where the checks at m = 1 and the prime powers all hold
        for k in range(1, 13):  # the Phi cache reads mu too
            cyclo._cyclotomic_cached(k)
        real = arith.mobius
        monkeypatch.setattr(arith, "mobius", lambda k: -1 if k == 6 else real(k))
        failures = self._sweep_failures_equal_the_pairwise_ones(12)
        assert [(f.identity_name, f.params) for f in failures] == [
            ("dual_inversion", (("n", 1), ("m", 6))),
            ("dual_inversion", (("n", 1), ("m", 12))),
        ]

    def test_polynomial_sweep_checks_the_divisor_lists_it_reads(self, monkeypatch):
        # the divisors of 6 read as [1, 2, 6, 3]: every product is the same,
        # but the dual inversion at (1, 6) skips the last entry, 3, as if it
        # were m, and lifts Phi_1 by 6 twice
        for k in range(1, 13):  # the Phi cache reads divisor lists too
            cyclo._cyclotomic_cached(k)
        real = arith.divisors
        monkeypatch.setattr(arith, "divisors", lambda k: [1, 2, 6, 3] if k == 6 else real(k))
        failures = self._sweep_failures_equal_the_pairwise_ones(12)
        assert [(f.identity_name, f.params) for f in failures] == [
            ("dual_inversion", (("n", 1), ("m", 6))),
        ]

    def test_totient_sweep_small(self):
        assert verify.sweep_totient(200).passed

    @staticmethod
    def _totient_sweep_failures_equal_the_pairwise_ones(max_n):
        # sweep_totient(max_n) against the public check at every coprime
        # pair: the same count and the same failures, witnesses included
        pairwise = [
            r
            for n in range(1, max_n + 1)
            for m in range(1, max_n // n + 1)
            if gcd(n, m) == 1
            for r in check_totient_identities(n, m)
        ]
        result = verify.sweep_totient(max_n)
        assert result.checks == len(pairwise)
        assert result.failures == [r for r in pairwise if not r.passed]
        return result.failures

    # Where a corruption lands in sweep_totient(60): phi(12) + 1 fails the
    # divisor sum at n = 12, 24, 36, 48 and 60; the divisors of 8 as
    # [1, 2, 3, 8] keep every divisor sum and fail the scaled sum only at
    # (3, 8); the divisors of 3 as [2, 3] keep every divisor sum and fail the
    # scaled sum at each even n, (8, 3) ... (20, 3) among them.
    _TOTIENT_CORRUPTIONS = {
        "divisor_sum": ("totient", lambda real, k: real(k) + (k == 12)),
        "replaced_divisor": ("divisors", lambda real, k: [1, 2, 3, 8] if k == 8 else real(k)),
        "dropped_divisor": ("divisors", lambda real, k: [2, 3] if k == 3 else real(k)),
    }

    @pytest.mark.parametrize("place", sorted(_TOTIENT_CORRUPTIONS))
    def test_totient_sweep_equals_the_pairwise_checks(self, monkeypatch, place):
        name, corrupted = self._TOTIENT_CORRUPTIONS[place]
        real = getattr(arith, name)
        monkeypatch.setattr(arith, name, lambda k: corrupted(real, k))
        failures = self._totient_sweep_failures_equal_the_pairwise_ones(60)
        failed = {(f.identity_name, f.params) for f in failures}
        if place == "divisor_sum":
            assert ("totient_divisor_sum", (("n", 12), ("m", 1))) in failed
        elif place == "replaced_divisor":
            assert failed == {("totient_scaled_divisor_sum", (("n", 3), ("m", 8)))}
        else:
            assert ("totient_scaled_divisor_sum", (("n", 8), ("m", 3))) in failed
            assert all(name != "totient_divisor_sum" for name, _ in failed)

    def test_totient_sweep_checks_the_product_rule_on_its_own(self, monkeypatch):
        # phi(6) = 3, with the divisor lists of 2, 3 and 6 rewritten so that
        # every divisor sum and scaled sum up to 6 still holds: only
        # phi(6) == phi(2) * phi(3) fails, at (2, 3) and (3, 2)
        real_phi, real_divisors = arith.totient, arith.divisors
        lists = {2: [1, 1], 3: [1, 1, 1], 6: [2, 3, 6]}
        monkeypatch.setattr(arith, "totient", lambda k: 3 if k == 6 else real_phi(k))
        monkeypatch.setattr(arith, "divisors", lambda k: lists.get(k) or real_divisors(k))
        failures = self._totient_sweep_failures_equal_the_pairwise_ones(6)
        assert [(f.identity_name, f.params) for f in failures] == [
            ("totient_multiplicative", (("n", 2), ("m", 3))),
            ("totient_multiplicative", (("n", 3), ("m", 2))),
        ]

    def test_totient_sweep_checks_that_each_divisor_list_is_complete(self, monkeypatch):
        # the divisors of 6 read as [1, 2, 6], with phi(6) = 4: the list
        # increases and holds only divisors of 6, and every divisor sum up to
        # 6 holds, but the scaled sum and the product rule fail at (2, 3) and
        # (3, 2); only the total of the list lengths shows the missing 3
        real_phi, real_divisors = arith.totient, arith.divisors
        monkeypatch.setattr(arith, "totient", lambda k: 4 if k == 6 else real_phi(k))
        monkeypatch.setattr(arith, "divisors", lambda k: [1, 2, 6] if k == 6 else real_divisors(k))
        failures = self._totient_sweep_failures_equal_the_pairwise_ones(6)
        assert [(f.identity_name, f.params) for f in failures] == [
            ("totient_scaled_divisor_sum", (("n", 2), ("m", 3))),
            ("totient_multiplicative", (("n", 2), ("m", 3))),
            ("totient_scaled_divisor_sum", (("n", 3), ("m", 2))),
            ("totient_multiplicative", (("n", 3), ("m", 2))),
        ]

    def test_totient_sweep_reports_a_lone_scaled_sum_failure(self, monkeypatch):
        # phi(9), phi(18) and phi(36) at two thirds of their values, with the
        # divisor lists of 4, 9, 18, 27 and 36 rewritten so that every
        # divisor sum up to 40 still holds: only the scaled sum at (9, 4)
        # fails
        real_phi, real_divisors = arith.totient, arith.divisors
        phis = {9: 4, 18: 4, 36: 8}
        lists = {4: [1, 2, 3], 9: [1, 3, 9, 3]}
        extra = {18: [3, 3], 27: [3], 36: [3, 3, 3, 3]}
        monkeypatch.setattr(arith, "totient", lambda k: phis.get(k) or real_phi(k))
        monkeypatch.setattr(
            arith, "divisors", lambda k: lists.get(k) or real_divisors(k) + extra.get(k, [])
        )
        failures = self._totient_sweep_failures_equal_the_pairwise_ones(40)
        assert [(f.identity_name, f.params) for f in failures] == [
            ("totient_scaled_divisor_sum", (("n", 9), ("m", 4))),
        ]

    def test_totient_sweep_takes_each_divisor_list_once(self, monkeypatch):
        calls = []
        real = arith.divisors

        def counting(n):
            calls.append(n)
            return real(n)

        monkeypatch.setattr(arith, "divisors", counting)
        assert verify.sweep_totient(300).passed
        # once per k <= 300, into the sweep's divisor table
        assert calls == list(range(1, 301))

    def test_sweeps_build_a_report_only_for_a_failure(self, monkeypatch):
        built = []

        def counting(*args):
            built.append(args)
            return CheckReport(*args)

        monkeypatch.setattr(verify, "CheckReport", counting)
        assert verify.sweep_totient(60).passed
        assert verify.sweep_ramanujan(20, 4).passed
        assert built == []

        real = arith.totient
        monkeypatch.setattr(arith, "totient", lambda n: real(n) + (n == 12))
        result = verify.sweep_totient(60)
        assert 0 < len(built) == len(result.failures)

    def test_ramanujan_sweep_small(self):
        result = verify.sweep_ramanujan(40, 20)
        assert result.passed

    # A corrupted method's failure list from sweep_ramanujan(30, 6): the
    # number of failures and the sha256 of repr() of its (label, params,
    # witness) triples, recorded before the sweep evaluated c_mn(q) by
    # Kluyver once per check instead of twice.
    _CORRUPTED_SWEEP = {
        "kluyver": (111, "9db54170daec9817e28ac4feeffd7d57d5c50850ce284d8980b07f41ea0486a7"),
        "hoelder": (16, "20d3d4d48f517824418163685cd2b7fb299f6eb1d66efa1975b52ee597270712"),
        "definition": (16, "d56c259fd4d3f293c2d799d227f1369682455c2d7f21dbb2fea1be35b758502c"),
    }

    @pytest.mark.parametrize("bad", sorted(_CORRUPTED_SWEEP))
    def test_ramanujan_sweep_failures_under_a_corrupted_method(self, monkeypatch, bad):
        real = arith.ramanujan_sum
        shift = {(6, 2): 1, (12, 5): -3, (30, 0): 2}

        def corrupted(n, q, method="kluyver"):
            value = real(n, q, method)
            if method == bad and (n, q) in shift:
                value += shift[n, q]
            return value

        monkeypatch.setattr(arith, "ramanujan_sum", corrupted)
        result = verify.sweep_ramanujan(30, 6)
        failures = [(f.identity_name, f.params, f.witness) for f in result.failures]
        assert result.checks == 2492
        assert (len(failures), hashlib.sha256(repr(failures).encode()).hexdigest()) == (
            self._CORRUPTED_SWEEP[bad]
        )
        assert (
            "ramanujan_method_agreement",
            (("n", 1), ("m", 30), ("q", 0)),
            "kluyver = %d; hoelder = %d; definition = %d"
            % tuple(8 + 2 * (m == bad) for m in ("kluyver", "hoelder", "definition")),
        ) in failures

    def test_ramanujan_sweep_evaluates_each_value_once(self, monkeypatch):
        calls = []
        real = arith.ramanujan_sum

        def counting(n, q, method="kluyver"):
            calls.append((n, q, method))
            return real(n, q, method)

        monkeypatch.setattr(arith, "ramanujan_sum", counting)
        assert verify.sweep_ramanujan(30, 6).passed
        # every N <= 30 and q <= 6, by each of kluyver, hoelder and definition
        assert len(calls) == len(set(calls)) == 30 * 7 * 3

    def test_ramanujan_sweep_keeps_a_definition_residual(self, monkeypatch):
        # the definition's residual error at c_12(5) is a value the sweep
        # reads at every point with nm = 12 and q = 5
        real = arith._cosine_sum

        def off(n, q):
            return real(n, q) + 0.25 * ((n, q) == (12, 5))

        monkeypatch.setattr(arith, "_cosine_sum", off)
        pairwise = [
            r
            for n in range(1, 31)
            for m in range(1, 30 // n + 1)
            if gcd(n, m) == 1
            for q in range(7)
            for r in check_ramanujan_identities(n, m, q)
        ]
        result = verify.sweep_ramanujan(30, 6)
        assert result.checks == len(pairwise)
        assert result.failures == [r for r in pairwise if not r.passed]
        witness = "cosine sum for c_12(5) is 2.500e-01 away from the nearest integer"
        assert [(f.identity_name, f.params, f.witness) for f in result.failures] == [
            ("ramanujan_method_agreement", (("n", n), ("m", 12 // n), ("q", 5)), witness)
            for n in (1, 3, 4, 12)
        ]

    def test_ramanujan_sweep_checks_the_defining_divisor_sum(self, monkeypatch):
        # c_12(5) + 1 by every method: the three rows at 12 still agree, and
        # c_12(0) is still phi(12), but the sum of c_d(5) over d | 12 is 1
        real = arith.ramanujan_sum

        def shifted(n, q, method="kluyver"):
            return real(n, q, method) + ((n, q) == (12, 5))

        monkeypatch.setattr(arith, "ramanujan_sum", shifted)
        pairwise = _pairwise_ramanujan_reports(30, 6)
        result = verify.sweep_ramanujan(30, 6)
        assert result.checks == len(pairwise)
        assert result.failures == [r for r in pairwise if not r.passed]
        assert result.failures

    def test_ramanujan_sweep_checks_the_totient_it_reads(self, monkeypatch):
        # phi(1) read as 2 keeps Hoelder's c_1(q) = phi(1)/phi(1) = 1, so at
        # max_n = 1 only c_1(0) = phi(1) refuses it; the degree reduction
        # fails at (1, 1) at every q
        real = arith.totient
        monkeypatch.setattr(arith, "totient", lambda k: real(k) + (k == 1))
        pairwise = _pairwise_ramanujan_reports(1, 3)
        result = verify.sweep_ramanujan(1, 3)
        assert result.checks == len(pairwise)
        assert result.failures == [r for r in pairwise if not r.passed]
        assert [(f.identity_name, f.params) for f in result.failures] == [
            ("ramanujan_degree_reduction", (("n", 1), ("m", 1), ("q", q))) for q in range(4)
        ]

    def test_ramanujan_sweep_rejects_a_negative_max_q(self):
        with pytest.raises(ValueError, match="max_q must be >= 0, got -1"):
            verify.sweep_ramanujan(5, -1)

    def test_ramanujan_sweep_equals_the_pairwise_checks_under_patched_divisors(
        self, monkeypatch
    ):
        # the sweep's divisor table is read through arith.divisors, so a wrong
        # divisor list of 6 reaches it as it reaches the public check; read as
        # [1, 2, 6, 3] it keeps every sum over a divisor list, and only the
        # divisor premise refuses it
        real = arith.divisors
        for wrong in ([1, 2, 3], [1, 2, 6, 3]):
            monkeypatch.setattr(arith, "divisors", lambda k, w=wrong: w if k == 6 else real(k))
            pairwise = _pairwise_ramanujan_reports(20, 4)
            result = verify.sweep_ramanujan(20, 4)
            assert result.checks == len(pairwise)
            assert result.failures == [r for r in pairwise if not r.passed]
            assert result.failures

    def test_passing_sweeps_never_call_a_check_core(self, monkeypatch):
        # a sweep whose premises all hold only counts its checks
        def forbidden(*_args):
            raise AssertionError("a passing sweep called a per-point core")

        monkeypatch.setattr(verify, "_totient_checks", forbidden)
        monkeypatch.setattr(verify, "_ramanujan_checks", forbidden)
        pairs = lambda max_n: sum(
            gcd(n, m) == 1 for n in range(1, max_n + 1) for m in range(1, max_n // n + 1)
        )
        totient = verify.sweep_totient(300)
        assert totient.passed and totient.checks == 3 * pairs(300)
        ramanujan = verify.sweep_ramanujan(40, 20)
        assert ramanujan.passed and ramanujan.checks == 4 * 21 * pairs(40)

    def test_sweep_tables_die_with_the_sweep(self):
        verify.sweep_totient(3000)  # fills the arith caches
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            # tables kept past their sweep would hold over 100 KB for 2999
            for max_n in (3000, 2999):
                verify.sweep_totient(max_n)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 64 * 1024, retained

    def test_coefficient_sweep_small(self):
        assert verify.sweep_coefficients(150).passed

    def test_results_deterministic(self):
        a = verify.sweep_polynomial(30)
        b = verify.sweep_polynomial(30)
        assert a.checks == b.checks
        assert a.failures == b.failures


class TestSweepContracts:
    """The full-bound sweep contracts; the heaviest tests in the suite."""

    def test_polynomial_sweep_contract(self):
        # every coprime pair with n*m <= 5000 passes all checks, and every
        # non-coprime pair reproduces the counterexample behaviour
        result = verify.sweep_polynomial(5000)
        assert result.passed, result.failures[:5]

    def test_totient_sweep_contract(self):
        result = verify.sweep_totient(10_000)
        assert result.passed, result.failures[:5]


def _corrupted_divisors(real, k, drop, value):
    # the divisors of k with one entry dropped, replaced or appended; every
    # entry stays in [1, k], so each table index a sweep derives stays in range
    divs = real(k)
    if drop is None:
        return divs + [value]
    if value is None:
        return divs[:drop] + divs[drop + 1 :]
    return divs[:drop] + [value] + divs[drop + 1 :]


def _divisor_edit(draw, k):
    """(drop, value) for :func:`_corrupted_divisors` at k."""
    drop = draw(st.one_of(st.none(), st.integers(0, len(arith.divisors(k)) - 1)))
    value = draw(st.integers(1, k) if drop is None else st.one_of(st.none(), st.integers(1, k)))
    return drop, value


def test_divisor_premise_refuses_every_single_edit():
    # every drop, replacement by another value in [1, k], or append of a
    # value in [1, k] to the divisors of one k <= 40 is refused, and the
    # true table is accepted
    table = verify._divisor_table(40)
    assert verify._divisor_lists_are_true(40, table)
    for k in range(1, 41):
        size = len(arith.divisors(k))
        edits = [(i, None) for i in range(size)] + [(None, v) for v in range(1, k + 1)]
        edits += [(i, v) for i in range(size) for v in range(1, k + 1) if v != table(k)[i]]
        for drop, value in edits:
            wrong = _corrupted_divisors(arith.divisors, k, drop, value)
            lookup = lambda j: wrong if j == k else table(j)
            assert not verify._divisor_lists_are_true(40, lookup), (k, wrong)


@st.composite
def _one_corruption(draw, max_n, max_q=None):
    """An (arith name, replacement factory) pair that corrupts one phi(k),
    divisors(k) or, when ``max_q`` is given, the sign of one mu(k) or c_N(q)
    by one method or by all three at once."""
    kinds = ["totient", "divisors"] + ["mobius", "ramanujan_sum"] * (max_q is not None)
    kind = draw(st.sampled_from(kinds))
    k = draw(st.integers(1, max_n))
    if kind == "totient":
        delta = draw(st.sampled_from([-2, -1, 1, 2]))
        return kind, lambda real: lambda n: real(n) + delta * (n == k)
    if kind == "mobius":
        return kind, lambda real: lambda n: -real(n) if n == k else real(n)
    if kind == "divisors":
        drop, value = _divisor_edit(draw, k)

        def divisors_factory(real):
            return lambda n: _corrupted_divisors(real, n, drop, value) if n == k else real(n)

        return kind, divisors_factory
    q = draw(st.integers(0, max_q))
    one = [("kluyver",), ("hoelder",), ("definition",)]
    methods = draw(st.sampled_from(one + [("kluyver", "hoelder", "definition")]))
    delta = draw(st.sampled_from([-1, 1, 3]))

    def ramanujan_factory(real):
        def corrupted(n, q_, method_="kluyver"):
            return real(n, q_, method_) + delta * ((n, q_) == (k, q) and method_ in methods)

        return corrupted

    return kind, ramanujan_factory


def _sweep_matches_the_pairwise_checks(sweep, pairwise_reports):
    # Compares what ``sweep()`` returns with the pairwise reports, or the
    # error both raise: a corrupted totient can leave Hoelder's quotient
    # inexact, and an empty divisor list of m leaves the Ramanujan core
    # without its d = m term, and then the sweep and the public check fail
    # alike.
    def outcome(run):
        try:
            return run()
        except (ArithmeticError, IndexError) as exc:
            return type(exc)

    pairwise = outcome(pairwise_reports)
    result = outcome(sweep)
    if isinstance(pairwise, type):
        assert result is pairwise
    else:
        assert (result.checks, result.failures) == (
            len(pairwise),
            [r for r in pairwise if not r.passed],
        )


def _pairwise_ramanujan_reports(max_n, max_q):
    # check_ramanujan_identities at every coprime n*m <= max_n and q <= max_q
    return [
        r
        for n in range(1, max_n + 1)
        for m in range(1, max_n // n + 1)
        if gcd(n, m) == 1
        for q in range(max_q + 1)
        for r in check_ramanujan_identities(n, m, q)
    ]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_totient_sweep_equals_the_pairwise_checks_under_one_corruption(data):
    max_n = data.draw(st.integers(1, 60), label="max_n")
    name, factory = data.draw(_one_corruption(max_n), label="corruption")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arith, name, factory(getattr(arith, name)))
        _sweep_matches_the_pairwise_checks(
            lambda: verify.sweep_totient(max_n),
            lambda: [
                r
                for n in range(1, max_n + 1)
                for m in range(1, max_n // n + 1)
                if gcd(n, m) == 1
                for r in check_totient_identities(n, m)
            ],
        )


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_ramanujan_sweep_equals_the_pairwise_checks_under_one_corruption(data):
    max_n = data.draw(st.integers(1, 16), label="max_n")
    max_q = data.draw(st.integers(0, 6), label="max_q")
    name, factory = data.draw(_one_corruption(max_n, max_q), label="corruption")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arith, name, factory(getattr(arith, name)))
        _sweep_matches_the_pairwise_checks(
            lambda: verify.sweep_ramanujan(max_n, max_q),
            lambda: _pairwise_ramanujan_reports(max_n, max_q),
        )


def _pairwise_polynomial_failures(max_n):
    """The count and the failures of the checks of
    :func:`check_polynomial_identities` at every pair n*m <= max_n, each
    identity decided by building both sides as polynomials and comparing
    them, through the reads the checks make."""
    cached = cyclo._cyclotomic_cached
    checks, failures = 0, []
    for n in range(1, max_n + 1):
        fundamental = verify._equal(
            intpoly.poly_prod([cached(d) for d in arith.divisors(n)]),
            cyclo._x_pow_minus_1(n),
        )
        for m in range(1, max_n // n + 1):
            divisors = arith.divisors(m)
            rhs = [cached(d * n) for d in divisors]
            substituted = intpoly.substitute_power(cached(n), m)
            outcomes = [("fundamental_product", fundamental)]
            if gcd(n, m) > 1:
                # decided by the degrees read from the lengths, as the checks do
                if sum(map(len, rhs)) - len(rhs) != m * (len(cached(n)) - 1):
                    outcomes.append(("noncoprime_counterexample", None))
                else:
                    distinct = verify._distinct(substituted, intpoly.poly_prod(rhs))
                    outcomes.append(("noncoprime_counterexample", distinct))
            else:
                lifted = lambda sign: [
                    intpoly.substitute_power(cached(n), d)
                    for d in divisors
                    if arith.mobius(m // d) == sign
                ]
                substitution = verify._equal(substituted, intpoly.poly_prod(rhs))
                dual = verify._equal(
                    intpoly.poly_prod(lifted(1)),
                    intpoly.poly_prod([cached(n * m)] + lifted(-1)),
                )
                outcomes += [
                    ("power_substitution_product", substitution),
                    ("dual_inversion", dual),
                ]
            checks += len(outcomes)
            params = (("n", n), ("m", m))
            failures += [
                CheckReport(name, params, False, w) for name, w in outcomes if w is not None
            ]
    return checks, failures


@st.composite
def _corrupted_phi(draw, max_k):
    """(k, the coefficients of Phi_k with one or two of them changed)."""
    k = draw(st.integers(1, max_k))
    coeffs = list(cyclo._cyclotomic_cached(k))
    shape = draw(st.sampled_from(["one", "two", "collision"]))
    if shape == "collision":
        # +256 at X**j and -1 at X**(j+1) leave the value at X = 2**8 as it was
        j = draw(st.integers(0, len(coeffs) - 2))
        coeffs[j] += 256
        coeffs[j + 1] -= 1
        return k, tuple(coeffs)
    for _ in range(1 if shape == "one" else 2):
        j = draw(st.integers(0, len(coeffs) - 1))
        coeffs[j] += draw(st.sampled_from([-2, -1, 1, 2, 255, -256]))
    return k, tuple(coeffs)


@settings(max_examples=60, deadline=None)
@given(_corrupted_phi(40))
def test_polynomial_sweep_equals_the_pairwise_polynomial_checks_under_one_corruption(corruption):
    # One Phi_k, k <= 40, is corrupted in the cache, which every read of the
    # checks goes through.  The sweep reports the failures of the pairwise
    # polynomial comparison, witnesses included.
    for k in range(1, 41):  # the real cache holds every Phi the sweep reads
        cyclo._cyclotomic_cached(k)
    k, coeffs = corruption
    real = cyclo._cyclotomic_cached
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cyclo, "_cyclotomic_cached", lambda n: coeffs if n == k else real(n))
        result = verify.sweep_polynomial(40)
        assert (result.checks, result.failures) == _pairwise_polynomial_failures(40)


@st.composite
def _corrupted_read(draw, max_k):
    """(name, k, value): ``cyclo._cyclotomic_cached(k)`` with one coefficient
    below the leading one changed, ``cyclo._x_pow_minus_1(k)`` with one
    coefficient changed, a wrong ``arith.mobius(k)``, or ``arith.divisors(k)``
    with one entry dropped, replaced or appended."""
    names = ["_cyclotomic_cached", "_x_pow_minus_1", "mobius", "divisors"]
    name = draw(st.sampled_from(names))
    k = draw(st.integers(1, max_k))
    delta = draw(st.sampled_from([-2, -1, 1, 2]))
    if name == "mobius":
        return name, k, draw(st.sampled_from([v for v in (-1, 0, 1) if v != arith.mobius(k)]))
    if name == "divisors":
        return name, k, _corrupted_divisors(arith.divisors, k, *_divisor_edit(draw, k))
    if name == "_x_pow_minus_1":
        coeffs = cyclo._x_pow_minus_1(k)
        coeffs[draw(st.integers(0, k))] += delta
        return name, k, coeffs
    coeffs = list(cyclo._cyclotomic_cached(k))
    coeffs[draw(st.integers(0, len(coeffs) - 2))] += delta
    return name, k, tuple(coeffs)


@settings(max_examples=50, deadline=None)
@given(_corrupted_read(30))
def test_polynomial_sweep_equals_the_pairwise_checks_under_a_corrupted_read(corruption):
    # One value the polynomial checks read is wrong: a Phi_k, an X**k - 1, a
    # mu(k) or the divisors of k, k <= 30.  The sweep reports the count and
    # the failures of the public check at every pair, witnesses included,
    # whether it deduces or falls back; a wrong X**k - 1 fails only
    # fundamental checks, which a deducing sweep never computes.
    for k in range(1, 31):  # the Phi cache reads X**d - 1, mu and divisors itself
        cyclo._cyclotomic_cached(k)
    name, k, value = corruption
    module = arith if name in ("mobius", "divisors") else cyclo
    real = getattr(module, name)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, name, lambda j: value if j == k else real(j))
        TestSweeps._sweep_failures_equal_the_pairwise_ones(30)
