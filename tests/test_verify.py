import hashlib
from math import gcd

import pytest

from cyclotomy import arith, cyclo, intpoly, verify
from cyclotomy.verify import (
    CheckReport,
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

    def test_dual_inversion_failure_is_a_report(self, monkeypatch):
        real = cyclo.cyclotomic_poly

        def perturbed(k):
            poly = real(k)
            if k == 12:
                poly[0] += 1
            return poly

        monkeypatch.setattr(cyclo, "cyclotomic_poly", perturbed)
        reports = check_polynomial_identities(4, 3)
        dual = _by_name(reports, "dual_inversion")
        assert not dual.passed
        assert dual.witness.startswith("left = ")
        assert "; right = " in dual.witness
        assert _by_name(reports, "fundamental_product").passed
        assert _by_name(reports, "power_substitution_product").passed

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
        with pytest.raises(ValueError):
            CheckReport("fundamental_product", (("n", 1),), False)

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError):
            CheckReport("made_up_identity", (), True)

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
            cyclo.cyclotomic_poly(k)
        x_pow_minus_1 = cyclo._x_pow_minus_1

        def corrupted(n):
            poly = x_pow_minus_1(n)
            if n == 6:
                poly[0] = 2
            return poly

        monkeypatch.setattr(cyclo, "_x_pow_minus_1", corrupted)
        pairwise = [
            r
            for n in range(1, 41)
            for m in range(1, 40 // n + 1)
            for r in check_polynomial_identities(n, m)
        ]
        result = verify.sweep_polynomial(40)
        assert result.checks == len(pairwise)
        assert result.failures == [r for r in pairwise if not r.passed]
        assert len(result.failures) == 6  # m = 1 .. 6 at n = 6

    def test_polynomial_sweep_takes_the_fundamental_product_once_per_n(self, monkeypatch):
        calls = []
        product = cyclo._cyclotomic_product

        def counting(indices):
            calls.append(indices)
            return product(indices)

        monkeypatch.setattr(cyclo, "_cyclotomic_product", counting)
        assert verify.sweep_polynomial(60).passed
        # once per n, plus one product of Phi_{d*n} over d | m per pair: the
        # power-substitution side if gcd(n, m) = 1, the counterexample's if not
        pairs = sum(60 // n for n in range(1, 61))
        assert len(calls) == 60 + pairs

    def test_totient_sweep_small(self):
        assert verify.sweep_totient(200).passed

    def test_totient_sweep_equals_the_pairwise_checks(self, monkeypatch):
        real = arith.totient
        monkeypatch.setattr(arith, "totient", lambda n: real(n) + (n == 12))
        pairwise = [
            r
            for n in range(1, 61)
            for m in range(1, 60 // n + 1)
            if gcd(n, m) == 1
            for r in check_totient_identities(n, m)
        ]
        result = verify.sweep_totient(60)
        assert result.checks == len(pairwise)
        assert result.failures == [r for r in pairwise if not r.passed]
        assert result.failures

    def test_totient_sweep_takes_each_divisor_list_once(self, monkeypatch):
        calls = []
        real = arith.divisors

        def counting(n):
            calls.append(n)
            return real(n)

        monkeypatch.setattr(arith, "divisors", counting)
        assert verify.sweep_totient(300).passed
        # the divisors of n once per n, for the divisor sum, and those of m
        # once per coprime pair, for the scaled divisor sum
        pairs = sum(gcd(n, m) == 1 for n in range(1, 301) for m in range(1, 300 // n + 1))
        assert pairs == 1279
        assert len(calls) == 300 + pairs

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
