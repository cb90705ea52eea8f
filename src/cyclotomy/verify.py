"""Mechanical verification of the identities tying cyclotomic polynomials,
the totient, and Ramanujan sums together.

Each ``check_*`` function evaluates both sides of a family of identities at
concrete parameters and returns :class:`CheckReport` objects.  Failures are
data, not exceptions: a failed report carries a witness rendering of the two
unequal sides, so parameter sweeps always run to completion.  The ``sweep_*``
helpers iterate the checks over the standard parameter ranges, through the
same code as the ``check_*`` functions: private cores that return
(identity name, witness) pairs, the witness None for a pass.  A sweep counts
the passing checks and builds a report only for a failure.  It computes each
value shared by many points once: the fundamental product and the totient
divisor sum once per n, and each Ramanujan sum c_N(q) once per method, from a
table that lives as long as the sweep.

The dual Mobius inversion ``Phi_nm = prod_{d|m} Phi_n(X^d)**mu(m/d)`` is a
quotient, but it is checked as a product, ``prod(num) == prod(den) * Phi_nm``:
exactly equivalent in Z[X], and no check divides polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from . import arith, cyclo, intpoly

IDENTITY_LABELS = frozenset(
    {
        "fundamental_product",
        "power_substitution_product",
        "dual_inversion",
        "noncoprime_counterexample",
        "totient_divisor_sum",
        "totient_scaled_divisor_sum",
        "totient_multiplicative",
        "ramanujan_divisor_sum",
        "ramanujan_inversion",
        "ramanujan_method_agreement",
        "ramanujan_degree_reduction",
        "linear_coefficient",
        "subleading_coefficient",
        "palindrome_symmetry",
        "first_power_sum",
    }
)

_WITNESS_TERMS = 40


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one identity check at one parameter point."""

    identity_name: str
    params: tuple
    passed: bool
    witness: str | None = None

    def __post_init__(self) -> None:
        if self.identity_name not in IDENTITY_LABELS:
            raise ValueError("unknown identity label %r" % self.identity_name)
        if not self.passed and self.witness is None:
            raise ValueError("a failed report requires a witness")


def _render(value) -> str:
    if isinstance(value, list):
        return intpoly.poly_str(value, max_terms=_WITNESS_TERMS)
    return str(value)


def _equal(lhs, rhs) -> str | None:
    if lhs == rhs:
        return None
    return "left = %s; right = %s" % (_render(lhs), _render(rhs))


def _agree(values) -> str | None:
    # ``values`` holds (label, int) pairs that must all be equal.
    if len({v for _, v in values}) == 1:
        return None
    return "; ".join("%s = %d" % pair for pair in values)


def _distinct(lhs, rhs) -> str | None:
    if lhs != rhs:
        return None
    return "sides coincide: %s" % _render(lhs)


def _reports(params: tuple, outcomes: list) -> list:
    return [CheckReport(name, params, w is None, w) for name, w in outcomes]


# ---------------------------------------------------------------------------
# polynomial identities

def check_polynomial_identities(n: int, m: int) -> list:
    """Check the product identities for Phi at the pair (n, m).

    Always checks the fundamental identity at n.  For coprime pairs it
    additionally checks the power-substitution product and the dual Mobius
    inversion, multiplied out; for non-coprime pairs it confirms that the two
    sides of the power-substitution identity differ (the counterexample
    behaviour).
    """
    arith._check_index(n)
    arith._check_index(m, "m")
    product = cyclo._cyclotomic_product(arith.divisors(n))
    return _reports((("n", n), ("m", m)), _polynomial_checks(n, m, product))


def _polynomial_checks(n: int, m: int, product: list) -> list:
    # ``product`` is that of Phi_d over d | n, which depends on n only, so a
    # sweep computes it once per n rather than once per pair.
    outcomes = [("fundamental_product", _equal(product, cyclo._x_pow_minus_1(n)))]
    phi_n = cyclo.cyclotomic_poly(n)
    substituted = intpoly.substitute_power(phi_n, m)
    divisors = arith.divisors(m)
    rhs = cyclo._cyclotomic_product([d * n for d in divisors])
    if gcd(n, m) != 1:
        return outcomes + [("noncoprime_counterexample", _distinct(substituted, rhs))]
    outcomes.append(("power_substitution_product", _equal(substituted, rhs)))
    # Phi_nm joins the denominator: in the integral domain Z[X],
    # Phi_nm == prod(num) / prod(den) exactly when prod(num) == prod(den) * Phi_nm.
    num = []
    den = [cyclo.cyclotomic_poly(n * m)]
    for d in divisors:
        mu = arith.mobius(m // d)
        if mu == 1:
            num.append(intpoly.substitute_power(phi_n, d))
        elif mu == -1:
            den.append(intpoly.substitute_power(phi_n, d))
    outcomes.append(
        ("dual_inversion", _equal(intpoly.poly_prod(num), intpoly.poly_prod(den)))
    )
    return outcomes


# ---------------------------------------------------------------------------
# totient identities

def check_totient_identities(n: int, m: int) -> list:
    """Check the divisor-sum and multiplicativity identities for the totient."""
    arith._check_index(n)
    arith._check_index(m, "m")
    divisor_sum = sum(arith.totient(d) for d in arith.divisors(n))
    return _reports((("n", n), ("m", m)), _totient_checks(n, m, divisor_sum))


def _totient_checks(n: int, m: int, divisor_sum: int) -> list:
    # ``divisor_sum`` is that of phi(d) over d | n, which a sweep computes
    # once per n.
    outcomes = [("totient_divisor_sum", _equal(divisor_sum, n))]
    if gcd(n, m) == 1:
        scaled = sum(arith.totient(d * n) for d in arith.divisors(m))
        outcomes += [
            ("totient_scaled_divisor_sum", _equal(scaled, m * arith.totient(n))),
            (
                "totient_multiplicative",
                _equal(arith.totient(m * n), arith.totient(m) * arith.totient(n)),
            ),
        ]
    return outcomes


# ---------------------------------------------------------------------------
# Ramanujan-sum identities

def check_ramanujan_identities(n: int, m: int, q: int) -> list:
    """Check the divisor-sum, inversion, and cross-formula identities for c_n(q).

    Requires gcd(n, m) = 1; q >= 0 with the conventions c_n(0) = phi(n) and
    gcd(m, 0) = m.
    """
    arith._check_index(n)
    arith._check_index(m, "m")
    if q < 0:
        raise ValueError("q must be >= 0, got %r" % (q,))
    if gcd(n, m) != 1:
        raise ValueError("n and m must be coprime, got n=%d, m=%d" % (n, m))
    params = (("n", n), ("m", m), ("q", q))
    return _reports(params, _ramanujan_checks(n, m, q, _ramanujan_value))


def _ramanujan_value(n: int, q: int, method: str):
    # c_n(q) by ``method``, or the residual error the definition raised.
    try:
        return arith.ramanujan_sum(n, q, method)
    except arith.DefinitionResidualError as exc:
        return exc


def _ramanujan_checks(n: int, m: int, q: int, c) -> list:
    # ``c(N, q, method)`` is _ramanujan_value, or a sweep's table lookup.
    divisors = arith.divisors(m)
    terms = [c(d * n, q, "kluyver") for d in divisors]
    rhs = m * c(n, q // m, "kluyver") if q % m == 0 else 0
    # The d = m term is c_mn(q) by Kluyver, which the inversion and the
    # cross-formula check compare too.
    kluyver = terms[-1]
    inv = sum(
        d * c(n, q // d, "kluyver") * arith.mobius(m // d)
        for d in arith.divisors(gcd(m, q))
    )
    hoelder = c(m * n, q, "hoelder")
    definition = c(m * n, q, "definition")
    if isinstance(definition, arith.DefinitionResidualError):
        agreement = str(definition)
    else:
        agreement = _agree(
            (("kluyver", kluyver), ("hoelder", hoelder), ("definition", definition))
        )
    degree_terms = sum(c(d * n, 0, "kluyver") for d in divisors)
    return [
        ("ramanujan_divisor_sum", _equal(sum(terms), rhs)),
        ("ramanujan_inversion", _equal(kluyver, inv)),
        ("ramanujan_method_agreement", agreement),
        ("ramanujan_degree_reduction", _equal(degree_terms, m * arith.totient(n))),
    ]


# ---------------------------------------------------------------------------
# coefficient facts

def check_coefficient_facts(n: int) -> list:
    """Check the coefficient facts for Phi_n: a_1 = a_{phi(n)-1} = -mu(n),
    the palindrome symmetry, and the first power sum.  Requires n >= 2."""
    arith._check_index(n)
    if n < 2:
        raise ValueError("coefficient facts hold for n >= 2 only")
    return _reports((("n", n),), _coefficient_checks(n))


def _coefficient_checks(n: int) -> list:
    poly = cyclo.cyclotomic_poly(n)
    minus_mu = -arith.mobius(n)
    values = (
        ("S_1", intpoly.power_sums(poly, 1)[1]),
        ("mu(n)", arith.mobius(n)),
        ("c_n(1)", arith.ramanujan_sum(n, 1)),
    )
    return [
        ("linear_coefficient", _equal(poly[1], minus_mu)),
        ("subleading_coefficient", _equal(poly[len(poly) - 2], minus_mu)),
        ("palindrome_symmetry", _equal(poly, poly[::-1])),
        ("first_power_sum", _agree(values)),
    ]


# ---------------------------------------------------------------------------
# sweeps

@dataclass
class SweepResult:
    """Aggregate of a parameter sweep: total checks run and the failures."""

    suite: str
    checks: int
    failures: list

    @property
    def passed(self) -> bool:
        return not self.failures


def _collect(result: SweepResult, params: tuple, outcomes: list) -> None:
    result.checks += len(outcomes)
    result.failures.extend(
        CheckReport(name, params, False, w) for name, w in outcomes if w is not None
    )


def sweep_polynomial(max_n: int) -> SweepResult:
    """Run the checks of :func:`check_polynomial_identities` over every pair with
    n*m <= max_n, computing the fundamental product once per n."""
    result = SweepResult("poly", 0, [])
    for n in range(1, max_n + 1):
        product = cyclo._cyclotomic_product(arith.divisors(n))
        for m in range(1, max_n // n + 1):
            _collect(result, (("n", n), ("m", m)), _polynomial_checks(n, m, product))
    return result


def sweep_totient(max_n: int) -> SweepResult:
    """Run the checks of :func:`check_totient_identities` over coprime pairs with
    n*m <= max_n, computing the divisor sum of phi once per n."""
    result = SweepResult("totient", 0, [])
    for n in range(1, max_n + 1):
        divisor_sum = sum(arith.totient(d) for d in arith.divisors(n))
        for m in range(1, max_n // n + 1):
            if gcd(n, m) == 1:
                outcomes = _totient_checks(n, m, divisor_sum)
                _collect(result, (("n", n), ("m", m)), outcomes)
    return result


def sweep_ramanujan(max_n: int, max_q: int) -> SweepResult:
    """Run the checks of :func:`check_ramanujan_identities` over coprime
    n*m <= max_n and q <= max_q, evaluating each c_N(q) once per method."""
    # table[method][N][q] for 1 <= N <= max_n and 0 <= q <= max_q; the pair
    # (N, 1) reads every entry, so none is evaluated in vain.
    table = {
        method: [None] + [
            [_ramanujan_value(N, q, method) for q in range(max_q + 1)]
            for N in range(1, max_n + 1)
        ]
        for method in ("kluyver", "hoelder", "definition")
    }
    c = lambda N, q, method: table[method][N][q]
    result = SweepResult("ramanujan", 0, [])
    for n in range(1, max_n + 1):
        for m in range(1, max_n // n + 1):
            if gcd(n, m) == 1:
                for q in range(max_q + 1):
                    params = (("n", n), ("m", m), ("q", q))
                    _collect(result, params, _ramanujan_checks(n, m, q, c))
    return result


def sweep_coefficients(max_n: int) -> SweepResult:
    """Run the checks of :func:`check_coefficient_facts` for every 2 <= n <= max_n."""
    result = SweepResult("coeff", 0, [])
    for n in range(2, max_n + 1):
        _collect(result, (("n", n),), _coefficient_checks(n))
    return result
