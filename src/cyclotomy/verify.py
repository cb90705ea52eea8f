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
value shared by many points once: the fundamental product's outcome and the
totient divisor sum once per n, and each Ramanujan sum c_N(q) once per
method.  Each sweep reads divisor lists, phi(k) and c_N(q) from tables it
builds at its start for every index up to its bound, and that die with it:
one array of 32-bit integers per k <= max_n holding the divisors of k, each
taken from ``arith.divisors`` once, which a lookup hands out as stored.  A
check core reads shared values through what its caller passes in: the
fundamental product's outcome at n, the divisors of m, and lookups
``phi(k)``, ``divisors(k)`` and ``c(N, q, method)`` that a public check
binds to ``arith`` and a sweep to its tables.  Every Phi_k the polynomial
and coefficient checks take is a read of the memoised
``cyclo._cyclotomic_cached``, so each read of Phi_k gives the same
polynomial, and the series runs once per radical.

Every sweep but the coefficient one decides most of its checks from
premises, and each starts from one: the divisor lists it reads are the true
ones.  A list that increases strictly from an entry of at least 1 and holds
only divisors of k has at most d(k) entries, and the sum of d(k) over k <= max_n
is the sum of max_n // d over d <= max_n, so the lengths reach that sum only
if every list holds every divisor of its k.  With the true lists, the
divisor sum of phi at every n fixes phi by induction from phi(1) = 1, as
phi(n) = n - (the sum of phi(d) over d | n, d < n): the phi read is Euler's,
and the scaled divisor sum and the product rule hold at every coprime pair.
So the totient sweep checks these two premises, and if they hold it counts
three checks at each coprime pair, of which k = n*m has 2**omega(k).
Otherwise it runs the core at every pair, so the failures, their order and
their witnesses are those of the pairwise checks.

The Ramanujan sweep also checks that the Mobius values it reads are the true
ones, as the polynomial sweep does below, and at every N <= max_n that the
Kluyver, Hoelder and definition rows of its table are equal, that c_N(0) is
the totient read, and that the sum of c_d(q) over d | N is N*[N | q] at
every q <= max_q.  With the true lists that sum fixes the Kluyver table by
induction from c_1 = 1, as c_N(q) = N*[N | q] - (the sum of c_d(q) over
d | N, d < N), so the table holds the Ramanujan sums and the totient read is
Euler's.  With the true mu each identity is then a theorem at every coprime
(n, m, q): the divisor sum, since c_dn = c_d*c_n and gcd(n, q/m) =
gcd(n, q); the inversion, Kluyver's formula for c_m with c_n(q/d) = c_n(q);
and the degree reduction, the sum of phi(dn) over d | m being m*phi(n).  The
method agreement at (n, m, q) reads only the rows at N = m*n, which the
premise compares.  So if the premises hold the sweep counts four checks at
each q for each coprime pair; otherwise it runs the core at every point.

For a non-coprime pair the power-substitution check is decided by degree
first: Phi_n(X**m) has degree m*phi(n), and the product of Phi_dn over d | m
has degree the sum of phi(dn), since degrees add in Z[X].  These differ at
every non-coprime pair, because phi(dn) >= phi(d)*phi(n) for each d | m,
strictly at d = m when gcd(n, m) > 1, so the sides are different
polynomials and neither is built.  Only if the degrees were equal would both
sides be built and compared, so a failure carries the same witness as ever.

The dual Mobius inversion ``Phi_nm = prod_{d|m} Phi_n(X^d)**mu(m/d)`` is a
quotient, but it is checked as a product, ``prod(num) == prod(den) * Phi_nm``:
exactly equivalent in Z[X], and no check divides polynomials.

The polynomial sweep decides most of its checks by deduction.  Write S_k
for X -> X**k, a ring endomorphism of Z[X], and P(n, m) for the
power substitution at a coprime pair, over any family of polynomials Phi_k.
For m = m1*m2 with gcd(m1, m2) = 1, applying S_m2 to P(n, m1) and then
P(d1*n, m2) to each factor, d1 | m1, gives P(n, m), because the products
d1*d2 run over the divisors of m exactly once; every pair used is coprime
with a product of at most n*m.  So the checks at m = 1 and at the prime
powers m imply every other power substitution.  The dual inversion at
(n, m) follows from P(n, d) for d | m: both sides are then products of the
Phi_en, e | m, and the exponent of Phi_en differs between them by the sum
of mu(m/d) over e | d | m, minus [e = m], which is 0.  The fundamental
identity at n compares the product of Phi_d over d | n with X**n - 1, and
P(1, n) compares the same product with Phi_1(X**n); so where X**n - 1 ==
Phi_1(X**n), the fundamental identity at n is P(1, n), which follows as
above.  The argument needs the divisor lists and the Mobius values the
checks read to be the true ones, so the sweep first checks them: the
divisor lists as above, and the sum of mu(d) over d | j against [j = 1] for
every j, which with the true lists fixes mu.  It then checks X**n - 1 ==
Phi_1(X**n) at every n, and computes the power substitution at every
coprime (n, m) with m = 1 or a prime power and every non-coprime
certificate.  If the premises hold and each of these passes, it counts the
other checks, the fundamental identities among them, as passes.
Otherwise it runs every check at every pair, so the failures, their order
and their witnesses are those of the pairwise checks.  Each check builds
both of its sides as polynomials and compares them; products and
substitutions come out as canonical lists, so equal polynomials compare
equal as lists.
"""

from __future__ import annotations

from array import array
from itertools import chain, repeat
from math import gcd
from operator import eq, lt

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


class CheckReport(cyclo._FrozenRecord):
    """Outcome of one identity check at one parameter point.

    The fields cannot be assigned; reports compare equal, and hash, by
    their fields.
    """

    __slots__ = ("identity_name", "params", "passed", "witness")

    def __init__(
        self, identity_name: str, params: tuple, passed: bool, witness: str | None = None
    ) -> None:
        if identity_name not in IDENTITY_LABELS:
            raise ValueError("unknown identity label %r" % identity_name)
        if not passed and witness is None:
            raise ValueError("a failed report requires a witness")
        super().__init__(identity_name, params, passed, witness)

    def __hash__(self) -> int:
        return hash(self._astuple())


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
    inversion, each with both sides multiplied out as polynomials; for
    non-coprime pairs it confirms that the two sides of the
    power-substitution identity differ (the counterexample behaviour).
    """
    arith._check_index(n)
    arith._check_index(m, "m")
    fundamental = _fundamental(n, arith.divisors(n))
    outcomes = _polynomial_checks(n, m, fundamental, arith.divisors(m))
    return _reports((("n", n), ("m", m)), outcomes)


def _fundamental(n: int, divisors) -> str | None:
    # The outcome of the fundamental identity at n, from the divisors of n.
    return _equal(cyclo._cyclotomic_product(divisors), cyclo._x_pow_minus_1(n))


def _polynomial_checks(n: int, m: int, fundamental, divisors) -> list:
    # ``fundamental`` is _fundamental(n, ...), which depends on n only, so a
    # sweep computes it once per n rather than once per pair; ``divisors``
    # are those of m.
    outcomes = [("fundamental_product", fundamental), _substitution(n, m, divisors)]
    if gcd(n, m) == 1:
        outcomes.append(_dual_inversion(n, m, divisors))
    return outcomes


def _substitution(n: int, m: int, divisors) -> tuple:
    # The power substitution's outcome at a coprime pair, the
    # counterexample's at another, as (identity name, witness).
    indices = [d * n for d in divisors]
    cached = cyclo._cyclotomic_cached
    phi_n = cached(n)
    if gcd(n, m) == 1:
        name, compare = "power_substitution_product", _equal
    else:
        # Degrees add in Z[X], so when m*phi(n) differs from the sum of
        # phi(dn) over d | m the two sides differ, and neither is built.  The
        # degrees are read from the lengths of the cached, canonical Phi.
        name, compare = "noncoprime_counterexample", _distinct
        if sum(len(cached(k)) - 1 for k in indices) != m * (len(phi_n) - 1):
            return name, None
    return name, compare(intpoly.substitute_power(phi_n, m), cyclo._cyclotomic_product(indices))


def _dual_inversion(n: int, m: int, divisors) -> tuple:
    # The factors Phi_n(X**d), by the sign of mu(m/d): d = m, the last
    # divisor, has mu(1) = 1.  Phi_nm joins the denominator: in the integral
    # domain Z[X], Phi_nm == prod(num) / prod(den) exactly when
    # prod(num) == prod(den) * Phi_nm.
    num, den = [m], []
    for d in divisors[:-1]:
        mu = arith.mobius(m // d)
        if mu == 1:
            num.append(d)
        elif mu == -1:
            den.append(d)
    phi_n = cyclo._cyclotomic_cached(n)
    lifted = lambda ds: [intpoly.substitute_power(phi_n, d) for d in ds]
    num_side = intpoly.poly_prod(lifted(num))
    den_side = intpoly.poly_prod([cyclo._cyclotomic_cached(n * m)] + lifted(den))
    return "dual_inversion", _equal(num_side, den_side)


# ---------------------------------------------------------------------------
# totient identities

def check_totient_identities(n: int, m: int) -> list:
    """Check the divisor-sum and multiplicativity identities for the totient."""
    arith._check_index(n)
    arith._check_index(m, "m")
    divisor_sum = sum(arith.totient(d) for d in arith.divisors(n))
    outcomes = _totient_checks(n, m, divisor_sum, arith.divisors(m), arith.totient)
    return _reports((("n", n), ("m", m)), outcomes)


def _totient_checks(n: int, m: int, divisor_sum: int, divisors, phi) -> list:
    # ``divisor_sum`` is that of phi(d) over d | n, which a sweep computes
    # once per n; ``divisors`` are those of m, and ``phi(k)`` is
    # arith.totient or a sweep's table lookup, called for a coprime pair only.
    outcomes = [("totient_divisor_sum", _equal(divisor_sum, n))]
    if gcd(n, m) == 1:
        scaled = sum(phi(d * n) for d in divisors)
        outcomes += [
            ("totient_scaled_divisor_sum", _equal(scaled, m * phi(n))),
            ("totient_multiplicative", _equal(phi(m * n), phi(m) * phi(n))),
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
    outcomes = _ramanujan_checks(n, m, q, _ramanujan_value, arith.divisors)
    return _reports(params, outcomes)


def _ramanujan_value(n: int, q: int, method: str):
    # c_n(q) by ``method``, or the residual error the definition raised.
    try:
        return arith.ramanujan_sum(n, q, method)
    except arith.DefinitionResidualError as exc:
        return exc


def _ramanujan_checks(n: int, m: int, q: int, c, divisors) -> list:
    # ``c(N, q, method)`` is _ramanujan_value and ``divisors(k)`` is
    # arith.divisors, or each is a sweep's table lookup.
    divisors_m = divisors(m)
    terms = [c(d * n, q, "kluyver") for d in divisors_m]
    rhs = m * c(n, q // m, "kluyver") if q % m == 0 else 0
    # The d = m term is c_mn(q) by Kluyver, which the inversion and the
    # cross-formula check compare too.
    kluyver = terms[-1]
    inv = sum(
        d * c(n, q // d, "kluyver") * arith.mobius(m // d)
        for d in divisors(gcd(m, q))
    )
    hoelder = c(m * n, q, "hoelder")
    definition = c(m * n, q, "definition")
    if isinstance(definition, arith.DefinitionResidualError):
        agreement = str(definition)
    else:
        agreement = _agree(
            (("kluyver", kluyver), ("hoelder", hoelder), ("definition", definition))
        )
    degree_terms = sum(c(d * n, 0, "kluyver") for d in divisors_m)
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
    poly = list(cyclo._cyclotomic_cached(n))
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

class SweepResult(cyclo._Record):
    """Aggregate of a parameter sweep: total checks run and the failures.

    A sweep adds to ``checks`` and ``failures`` as it runs; results compare
    equal by their fields.
    """

    __slots__ = ("suite", "checks", "failures")

    def __init__(self, suite: str, checks: int, failures: list) -> None:
        self.suite = suite
        self.checks = checks
        self.failures = failures

    @property
    def passed(self) -> bool:
        return not self.failures


def _collect(result: SweepResult, params: tuple, outcomes: list) -> None:
    result.checks += len(outcomes)
    for name, witness in outcomes:
        if witness is not None:
            result.failures.append(CheckReport(name, params, False, witness))


def _divisor_table(max_n: int):
    """``divisors(k)`` for 1 <= k <= max_n, each taken from ``arith.divisors``
    once and stored as an array of 32-bit integers, which the lookup hands
    out as stored, for reading only.  The table lives as long as the lookup
    it returns."""
    table = [None, *(array("I", arith.divisors(k)) for k in range(1, max_n + 1))]
    return table.__getitem__


def _divisor_lists_are_true(max_n: int, divisors) -> bool:
    """True if ``divisors(k)`` is the divisors of k in increasing order for
    every k <= max_n.

    A list that increases strictly from an entry of at least 1 and holds only
    divisors of k has at most d(k) entries.  The sum of d(k) over k <= max_n
    is the sum of max_n // d over d <= max_n, so the lengths reach that sum
    only if every list holds every divisor.
    """
    total = 0
    for k in range(1, max_n + 1):
        ds = divisors(k)
        # 0 < ds[0] < ds[1] < ..., and k % d == 0 for each entry d
        if not all(map(lt, chain((0,), ds), ds)) or any(map(k.__mod__, ds)):
            return False
        total += len(ds)
    return total == sum(max_n // d for d in range(1, max_n + 1))


def _mobius_values_are_true(max_n: int, divisors) -> bool:
    """True if the sum of ``arith.mobius(d)`` over the entries d of
    ``divisors(k)`` is 1 at k = 1 and 0 at every other k <= max_n.  With the
    true divisor lists the sums fix mu(k) = -(the sum of mu(d) over d | k,
    d < k) by induction on k."""
    return all(sum(map(arith.mobius, divisors(k))) == (k == 1) for k in range(1, max_n + 1))


def _coprime_pairs(max_n: int) -> int:
    """The number of coprime pairs (n, m) with n*m <= max_n: k = n*m has
    2**omega(k) coprime splits."""
    return sum(1 << len(arith._factorize(k)) for k in range(1, max_n + 1))


def sweep_polynomial(max_n: int) -> SweepResult:
    """Run the checks of :func:`check_polynomial_identities` over every pair with
    n*m <= max_n.  If the checks at m = 1 and at the prime powers m pass,
    X**n - 1 == Phi_1(X**n) at every n, and the divisor lists and Mobius
    values read are the true ones, the others follow, the fundamental
    identities among them, and are only counted; otherwise every check
    runs, with the fundamental product once per n."""
    result = SweepResult("poly", 0, [])
    divisors = _divisor_table(max_n)
    checks = _polynomial_checks_if_all_pass(max_n, divisors)
    if checks is not None:
        result.checks = checks
        return result
    for n in range(1, max_n + 1):
        fundamental = _fundamental(n, divisors(n))
        for m in range(1, max_n // n + 1):
            outcomes = _polynomial_checks(n, m, fundamental, divisors(m))
            _collect(result, (("n", n), ("m", m)), outcomes)
    return result


def _polynomial_checks_if_all_pass(max_n: int, divisors):
    """The number of checks of :func:`_polynomial_checks` at the pairs
    n*m <= max_n if each of them passes, else None.

    Checks the premises of the deduction in the module docstring, the
    divisor lists ``divisors`` hands out by :func:`_divisor_lists_are_true`
    and the values of ``arith.mobius``, then, at every n, the premise
    X**n - 1 == Phi_1(X**n) and :func:`_substitution` at every non-coprime
    pair and every coprime pair with m = 1 or a prime power.  The power
    substitution at the other coprime pairs, every dual inversion and every
    fundamental identity follow from those, and no fundamental product is
    computed.  Three checks are counted at each coprime pair and two at
    each other pair, as the core makes.
    """
    if not (_divisor_lists_are_true(max_n, divisors) and _mobius_values_are_true(max_n, divisors)):
        return None
    checks = 0
    phi_1 = cyclo._cyclotomic_cached(1)
    for n in range(1, max_n + 1):
        # X**n - 1 == Phi_1(X**n) makes the fundamental identity at n the
        # power substitution at (1, n), which follows from those at (1, p**a)
        if cyclo._x_pow_minus_1(n) != intpoly.substitute_power(phi_1, n):
            return None
        for m in range(1, max_n // n + 1):
            coprime = gcd(n, m) == 1
            checks += 2 + coprime
            if coprime and len(arith._factorize(m)) > 1:
                continue  # follows from the checks at its prime powers
            if _substitution(n, m, divisors(m))[1] is not None:
                return None
    return checks


def sweep_totient(max_n: int) -> SweepResult:
    """Run the checks of :func:`check_totient_identities` over coprime pairs with
    n*m <= max_n.  If the divisor lists read are the true ones and the
    divisor sum of phi holds at every n, phi is Euler's totient and the
    others hold, so they are only counted; otherwise every check runs."""
    result = SweepResult("totient", 0, [])
    # phi before the divisor table: with the arith caches filled first, the
    # CLI's largest sweep (200000) peaks at 125 MB RSS, against 139 MB with
    # the table's arrays allocated first (Python 3.11 on Linux).
    ns = range(1, max_n + 1)
    phi_list = [0, *map(arith.totient, ns)]
    phi = phi_list.__getitem__
    divisors = _divisor_table(max_n)
    # phi(n) = n - (the sum of phi(d) over d | n, d < n) fixes phi by
    # induction from phi(1) = 1, so the scaled sums and the product rule hold
    # at every coprime pair.
    if _divisor_lists_are_true(max_n, divisors) and all(
        map(eq, map(sum, map(map, repeat(phi), map(divisors, ns))), ns)
    ):
        result.checks = 3 * _coprime_pairs(max_n)
        return result
    for n in ns:
        divisor_sum = sum(map(phi, divisors(n)))
        for m in range(1, max_n // n + 1):
            if gcd(n, m) == 1:
                outcomes = _totient_checks(n, m, divisor_sum, divisors(m), phi)
                _collect(result, (("n", n), ("m", m)), outcomes)
    return result


def sweep_ramanujan(max_n: int, max_q: int) -> SweepResult:
    """Run the checks of :func:`check_ramanujan_identities` over coprime
    n*m <= max_n and q <= max_q, evaluating each c_N(q) once per method.  If
    the divisor lists and Mobius values read are the true ones and
    :func:`_ramanujan_rows_are_true` holds, every check holds and is only
    counted; otherwise every check runs.  Raises ValueError if max_q < 0."""
    if max_q < 0:
        raise ValueError("max_q must be >= 0, got %r" % (max_q,))
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
    # gcd(m, q) <= m <= max_n, with gcd(m, 0) = m
    divisors = _divisor_table(max_n)
    result = SweepResult("ramanujan", 0, [])
    if (
        _divisor_lists_are_true(max_n, divisors)
        and _mobius_values_are_true(max_n, divisors)
        and _ramanujan_rows_are_true(max_n, table, divisors)
    ):
        result.checks = 4 * (max_q + 1) * _coprime_pairs(max_n)  # four identities at each q
        return result
    for n in range(1, max_n + 1):
        for m in range(1, max_n // n + 1):
            if gcd(n, m) == 1:
                for q in range(max_q + 1):
                    params = (("n", n), ("m", m), ("q", q))
                    _collect(result, params, _ramanujan_checks(n, m, q, c, divisors))
    return result


def _ramanujan_rows_are_true(max_n: int, table: dict, divisors) -> bool:
    """True if, at every N <= max_n, the rows ``table[method][N]`` of the
    three methods are equal, c_N(0) is ``arith.totient(N)``, and the sum of
    c_d(q) over the entries d of ``divisors(N)`` is N where N divides q and
    0 elsewhere.

    With the true divisor lists the last fixes c_N(q) = N*[N | q] - (the sum
    of c_d(q) over d | N, d < N) by induction on N, so every row holds the
    Ramanujan sums and the totient read is Euler's.
    """
    kluyver = table["kluyver"]
    for N in range(1, max_n + 1):
        row = kluyver[N]
        # a definition residual is an exception object, equal to no int
        if row != table["hoelder"][N] or row != table["definition"][N] or row[0] != arith.totient(N):
            return False
        sums = map(sum, zip(*[kluyver[d] for d in divisors(N)]))
        if any(s != (0 if q % N else N) for q, s in enumerate(sums)):
            return False
    return True


def sweep_coefficients(max_n: int) -> SweepResult:
    """Run the checks of :func:`check_coefficient_facts` for every 2 <= n <= max_n."""
    result = SweepResult("coeff", 0, [])
    for n in range(2, max_n + 1):
        _collect(result, (("n", n),), _coefficient_checks(n))
    return result
