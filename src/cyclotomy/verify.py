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
fundamental product's outcome at n, the divisors of m, one store of the Phi
it reads, and lookups ``phi(k)``, ``divisors(k)`` and ``c(N, q, method)``
that a public check binds to ``arith`` and a sweep to its tables.

The totient and Ramanujan sweeps first check their identities a whole row at
a time, comparing both sides over the row with ``map``, ``operator`` and
``itertools.compress`` pipelines that read the same tables and lookups as
the core.  The totient sweep checks the divisor sum of phi once per n, then
rows of pairs (n, m) over m for n <= isqrt(max_n) and columns over n for
the rest; the Ramanujan sweep checks one row over q per coprime pair (n, m).
When every row agrees, the sweep only counts its checks.  When a row
disagrees, the Ramanujan sweep runs the core at each point of that row,
and the totient sweep, whose columns mix values of n, runs the core at
every pair, so the failures, their order and their witnesses are those of
the pairwise checks.

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

The fundamental product, the power substitution at a coprime pair and the
dual inversion are each decided by comparing two integers: the values of
both sides at X = 2**w.  ``intpoly``'s Kronecker codec packs a list into
its value at 2**w; a product's value is the product of its factors' values,
and Phi_n(X**d) at 2**w is Phi_n packed at 2**(w*d), so a passing check
builds no product polynomial.  Two facts make the comparison exact, with H
the largest absolute coefficient:

* If H(P) and H(Q) are below 2**(w-1), then P(2**w) == Q(2**w) only when
  P == Q: otherwise the lowest nonzero coefficient of P - Q, below 2**w in
  absolute value, would have to be a nonzero multiple of 2**w.
* H(f1*f2*...*fk) <= ||f1||_2 * ||f2||_2 * prod_{i>=3} ||fi||_1, by
  Cauchy-Schwarz and then Young's inequality, with f1 and f2 the factors of
  largest absolute sum; it bounds each single factor too, as packing needs.
  Phi_k(X**d) has the norms of Phi_k.  ``intpoly.product_height_bound``
  computes the bound in integers from each factor's sum of squares and sum
  of absolute values.

w is the least whole number of bytes above both sides' bounds, and the
norms are those of the very lists that get packed, so a corrupted Phi
widens the slot.  Every Phi_k the checks take, as a list, a value or a
norm, is one read of ``cyclo._cyclotomic_cached``, which a sweep makes once
per k, so a corrupted cache entry reaches every side that reads it.  A
sweep packs Phi_k once per width for its whole run while the value is at
most ``_CACHED_VALUE_BITS`` long, and anew at each use above that; each
check multiplies the values of its own factors.  Where the values differ,
and wherever the degree of a check's larger side times w is above
``_EVALUATION_BITS``, the check builds both sides as polynomials and
compares them, so a failure carries the same witness as ever.  So do the
checks at the pairs (n, 1), whose sides are each one polynomial, which that
route only copies and compares.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import chain, compress, cycle, islice, repeat
from math import gcd, isqrt, prod
from operator import add, eq, floordiv, mul

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
    inversion, multiplied out (as values at a power of two, or as
    polynomials); for non-coprime pairs it confirms that the two sides of the
    power-substitution identity differ (the counterexample behaviour).
    """
    arith._check_index(n)
    arith._check_index(m, "m")
    reads = _PhiReads()
    fundamental = _fundamental(n, arith.divisors(n), reads)
    outcomes = _polynomial_checks(n, m, fundamental, arith.divisors(m), reads)
    return _reports((("n", n), ("m", m)), outcomes)


# A check is decided by the values of its sides at X = 2**w while the degree
# of its larger side times w is at most this many bits, and by multiplying out
# the polynomials above it, where the slot width the norms give, several
# times the widths poly_prod finds from actual heights, costs more than the
# packing it saves.  Timed per check, both routes, Python 3.11 on 2 vCPUs,
# over every check of sweep_polynomial(2000) and of every third n of
# sweep_polynomial(5000), in buckets of 2**b to 2**(b+1) bits: below 32768
# bits evaluation won every bucket from 256 bits up for the power
# substitution and the dual inversion (2000, power substitution at 16384 to
# 32767: 0.40 vs 0.59 s over 1891 checks), and the fundamental product from
# 4096 bits up (its smaller checks took under 15 ms in all, either way).
# From 32768 to 65535 it won at 5000 (power substitution 1.41 vs 1.82 s,
# dual inversion 2.07 vs 2.86 s, fundamental product 0.22 vs 0.24 s, which
# lost it at 2000, 0.33 vs 0.27 s); from 65536 to 131071 it lost the power
# substitution (3.32 vs 2.70 s) and the fundamental product (0.37 vs
# 0.30 s), and above that every identity.
_EVALUATION_BITS = 65536


def _norms(p) -> tuple:
    # (sum of squared coefficients, sum of absolute coefficients)
    return sum(map(mul, p, p)), sum(map(abs, p))


def _evaluation_width(degree: int, *sides) -> int:
    # The least whole number of bytes w above the height bound of each side's
    # product, which bounds each of its factors too; ``sides`` holds one list
    # of factor norms per side.  0 when ``degree``, the larger side's, times
    # w is above _EVALUATION_BITS: the polynomial route is then the cheaper.
    bound = max(map(intpoly.product_height_bound, sides))
    width = intpoly._slot_width(bound.bit_length() + 1)
    return width if degree * width <= _EVALUATION_BITS else 0


# _PhiReads keeps a packed value of at most this many bits.  A longer one,
# mostly Phi_n lifted by a large d that few m share, costs little to pack
# again next to the products it joins.  Keeping every one for the whole sweep
# made ``verify --suite poly --max-n 5000`` peak at 201 MB RSS against 84 MB,
# for 30.5-36.0 s against 33.6-41.9 s, within the spread of four alternating
# fresh runs each, and was no faster at 500 (medians of 20 runs, 0.264 s
# both; Python 3.11, 2 vCPUs).
_CACHED_VALUE_BITS = 4096


class _PhiReads(dict):
    """Phi_k as ``cyclo._cyclotomic_cached`` returns it, with its norms, read
    once per k, and its values at powers of two, each packed once per slot
    width while it is at most _CACHED_VALUE_BITS long; every Phi the
    polynomial checks take, as a list, a norm or a value, comes from here.
    A sweep keeps one for its whole run, which dies with it.  Phi_n(X**d) at
    X = 2**w is Phi_n at 2**(w*d), so a lifted factor is ``value(n, w * d)``.
    """

    def __init__(self):
        super().__init__()
        self._packed = {}

    def __missing__(self, k: int) -> tuple:
        poly = cyclo._cyclotomic_cached(k)
        self[k] = entry = poly, _norms(poly)
        return entry

    def product(self, indices) -> list:
        """The product of Phi_k over ``indices``, as a polynomial."""
        return intpoly.poly_prod([self[k][0] for k in indices])

    def norms(self, indices) -> list:
        """The norms of Phi_k for each k in ``indices``."""
        return [self[k][1] for k in indices]

    def value(self, k: int, width: int) -> int:
        """Phi_k(2**width)."""
        value = self._packed.get((k, width))
        if value is None:
            value = intpoly._pack(self[k][0], width)
            if value.bit_length() <= _CACHED_VALUE_BITS:
                self._packed[k, width] = value
        return value


def _fundamental(n: int, divisors, reads: _PhiReads) -> str | None:
    # The outcome of the fundamental identity at n, from the divisors of n.
    # The factors' bound alone rules out most large n before the norms of
    # X**n - 1 are taken.
    rhs = cyclo._x_pow_minus_1(n)
    factors = reads.norms(divisors)
    width = _evaluation_width(n, factors)
    width = width and _evaluation_width(n, factors, [_norms(rhs)])
    if width and prod(map(reads.value, divisors, repeat(width))) == intpoly._pack(rhs, width):
        return None
    return _equal(reads.product(divisors), rhs)


def _polynomial_checks(n: int, m: int, fundamental, divisors, reads: _PhiReads) -> list:
    # ``fundamental`` is _fundamental(n, ...), which depends on n only, so a
    # sweep computes it once per n rather than once per pair; ``divisors``
    # are those of m.
    outcomes = [("fundamental_product", fundamental)]
    indices = [d * n for d in divisors]
    phi_n = reads[n][0]
    if gcd(n, m) != 1:
        # Degrees add in Z[X], so when m*phi(n) differs from the sum of
        # phi(dn) over d | m the two sides differ, and neither is built.  The
        # degrees are read from the lengths of the cached, canonical Phi.
        if sum(len(reads[k][0]) - 1 for k in indices) != m * (len(phi_n) - 1):
            return outcomes + [("noncoprime_counterexample", None)]
        substituted = intpoly.substitute_power(phi_n, m)
        rhs = reads.product(indices)
        return outcomes + [("noncoprime_counterexample", _distinct(substituted, rhs))]
    # The dual inversion's factors Phi_n(X**d), by the sign of mu(m/d): d = m,
    # the last divisor, has mu(1) = 1 and is also the power substitution's
    # left side.  Phi_nm joins the denominator: in the integral domain Z[X],
    # Phi_nm == prod(num) / prod(den) exactly when prod(num) == prod(den) * Phi_nm.
    num, den = [m], []
    for d in divisors[:-1]:
        mu = arith.mobius(m // d)
        if mu == 1:
            num.append(d)
        elif mu == -1:
            den.append(d)
    degree = len(phi_n) - 1
    # At m = 1 each side is one polynomial: the polynomial route multiplies
    # nothing and compares the lists.
    width = m > 1 and _evaluation_width(degree * m, reads.norms([n]), reads.norms(indices))
    if width and reads.value(n, m * width) == prod(map(reads.value, indices, repeat(width))):
        outcomes.append(("power_substitution_product", None))
    else:
        substituted = intpoly.substitute_power(phi_n, m)
        rhs = reads.product(indices)
        outcomes.append(("power_substitution_product", _equal(substituted, rhs)))
    width = m > 1 and _evaluation_width(
        degree * sum(num), reads.norms([n] * len(num)), reads.norms([n * m] + [n] * len(den))
    )
    lifted_product = lambda ds: prod(map(reads.value, repeat(n), map(width.__mul__, ds)))
    if width and lifted_product(num) == reads.value(n * m, width) * lifted_product(den):
        outcomes.append(("dual_inversion", None))
    else:
        lifted = lambda ds: [intpoly.substitute_power(phi_n, d) for d in ds]
        num_side = intpoly.poly_prod(lifted(num))
        den_side = intpoly.poly_prod([reads[n * m][0]] + lifted(den))
        outcomes.append(("dual_inversion", _equal(num_side, den_side)))
    return outcomes


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


def sweep_polynomial(max_n: int) -> SweepResult:
    """Run the checks of :func:`check_polynomial_identities` over every pair with
    n*m <= max_n, computing the fundamental product once per n, reading each
    Phi_k and its norms once, and packing each Phi_k once per slot width up
    to ``_CACHED_VALUE_BITS``, all through one store that dies with the
    sweep."""
    result = SweepResult("poly", 0, [])
    divisors = _divisor_table(max_n)
    reads = _PhiReads()
    for n in range(1, max_n + 1):
        fundamental = _fundamental(n, divisors(n), reads)
        for m in range(1, max_n // n + 1):
            outcomes = _polynomial_checks(n, m, fundamental, divisors(m), reads)
            _collect(result, (("n", n), ("m", m)), outcomes)
    return result


def sweep_totient(max_n: int) -> SweepResult:
    """Run the checks of :func:`check_totient_identities` over coprime pairs with
    n*m <= max_n, a row of pairs at a time, and pair by pair only if a row
    disagrees."""
    result = SweepResult("totient", 0, [])
    # phi before the divisor table: with the arith caches filled first, the
    # CLI's largest sweep (200000) peaks at 130 MB RSS, against 140 MB with
    # the table's arrays allocated first (Python 3.11 on Linux).
    phi_list = [0, *map(arith.totient, range(1, max_n + 1))]
    phi = phi_list.__getitem__
    divisors = _divisor_table(max_n)
    pairs = _totient_pairs_if_all_agree(max_n, phi_list, divisors)
    if pairs is not None:
        result.checks = 3 * pairs  # three identities at each coprime pair
        return result
    for n in range(1, max_n + 1):
        divisor_sum = sum(map(phi, divisors(n)))
        for m in range(1, max_n // n + 1):
            if gcd(n, m) == 1:
                outcomes = _totient_checks(n, m, divisor_sum, divisors(m), phi)
                _collect(result, (("n", n), ("m", m)), outcomes)
    return result


def _coprime_mask(k: int, lo: int, hi: int) -> bytearray:
    # mask[i] is 1 when lo + i is coprime to k, for lo <= lo + i <= hi: each
    # prime of k zeroes its multiples, as in arith._cosine_sum.
    mask = bytearray([1]) * (hi - lo + 1)
    for p, _ in arith._factorize(k):
        start = -lo % p
        mask[start::p] = bytes(len(range(start, len(mask), p)))
    return mask


def _totient_pairs_if_all_agree(max_n: int, phi: list, divisors):
    """The number of coprime pairs with n*m <= max_n if each identity of
    :func:`_totient_checks` holds at every one of them, else None.

    Reads phi(k) from the list ``phi`` and divisor lists through
    ``divisors``, the values the core reads, a whole row of pairs at a time.
    With s = isqrt(max_n), the rows n <= s run over m and the columns
    m <= max_n // (s + 1) over n in (s, max_n // m], so every pair lies in
    exactly one of them, and each holds about sqrt(max_n) pairs or more.
    The product rule phi(mn) == phi(m)*phi(n) at a column pair (n, m) is
    the same comparison of the same three values as at (m, n), a row pair,
    so only the rows check it.  The scaled sums of the columns are checked:
    combined corruptions of phi and of the divisor lists can fail a column
    pair alone.  A single one cannot, which is why corrupting one value
    never showed the columns' use: a wrong phi(k) fails the divisor sum at
    k, and a wrong divisor list of m, entries in [1, m], that keeps the
    divisor sum at m fails a column pair (n, m) only through a new entry d
    sharing a prime p with n, p <= d <= m <= s, and then fails the row pair
    (p, m) too.
    """
    ns = range(1, max_n + 1)
    if not all(map(eq, map(sum, map(map, repeat(phi.__getitem__), map(divisors, ns))), ns)):
        return None
    s = isqrt(max_n)
    pairs = 0
    for n in range(1, s + 1):
        top = max_n // n
        coprime = _coprime_mask(n, 1, top)
        ms = range(1, top + 1)
        row = phi[::n]  # row[d] = phi(d*n) for d <= top
        scaled = map(sum, map(map, repeat(row.__getitem__), map(divisors, compress(ms, coprime))))
        if not all(map(eq, scaled, map(mul, compress(ms, coprime), repeat(phi[n])))):
            return None
        phi_m_times_phi_n = map(mul, islice(phi, 1, None), repeat(phi[n]))
        if not all(compress(map(eq, islice(row, 1, None), phi_m_times_phi_n), coprime)):
            return None
        pairs += coprime.count(1)
    lo = s + 1
    for m in range(1, max_n // lo + 1):
        hi = max_n // m
        coprime = _coprime_mask(m, lo, hi)
        phi_n = phi[lo : hi + 1]
        scaled = repeat(0, len(phi_n))
        for d in divisors(m):
            scaled = map(add, scaled, phi[d * lo : d * hi + 1 : d])
        if not all(compress(map(eq, scaled, map(mul, phi_n, repeat(m))), coprime)):
            return None
        pairs += coprime.count(1)
    return pairs


def sweep_ramanujan(max_n: int, max_q: int) -> SweepResult:
    """Run the checks of :func:`check_ramanujan_identities` over coprime
    n*m <= max_n and q <= max_q, evaluating each c_N(q) once per method and
    checking the row of q at each pair at once, point by point only where
    the row disagrees."""
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
    for n in range(1, max_n + 1):
        for m in range(1, max_n // n + 1):
            if gcd(n, m) != 1:
                continue
            if _ramanujan_row_agrees(n, m, table, divisors):
                result.checks += 4 * (max_q + 1)  # four identities at each q
                continue
            for q in range(max_q + 1):
                params = (("n", n), ("m", m), ("q", q))
                _collect(result, params, _ramanujan_checks(n, m, q, c, divisors))
    return result


def _ramanujan_row_agrees(n: int, m: int, table: dict, divisors) -> bool:
    """True if each identity of :func:`_ramanujan_checks` holds at (n, m, q)
    for every q the rows of ``table[method][N]`` hold.

    Reads the values the core reads, through the same tables, ``divisors``,
    ``arith.mobius`` and ``arith.totient``, one row of q at a time.
    """
    kluyver = table["kluyver"]
    c_n, c_mn = kluyver[n], kluyver[m * n]
    qs = range(len(c_n))
    # the sum of c_dn(q) over d | m at each q; at q = 0 it is the degree
    # reduction's sum of c_dn(0)
    lhs = repeat(0, len(qs))
    for d in divisors(m):
        lhs = map(add, lhs, kluyver[d * n])
    at_zero = next(lhs)
    if at_zero != m * arith.totient(n):
        return False
    # a definition residual is an exception object, equal to no integer
    if not all(map(eq, c_mn, table["hoelder"][m * n])) or not all(
        map(eq, c_mn, table["definition"][m * n])
    ):
        return False
    # m * c_n(q / m) where m divides q, else 0
    lattice = cycle((m,) + (0,) * (min(m, len(qs)) - 1))
    rhs = map(mul, map(c_n.__getitem__, map(floordiv, qs, repeat(m))), lattice)
    if not all(map(eq, chain((at_zero,), lhs), rhs)):
        return False
    # gcd(m, q) = gcd(m, q % m): the q of one residue mod m read one divisor
    # list.  A term with mu(m/d) = 0 is 0 whatever c_n(q // d) is.
    for r in range(min(m, len(qs))):
        on_r = range(r, len(qs), m)
        inv = repeat(0, len(on_r))
        for d in divisors(gcd(m, r)):
            weight = d * arith.mobius(m // d)
            if weight:
                terms_d = map(c_n.__getitem__, map(d.__rfloordiv__, on_r))
                inv = map(add, inv, map(weight.__mul__, terms_d))
        if not all(map(eq, islice(c_mn, r, None, m), inv)):
            return False
    return True


def sweep_coefficients(max_n: int) -> SweepResult:
    """Run the checks of :func:`check_coefficient_facts` for every 2 <= n <= max_n."""
    result = SweepResult("coeff", 0, [])
    for n in range(2, max_n + 1):
        _collect(result, (("n", n),), _coefficient_checks(n))
    return result
