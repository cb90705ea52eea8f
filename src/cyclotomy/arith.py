"""Elementary multiplicative number theory.

Factorization (trial division by the primes below 1024, then Brent's cycle
variant of Pollard rho with a deterministic Miller-Rabin primality test for
any part left at or above 1024**2), divisors, the Mobius and Euler totient
functions, and Ramanujan sums by several closed forms and by a floating-point
cosine sum.  The cosine sum evaluates one cosine per residue class coprime to
n / gcd(n, q), phi(n / gcd(n, q)) of them, sieved per call from the cached
factorization of n; it caches nothing and returns the float that summing all
phi(n) terms gives.

All functions are pure and deterministic; the internal memo tables only
cache results of pure computations, so concurrent use is safe.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from itertools import chain, compress, repeat
from math import cos, fsum, gcd, isqrt, tau
from operator import mul

from . import intpoly

#: Library-wide bound on every index argument.
MAX_INDEX = 2**63 - 1

#: Valid ``method`` arguments for :func:`ramanujan_sum`.
RAMANUJAN_METHODS = ("kluyver", "hoelder", "newton", "definition")


class DefinitionResidualError(ArithmeticError):
    """The floating-point cosine sum landed farther than the tolerance from an integer."""


def _check_index(n: int, name: str = "n") -> None:
    if not 1 <= n <= MAX_INDEX:
        raise ValueError("%s must be in [1, 2**63 - 1], got %r" % (name, n))


# ---------------------------------------------------------------------------
# primality and factorization

def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for all n < 2**64.

    Raises ``ValueError`` for n >= 2**64: the witness set below is proven
    only under that bound, and 318665857834031151167461 = 399165290221 *
    798330580441 is a strong pseudoprime to every one of its bases.
    """
    if n < 2:
        return False
    if n >= 2**64:
        raise ValueError("is_prime is exact only below 2**64, got %r" % (n,))
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    # This witness set decides primality for every n < 2**64.
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_table(limit: int) -> tuple:
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\x00\x00"
    for p in range(2, isqrt(limit - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit, p)))
    return tuple(compress(range(limit), sieve))


#: Trial division uses the primes below this bound, so a cofactor below its
#: square that none of them divides is prime.
_TRIAL_BOUND = 1024
_SMALL_PRIMES = _prime_table(_TRIAL_BOUND)


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of odd composite ``n`` (Brent's variant, deterministic)."""
    for c in range(1, 100):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError("factor search failed for %d" % n)  # pragma: no cover


@lru_cache(maxsize=None)
def _factorize(n: int) -> tuple:
    factors = []
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            factors.append((p, e))
    if n < _TRIAL_BOUND**2:
        if n > 1:
            factors.append((n, 1))
        return tuple(factors)
    # No prime factor below the trial bound: split with Pollard rho.
    large = {}
    stack = [n]
    while stack:
        m = stack.pop()
        if is_prime(m):
            large[m] = large.get(m, 0) + 1
        else:
            d = _pollard_rho(m)
            stack += (d, m // d)
    return tuple(factors) + tuple(sorted(large.items()))


def factorize(n: int) -> list:
    """Prime-power decomposition of ``n`` as ``[(p, e), ...]`` with primes increasing.

    ``factorize(1)`` is the empty list.
    """
    _check_index(n)
    return list(_factorize(n))


def divisors(n: int) -> list:
    """All divisors of ``n`` in increasing order."""
    _check_index(n)
    divs = [1]
    for p, e in _factorize(n):
        pk = 1
        powers = []
        for _ in range(e):
            pk *= p
            powers.append(pk)
        divs += [d * q for q in powers for d in divs]
    divs.sort()
    return divs


@lru_cache(maxsize=None)
def mobius(n: int) -> int:
    """Mobius function: 1 at 1, (-1)**k on squarefree n with k prime factors, else 0."""
    _check_index(n)
    result = 1
    for _, e in _factorize(n):
        if e > 1:
            return 0
        result = -result
    return result


@lru_cache(maxsize=None)
def totient(n: int) -> int:
    """Euler's totient, via the factorization product formula."""
    _check_index(n)
    result = n
    for p, _ in _factorize(n):
        result -= result // p
    return result


def is_coprime(a: int, b: int) -> bool:
    """True when gcd(a, b) == 1."""
    return gcd(a, b) == 1


# ---------------------------------------------------------------------------
# Ramanujan sums

def _cosine_sum(n: int, q: int) -> float:
    """Sum of cos(2*pi*k*q/n) over 0 <= k < n coprime to n, in floating point.

    With g = gcd(n, q) and m = n // g, k*q mod n runs over g*s for the s < m
    coprime to m, each hit t = phi(n) / phi(m) times.  So the sum takes the
    phi(m) distinct cosines cos((tau / n) * (g*s)), each counted as its exact
    multiples v * 2**k for the set bits k of t.  These summands add up to
    exactly the phi(n) terms' sum, and fsum rounds any exact sum correctly,
    so the float is the one the term-by-term sum gives.
    """
    g = gcd(n, q)  # gcd(n, 0) == n: every term is cos(0)
    m = n // g
    # Sieve the units of m with the primes of n, so no new factorization is
    # cached; c_1 keeps s = 0, so c_1(q) = 1.  t = g * prod((p - 1) / p) over
    # the primes p of n that divide g but not m, an integer at every step.
    units = bytearray([1]) * m
    t = g
    for p, _ in _factorize(n):
        if m % p:
            t -= t // p
        else:
            units[::p] = bytes(len(range(0, m, p)))
    cosines = map(cos, map(mul, repeat(tau / n), compress(range(0, n, g), units)))
    if t == 1:
        return fsum(cosines)
    values = array("d", cosines)
    bits = [float(1 << k) for k in range(t.bit_length()) if t >> k & 1]
    return fsum(chain.from_iterable(map(mul, values, repeat(b)) for b in bits))


def _kluyver(n: int, q: int) -> int:
    g = gcd(n, q)  # gcd(n, 0) == n, so q = 0 yields the totient
    return sum(d * mobius(n // d) for d in divisors(g))


def _hoelder(n: int, q: int) -> int:
    g = gcd(n, q)
    reduced = n // g
    mu = mobius(reduced)
    if mu == 0:
        return 0
    quot, rem = divmod(totient(n), totient(reduced))
    if rem:
        raise ArithmeticError("totient quotient must be exact")
    return mu * quot


def _definition(n: int, q: int) -> int:
    value = _cosine_sum(n, q)
    nearest = round(value)
    if abs(value - nearest) > 1e-6:
        raise DefinitionResidualError(
            "cosine sum for c_%d(%d) is %.3e away from the nearest integer"
            % (n, q, abs(value - nearest))
        )
    return int(nearest)


def ramanujan_sum(n: int, q: int, method: str = "kluyver") -> int:
    """Ramanujan sum c_n(q): sum of q-th powers of the primitive n-th roots of unity.

    Closed forms:

    * ``kluyver``    -- sum of d * mu(n/d) over the divisors d of gcd(n, q);
    * ``hoelder``    -- mu(n/g) * phi(n) / phi(n/g) with g = gcd(n, q);
    * ``newton``     -- the (q mod n)-th power sum of the roots of the n-th
      cyclotomic polynomial, via Newton's identities (c_n has period n in q);
    * ``definition`` -- floating-point cosine sum rounded to the nearest
      integer, raising :class:`DefinitionResidualError` when the residual
      exceeds 1e-6.  Exists purely as an independent numeric oracle.  It
      evaluates phi(n/g) cosines, each distinct term once, and sums them
      with their multiplicities exactly, so the float is that of the
      term-by-term sum over all phi(n) residues coprime to n.

    All methods agree; ``q = 0`` is allowed and gives phi(n).
    """
    _check_index(n)
    if q < 0:
        raise ValueError("q must be >= 0, got %r" % (q,))
    if method == "kluyver":
        return _kluyver(n, q)
    if method == "hoelder":
        return _hoelder(n, q)
    if method == "definition":
        return _definition(n, q)
    if method == "newton":
        from . import cyclo  # deferred: cyclo imports this module

        r = q % n  # c_n(q) has period n in q; S_0 = deg Phi_n = phi(n)
        return intpoly.power_sums(cyclo.cyclotomic_poly(n), r)[r]
    raise ValueError("unknown method %r; expected one of %s" % (method, ", ".join(RAMANUJAN_METHODS)))
