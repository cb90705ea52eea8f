"""Cyclotomic polynomials by five independent algorithms.

Phi_n is the monic integer polynomial whose roots are the primitive n-th
roots of unity; its degree is phi(n).  Every algorithm here works purely
with exact integer polynomial arithmetic:

* ``recursive``        -- divide X**n - 1 by the product of Phi_d over the
  proper divisors d of n.  With n = p**a * m, p the least prime of n, it
  finds Phi_d for the divisors d = p**a * e of n, e | m, in increasing
  order: the Phi over the divisors of d/p multiply to X**(d/p) - 1, so each
  step first divides by that two-term factor in linear time and then by
  the product of Phi_(p**a * f) over f | e, f < e, the divisors of d that
  do not divide d/p;
* ``mobius_product``   -- multiplicative Mobius inversion of the fundamental
  identity: product of (X**d - 1)**mu(n/d) over d | n, evaluated as a chain
  of two-term steps: multiply by each numerator factor X**d - 1 in
  ascending d, then divide exactly by each denominator factor, largest d
  first;
* ``radical``          -- prime-power reduction Phi_n(X) = Phi_r(X**e) with
  r = rad(n) and e = n/r.  At the squarefree radical, the power series of
  the product of (1 - X**d)**mu(r/d) over d | r, which is Phi_r reversed,
  truncated after phi(r)/2 + 2 terms; Phi_r is palindromic, so their
  mirror gives the rest;
* ``dual_form``        -- build the radical one prime p at a time through
  Phi_{kp}(X) = Phi_k(X**p) / Phi_k(X), then lift by the radical reduction;
* ``newton_ramanujan`` -- coefficients from the Ramanujan sums c_n(q) via
  Newton's identities, entirely division-free on the polynomial level.  One
  Kluyver sum per divisor of n gives every c_n(q), and the identities run
  by Newton doubling on the series-inverse kernel, in O(M(n)) rather than
  quadratic time for M(n) the cost of one n-term multiply.

All five return identical polynomials; the test suite verifies the
agreement exhaustively.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, repeat
from math import gcd
from operator import add, sub

from . import arith, intpoly

class NotCoprimeError(ValueError):
    """The identity requested requires coprime arguments."""


class InternalIdentityError(ArithmeticError):
    """An identity that is a theorem failed inside an algorithm (a bug)."""


def _x_pow_minus_1(n: int) -> list:
    out = [0] * (n + 1)
    out[0] = -1
    out[n] = 1
    return out


def _recursive(n: int) -> list:
    # Per-call memo of Phi_(q*e) by e, for q = p**a the least prime's part of
    # n and e | n/q; discarded on return.  At d = q*e the divisors of d that
    # divide d/p have Phi multiplying to X**(d/p) - 1, and the others are
    # q*f with f | e: X**d - 1 is divided by that two-term factor in linear
    # time, then by the memo entries at the proper divisors f of e.
    if n == 1:
        return [-1, 1]
    p, a = arith.factorize(n)[0]
    q = p**a
    memo = {}
    for e in arith.divisors(n // q):
        d = q * e
        poly = intpoly.poly_exact_div(_x_pow_minus_1(d), _x_pow_minus_1(d // p))
        rest = [memo[f] for f in arith.divisors(e)[:-1]]
        if rest:
            poly = intpoly.poly_exact_div(poly, intpoly.poly_prod(rest))
        memo[e] = poly
    return memo[n // q]


def _mobius_product(n: int) -> list:
    # Every factor is the two-term X**d - 1, so each step is a linear-time
    # multiply or an exact division checked by its remainder.  The product
    # of the numerator factors is Phi_n times that of the denominator
    # factors, so every partial quotient below is exact; dividing by the
    # largest d first shrinks the degree fastest.
    num = []
    den = []
    for d in arith.divisors(n):
        mu = arith.mobius(n // d)
        if mu == 1:
            num.append(d)
        elif mu == -1:
            den.append(d)
    poly = _x_pow_minus_1(num[0])  # num holds d = n, so it is never empty
    for d in num[1:]:
        poly = intpoly.poly_mul(poly, _x_pow_minus_1(d))
    for d in reversed(den):
        poly = intpoly.poly_exact_div(poly, _x_pow_minus_1(d))
    return poly


def radical_reduce(n: int) -> tuple:
    """Return ``(r, e)`` with ``r = rad(n)``, ``e = n // r``; then Phi_n(X) = Phi_r(X**e)."""
    arith._check_index(n)
    r = 1
    for p, _ in arith.factorize(n):
        r *= p
    return r, n // r


def _squarefree_series(r: int) -> list:
    # Phi_r at a squarefree r.  X**phi(r) * Phi_r(1/X) is the product of
    # (1 - X**d)**mu(r/d) over d | r, so the power series of that product
    # gives the top coefficients of Phi_r, and Phi_r is palindromic for
    # r > 1: modulo X**(h + 2), h = phi(r)//2, the series fixes Phi_r.  A
    # factor with d >= size is 1 modulo X**size, and every step is exact in
    # Z[[X]], so no step can leave a remainder; two checks stand in for one.
    # The series runs 8 terms past h + 2 (or to X**phi(r)), which the
    # palindrome check compares with their mirror: over every squarefree
    # r < 2000, flipping mu(r/d) at any one divisor d the series reads then
    # fails a check, where the term at h + 1 alone missed 69 of 4099 such
    # flips.  That is a census, not a proof.
    phi = arith.totient(r)
    size = min(phi // 2 + 10, phi + 1)
    # start from the factor at d = 1, (1 - X)**mu(r)
    a = [1] * size if arith.mobius(r) == -1 else [1, -1] + [0] * (size - 2)
    for d in arith.divisors(r)[1:]:
        if d >= size:
            break
        if arith.mobius(r // d) == 1:
            a[d:] = map(sub, a[d:], a[: size - d])
        elif d <= (size + d - 1) // d:  # d classes or about size/d blocks
            for j in range(d):
                a[j::d] = accumulate(a[j::d])
        else:
            for lo in range(d, size, d):
                a[lo : lo + d] = map(add, a[lo : lo + d], a[lo - d : lo])
    cut = phi + 1 - size  # the mirror supplies the coefficients below cut
    overlap = a[cut:]  # the terms the series and their mirror both give
    if r > 1 and overlap != overlap[::-1]:
        raise InternalIdentityError("the series of Phi_%d is not palindromic" % r)
    poly = a[:cut]
    # Phi_r(1) is r at a prime r, 0 at r = 1 and 1 otherwise; the mirrored
    # list sums to twice a[:cut] plus the rest of a
    if 2 * sum(poly) + sum(overlap) != (r if arith.is_prime(r) else int(r > 1)):
        raise InternalIdentityError("the series of Phi_%d has the wrong value at 1" % r)
    a.reverse()
    poly += a
    return poly


def _radical(n: int) -> list:
    # Phi_r at the radical r by its half power series, lifted to n
    r, e = radical_reduce(n)
    poly = _squarefree_series(r)
    return poly if e == 1 else intpoly.substitute_power(poly, e)


def _dual_form(n: int) -> list:
    r, e = radical_reduce(n)
    poly = [-1, 1]
    for p, _ in arith.factorize(r):
        poly = intpoly.poly_exact_div(intpoly.substitute_power(poly, p), poly)
    return intpoly.substitute_power(poly, e)


def _newton_ramanujan(n: int) -> list:
    degree = arith.totient(n)
    # c_n(q) depends on q only through gcd(n, q): one Kluyver sum per divisor
    by_gcd = {g: arith.ramanujan_sum(n, g, "kluyver") for g in arith.divisors(n)}
    sums = [degree, *map(by_gcd.__getitem__, map(gcd, repeat(n), range(1, degree + 1)))]
    return intpoly.coeffs_from_power_sums(sums, degree)


_DISPATCH = {
    "recursive": _recursive,
    "mobius_product": _mobius_product,
    "radical": _radical,
    "dual_form": _dual_form,
    "newton_ramanujan": _newton_ramanujan,
}

#: Valid ``algorithm`` arguments for :func:`cyclotomic`.
ALGORITHMS = tuple(_DISPATCH)


class CyclotomicResult:
    """A computed cyclotomic polynomial together with its provenance.

    Invariants are checked on construction: the polynomial is monic of
    degree phi(n), with constant term 1 for n > 1 (Phi_1 is X - 1).  The
    fields cannot be assigned, results compare equal by their fields, and
    they do not hash, since ``poly`` is a list.
    """

    __slots__ = ("n", "poly", "algorithm")

    def __init__(self, n: int, poly: list, algorithm: str) -> None:
        if poly[-1] != 1:
            raise InternalIdentityError("Phi_%d is not monic" % n)
        if len(poly) - 1 != arith.totient(n):
            raise InternalIdentityError(
                "deg Phi_%d is %d, expected phi(%d) = %d"
                % (n, len(poly) - 1, n, arith.totient(n))
            )
        expected = -1 if n == 1 else 1
        if poly[0] != expected:
            raise InternalIdentityError(
                "Phi_%d(0) is %d, expected %d" % (n, poly[0], expected)
            )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "poly", poly)
        object.__setattr__(self, "algorithm", algorithm)

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def _astuple(self) -> tuple:
        return (self.n, self.poly, self.algorithm)

    def __reduce__(self):
        return CyclotomicResult, self._astuple()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __repr__(self) -> str:
        return "CyclotomicResult(n=%r, poly=%r, algorithm=%r)" % self._astuple()


def cyclotomic(n: int, algorithm: str = "recursive") -> CyclotomicResult:
    """Compute Phi_n by the chosen algorithm (see :data:`ALGORITHMS`)."""
    arith._check_index(n)
    if algorithm not in _DISPATCH:
        raise ValueError(
            "unknown algorithm %r; expected one of %s" % (algorithm, ", ".join(ALGORITHMS))
        )
    try:
        poly = _DISPATCH[algorithm](n)
    except (intpoly.NotDivisibleError, intpoly.InexactDivisionError) as exc:
        raise InternalIdentityError(
            "exact arithmetic failed while computing Phi_%d by %s: %s"
            % (n, algorithm, exc)
        ) from exc
    return CyclotomicResult(n=n, poly=poly, algorithm=algorithm)


@lru_cache(maxsize=None)
def _cyclotomic_cached(n: int) -> tuple:
    # radical's lift, from the cached Phi of the radical: the series runs
    # once per squarefree r, however many n share it
    r, e = radical_reduce(n)
    if e == 1:
        return tuple(_radical(n))
    return tuple(intpoly.substitute_power(_cyclotomic_cached(r), e))


def _cyclotomic_product(indices: list) -> list:
    """Product of Phi_k over a list of indices ``k``."""
    return intpoly.poly_prod([_cyclotomic_cached(k) for k in indices])


def cyclotomic_poly(n: int) -> list:
    """Coefficients of Phi_n (process-wide cache behind a pure interface)."""
    arith._check_index(n)
    return list(_cyclotomic_cached(n))


def cyclotomic_of_power(n: int, m: int) -> list:
    """Phi_n(X**m) computed as the product of Phi_{d*n} over the divisors d of m.

    The equality with ``substitute_power(Phi_n, m)`` holds exactly when
    gcd(n, m) = 1, which is required here; see the ``verify`` module for the
    check of both that identity and its failure on non-coprime pairs.
    """
    arith._check_index(n)
    arith._check_index(m, "m")
    arith._check_index(n * m, "n*m")  # the product runs over indices up to n*m
    if not arith.is_coprime(n, m):
        raise NotCoprimeError("n and m must be coprime, got n=%d, m=%d" % (n, m))
    return _cyclotomic_product([d * n for d in arith.divisors(m)])
