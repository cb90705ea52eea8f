"""Dense univariate polynomial arithmetic over arbitrary-precision integers.

A polynomial is a plain ``list[int]`` of coefficients in ascending order:
index ``j`` holds the coefficient of ``X**j``.  Canonical form has no
trailing zeros; the zero polynomial is the empty list.  All arithmetic is
exact.

Every product of two operands with more than two terms runs through one
Kronecker-substitution kernel: coefficients are packed into fixed-width
slots of one big integer so the actual multiply runs inside CPython's long
arithmetic.  The packed path is exact by construction (slot widths are sized
from coefficient bounds, rounded up to whole bytes) and is cross-checked
against a naive oracle in the test suite.  The codec runs in C for slots of
up to 64 bits: ``struct`` writes the coefficients as signed items, strided
byte-slice copies narrow or widen those items to the slot size, and one XOR
with a big integer holding the top bit of every slot converts between
two's-complement slots and the signed packed value.  Wider slots take the
same XOR rule but convert each coefficient with ``int.to_bytes``.

A product with a constant is a scaling, and two-term operands
``c0 + c*X**k``, such as ``X**d - 1``, take linear-time routes at every
size.  A product with a two-term operand is ``c0*p + X**k*c*p``, built
from slices and ``map``.  Exact division of a two-term dividend
``c0 + c*X**d`` by ``±(X**k - 1)`` is the closed-form geometric series
``±c*(1 + X**k + ... + X**(d-k))``, exact precisely when ``k`` divides ``d``
and ``c0 == -c``; any other exact division by a two-term divisor with
``c = ±1`` is a strided running sum.  Other large divisions by a divisor
with a ±1 leading coefficient use a power-series inverse and a
verification multiply.  When dividend and divisor each equal their
reversal up to sign, as Phi_n does for n > 1, so does the quotient: the
series then computes only its top half, at half the precision, and the
mirror image fills the rest before the verification multiply checks the
whole quotient.  Kernels read their operands in place and never copy one
that is already canonical.

Division by a divisor of three or more terms, and a product of two or more
factors, first read the gcd g of the exponents of all their operands'
nonzero coefficients, stopping as soon as it reaches 1.  When g > 1 every
operand is ``f(X**g)`` for some ``f`` g times shorter, and the kernels run
on those instead: ``p'(X**g) * q'(X**g)`` is ``(p'*q')(X**g)``, and
``q'(X**g)`` divides ``p'(X**g)`` exactly when ``q'`` divides ``p'``, with
quotient ``(p'/q')(X**g)``, since division with remainder by ``q'``,
lifted to ``X**g``, is the unique division with remainder by ``q'(X**g)``.
The route reads only the operands it is given, so a divisor on a lattice
over a dividend that is not on it takes the full-size route, and two-term
divisors keep their linear-time route at every size.

Newton's identities, in both directions between coefficients and root
power sums, run on the series-inverse kernel.  With R the reversal of a
monic p, ``X*R'/R`` is minus the power-sum series, so the power sums are
one series inverse and one multiply, and the coefficients solve
``X*R' = sigma*R`` for the given power-sum series ``sigma`` by Newton
doubling, carrying ``1/R`` across the doublings.  Both cost O(M(n)) for
M(n) the cost of one n-term multiply (Bostan, Flajolet, Salvy and Schost,
J. Symbolic Comput. 41, 2006).
"""

from __future__ import annotations

import struct
from collections.abc import Iterable, Sequence
from itertools import accumulate, compress, count, islice, repeat
from math import gcd
from operator import add, mul, neg


class NotDivisibleError(ArithmeticError):
    """Exact polynomial division was requested but the remainder is nonzero."""


class NotMonicError(ValueError):
    """A monic polynomial of degree >= 1 was required."""


class InexactDivisionError(ArithmeticError):
    """A coefficient recursion produced a non-integer value."""


IntPoly = list  # list[int], ascending coefficients, canonical form

# Exact division by a divisor with leading coefficient 1 or -1 (and more
# than two terms) is long division while the quotient length times the
# divisor length is at most this, and a series inverse above it.  Timed, min
# of 5 on Python 3.11 and 2 vCPUs, on 140 of the 1756 distinct dense shapes
# that recursive and dual_form divide at n <= 2000 and at 44 indices of
# 4 or 5 odd primes or of n/rad(n) >= 16 (up to 20 per half-decade of size
# from 10**3 to 3*10**6), with the half series for symmetric operands:
# below 8000 long division won 31 of 34 (quotient x divisor terms 661x11:
# 156 vs 319 us; 65x57: 28 vs 91 us); from 8000 to 20000 the series won 11
# of 16 (577x33: 329 vs 617 us; 185x99: 147 vs 333 us).  Summed over the
# sample in four runs, every cutoff from 2000 to 15000 came within 1.4% of
# the best (7271); 20000 cost 1.7 to 2.9% more, 30000 3.5 to 5.8%.
_LONG_DIVISION_CUTOFF = 8000


def trim(p: Sequence[int]) -> IntPoly:
    """Return ``p`` as a canonical list (no trailing zero coefficients)."""
    n = len(p)
    while n > 0 and p[n - 1] == 0:
        n -= 1
    return p[:n] if isinstance(p, list) else list(p[:n])


def _canonical(p: Sequence[int]) -> IntPoly:
    """``p`` itself if it is already a canonical list, else ``trim(p)``.

    For kernels that only read their operands: a whole-list copy of a large
    operand costs as much as a linear-time kernel's own work.
    """
    if type(p) is list and (not p or p[-1] != 0):
        return p
    return trim(p)


def poly_degree(p: Sequence[int]) -> int:
    """Degree of ``p``; raises ``ValueError`` for the zero polynomial."""
    q = trim(p)
    if not q:
        raise ValueError("the zero polynomial has no degree")
    return len(q) - 1


def poly_height(p: Sequence[int]) -> int:
    """Maximum absolute coefficient (0 for the zero polynomial)."""
    return max(map(abs, p), default=0)


def poly_add(p: Sequence[int], q: Sequence[int]) -> IntPoly:
    """Coefficient-wise sum, canonical."""
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] += c
    return trim(out)


def poly_sub(p: Sequence[int], q: Sequence[int]) -> IntPoly:
    """Coefficient-wise difference, canonical."""
    out = list(p) + [0] * (len(q) - len(p))
    for i, c in enumerate(q):
        out[i] -= c
    return trim(out)


# ---------------------------------------------------------------------------
# multiplication

# Slots of up to 8 bytes travel as the signed struct item of the next size
# up: (item size in bytes, struct code) by slot size in bytes.
_STRUCT_ITEM = {
    1: (1, "b"), 2: (2, "h"), 3: (4, "i"), 4: (4, "i"),
    5: (8, "q"), 6: (8, "q"), 7: (8, "q"), 8: (8, "q"),
}
# The byte that sign-extends a two's-complement slot, by its top byte.
_SIGN_FILL = bytes(128) + b"\xff" * 128


def _top_bits(size: int, count: int) -> int:
    """``2**(8*size - 1)`` in each of ``count`` slots of ``size`` bytes."""
    return int.from_bytes((bytes(size - 1) + b"\x80") * count, "little")


def _pack(p: Sequence[int], width: int) -> int:
    """Evaluate ``p`` at ``2**width``; requires ``|coeff| < 2**(width-1)``.

    Each coefficient ``c`` goes into a slot of ``width // 8`` bytes as its
    two's complement, and the buffer is read as one unsigned integer ``U``.
    Flipping the top bit of a slot turns its two's complement into
    ``c + 2**(width-1)``, so with ``M`` holding ``2**(width-1)`` in every
    slot, ``(U ^ M) - M`` is the sum of ``c * 2**(width*j)``.
    """
    size = width // 8
    n = len(p)
    item = _STRUCT_ITEM.get(size)
    if item is None:
        buf = b"".join([c.to_bytes(size, "little", signed=True) for c in p])
    else:
        isize, code = item
        buf = struct.pack("<%d%s" % (n, code), *p)
        if isize != size:  # keep the low ``size`` bytes of every item
            items = buf
            buf = bytearray(n * size)
            for i in range(size):
                buf[i::size] = items[i::isize]
    top = _top_bits(size, n)
    return (int.from_bytes(buf, "little") ^ top) - top


def _unpack(val: int, width: int, count: int) -> list:
    """Recover ``count`` signed slot values from a packed integer.

    The inverse of ``_pack``: adding ``M`` makes every slot
    ``c + 2**(width-1)``, which is nonnegative, so no borrow crosses a slot;
    the XOR then leaves each slot's two's complement.
    """
    size = width // 8
    top = _top_bits(size, count)
    buf = ((val + top) ^ top).to_bytes(count * size, "little")
    item = _STRUCT_ITEM.get(size)
    if item is None:
        return [
            int.from_bytes(buf[i : i + size], "little", signed=True)
            for i in range(0, count * size, size)
        ]
    isize, code = item
    if isize != size:  # widen every slot to an item, filling with its sign
        slots = buf
        buf = bytearray(count * isize)
        for i in range(size):
            buf[i::isize] = slots[i::size]
        fill = slots[size - 1 :: size].translate(_SIGN_FILL)
        for i in range(size, isize):
            buf[i::isize] = fill
    return list(struct.unpack("<%d%s" % (count, code), buf))


def _slot_width(bound_bits: int) -> int:
    """``bound_bits`` rounded up to whole bytes."""
    return (bound_bits + 7) // 8 * 8


def _mul_packed(p: Sequence[int], q: Sequence[int]) -> list:
    bound = poly_height(p) * poly_height(q) * min(len(p), len(q))
    width = _slot_width(bound.bit_length() + 1)
    return _unpack(_pack(p, width) * _pack(q, width), width, len(p) + len(q) - 1)


def _is_two_term(q: list) -> bool:
    """Whether nonzero canonical ``q`` is ``c0 + ck*X**k`` with ``c0 != 0``, ``k >= 1``."""
    return q[0] != 0 and len(q) - q.count(0) == 2


def _scale(p: list, c: int) -> list:
    if c == 1:
        return p
    if c == -1:
        return list(map(neg, p))
    return list(map(mul, p, repeat(c)))


def _mul_binomial(p: list, q: list) -> IntPoly:
    """Product of canonical ``p`` with a two-term ``q = c0 + ck*X**k``.

    ``c0*p + X**k*ck*p`` in linear time: the low ``k`` coefficients come
    from ``c0*p`` alone, the top ``k`` from ``ck*p`` alone, and ``map``
    adds the two where they overlap.
    """
    k = len(q) - 1
    n = len(p)
    low = _scale(p, q[0])
    high = _scale(p, q[k])
    if k >= n:
        out = [0] * (n + k)
        out[:n] = low
        out[k:] = high
        return out
    out = low[:k]
    out += map(add, islice(low, k, None), high)
    out += islice(high, n - k, None)
    return out


def poly_mul(p: Sequence[int], q: Sequence[int]) -> IntPoly:
    """Exact product of two polynomials."""
    p, q = _canonical(p), _canonical(q)
    if not p or not q:
        return []
    if len(p) == 1:
        p, q = q, p
    if len(q) == 1:  # a constant needs no packing
        return p[:] if q[0] == 1 else _scale(p, q[0])
    if _is_two_term(q):
        return _mul_binomial(p, q)
    if _is_two_term(p):
        return _mul_binomial(q, p)
    return _mul_packed(p, q)


def poly_prod(factors: Iterable[Sequence[int]]) -> IntPoly:
    """Exact product of a sequence of polynomials (empty product is 1).

    Factors are combined smallest-first in a balanced tree, which keeps
    intermediate degrees and coefficient heights (and therefore packed slot
    widths) as small as possible.  When two or more factors are all
    polynomials in ``X**g`` for some g > 1, the tree multiplies them in
    ``X**g`` and lifts the product.
    """
    polys = [_canonical(f) for f in factors]
    if not polys:
        return [1]
    if any(not f for f in polys):
        return []
    polys.sort(key=len)
    g = _lattice(polys) if len(polys) > 1 else 0
    if g > 1:
        polys = [f[::g] for f in polys]
    while len(polys) > 1:
        merged = [
            poly_mul(polys[i], polys[i + 1]) for i in range(0, len(polys) - 1, 2)
        ]
        if len(polys) % 2:
            merged.append(polys[-1])
        merged.sort(key=len)
        polys = merged
    return substitute_power(polys[0], g) if g > 1 else list(polys[0])


# ---------------------------------------------------------------------------
# exact division

def _div_school(p: list, q: list) -> IntPoly:
    rem = list(p)
    qlead = q[-1]
    qlen = len(q)
    out = [0] * (len(p) - qlen + 1)
    for shift in range(len(out) - 1, -1, -1):
        top = rem[shift + qlen - 1]
        if top == 0:
            continue
        coeff, res = divmod(top, qlead)
        if res:
            raise NotDivisibleError("leading coefficient division is not exact")
        out[shift] = coeff
        for j in range(qlen):
            rem[shift + j] -= coeff * q[j]
    if any(rem):
        raise NotDivisibleError("nonzero remainder")
    return trim(out)


def _inverse_step(b: list, inv: list, prec: int) -> None:
    """Extend ``inv``, the inverse of ``b`` modulo ``X**h`` for ``h = len(inv)``,
    in place to the inverse modulo ``X**prec``, for ``h < prec <= 2*h``.

    Since ``b*inv == 1 + X**h*e`` already holds, the new inverse is
    ``inv - X**h*inv*e`` modulo ``X**prec``, so the step multiplies only the
    error terms ``e`` (terms ``h .. prec-1`` of ``b*inv``) by
    ``inv[:prec-h]``.
    """
    h = len(inv)
    err = poly_mul(b[:prec], inv)[h:prec]
    inv += map(neg, poly_mul(inv[: prec - h], err)[: prec - h])
    inv += repeat(0, prec - len(inv))


def _series_inverse(b: list, k: int) -> list:
    """Inverse of ``b`` modulo ``X**k`` over the integers; needs ``b[0] in {1,-1}``.

    Returns exactly ``k`` coefficients (trailing zeros kept), by inverse
    Newton steps that each double the precision.
    """
    inv = [b[0]]
    while len(inv) < k:
        _inverse_step(b, inv, min(2 * len(inv), k))
    return inv


def _symmetry(p: list, pr: list) -> int:
    """1 if ``p`` equals its reversal ``pr``, -1 if it equals ``-pr``, else 0."""
    if pr == p:  # stops at the first unequal pair, p[-1] against p[0]
        return 1
    if p[0] == -p[-1] and list(map(neg, pr)) == p:
        return -1
    return 0


def _div_series(p: list, q: list) -> IntPoly:
    # Reverse both operands and multiply by the inverse power series of the
    # divisor; exact over the integers because the divisor is monic up to sign.
    # The low n terms of the product are the top n quotient terms, reversed.
    # If p and q each equal their reversal up to signs s_p and s_q, so does an
    # exact quotient r, with sign s_p*s_q: r[j] == s_p*s_q*r[qlen-1-j].  Then
    # n = ceil(qlen/2) terms fix r, and the mirror image fills the rest.
    qlen = len(p) - len(q) + 1
    pr = p[::-1]
    qr = q[::-1]
    sign = _symmetry(p, pr) * _symmetry(q, qr)
    n = (qlen + 1) // 2 if sign else qlen
    top = poly_mul(pr[:n], _series_inverse(qr[:n], n))[:n]
    top += repeat(0, n - len(top))
    cand = top[::-1]
    if sign:
        cand = _scale(top[: qlen - n], sign) + cand
    if poly_mul(q, cand) != p:
        raise NotDivisibleError("nonzero remainder")
    return trim(cand)


def _div_binomial(p: list, q: list) -> IntPoly:
    """Exact quotient by ``q = c0 + ck*X**k`` with ``c0 != 0`` and ``ck`` = ±1.

    Dividing by ``X**k + b`` with ``b = ck*c0`` (that is, by ``ck*q``) is the
    top-down recurrence ``s[j] = p[j] - b*s[j+k]``: a running sum along each
    residue class mod k.  Afterwards ``s[k:]`` is the quotient and ``s[:k]``
    the remainder, so a zero ``s[:k]`` proves ``p == q*r`` exactly.  Linear
    time, in about ``min(k, len(p)/k)`` Python-level steps: slices, ``map``
    and ``accumulate`` do the per-coefficient work.

    A two-term dividend ``c0p + c*X**d`` over ``X**k - 1`` (``b == -1``)
    skips the sum.  Since ``X**k == 1`` modulo the divisor, the remainder is
    ``c*X**(d % k) + c0p``, which is zero exactly when ``k`` divides ``d``
    and ``c0p == -c``; the quotient is then the geometric series
    ``ck*c*(1 + X**k + ... + X**(d-k))``, built by one list repetition.
    """
    k = len(q) - 1
    ck = q[k]
    b = ck * q[0]
    n = len(p)
    if b == -1 and _is_two_term(p):
        d = n - 1
        if d % k or p[0] != -p[d]:
            raise NotDivisibleError("nonzero remainder")
        out = ([ck * p[d]] + [0] * (k - 1)) * (d // k)
        del out[d - k + 1 :]  # the k - 1 zeros after the top term
        return out
    step = add if b == -1 else (lambda acc, x: x - b * acc)
    s = list(p)  # s[n-k:] == p[n-k:] already: nothing lies above the top of p
    # k strided classes or about n/k blocks, whichever is fewer; a class
    # step is the cheaper of the two, so classes take the ties.
    if k <= (n + k - 1) // k:
        fold = None if b == -1 else step  # accumulate's own addition beats add
        for j in range(n - k, n):
            s[j::-k] = accumulate(s[j::-k], fold)
    else:
        for hi in range(n - k, 0, -k):
            lo = max(hi - k, 0)
            s[lo:hi] = map(step, s[lo + k : hi + k], s[lo:hi])
    if any(s[:k]):
        raise NotDivisibleError("nonzero remainder")
    return s[k:] if ck == 1 else list(map(neg, s[k:]))


def poly_exact_div(p: Sequence[int], q: Sequence[int]) -> IntPoly:
    """Quotient ``r`` with ``p == q*r`` exactly.

    Raises ``ZeroDivisionError`` if ``q`` is zero and ``NotDivisibleError``
    if ``q`` does not divide ``p`` over the integers.
    """
    p, q = _canonical(p), _canonical(q)
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    if not p:
        return []
    if len(p) < len(q):
        raise NotDivisibleError("divisor degree exceeds dividend degree")
    if q[-1] in (1, -1) and _is_two_term(q):
        return _div_binomial(p, q)
    g = _lattice((q, p)) if len(q) - q.count(0) > 2 else 1
    if g > 1:
        return substitute_power(_div_dense(p[::g], q[::g]), g)
    return _div_dense(p, q)


def _div_dense(p: list, q: list) -> IntPoly:
    # the series inverse needs a leading coefficient of 1 or -1
    if q[-1] in (1, -1) and (len(p) - len(q) + 1) * len(q) > _LONG_DIVISION_CUTOFF:
        return _div_series(p, q)
    return _div_school(p, q)


def _lattice(polys: Iterable[list]) -> int:
    """The gcd g of the exponents of the nonzero coefficients of canonical
    nonzero ``polys``, so that each is a polynomial in ``X**g``; 0 when all
    are constants.

    The first operand that is not a constant proposes the least positive
    exponent of its nonzero coefficients as g, and each operand is then
    checked by counting its zeros on and off the multiples of g; a nonzero
    coefficient off them lies in some residue class r mod g, and g falls to
    gcd(g, r).  It stops as soon as g reaches 1, so a first operand with a
    linear term costs one read.
    """
    g = 0
    for p in polys:
        if not g:
            g = next(compress(count(1), islice(p, 1, None)), 0)
        while g > 1:
            on = p[::g]
            if p.count(0) - on.count(0) == len(p) - len(on):
                break
            g = gcd(g, next(r for r in range(1, g) if any(p[r::g])))
        if g == 1:
            return 1
    return g


# ---------------------------------------------------------------------------
# composition and evaluation

def substitute_power(p: Sequence[int], m: int) -> IntPoly:
    """Return ``p(X**m)``."""
    if m < 1:
        raise ValueError("exponent must be >= 1")
    p = _canonical(p)
    if not p or m == 1:
        return list(p)
    out = [0] * ((len(p) - 1) * m + 1)
    out[::m] = p
    return out


def poly_eval(p: Sequence[int], x: int) -> int:
    """Value of ``p`` at the integer ``x`` (Horner)."""
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


# ---------------------------------------------------------------------------
# Newton's identities: coefficients <-> power sums of roots

def power_sums(p: Sequence[int], q_max: int) -> list:
    """Power sums ``S_0 .. S_q_max`` of the roots of a monic polynomial.

    ``S_q`` is the sum of q-th powers of the roots of ``p`` counted with
    multiplicity, computed purely from the coefficients by Newton's
    identities; every value is an integer.  ``S_0`` equals the degree.
    With R the reversal of p, ``sum(S_k X**k for k >= 1) == -X*R'/R``, so
    ``S_k`` is minus the coefficient of ``X**(k-1)`` in ``R' * (1/R)``;
    only the top ``q_max + 1`` coefficients of p enter.
    """
    p = _canonical(p)
    if len(p) < 2 or p[-1] != 1:
        raise NotMonicError("power sums require a monic polynomial of degree >= 1")
    if q_max < 0:
        raise ValueError("q_max must be >= 0")
    n = len(p) - 1
    r = p[n - min(q_max, n) :]
    r.reverse()
    deriv = list(map(mul, islice(r, 1, None), count(1)))
    s = [n]
    s += map(neg, poly_mul(deriv, _series_inverse(r, q_max))[:q_max])
    s += repeat(0, q_max + 1 - len(s))
    return s


def coeffs_from_power_sums(s: Sequence[int], n_degree: int) -> IntPoly:
    """Monic polynomial of degree ``n_degree`` with root power sums ``s[1..n_degree]``.

    ``s[q]`` must hold ``S_q`` for ``1 <= q <= n_degree``; ``s[0]`` is ignored.
    Inverts Newton's identities, asserting that every division by the step
    index is exact; raises ``InexactDivisionError`` otherwise (the input was
    not the power-sum sequence of a monic integer polynomial).

    The reversal R of the result solves ``X*R' == sigma*R`` with
    ``sigma = -sum(S_k X**k)`` and ``R(0) == 1``.  Newton doubling lifts R
    from ``h`` correct terms to ``h2 <= 2*h``: with ``E`` the terms
    ``h .. h2-1`` of ``sigma*R`` and ``D = E/R``, ``R*(1 + X**h*delta)`` is
    correct to ``h2`` terms for ``delta_k = D_(k-h)/k``.  Each ``delta_k``
    differs from the coefficient of ``X**k`` by a sum of products of earlier
    integer terms, so the first inexact division is the scalar recurrence's,
    after the same divisions by 1 .. k-1.  The precisions are
    ``ceil((n_degree+1) / 2**i)`` from the top down, so the last step ends
    exactly at ``n_degree + 1`` terms, and ``1/R`` is carried across the
    steps, one inverse Newton step each.
    """
    if n_degree < 1:
        raise ValueError("degree must be >= 1")
    if len(s) < n_degree + 1:
        raise ValueError("need power sums S_1 .. S_%d" % n_degree)
    sigma = [0]
    sigma += map(neg, islice(s, 1, n_degree + 1))
    precs = []
    h = n_degree + 1
    while h > 1:
        precs.append(h)
        h = (h + 1) // 2
    r = [1]  # r[j] is the coefficient of X**(n_degree - j)
    inv = [1]
    for h2 in reversed(precs):
        h = len(r)
        if len(inv) < h:
            _inverse_step(r, inv, h)
        err = poly_mul(sigma[:h2], r)[h:h2]
        d = poly_mul(err, inv[: h2 - h])[: h2 - h]
        d += repeat(0, h2 - h - len(d))  # a zero term is still a division step
        delta = []
        for coeff, res in map(divmod, d, count(h)):
            if res:
                raise InexactDivisionError(
                    "power sums do not come from a monic integer polynomial"
                )
            delta.append(coeff)
        r += poly_mul(r[: h2 - h], delta)[: h2 - h]
        r += repeat(0, h2 - len(r))
    r.reverse()
    return r


# ---------------------------------------------------------------------------
# rendering

def poly_str(p: Sequence[int], var: str = "X", max_terms: int | None = None) -> str:
    """Human-readable rendering, highest degree first.

    With ``max_terms`` set, long polynomials are elided in the middle.
    """
    if max_terms is not None and max_terms < 0:
        raise ValueError("max_terms must be >= 0")
    p = trim(p)
    if not p:
        return "0"
    terms = []
    for j in range(len(p) - 1, -1, -1):
        c = p[j]
        if c == 0:
            continue
        if j == 0:
            body = str(abs(c))
        else:
            mono = var if j == 1 else "%s^%d" % (var, j)
            body = mono if abs(c) == 1 else "%d*%s" % (abs(c), mono)
        terms.append(("-" if c < 0 else "+", body))
    if max_terms is not None and len(terms) > max_terms:
        keep = max_terms // 2
        elided = len(terms) - 2 * keep
        marker = ("+", "... (%d terms elided)" % elided)
        terms = terms[:keep] + [marker] + terms[len(terms) - keep :]
    sign, body = terms[0]
    out = [body if sign == "+" else "-" + body]
    for sign, body in terms[1:]:
        out.append(" %s %s" % (sign, body))
    return "".join(out)
