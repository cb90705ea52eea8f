"""Independent brute-force oracles for the test suite.

Everything here is deliberately naive and shares no code with the package:
plain loops, plain long division, direct definitions.  These implementations
are the reference the library is checked against, so they must stay dumb.
"""

from math import gcd


def naive_add(a, b):
    out = [0] * max(len(a), len(b))
    for i in range(len(a)):
        out[i] += a[i]
    for j in range(len(b)):
        out[j] += b[j]
    while out and out[-1] == 0:
        out.pop()
    return out


def naive_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i in range(len(a)):
        for j in range(len(b)):
            out[i + j] += a[i] * b[j]
    while out and out[-1] == 0:
        out.pop()
    return out


def naive_divmod(p, q):
    rem = list(p)
    quot = [0] * max(0, len(p) - len(q) + 1)
    while len(rem) >= len(q) and any(rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) < len(q):
            break
        shift = len(rem) - len(q)
        c, r = divmod(rem[-1], q[-1])
        if r:
            return None, rem  # non-integer quotient
        quot[shift] = c
        for j in range(len(q)):
            rem[shift + j] -= c * q[j]
    while rem and rem[-1] == 0:
        rem.pop()
    return quot, rem


def naive_totient(n):
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def naive_divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def naive_mobius(n):
    if n == 1:
        return 1
    count = 0
    for p in range(2, n + 1):
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            count += 1
    return (-1) ** count


def naive_cyclotomic(n):
    """Phi_n through the divisor recursion, using only the naive helpers."""
    num = [-1] + [0] * (n - 1) + [1]
    den = [1]
    for d in naive_divisors(n)[:-1]:
        den = naive_mul(den, naive_cyclotomic(d))
    quot, rem = naive_divmod(num, den)
    assert quot is not None and not rem
    return quot


def naive_ramanujan(n, q):
    """c_n(q) summed directly over primitive residues, rounded from floats."""
    from math import cos, tau

    total = sum(cos(tau * k * q / n) for k in range(1, n + 1) if gcd(k, n) == 1)
    nearest = round(total)
    assert abs(total - nearest) < 1e-6
    return int(nearest)


def naive_cosine_sum(n, q):
    """Sum of cos(2*pi*k*q/n) over 1 <= k <= n coprime to n, in floating point,
    each angle taken as (tau / n) * (k*q mod n) and the terms summed by fsum."""
    from math import cos, fsum, tau

    return fsum(cos(tau / n * (k * q % n)) for k in range(1, n + 1) if gcd(k, n) == 1)


def naive_power_sums(p, q_max):
    """Power sums S_0 .. S_q_max of the roots of monic p, by the scalar
    Newton recurrence: n**2/2 products, one index at a time."""
    n = len(p) - 1
    s = [n]
    for q in range(1, q_max + 1):
        acc = 0
        for j in range(1, min(q - 1, n) + 1):
            acc += p[n - j] * s[q - j]
        if q <= n:
            acc += q * p[n - q]
        s.append(-acc)
    return s


def naive_coeffs_from_power_sums(s, n):
    """Monic degree-n coefficients from S_1 .. S_n by the scalar inverse
    Newton recurrence; None if some division by the step index is inexact."""
    a = [0] * n + [1]
    for step in range(1, n + 1):
        acc = 0
        for j in range(1, step + 1):
            acc += a[n - step + j] * s[j]
        coeff, res = divmod(-acc, step)
        if res:
            return None
        a[n - step] = coeff
    return a
