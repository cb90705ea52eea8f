"""Seeded input generators for the benchmark workloads.

Every stream is a pure function of its seed, so the same seed always
yields the same inputs in the same order.  Indices are classified
(prime, squarefree, prime power, ...) with the small number theory below,
never with :mod:`cyclotomy` itself: the program under test only ever sees
the finished inputs.
"""

from __future__ import annotations

import random
from math import prod

# ---------------------------------------------------------------------------
# the benchmark's own number theory (independent of cyclotomy.arith)


def primes_upto(limit: int) -> list:
    """All primes <= limit, by a plain sieve of Eratosthenes."""
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return [i for i, f in enumerate(flags) if f]


def trial_factor(n: int) -> dict:
    """Prime factorization ``{p: e}`` of a modest n by trial division."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def euler_phi(factors: dict) -> int:
    return prod((p - 1) * p ** (e - 1) for p, e in factors.items())


def phi_at_one(factors: dict) -> int:
    """Phi_n(1) for n > 1: p when n is a power of the prime p, else 1."""
    return next(iter(factors)) if len(factors) == 1 else 1


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime_mr(n: int) -> bool:
    """Miller-Rabin with the first 13 prime bases: exact below 3.3 * 10**24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# phi_large: index classes

_ODD_PRIMES = primes_upto(200)[1:]


def _squarefree_pool() -> list:
    """Products of 4 or 5 distinct odd primes with phi(n) in [5000, 8000].

    Six odd primes already give n >= 255255, where one mobius_product call
    alone takes about a minute, so the class stops at five.
    """
    pool = []

    def extend(start: int, chosen: list) -> None:
        if len(chosen) in (4, 5):
            f = dict.fromkeys(chosen, 1)
            if 5000 <= euler_phi(f) <= 8000:
                pool.append(prod(chosen))
        if len(chosen) == 5:
            return
        for i in range(start, len(_ODD_PRIMES)):
            p = _ODD_PRIMES[i]
            if prod(chosen) * p > 40000:
                break
            extend(i + 1, chosen + [p])

    extend(0, [])
    return sorted(pool)


def _non_squarefree_pool() -> list:
    """n in [20000, 32000] with 2 or 3 prime factors from {2, 3, 5, 7} and n/rad(n) >= 16."""
    pool = []
    for n in range(20000, 32001):
        f = trial_factor(n)
        if 2 <= len(f) <= 3 and max(f) <= 7 and n // prod(f) >= 16:
            pool.append(n)
    return pool


def _prime_power_pool() -> list:
    """p**k with k >= 2 in [90000, 125000] (11 of them).

    The band is narrow because each prime power adds about 5 * phi(n) output
    coefficients to a round at little cost, so a wide band would make
    work_per_s depend on which ones a seed draws.
    """
    pool = []
    for p in primes_upto(400):
        pk = p * p
        while pk <= 125000:
            if pk >= 90000:
                pool.append(pk)
            pk *= p
    return sorted(pool)


def _newton_pool() -> list:
    """n in [2000, 6000] with phi(n) in [2000, 3000] (newton_ramanujan is quadratic in phi)."""
    return [n for n in range(2000, 6001) if 2000 <= euler_phi(trial_factor(n)) <= 3000]


PHI_CLASSES = ("prime", "squarefree", "non_squarefree", "prime_power")


_GOLDEN = (5**0.5 - 1) / 2


class PhiIndexStream:
    """Rounds of fresh indices for ``phi_large``: one per class, plus a newton index.

    Each class pool is sorted by size, and successive draws walk it with a
    golden-ratio step from a seeded random start.  Any few consecutive rounds
    thus spread evenly over the pool, so runs with different seeds see
    different indices but nearly the same mix of sizes.  No index is handed
    out twice, so the cyclotomic cache never hits; the stream ends when a
    pool runs out.
    """

    def __init__(self, seed: int):
        rng = random.Random("phi_large/%d" % seed)
        self._pools = {
            "prime": [p for p in primes_upto(200000) if p >= 190000],
            "squarefree": _squarefree_pool(),
            "non_squarefree": _non_squarefree_pool(),
            "prime_power": _prime_power_pool(),
            "newton": _newton_pool(),
        }
        self._position = {cls: rng.random() for cls in self._pools}
        self._seen = set()

    def _draw(self, cls: str):
        pool = self._pools[cls]
        for _ in range(4 * len(pool)):
            self._position[cls] = (self._position[cls] + _GOLDEN) % 1.0
            n = pool[int(self._position[cls] * len(pool))]
            if n not in self._seen:
                self._seen.add(n)
                return n
        return None

    def next_round(self):
        """``[(class, n), ...]`` for the four classes, then ``("newton", n)``; None at the end."""
        picks = [(cls, self._draw(cls)) for cls in PHI_CLASSES + ("newton",)]
        return None if any(n is None for _, n in picks) else picks


# ---------------------------------------------------------------------------
# arith_mix: query stream

# One block: a newton query, then four sub-blocks of 6 factorize calls,
# 4 kluyver/hoelder pairs and 16 definition queries (121 queries).  The fixed
# pattern keeps the mix identical across seeds; only the arguments are random.
# Its proportions put the median inside the definition queries and the 90th
# percentile inside the factorize calls, not on an edge between two kinds.
_SUB_BLOCK = ("factorize", "definition", "definition", "pair", "definition", "definition") * 4 + (
    "factorize", "factorize",
)
BLOCK = ("newton",) + _SUB_BLOCK * 4


def _random_prime(rng: random.Random, bits: int) -> int:
    while True:
        x = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_prime_mr(x):
            return x


class ArithQueryStream:
    """Blocks of single arithmetic queries for ``arith_mix``.

    Each item is ``(kind, args, extra)``.  For ``factorize`` the extra is
    the expected factorization (the generator built the semiprime).  A
    ``pair`` is two queries, kluyver and hoelder on the same (n, q); its extra
    gives their order, which alternates so that each method pays for the
    factorization of n half the time.  ``definition`` and ``newton`` are one
    Ramanujan-sum query each.
    """

    def __init__(self, seed: int):
        self._rng = random.Random("arith_mix/%d" % seed)
        self._pairs = 0

    def next_block(self) -> list:
        rng = self._rng
        out = []
        for kind in BLOCK:
            if kind == "factorize":
                p, q = sorted((_random_prime(rng, 31), _random_prime(rng, 31)))
                expected = [(p, 2)] if p == q else [(p, 1), (q, 1)]
                out.append(("factorize", (p * q,), expected))
            elif kind == "pair":
                n = rng.randrange(2, 2**63)
                q = rng.randrange(0, 2**63)
                methods = ("kluyver", "hoelder") if self._pairs % 2 == 0 else ("hoelder", "kluyver")
                self._pairs += 1
                out.append(("pair", (n, q), methods))
            elif kind == "definition":
                out.append(("definition", (rng.randrange(2, 20001), rng.randrange(0, 2**63)), None))
            else:
                n = rng.randrange(1000, 3001)
                out.append(("newton", (n, rng.randrange(n + 1, 3 * n + 1)), None))
        return out
