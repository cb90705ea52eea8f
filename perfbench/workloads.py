"""The three benchmark workloads and their correctness checks.

Each workload is a closed loop with one caller: the next call is issued only
after the previous one returns.  Work is grouped in units (a round of
indices, a pass of sweeps, a block of queries); :func:`closed_loop` runs
units until a time budget or a unit count is reached.  Every call is timed
on its own, and every output is checked outside the timed region.

The ``cy`` argument is a namespace holding cyclotomy's modules (``cli``,
``verify``, ``cyclo``, ``intpoly``, ``arith``).  Calls go through the module
attributes at call time, so a tracer installed on those attributes sees them.
"""

from __future__ import annotations

import contextlib
import io
import json
from math import gcd
from time import perf_counter

import gen

PHI_ALGORITHMS = ("recursive", "mobius_product", "radical", "dual_form")

# verify_sweep: (suite, extra arguments, number of checks the suite reports).
# The check counts were recorded from the library as first benchmarked and
# are part of the correctness gate.
SWEEPS = (
    ("coeff", ["--max-n", "2000"], 7996),
    ("poly", ["--max-n", "500"], 8665),
    ("ramanujan", ["--max-n", "110", "--max-q", "40"], 66092),
    ("totient", ["--max-n", "13000"], 255303),
)

_MAX_FAILURE_NOTES = 5


class Tally:
    """Timings, work and failures of one workload run."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.latencies = []
        self.parts = {}
        self.attempted = 0
        self.failed = 0
        self.notes = []
        self.work = 0
        self.units = 0

    def call(self, part: str, fn, *args):
        """Time one call into the program; an exception counts as a failure."""
        if self.tracer is not None:
            self.tracer.call_id = self.attempted
        self.attempted += 1
        start = perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # the loop must go on; the failure is recorded
            self.latencies.append(perf_counter() - start)
            self.fail("%s%r raised %s: %s" % (part, args[:3], type(exc).__name__, exc), count=1)
            return None
        elapsed = perf_counter() - start
        self.latencies.append(elapsed)
        self.parts[part] = self.parts.get(part, 0.0) + elapsed
        return result

    def fail(self, note: str, count: int = 1) -> None:
        self.failed += count
        if len(self.notes) < _MAX_FAILURE_NOTES:
            self.notes.append(note)

    def result(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "notes": self.notes,
            "work": self.work,
            "busy_s": sum(self.latencies),
            "latencies": self.latencies,
            "parts": self.parts,
            "units": self.units,
        }


def closed_loop(run_unit, seconds: float | None = None, units: int | None = None) -> None:
    """Run units back to back: ``units`` of them, or while ``seconds`` allow.

    With a time budget, a unit starts only if the mean unit time so far
    still fits, and at least one unit always runs.  A unit that returns
    False has found its input stream exhausted, which also ends the loop.
    """
    start = perf_counter()
    durations = []
    while True:
        if units is not None:
            if len(durations) >= units:
                return
        elif durations and perf_counter() - start + sum(durations) / len(durations) > seconds:
            return
        t0 = perf_counter()
        if run_unit() is False:
            return
        durations.append(perf_counter() - t0)


# ---------------------------------------------------------------------------
# phi_large


def phi_reference(n: int, factors: dict) -> list:
    """Phi_n for n > 1 from prod over squarefree d | n of (1 - X**(n/d))**mu(d).

    Works on the truncated power series up to degree phi(n), multiplying and
    dividing by binomials in place; shares no code with cyclotomy.
    """
    degree = gen.euler_phi(factors)
    a = [0] * (degree + 1)
    a[0] = 1
    primes = list(factors)
    for mask in range(1 << len(primes)):
        d = 1
        for i, p in enumerate(primes):
            if mask >> i & 1:
                d *= p
        k = n // d
        if k > degree:
            continue
        if bin(mask).count("1") % 2 == 0:  # multiply by 1 - X**k
            for i in range(degree, k - 1, -1):
                a[i] -= a[i - k]
        else:  # divide by 1 - X**k
            for i in range(k, degree + 1):
                a[i] += a[i - k]
    return a


def phi_large(cy, seed: int, tally: Tally):
    """Return the unit runner: one round of fresh indices, every algorithm on each."""
    stream = gen.PhiIndexStream(seed)

    def run_round():
        indices = stream.next_round()
        if indices is None:
            return False
        for cls, n in indices:
            factors = gen.trial_factor(n)
            if cls == "newton":
                res = tally.call("newton_ramanujan", cy.cyclo.cyclotomic, n, "newton_ramanujan")
                outs = {"newton_ramanujan": res and res.poly}
            else:
                outs = {}
                for alg in PHI_ALGORITHMS:
                    res = tally.call(alg, cy.cyclo.cyclotomic, n, alg)
                    outs[alg] = res and res.poly
                outs["default"] = tally.call("default", cy.cyclo.cyclotomic_poly, n)
            expected = phi_reference(n, factors)
            at_one = gen.phi_at_one(factors)
            for name, poly in outs.items():
                if poly is None:
                    continue  # already counted by Tally.call
                tally.work += len(poly)
                if poly != expected or sum(poly) != at_one:
                    tally.fail("%s at n=%d (%s) differs from the reference" % (name, n, cls))
        tally.units += 1

    return run_round


# ---------------------------------------------------------------------------
# verify_sweep


def verify_sweep(cy, seed: int, tally: Tally):
    """Return the unit runner: one pass of the four CLI verify suites.

    The sweep ranges are the whole input, so ``seed`` does not change them.
    """

    def run_pass() -> None:
        for suite, extra, checks in SWEEPS:
            argv = ["verify", "--suite", suite] + extra + ["--format", "json"]
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = tally.call("sweep." + suite, cy.cli.run_cli, argv)
            try:
                report = json.loads(buf.getvalue())
            except ValueError:
                report = {}
            got = [s.get("checks") for s in report.get("suites", [])]
            if code != 0 or report.get("passed") is not True or got != [checks]:
                tally.fail(
                    "verify %s: exit %r, passed %r, checks %r (expected [%d])"
                    % (suite, code, report.get("passed"), got, checks)
                )
            tally.work += sum(c for c in got if isinstance(c, int))
        tally.units += 1

    return run_pass


# ---------------------------------------------------------------------------
# arith_mix


def ramanujan_reference(n: int, q: int) -> int:
    """c_n(q) by Kluyver's formula, using the benchmark's own factorization."""
    total = 0
    g = gcd(n, q)
    for d in range(1, g + 1):
        if g % d == 0:
            f = gen.trial_factor(n // d)
            if all(e == 1 for e in f.values()):
                total += d * (-1) ** len(f)
    return total


def _factorization_ok(n: int, got, expected) -> bool:
    if got != expected:
        return False
    prod = 1
    for p, e in got:
        if not gen.is_prime_mr(p):
            return False
        prod *= p**e
    return prod == n


def arith_mix(cy, seed: int, tally: Tally):
    """Return the unit runner: one block of single arithmetic queries."""
    stream = gen.ArithQueryStream(seed)

    def run_block() -> None:
        for kind, args, extra in stream.next_block():
            if kind == "factorize":
                got = tally.call("factorize", cy.arith.factorize, *args)
                if got is not None and not _factorization_ok(args[0], got, extra):
                    tally.fail("factorize(%d) returned %r" % (args[0], got))
            elif kind == "pair":
                values = [tally.call(m, cy.arith.ramanujan_sum, *args, m) for m in extra]
                if None not in values and values[0] != values[1]:
                    tally.fail("kluyver and hoelder disagree at n=%d, q=%d" % args, count=2)
            else:
                value = tally.call(kind, cy.arith.ramanujan_sum, *args, kind)
                if value is not None and value != ramanujan_reference(*args):
                    tally.fail("c_%d(%d) by %s returned %d" % (*args, kind, value))
        tally.work = tally.attempted
        tally.units += 1

    return run_block


WORKLOADS = {"phi_large": phi_large, "verify_sweep": verify_sweep, "arith_mix": arith_mix}
