"""Self-test of the benchmark itself (not of cyclotomy).

    python3 perfbench/selftest.py

1. Two traced runs with the same seed must report identical counts: calls
   per layer, poly_mul ops and operand bytes, size-bucket and divisor-shape
   call counts, cyclotomic_poly repeats, cache hit ratios and rho inputs.
   The span file of the first run must read back with every span nested
   inside its parent and one span per counted call.
2. One deliberately corrupted output per workload must be caught: the
   workload reports a non-zero fail ratio.

Exits 0 when both hold, 1 otherwise.  Takes about a minute.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import tracer  # noqa: E402
import workloads  # noqa: E402

SEED = 7
OUT_DIR = os.path.join(HERE, "out")


def traced_counts(workload: str, spans_path: str) -> dict:
    """Every count of one traced unit of ``workload``, timings left out."""
    cmd = [sys.executable, "-I", os.path.join(HERE, "worker.py"), "run",
           "--workload", workload, "--seed", str(SEED), "--units", "1", "--trace",
           "--spans", spans_path]
    out = json.loads(subprocess.run(cmd, capture_output=True, text=True, check=True).stdout)
    counts = {k: v for k, v in out["counts"].items() if not k.endswith("_ns")}
    counts.update(("%s.calls" % name, stats[0]) for name, stats in out["layers"].items())
    counts.update(("%s.hit_ratio" % name, r) for name, r in out["hit_ratio"].items())
    return counts


def spans_consistent(path: str, counts: dict) -> bool:
    """Spans nest inside their parents, and each name occurs once per counted call."""
    names, col = tracer.read_spans(path)
    start, end, parent = col["start_ns"], col["end_ns"], col["parent"]
    for i in range(len(start)):
        p = parent[i]
        if not start[i] <= end[i] or (p >= 0 and not (p < i and start[p] <= start[i] and end[i] <= end[p])):
            return False
    per_name = [0] * len(names)
    for nid in col["name"]:
        per_name[nid] += 1
    return all(per_name[i] == counts["%s.calls" % name] for i, name in enumerate(names))


def corrupt_first(module, attr: str, spoil) -> None:
    """Make the first call of ``module.attr`` return a spoiled result."""
    real = getattr(module, attr)
    state = {"done": False}

    def wrapper(*args):
        result = real(*args)
        if not state["done"]:
            state["done"] = True
            return spoil(result)
        return result

    setattr(module, attr, wrapper)


def fail_ratio_with_corruption(workload: str, module_name: str, attr: str, spoil) -> float:
    """Run one unit of ``workload`` in this process with one corrupted output."""
    from cyclotomy import arith, cli, cyclo, intpoly, verify

    cy = SimpleNamespace(cli=cli, verify=verify, cyclo=cyclo, intpoly=intpoly, arith=arith)
    corrupt_first(getattr(cy, module_name), attr, spoil)
    tally = workloads.Tally()
    workloads.closed_loop(workloads.WORKLOADS[workload](cy, SEED, tally), units=1)
    return tally.failed / tally.attempted


def _bump_constant(poly):
    return [poly[0] + 1] + list(poly[1:])


def _drop_check(result):
    result.checks -= 1
    return result


def _off_by_one(value):
    return value + 1


CORRUPTIONS = (
    ("phi_large", "cyclo", "cyclotomic_poly", _bump_constant),
    ("verify_sweep", "verify", "sweep_coefficients", _drop_check),
    ("arith_mix", "arith", "ramanujan_sum", _off_by_one),
)


def main() -> int:
    ok = True
    os.makedirs(OUT_DIR, exist_ok=True)
    for workload in sorted(workloads.WORKLOADS):
        spans_path = os.path.join(OUT_DIR, "selftest-%s.spans" % workload)
        first = traced_counts(workload, spans_path)
        nested = spans_consistent(spans_path, first)
        second = traced_counts(workload, spans_path)
        same = first == second
        ok &= same and nested
        print("%-13s traced counts repeat: %s (%d counts); spans nest and match counts: %s"
              % (workload, same, len(first), nested))
        if not same:
            for key in sorted(set(first) | set(second)):
                if first.get(key) != second.get(key):
                    print("    %s: %r vs %r" % (key, first.get(key), second.get(key)))
    for workload, module_name, attr, spoil in CORRUPTIONS:
        ratio = fail_ratio_with_corruption(workload, module_name, attr, spoil)
        ok &= ratio > 0
        print("%-13s corrupted %s.%s -> fail_ratio %.4f" % (workload, module_name, attr, ratio))
    print("selftest passed" if ok else "selftest FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
