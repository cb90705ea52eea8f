"""Benchmark of the cyclotomy library: one command, three workloads.

    python3 perfbench/run.py --workload {phi_large,verify_sweep,arith_mix}
        [--seed 1] [--seconds 30] [--trace 0|1]

Run from the repository root (any directory works; paths are resolved from
this file).  The program under test is ``src/cyclotomy`` of the same
checkout.  Every run of the library happens in a fresh single-threaded
``python3 -I`` process started from here, one process at a time:

* ``--trace 0`` times set-up in several fresh processes (median reported),
  then runs the workload as a closed loop with one caller for ``--seconds``
  and prints the end-to-end metrics;
* ``--trace 1`` runs a fixed amount of the workload twice, traced and
  untraced, and prints the per-layer metrics and the tracing overhead.

Every output is checked exactly.  The last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the exit code is
1 when any output was wrong and 2 when the benchmark itself could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, closed_loop  # noqa: E402

SETUP_PROBES = 16
# Every worker is killed once the whole run has taken this long.
RUN_LIMIT_S = 170
_STARTED = perf_counter()
SPANS_DIR = os.path.join(HERE, "out")

# What one unit of work counts, per workload (the unit of work_per_s).
WORK_UNIT = {
    "phi_large": "output coefficients",
    "verify_sweep": "identity checks",
    "arith_mix": "queries",
}

# Traced runs do a fixed number of units, so their counts repeat exactly for
# a given seed: about one third of --seconds of untraced work.
TRACE_UNIT_SECONDS = {"phi_large": 5.0, "verify_sweep": 10.0, "arith_mix": 1.5}


class BenchError(Exception):
    """The benchmark could not run (as opposed to a wrong program output)."""


def spawn(args: list) -> dict:
    """Run worker.py in a fresh isolated interpreter and return its JSON output."""
    cmd = [sys.executable, "-I", os.path.join(HERE, "worker.py")] + args
    timeout = max(1.0, RUN_LIMIT_S - (perf_counter() - _STARTED))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("worker %s was stopped: the run passed %d s" % (" ".join(args), RUN_LIMIT_S))
    if proc.returncode != 0:
        raise BenchError(
            "worker %s exited %d:\n%s" % (" ".join(args), proc.returncode, proc.stderr[-2000:])
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float) -> dict:
    """Untraced closed loop for ``seconds``; verify_sweep uses one process per pass."""
    base = ["run", "--workload", workload, "--seed", str(seed)]
    if workload != "verify_sweep":
        return spawn(base + ["--seconds", repr(seconds)])
    # Each pass needs cold caches, so each pass is its own process.
    passes = []
    closed_loop(lambda: passes.append(spawn(base + ["--units", "1"])), seconds=seconds)
    merged = dict(passes[0], parts={}, notes=[], latencies=[])
    for key in ("attempted", "failed", "work", "busy_s", "units"):
        merged[key] = sum(p[key] for p in passes)
    for p in passes:
        merged["notes"] += p["notes"]
        merged["latencies"] += p["latencies"]
        for part, secs in p["parts"].items():
            merged["parts"][part] = merged["parts"].get(part, 0.0) + secs
    merged["peak_rss_mb"] = max(p["peak_rss_mb"] for p in passes)
    return merged


def setup_probes(count: int) -> list:
    return [spawn(["setup"])["setup_s"] for _ in range(count)]


def end_to_end(workload: str, seed: int, seconds: float):
    # Half the set-up probes run before the workload and half after it, so
    # the median does not rest on a single moment of a machine whose speed
    # drifts over minutes.
    setup = setup_probes(SETUP_PROBES // 2)
    res = run_workload(workload, seed, seconds)
    setup += setup_probes(SETUP_PROBES - SETUP_PROBES // 2)
    lat_ms = [x * 1000 for x in res["latencies"]]
    deciles = statistics.quantiles(lat_ms, n=10, method="inclusive") if len(lat_ms) > 1 else lat_ms * 9
    samples = "%d calls" % len(lat_ms)
    metrics = [
        ("setup_s", statistics.median(setup), "s", "median of %d fresh processes" % SETUP_PROBES),
        ("work_per_s", res["work"] / res["busy_s"], "1/s", WORK_UNIT[workload] + " per second of call time"),
        ("call_p50_ms", deciles[4], "ms", samples),
        ("call_p90_ms", deciles[8], "ms", samples),
        ("peak_rss_mb", res["peak_rss_mb"], "MB", "workload process"),
    ]
    # Printed for reading only: these exist on one workload each.
    prefix = {"phi_large": "phi.", "verify_sweep": "", "arith_mix": "query."}[workload]
    info = [("fail_ratio", res["failed"] / res["attempted"], "1", "%d of %d calls" % (res["failed"], res["attempted"]))]
    info += [
        ("%s%s_s" % (prefix, part), secs, "s", "total over %d units" % res["units"])
        for part, secs in sorted(res["parts"].items())
    ]
    return res, metrics, info


def per_layer(workload: str, seed: int, seconds: float):
    units = max(1, round(seconds / 3 / TRACE_UNIT_SECONDS[workload]))
    os.makedirs(SPANS_DIR, exist_ok=True)
    base = ["run", "--workload", workload, "--seed", str(seed), "--units", str(units)]
    spans_path = os.path.join(SPANS_DIR, "%s.spans" % workload)
    traced = spawn(base + ["--trace", "--spans", spans_path])
    plain = spawn(base)

    metrics = []
    for name, (calls, busy, self_s) in traced["layers"].items():
        metrics += [
            (name + ".calls", calls, "count"),
            (name + ".busy_s", busy, "s"),
            (name + ".self_s", self_s, "s"),
        ]
    counts = traced["counts"]
    metrics += [
        ("intpoly.poly_mul.ops", counts.get("intpoly.poly_mul.ops", 0), "count"),
        ("intpoly.poly_mul.bytes_in", counts.get("intpoly.poly_mul.bytes_in", 0), "bytes-computed"),
    ]
    for fn in ("poly_mul", "poly_exact_div"):
        for bucket in tracing.SIZE_BUCKETS:
            key = "intpoly.%s.size.%s" % (fn, bucket)
            metrics += [
                (key + ".calls", counts.get(key + ".calls", 0), "count"),
                (key + ".self_s", counts.get(key + ".self_ns", 0) / 1e9, "s"),
            ]
    for shape in tracing.DIVISOR_SHAPES:
        key = "intpoly.poly_exact_div.divisor.%s" % shape
        metrics += [
            (key + ".calls", counts.get(key + ".calls", 0), "count"),
            (key + ".self_s", counts.get(key + ".self_ns", 0) / 1e9, "s"),
        ]
    cyclo_calls = traced["layers"]["cyclo.cyclotomic_poly"][0]
    repeats = counts.get("cyclo.cyclotomic_poly.repeats", 0)
    metrics.append(("cyclo.cyclotomic_poly.repeat_ratio", repeats / cyclo_calls if cyclo_calls else 0.0, "ratio"))
    for name, ratio in sorted(traced["hit_ratio"].items()):
        metrics.append(("arith.%s.hit_ratio" % name, ratio, "ratio"))
    metrics.append(("arith.factorize.rho_inputs", counts.get("arith.factorize.rho_inputs", 0), "count"))
    traced_rate = traced["work"] / traced["busy_s"]
    plain_rate = plain["work"] / plain["busy_s"]
    metrics += [
        ("trace.work_per_s_untraced", plain_rate, "1/s"),
        ("trace.work_per_s_traced", traced_rate, "1/s"),
        ("trace.overhead_work_per_s", traced_rate - plain_rate, "1/s"),
    ]
    res = {k: traced[k] + plain[k] for k in ("attempted", "failed")}
    res["notes"] = traced["notes"] + plain["notes"]
    info = [("spans", traced["spans"], "count", "written to %s" % os.path.relpath(spans_path, ROOT))]
    return res, [(name, value, unit, "") for name, value, unit in metrics], info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= RUN_LIMIT_S / 2:
        parser.error("--seconds must be in (0, %d]" % (RUN_LIMIT_S // 2))

    if not os.path.isfile(os.path.join(ROOT, "src", "cyclotomy", "__init__.py")):
        print("error: no src/cyclotomy next to %s" % HERE, file=sys.stderr)
        return 2
    measure = per_layer if args.trace else end_to_end
    try:
        res, metrics, info = measure(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2

    print("%s seed=%d trace=%d: %d calls, %d failed, %.1f s wall"
          % (args.workload, args.seed, args.trace, res["attempted"], res["failed"], perf_counter() - _STARTED))
    for name, value, unit, note in metrics + info:
        print("  %-52s %14.6g %-14s %s" % (name, value, unit, note))
    for note in res["notes"]:
        print("  FAIL %s" % note)
    correct = res["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit, _ in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
