"""Run the benchmark once per workload with tracing on and check each run.

Each workload of ``BENCHMARK.json`` runs through the benchmark's own command
with ``--seed 1 --seconds 5 --trace 1``.  A run passes if it exits 0 and its
last stdout line is strict JSON (no NaN or infinity) whose ``metrics`` hold
every per-layer metric ``BENCHMARK.json`` names.  Prints one line per run,
with its output on a failure, and exits 1 if any run failed.  Standard
library only; run it from anywhere as

    python3 tests/traced_runs.py

and the runs start in the checkout holding this file.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def reject(constant):
    raise ValueError("non-finite number %s" % constant)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = [m["name"] for m in spec["per_layer"]]
    bad = 0
    for workload in spec["workloads"]:
        argv = spec["command"] + ["--workload", workload["name"], "--seed", "1",
                                  "--seconds", "5", "--trace", "1"]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        try:
            if proc.returncode != 0:
                raise ValueError("exit %d" % proc.returncode)
            metrics = json.loads(lines[-1] if lines else "", parse_constant=reject)["metrics"]
            missing = [name for name in wanted if name not in metrics]
            if missing:
                raise ValueError("missing %s" % ", ".join(missing))
        except (ValueError, KeyError, TypeError) as exc:
            bad += 1
            print("FAIL %s: %s" % (" ".join(argv), exc))
            print(proc.stdout[-2000:], proc.stderr[-2000:], sep="\n")
        else:
            print("ok %s: %d per-layer metrics" % (" ".join(argv), len(wanted)))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
