"""One fresh benchmark process: a set-up probe or one run of a workload.

    python3 -I perfbench/worker.py setup
    python3 -I perfbench/worker.py run --workload W --seed N (--seconds S | --units K)
        [--trace] [--spans PATH]

``setup`` times ``import cyclotomy`` plus ``cli.build_parser()`` and nothing
else: the clock starts before any other import.  ``run`` executes one
workload as a closed loop (see ``workloads.py``).  Either way the process
prints one JSON object on stdout.  cyclotomy is always imported from the
``src`` directory next to this benchmark; the process fails if it is not
there.
"""

import os
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path[:0] = [HERE, SRC]


def import_cyclotomy() -> float:
    """Import the package and build the CLI parser; return the seconds it took."""
    start = perf_counter()
    import cyclotomy.cli

    cyclotomy.cli.build_parser()
    elapsed = perf_counter() - start
    where = os.path.dirname(os.path.abspath(cyclotomy.__file__))
    if where != os.path.join(SRC, "cyclotomy"):
        raise SystemExit("cyclotomy was imported from %s, not from %s" % (where, SRC))
    return elapsed


# Peak memory is read after this many units (or at the end of a shorter run),
# so that it measures a fixed amount of work: the library's caches grow with
# every new input, and a faster library gets through more inputs in a run.
RSS_UNITS = {"phi_large": 4, "verify_sweep": 1, "arith_mix": 10}


def _hit_ratio(before, after):
    hits = after.hits - before.hits
    total = hits + after.misses - before.misses
    return hits / total if total else 0.0


def run(argv: list) -> dict:
    import argparse
    import resource
    from types import SimpleNamespace

    from cyclotomy import arith, cli, cyclo, intpoly, verify

    import tracer as tracing
    import workloads

    parser = argparse.ArgumentParser(prog="worker.py run")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    budget = parser.add_mutually_exclusive_group(required=True)
    budget.add_argument("--seconds", type=float)
    budget.add_argument("--units", type=int)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="file to write the trace spans to")
    args = parser.parse_args(argv)

    cy = SimpleNamespace(cli=cli, verify=verify, cyclo=cyclo, intpoly=intpoly, arith=arith)
    # Keep the lru_cache objects themselves: the tracer replaces the module
    # attributes.  A library version without these caches reports no hit ratio.
    cached = {
        name: getattr(arith, name)
        for name in ("mobius", "totient")
        if hasattr(getattr(arith, name), "cache_info")
    }
    before = {name: fn.cache_info() for name, fn in cached.items()}
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(vars(cy))

    tally = workloads.Tally(tracer)
    run_unit = workloads.WORKLOADS[args.workload](cy, args.seed, tally)
    rss_units = RSS_UNITS[args.workload]
    peak = {}

    def unit():
        more = run_unit()
        if tally.units == rss_units:
            peak["mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return more

    workloads.closed_loop(unit, seconds=args.seconds, units=args.units)

    out = tally.result()
    out["peak_rss_mb"] = peak.get("mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if tracer is not None:
        out["layers"] = tracer.layer_stats()
        out["counts"] = tracer.counts
        out["hit_ratio"] = {
            name: _hit_ratio(before[name], fn.cache_info()) for name, fn in cached.items()
        }
        if args.spans:
            out["spans"] = tracer.write_spans(args.spans)
    return out


def main() -> None:
    setup_s = import_cyclotomy()
    import json

    if sys.argv[1:] == ["setup"]:
        out = {"setup_s": setup_s}
    elif sys.argv[1:2] == ["run"]:
        out = run(sys.argv[2:])
    else:
        raise SystemExit("usage: worker.py setup | worker.py run --workload W --seed N ...")
    print(json.dumps(out))


if __name__ == "__main__":
    main()
