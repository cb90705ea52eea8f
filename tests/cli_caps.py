"""Run the command-line tool at its largest bounds and check each run.

Twelve runs, each in a fresh process: ``verify`` of the totient, Ramanujan,
polynomial and coefficient suites, and ``table``, each at the largest bound
the CLI accepts, the Ramanujan suite also at its cosine-term bound with
``--max-q 0`` and at ``--max-n 2000 --max-q 50``, whose premises read both
many indices and wide rows of q, ``compute`` by ``recursive`` and by
``newton_ramanujan`` at two large indices with many divisors, and
``ramanujan --method newton`` at the largest prime index the CLI accepts.  Every run must exit 0; a
``verify`` run must print its exact check count with no failures, the
``ramanujan`` run its value, ``table`` must write 5000 rows whose bytes
have the pinned sha256, and a ``compute`` run must print the pinned bytes
of the default algorithm.  Seven runs have a bound on the child's peak
RSS.  Prints the wall time and the peak RSS of every run and exits 1
if any run fails.  Standard library only; run it with

    python3 tests/cli_caps.py

Each child's peak RSS is read with ``os.wait4`` for that child alone:
``RUSAGE_CHILDREN`` is a running maximum over every child this process has
waited for, so it would charge one run's peak to the runs after it.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

TABLE_SHA256 = "39c7ecad18478fbed9fdd424b58f2d258b08d8c0e346e8da72ccdf3c9bdf30f2"

# name: (CLI arguments, the check count or value stdout must report, peak
# RSS bound in MB); ``table`` writes to the path given as {out}.
RUNS = {
    "totient": (
        ["verify", "--suite", "totient", "--max-n", "200000"],
        "4924263 checks, 0 failures",
        160,
    ),
    "ramanujan": (
        ["verify", "--suite", "ramanujan", "--max-n", "1", "--max-q", "999999"],
        "4000000 checks, 0 failures",
        64,
    ),
    "ramanujan_14001": (
        ["verify", "--suite", "ramanujan", "--max-n", "14001", "--max-q", "0"],
        "369068 checks, 0 failures",
        64,
    ),
    "ramanujan_2000": (
        ["verify", "--suite", "ramanujan", "--max-n", "2000", "--max-q", "50"],
        "2205444 checks, 0 failures",
        64,
    ),
    "poly": (["verify", "--suite", "poly", "--max-n", "5000"], "116587 checks, 0 failures", 100),
    "coeff": (["verify", "--suite", "coeff", "--max-n", "5000"], "19996 checks, 0 failures", 100),
    "recursive_180180": (["compute", "--n", "180180", "--algorithm", "recursive"], None, None),
    "recursive_199290": (["compute", "--n", "199290", "--algorithm", "recursive"], None, None),
    "newton_180180": (["compute", "--n", "180180", "--algorithm", "newton_ramanujan"], None, None),
    "newton_199290": (["compute", "--n", "199290", "--algorithm", "newton_ramanujan"], None, None),
    "ramanujan_newton": (
        ["ramanujan", "--method", "newton", "--n", "199999", "--q", "199998"],
        "c_199999(199998) = -1",
        None,
    ),
    # last: its check loads the table into this process, about 200 MB, and
    # the peak RSS of a child forked after that counts the pages it inherits
    "table": (["table", "--max-n", "5000", "--out", "{out}"], None, 40),
}

# The sha256 of the stdout of ``compute`` at these runs' indices by the
# default algorithm, which every algorithm must print byte for byte.
STDOUT_SHA256 = {
    "recursive_180180": "97033d16dd06514f63c438c296e46dda4093a3d6a049c280165a7887dfb96392",
    "recursive_199290": "1a78d4b735ec2cec947c71a884db0983100ccddadf74edbd7a2798a18ee70e72",
}
STDOUT_SHA256["newton_180180"] = STDOUT_SHA256["recursive_180180"]
STDOUT_SHA256["newton_199290"] = STDOUT_SHA256["recursive_199290"]


def run_cli(args):
    """(exit code, stdout, stderr, wall seconds, peak RSS in MB) of one run."""
    argv = [sys.executable, "-m", "cyclotomy.cli"] + args
    env = dict(os.environ, PYTHONPATH=SRC)
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall_s = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)  # already reaped
        out.seek(0)
        err.seek(0)
        text = out.read().decode(), err.read().decode()
    return (proc.returncode, *text, wall_s, usage.ru_maxrss / 1024)  # KiB on Linux


def check(name, tmp):
    """The problems of run ``name``, after printing what it did."""
    args, checks, rss_bound = RUNS[name]
    out_path = os.path.join(tmp, "table.json")
    code, stdout, stderr, wall_s, peak_mb = run_cli([a.format(out=out_path) for a in args])
    # a compute run prints a whole polynomial: its pin stands for it here
    shown = "%d bytes of stdout\n" % len(stdout) if name in STDOUT_SHA256 else stdout
    print(shown, stderr[-2000:], sep="")
    print("%s: exit %d, %.1f s wall, child peak RSS %.1f MB" % (name, code, wall_s, peak_mb))
    problems = []
    if code != 0:
        problems.append("exit %d, expected 0" % code)
    if checks is not None and checks not in stdout:
        problems.append("stdout does not report %s" % checks)
    if name == "table" and code == 0:
        with open(out_path, "rb") as fh:
            data = fh.read()
        rows = len(json.loads(data))
        if rows != 5000:
            problems.append("%d rows, expected 5000" % rows)
        digest = hashlib.sha256(data).hexdigest()
        if digest != TABLE_SHA256:
            problems.append("sha256 %s differs from the pinned bytes" % digest)
    if name in STDOUT_SHA256:
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        if digest != STDOUT_SHA256[name]:
            problems.append("stdout sha256 %s differs from the pinned bytes" % digest)
    if rss_bound is not None and peak_mb >= rss_bound:
        problems.append("child peak RSS %.1f MB, bound %d MB" % (peak_mb, rss_bound))
    return ["%s: %s" % (name, problem) for problem in problems]


def main():
    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        for name in RUNS:
            problems += check(name, tmp)
    for problem in problems:
        print("FAIL " + problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
