"""Command-line interface.

Exit codes: 0 on success, 1 when a verification check fails, 2 on usage
errors, an ``--out`` path that cannot be opened among them.  Data goes to
stdout (or the ``--out`` file); diagnostics go to stderr.  JSON and CSV
output is byte-identical across runs for identical inputs, except for the
timing column of ``bench``, the only CSV writer.
``table`` and ``bench`` compute every Phi_n up to ``--max-n``, so they take
it only up to MAX_TABLE_N.
``json`` and ``signal`` are imported inside ``_dump`` and ``main``, their
only users, so importing this module and building the parser, which every
command pays for first, loads neither.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import arith, cyclo, intpoly, verify

#: Largest index the polynomial-producing commands accept, the largest
#: ``--n`` for ``ramanujan --method newton|definition``, and the largest
#: product ``n*m`` for ``compose`` (Phi_n(X^m) is the product of Phi_{d*n}
#: over d | m, so its indices run up to n*m).  The dense representation and
#: desk-scale algorithms degrade beyond this.
MAX_CLI_N = 200_000

_SUITES = ("poly", "totient", "ramanujan", "coeff", "all")


#: Largest ``--max-n`` for ``table`` and ``bench``, which compute every Phi_n
#: with n <= --max-n: about 0.3*N**2 coefficients in all (7.6 million at
#: 5000, 1.2*10**10 at MAX_CLI_N).  The ``poly`` and ``coeff`` suites of
#: ``verify`` (and so ``all``) build the same Phi_n and take the same cap.
MAX_TABLE_N = 5_000

#: Most (n, m, q) points the ``ramanujan`` suite of ``verify`` may check, one
#: per pair n*m <= N = --max-n and q <= --max-q, and most cosine terms of its
#: ``definition`` oracle, counted as phi(n*m) <= n*m per point: that is
#: sum(N // n for n <= N) * (max_q + 1) points and at most
#: sum(n * T(N // n) for n <= N) * (max_q + 1) terms, T(k) = k*(k + 1)/2.
#: The oracle evaluates phi(n*m / gcd(n*m, q)) distinct cosines per point,
#: but the terms bound counts the phi(n*m) terms they stand for.  The largest
#: accepted sweeps take a few seconds: (2000, 50) 7.3 to 9.0 s, (1, 999999)
#: 3.3 to 4.4 s and (14001, 0) 0.39 to 0.44 s (five fresh processes each;
#: Python 3.11.7, a shared 2-vCPU VM).
MAX_RAMANUJAN_POINTS = 1_000_000
MAX_RAMANUJAN_TERMS = 10**9


def _check_cli_n(value: int, name: str, cap: int = MAX_CLI_N) -> None:
    if not 1 <= value <= cap:
        raise ValueError("%s must be in [1, %d], got %d" % (name, cap, value))


def _dump(obj) -> str:
    import json

    return json.dumps(obj, separators=(",", ":"))


def _poly_record(poly, **head) -> str:
    """The JSON text of ``head``'s fields, then the degree and coefficients of ``poly``."""
    return _dump({**head, "degree": len(poly) - 1, "coefficients": [str(c) for c in poly]})


def _cmd_compute(args) -> int:
    _check_cli_n(args.n, "--n")
    result = cyclo.cyclotomic(args.n, args.algorithm)
    if args.format == "json":
        print(_poly_record(result.poly, n=result.n))
    else:
        print("Phi_%d(X) = %s" % (result.n, intpoly.poly_str(result.poly)))
    return 0


def _cmd_compose(args) -> int:
    if args.n * args.m > MAX_CLI_N:
        raise ValueError(
            "--n * --m must be at most %d, got %d" % (MAX_CLI_N, args.n * args.m)
        )
    poly = cyclo.cyclotomic_of_power(args.n, args.m)
    if args.format == "json":
        print(_poly_record(poly, n=args.n, m=args.m))
    else:
        print("Phi_%d(X^%d) = %s" % (args.n, args.m, intpoly.poly_str(poly)))
    return 0


def _cmd_ramanujan(args) -> int:
    if args.method in ("newton", "definition"):
        # newton builds Phi_n and definition sieves n / gcd(n, q) residues
        _check_cli_n(args.n, "--n")
    value = arith.ramanujan_sum(args.n, args.q, args.method)
    if args.format == "json":
        print(
            _dump({"n": args.n, "q": args.q, "method": args.method, "value": value})
        )
    else:
        print("c_%d(%d) = %d" % (args.n, args.q, value))
    return 0


def _run_suites(max_n: int, max_q: int, suite: str) -> list:
    results = []
    if suite in ("poly", "all"):
        results.append(verify.sweep_polynomial(max_n))
    if suite in ("totient", "all"):
        results.append(verify.sweep_totient(max_n))
    if suite in ("ramanujan", "all"):
        results.append(verify.sweep_ramanujan(max_n, max_q))
    if suite in ("coeff", "all"):
        results.append(verify.sweep_coefficients(max_n))
    return results


def _check_verify_work(max_n: int, max_q: int, suite: str) -> None:
    """Reject, before any work, a sweep whose work exceeds the caps above."""
    if suite in ("poly", "coeff", "all"):
        _check_cli_n(max_n, "--max-n of --suite %s" % suite, MAX_TABLE_N)
    else:
        _check_cli_n(max_n, "--max-n")
    if max_q < 0:
        raise ValueError("--max-q must be >= 0")
    if suite in ("ramanujan", "all"):
        quotients = [max_n // n for n in range(1, max_n + 1)]
        points = sum(quotients) * (max_q + 1)
        terms = sum(n * k * (k + 1) // 2 for n, k in enumerate(quotients, 1)) * (max_q + 1)
        for work, count, cap in (
            ("check %d (n, m, q) points", points, MAX_RAMANUJAN_POINTS),
            ("sum up to %d cosine terms", terms, MAX_RAMANUJAN_TERMS),
        ):
            if count > cap:
                raise ValueError(
                    "--suite %s would %s, more than %d; lower --max-n or --max-q"
                    % (suite, work % count, cap)
                )


def _cmd_verify(args) -> int:
    _check_verify_work(args.max_n, args.max_q, args.suite)
    results = _run_suites(args.max_n, args.max_q, args.suite)
    all_passed = all(r.passed for r in results)
    if args.format == "json":
        print(
            _dump(
                {
                    "max_n": args.max_n,
                    "max_q": args.max_q,
                    "suites": [
                        {
                            "suite": r.suite,
                            "checks": r.checks,
                            "failures": [
                                {
                                    "identity": f.identity_name,
                                    "params": {k: v for k, v in f.params},
                                    "witness": f.witness,
                                }
                                for f in r.failures
                            ],
                        }
                        for r in results
                    ],
                    "passed": all_passed,
                }
            )
        )
    else:
        for r in results:
            print(
                "suite %-9s %d checks, %d failures" % (r.suite, r.checks, len(r.failures))
            )
            for f in r.failures:
                point = ", ".join("%s=%d" % (k, v) for k, v in f.params)
                print("  FAIL %s at %s: %s" % (f.identity_name, point, f.witness))
        print("all checks passed" if all_passed else "some checks failed")
    return 0 if all_passed else 1


def _open_out(path: str):
    """``path`` opened for writing text; a path that cannot be opened (a
    missing directory, a directory) is a usage error, raised before any work."""
    try:
        return open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise ValueError("cannot write --out: %s" % exc) from exc


def _cmd_bench(args) -> int:
    _check_cli_n(args.max_n, "--max-n", MAX_TABLE_N)
    algorithms = [a.strip() for a in args.algorithms.split(",") if a.strip()]
    if not algorithms:
        raise ValueError("--algorithms must name at least one algorithm")
    for i, a in enumerate(algorithms):
        if a not in cyclo.ALGORITHMS:
            raise ValueError(
                "unknown algorithm %r; expected one of %s" % (a, ", ".join(cyclo.ALGORITHMS))
            )
        if a in algorithms[:i]:
            raise ValueError("--algorithms names %r more than once" % a)
    # One row at a time, as in table, so memory stays bounded by one Phi_n.
    with _open_out(args.out) as fh:
        fh.write("n,algorithm,micros,degree,height\n")
        for n in range(1, args.max_n + 1):
            for a in algorithms:
                start = time.perf_counter_ns()
                result = cyclo.cyclotomic(n, a)
                micros = (time.perf_counter_ns() - start) // 1000
                fh.write(
                    "%d,%s,%d,%d,%s\n"
                    % (n, a, micros, len(result.poly) - 1, intpoly.poly_height(result.poly))
                )
    print("wrote %d rows to %s" % (args.max_n * len(algorithms), args.out), file=sys.stderr)
    return 0


def _cmd_table(args) -> int:
    _check_cli_n(args.max_n, "--max-n", MAX_TABLE_N)
    # One row at a time, so memory stays bounded by the largest row; the
    # bytes equal _dump(rows) + "\n" of the whole list.
    with _open_out(args.out) as fh:
        fh.write("[")
        for n in range(1, args.max_n + 1):
            if n > 1:
                fh.write(",")
            # Each Phi_n is read once here, so it is computed by radical, as
            # cyclotomic_poly computes it, and none goes into the Phi cache,
            # which serves the products the identity reads many times.
            fh.write(_poly_record(cyclo.cyclotomic(n, "radical").poly, n=n))
        fh.write("]\n")
    print("wrote %d rows to %s" % (args.max_n, args.out), file=sys.stderr)
    return 0


_TABLE_N_HELP = "every n from 1 to this, at most %d" % MAX_TABLE_N


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclotomy",
        description="Exact cyclotomic polynomials, Ramanujan sums, and identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="print Phi_n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--algorithm",
        choices=cyclo.ALGORITHMS,
        default="radical",
        help="default radical; every algorithm prints the same Phi_n",
    )
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser(
        "compose",
        help="print Phi_n(X^m) via the coprime product identity",
        description="Print Phi_n(X^m) as the product of Phi_{d*n} over the divisors "
        "d of m.  n and m must be coprime, and n*m <= %d." % MAX_CLI_N,
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_compose)

    p = sub.add_parser(
        "ramanujan",
        help="print the Ramanujan sum c_n(q)",
        description="Print the Ramanujan sum c_n(q).  The closed forms accept any "
        "n up to 2**63 - 1.  The newton method builds Phi_n and takes its "
        "power sums from one power-series inverse and one multiply, O(M(n)) "
        "for M(n) the cost of one n-term multiply (about 0.2 s at n = 199999, "
        "q = 199998); definition evaluates phi(n / gcd(n, q)) cosines (about "
        "20 ms at n = 199999, q = 1).  Both take n <= %d."
        % MAX_CLI_N,
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--method", choices=arith.RAMANUJAN_METHODS, default="kluyver")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_ramanujan)

    p = sub.add_parser(
        "verify",
        help="run identity sweeps; exit 1 on any failure",
        description="Run the identity sweeps over every pair n*m <= --max-n (and "
        "q <= --max-q for the ramanujan suite); exit 1 on any failure.  --max-n "
        "is at most %d for the poly and coeff suites and for all, which build "
        "every Phi_n up to it, and at most %d otherwise.  The ramanujan suite, "
        "and all, check sum(N // n for n <= N) * (max_q + 1) points for N = "
        "--max-n, at most %d, and sum at most (max_q + 1) * sum(n * T(N // n) for "
        "n <= N) cosine terms, T(k) = k*(k + 1)/2, at most %d.  Larger sweeps "
        "exit 2 before any work."
        % (MAX_TABLE_N, MAX_CLI_N, MAX_RAMANUJAN_POINTS, MAX_RAMANUJAN_TERMS),
    )
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--max-q", type=int, default=50)
    p.add_argument("--suite", choices=_SUITES, default="all")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bench", help="time algorithms per n and write a CSV")
    p.add_argument("--max-n", type=int, required=True, help=_TABLE_N_HELP)
    p.add_argument("--algorithms", required=True, help="comma-separated names, none repeated")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("table", help="emit all Phi_n coefficient rows as JSON")
    p.add_argument("--max-n", type=int, required=True, help=_TABLE_N_HELP)
    p.add_argument("--out", required=True, help="output JSON path")
    p.set_defaults(func=_cmd_table)

    return parser


def run_cli(argv: list) -> int:
    """Parse ``argv`` and run the selected command, returning the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def main() -> None:
    # A reader that closes the pipe early (``| head``) ends the process by
    # SIGPIPE, as it does any Unix filter, rather than with a traceback and
    # exit 1, the code of a failed check.  Python ignores SIGPIPE by default.
    import signal

    signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
