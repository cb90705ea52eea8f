import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cyclotomy import arith, cyclo
from cyclotomy.cli import run_cli


def test_compute_json_exact_bytes(capsys):
    assert run_cli(["compute", "--n", "12", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert out == '{"n":12,"degree":4,"coefficients":["1","0","-1","0","1"]}\n'


def test_compute_text(capsys):
    assert run_cli(["compute", "--n", "7"]) == 0
    assert capsys.readouterr().out == "Phi_7(X) = X^6 + X^5 + X^4 + X^3 + X^2 + X + 1\n"


def test_compute_algorithm_flag(capsys):
    for algorithm in ("recursive", "newton_ramanujan", "dual_form"):
        assert run_cli(["compute", "--n", "12", "--algorithm", algorithm]) == 0
    assert run_cli(["compute", "--n", "12", "--algorithm", "nope"]) == 2


def test_compute_defaults_to_radical(monkeypatch, capsys):
    used = []
    real = cyclo.cyclotomic
    monkeypatch.setattr(cyclo, "cyclotomic", lambda n, a: used.append(a) or real(n, a))
    assert run_cli(["compute", "--n", "12"]) == 0
    assert used == ["radical"]


def test_compose(capsys):
    assert run_cli(["compose", "--n", "4", "--m", "3"]) == 0
    assert capsys.readouterr().out == "Phi_4(X^3) = X^6 + 1\n"


def test_compose_noncoprime_is_usage_error(capsys):
    assert run_cli(["compose", "--n", "4", "--m", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "n and m must be coprime" in captured.err


def test_compose_bounds_the_product_index(capsys):
    # each argument is under the cap, but Phi_n(X^m) has degree phi(n)*m,
    # about 4*10**10 here; this used to run until memory ran out
    start = time.perf_counter()
    assert run_cli(["compose", "--n", "199999", "--m", "199998"]) == 2
    assert time.perf_counter() - start < 10
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--n * --m must be at most 200000, got 39999400002" in captured.err
    # one bound covers both arguments: a factor over the cap is caught by
    # the product, and the library rejects a factor below 1
    assert run_cli(["compose", "--n", "200001", "--m", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--n * --m must be at most 200000, got 200001" in captured.err
    assert run_cli(["compose", "--n", "0", "--m", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "n must be in [1, 2**63 - 1], got 0" in captured.err
    # the bound itself is accepted
    assert run_cli(["compose", "--n", "1", "--m", "200000", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["degree"] == 200000


def test_ramanujan(capsys):
    assert run_cli(["ramanujan", "--n", "12", "--q", "4"]) == 0
    assert capsys.readouterr().out == "c_12(4) = -2\n"
    assert run_cli(["ramanujan", "--n", "12", "--q", "4", "--method", "hoelder",
                    "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"n": 12, "q": 4, "method": "hoelder", "value": -2}


def test_ramanujan_rejects_negative_q(capsys):
    assert run_cli(["ramanujan", "--n", "12", "--q", "-1"]) == 2


@pytest.mark.parametrize("n", ["0", str(2**63)])
def test_ramanujan_rejects_an_index_out_of_range(capsys, n):
    # the range check is arith.ramanujan_sum's own, worded as there
    assert run_cli(["ramanujan", "--n", n, "--q", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "n must be in [1, 2**63 - 1]" in captured.err


def test_verify_passes(capsys):
    assert run_cli(["verify", "--max-n", "40", "--max-q", "10", "--suite", "all"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out


def test_verify_single_suite_json(capsys):
    assert run_cli(["verify", "--max-n", "30", "--suite", "poly",
                    "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["passed"] is True
    assert [s["suite"] for s in data["suites"]] == ["poly"]
    assert data["suites"][0]["failures"] == []


def test_bench_csv_schema(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code = run_cli(["bench", "--max-n", "10", "--algorithms",
                    "recursive,dual_form", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,algorithm,micros,degree,height"
    assert len(lines) == 1 + 10 * 2
    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == "recursive"
    assert int(first[2]) >= 0
    assert first[3] == "1" and first[4] == "1"


def test_bench_unknown_algorithm(tmp_path):
    out = tmp_path / "bench.csv"
    assert run_cli(["bench", "--max-n", "5", "--algorithms", "magic",
                    "--out", str(out)]) == 2
    assert not out.exists()


def test_bench_rejects_repeated_algorithms(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    for names in ("recursive,radical,recursive", ",".join(["recursive"] * 10000)):
        assert run_cli(["bench", "--max-n", "3", "--algorithms", names,
                        "--out", str(out)]) == 2
        assert "--algorithms names 'recursive' more than once" in capsys.readouterr().err
    assert not out.exists()


def test_table_json(tmp_path):
    out = tmp_path / "table.json"
    assert run_cli(["table", "--max-n", "6", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())
    assert len(rows) == 6
    assert rows[0] == {"n": 1, "degree": 1, "coefficients": ["-1", "1"]}
    assert rows[5] == {"n": 6, "degree": 2, "coefficients": ["1", "-1", "1"]}
    assert all(isinstance(c, str) for row in rows for c in row["coefficients"])


def test_table_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run_cli(["table", "--max-n", "40", "--out", str(a)]) == 0
    assert run_cli(["table", "--max-n", "40", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_table_bytes_equal_one_json_dump(tmp_path):
    out = tmp_path / "table.json"
    assert run_cli(["table", "--max-n", "40", "--out", str(out)]) == 0
    rows = []
    for n in range(1, 41):
        poly = cyclo.cyclotomic_poly(n)
        rows.append({"n": n, "degree": len(poly) - 1, "coefficients": [str(c) for c in poly]})
    assert out.read_bytes() == (json.dumps(rows, separators=(",", ":")) + "\n").encode()


def test_table_leaves_the_phi_cache_alone(tmp_path):
    # table reads each Phi_n once, so it neither fills nor reads the cache
    before = cyclo._cyclotomic_cached.cache_info()
    assert run_cli(["table", "--max-n", "40", "--out", str(tmp_path / "t.json")]) == 0
    assert cyclo._cyclotomic_cached.cache_info() == before


def test_bench_deterministic_except_timing(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["bench", "--max-n", "25", "--algorithms", "radical,dual_form"]
    assert run_cli(args + ["--out", str(a)]) == 0
    assert run_cli(args + ["--out", str(b)]) == 0

    def strip_micros(path):
        rows = []
        for line in path.read_text().splitlines():
            cells = line.split(",")
            rows.append(cells[:2] + cells[3:])
        return rows

    assert strip_micros(a) == strip_micros(b)


def test_verify_failure_exits_one(capsys, monkeypatch):
    from cyclotomy import verify
    from cyclotomy.verify import CheckReport, SweepResult

    failure = CheckReport(
        "fundamental_product", (("n", 3), ("m", 1)), False, "left = 1; right = 2"
    )
    import cyclotomy.cli as cli_mod

    monkeypatch.setattr(
        cli_mod.verify,
        "sweep_polynomial",
        lambda max_n: SweepResult("poly", 1, [failure]),
    )
    assert run_cli(["verify", "--max-n", "10", "--suite", "poly"]) == 1
    out = capsys.readouterr().out
    assert "some checks failed" in out
    assert "FAIL fundamental_product at n=3, m=1" in out


def test_ramanujan_newton_respects_polynomial_cap(capsys):
    assert run_cli(["ramanujan", "--n", "300000", "--q", "1",
                    "--method", "newton"]) == 2
    # the closed forms have no polynomial to build, so big n is fine
    assert run_cli(["ramanujan", "--n", "300000", "--q", "1"]) == 0


def test_ramanujan_definition_respects_polynomial_cap(capsys):
    # definition sums over all n residues; unbounded n exhausted memory
    assert run_cli(["ramanujan", "--n", "1000000007", "--q", "3",
                    "--method", "definition"]) == 2
    assert "--n must be in [1, 200000]" in capsys.readouterr().err


def test_ramanujan_newton_huge_q_is_fast(capsys):
    start = time.perf_counter()
    assert run_cli(["ramanujan", "--n", "12", "--q", "100000000",
                    "--method", "newton"]) == 0
    assert time.perf_counter() - start < 10
    expected = arith.ramanujan_sum(12, 100000000, "kluyver")
    assert capsys.readouterr().out == "c_12(100000000) = %d\n" % expected


def test_ramanujan_newton_large_n(capsys):
    # power sums up to q = 65536 of Phi_65537, in well under a minute
    assert run_cli(["ramanujan", "--n", "65537", "--q", "65536",
                    "--method", "newton"]) == 0
    expected = arith.ramanujan_sum(65537, 65536, "kluyver")
    assert capsys.readouterr().out == "c_65537(65536) = %d\n" % expected


def test_csv_format_rejected_outside_bench_table(capsys):
    # csv is not among the --format choices, so argparse rejects it
    for args in (
        ["compute", "--n", "5"],
        ["compose", "--n", "5", "--m", "2"],
        ["ramanujan", "--n", "5", "--q", "1"],
        ["verify", "--max-n", "5"],
    ):
        assert run_cli(args + ["--format", "csv"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --format: invalid choice: 'csv'" in captured.err


def test_table_and_bench_bound_max_n(tmp_path, capsys):
    # both compute every Phi_n up to --max-n, about 0.3*N**2 coefficients;
    # at 200000 that is 1.2*10**10, so the bound is on N, not only on each n
    out = tmp_path / "out"
    start = time.perf_counter()
    for max_n in ("5001", "200000"):
        for args in (
            ["table", "--max-n", max_n, "--out", str(out)],
            ["bench", "--max-n", max_n, "--algorithms", "recursive", "--out", str(out)],
        ):
            assert run_cli(args) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "--max-n must be in [1, 5000], got %s" % max_n in captured.err
    assert time.perf_counter() - start < 10
    assert not out.exists()


def test_an_out_path_that_cannot_be_opened_is_a_usage_error(tmp_path, capsys):
    # a missing directory and a directory: exit 2 with a message, not a
    # traceback and exit 1, the code of a failed identity
    for out in (tmp_path / "missing" / "out", tmp_path):
        for args in (
            ["table", "--max-n", "5", "--out", str(out)],
            ["bench", "--max-n", "5", "--algorithms", "recursive", "--out", str(out)],
        ):
            assert run_cli(args) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: cannot write --out: "), captured.err
            assert str(out) in captured.err
    assert not (tmp_path / "missing").exists()


def test_an_os_error_after_opening_out_is_not_a_usage_error(tmp_path, monkeypatch):
    def failing(n, algorithm):
        raise OSError("not from opening --out")

    monkeypatch.setattr(cyclo, "cyclotomic", failing)
    for args in (
        ["table", "--max-n", "5", "--out", str(tmp_path / "t.json")],
        ["bench", "--max-n", "5", "--algorithms", "recursive", "--out", str(tmp_path / "b.csv")],
    ):
        with pytest.raises(OSError, match="not from opening --out"):
            run_cli(args)


def test_unknown_flag_is_usage_error(capsys):
    assert run_cli(["compute", "--n", "5", "--frobnicate"]) == 2


def test_unknown_command_is_usage_error(capsys):
    assert run_cli(["explode"]) == 2


def test_n_cap_enforced(capsys):
    assert run_cli(["compute", "--n", "200001"]) == 2
    assert run_cli(["verify", "--max-n", "0"]) == 2


def test_help_exits_zero(capsys):
    assert run_cli(["--help"]) == 0


def test_main_entry_point(capsys, monkeypatch):
    import sys

    import cyclotomy.cli as cli_mod

    monkeypatch.setattr(sys, "argv", ["cyclotomy", "compute", "--n", "3"])
    with pytest.raises(SystemExit) as excinfo:
        cli_mod.main()
    assert excinfo.value.code == 0
    assert capsys.readouterr().out == "Phi_3(X) = X^2 + X + 1\n"


def test_verify_bounds_polynomial_suites(capsys):
    # poly, coeff and all build every Phi_n up to --max-n, like table
    start = time.perf_counter()
    for suite in ("poly", "coeff", "all"):
        assert run_cli(["verify", "--max-n", "200000", "--suite", suite]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--max-n of --suite %s must be in [1, 5000]" % suite in captured.err
    assert time.perf_counter() - start < 10


def test_verify_bounds_ramanujan_points(capsys):
    # sum(6 // n) * (10**9 + 1) = 14 * (10**9 + 1) points
    start = time.perf_counter()
    for suite in ("ramanujan", "all"):
        args = ["verify", "--max-n", "6", "--max-q", "1000000000", "--suite", suite]
        assert run_cli(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "would check 14000000014 (n, m, q) points" in captured.err
    assert run_cli(["verify", "--max-n", "200000", "--max-q", "0",
                    "--suite", "ramanujan"]) == 2
    assert time.perf_counter() - start < 10


def test_verify_bounds_ramanujan_cosine_terms(capsys):
    # within the point cap, but the cosine-sum oracle alone would run for
    # many minutes: sum(n * T(N // n)) is 2.1*10**9 at 20000, 4.5*10**10 at 86763
    start = time.perf_counter()
    for max_n, terms in (("20000", 2111951377), ("86763", 45264152619)):
        args = ["verify", "--max-n", max_n, "--max-q", "0", "--suite", "ramanujan"]
        assert run_cli(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "would sum up to %d cosine terms, more than 1000000000" % terms in captured.err
    assert time.perf_counter() - start < 10


def test_verify_bounds_admit_the_standard_sweeps(monkeypatch):
    from cyclotomy import cli

    # criterion 7's (500, 200) is 641,000 points and (2000, 50) 791,000
    for max_n, max_q in ((500, 200), (2000, 50), (2000, 0)):
        cli._check_verify_work(max_n, max_q, "ramanujan")
    cli._check_verify_work(200000, 50, "totient")
    cli._check_verify_work(5000, 50, "poly")
    # the benchmark's verify_sweep argument sets
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from workloads import SWEEPS

    assert len(SWEEPS) == 4
    for suite, extra, _checks in SWEEPS:
        args = cli.build_parser().parse_args(["verify", "--suite", suite, *extra])
        cli._check_verify_work(args.max_n, args.max_q, args.suite)


# sha256 of the stdout of ``compute --n N --algorithm A --format json``, by N;
# every algorithm must print exactly these bytes.  97969 = 313**2 and the
# prime 199999 divide a two-term X**d - 1 by X**k - 1 at full size.
_COMPUTE_JSON_SHA256 = {
    1: "c8cbab6bb361fc5360ef7d195c9e5424185cc6852bcd0e30f4923fc85e895c40",
    2: "a03f19d989f2724b63411eec20a20a5c89ec8a0c7e536bb091cd8431352ca88c",
    105: "5efb8f451e1f2632b54bd631fdd642d11d9ffa42af1ec9a1bc4af33eaeb085e6",
    2310: "034e85142a8882fb04f69a82e654ed03d5ea309f49d7497e5b02d15040fd5ae4",
    15015: "7ddffafdffb6f5b9c8c33d1e98698c6e2109be56fbfebc1a23b7217e04276ad8",
    21504: "01f798880a98159a5832c585d1a140ee599426534c0d309d3e2cc55011bd4624",
    # 2**3 * 3**3 * 5**3: recursive and radical divide palindromic operands
    # through the power series here
    27000: "53bf23570936e765376659b0a40a11348316b812c24994fcc4f97c2ee225b32a",
    65535: "31d86bd76ea55acb779c677091f6e7f2acd1cd8d892c35e4b5b8e0792981fc59",
    97969: "b7cbc4df16e1a30438fc9830872c7070583a500a12ee97f19e39b2abfc1d905c",
    199999: "c91ccf8d674a357b41ef281eb574be9583eecdac2bdd130c2215e2fde455023f",
}
_OTHER_JSON_SHA256 = {
    "verify --suite poly --max-n 300 --format json":
        "7dcf9fcd9d15263e914fe132adb7ae350a1faa1da5952c6cd308eee21d15cb12",
    "compose --n 15 --m 4096 --format json":
        "e26bf75c997bc92446b4ae7d2c7c3d3b67aa66a9d4613a384ca81f4aea320860",
    # the four verify sweeps of perfbench/workloads.py, whole
    "verify --suite coeff --max-n 2000 --format json":
        "600a02eb8abd5263503454c096410395b2c71a869a4e409d8bd1cbf9b75b9d7f",
    "verify --suite poly --max-n 500 --format json":
        "29837b8aee7a174bd24194e7321fc73209509cfc8d6817734ffa6bd404386b30",
    "verify --suite ramanujan --max-n 110 --max-q 40 --format json":
        "c11ab7010000f5eb0e4f9909b7685dbb1832d5461e80526c5d6b517e5dce7a15",
    "verify --suite totient --max-n 13000 --format json":
        "f447a610c63b95e9d44a58b83612ace86470b33107d88bdb40d8302fa4d4e2df",
    # text output, which is not JSON but is pinned the same way
    "verify --suite all --max-n 60 --max-q 10 --format text":
        "90116a1c002d7088fe704ba9b3ede5f2bc80f5683b233ee9573778a4497ead59",
    "ramanujan --n 360 --q 7 --method kluyver --format json":
        "1d9fec13b7ffec9b096c65488b3c7002d7e4fa8113757834b7bfa64ee4aea6e9",
    "ramanujan --n 360 --q 7 --method hoelder --format json":
        "fbc2676d9bc55c4aac0691407f8a6697f6f5aad3a4dcac5c5bf954c2b0d1c2ec",
    "ramanujan --n 360 --q 7 --method newton --format json":
        "b1c85193d5f02b618747001eaddedf630d08621a952987c182322039b478644c",
    "ramanujan --n 360 --q 7 --method definition --format json":
        "8ca6b872dc6d2f25d74ec97e994f71a690997ef207516acac46d073f1fe6d485",
    "ramanujan --n 360 --q 7 --method kluyver --format text":
        "9f8b7f5d4f99b393ee60f03b67eaba2e5d4e768141caaa25b540619abdab6a91",
    "ramanujan --n 360 --q 7 --method hoelder --format text":
        "9f8b7f5d4f99b393ee60f03b67eaba2e5d4e768141caaa25b540619abdab6a91",
    "ramanujan --n 360 --q 7 --method newton --format text":
        "9f8b7f5d4f99b393ee60f03b67eaba2e5d4e768141caaa25b540619abdab6a91",
    "ramanujan --n 360 --q 7 --method definition --format text":
        "9f8b7f5d4f99b393ee60f03b67eaba2e5d4e768141caaa25b540619abdab6a91",
    "compute --n 105 --format text":
        "4acc1a2625e4df67098027edb64d33368c038848e541e8b0ba0273cad85cd29e",
    "compose --n 15 --m 4 --format text":
        "e0c79167dc493f9893ee407ccf01fda3fe9c62183e32903d2cf5986dba8541d7",
}


def test_json_output_bytes_are_pinned(capsys):
    def digest(argv):
        assert run_cli(argv) == 0
        return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()

    for n, want in _COMPUTE_JSON_SHA256.items():
        for algorithm in cyclo.ALGORITHMS:
            # newton_ramanujan alone takes seconds at the two largest indices
            if algorithm == "newton_ramanujan" and n > 65535:
                continue
            argv = ["compute", "--n", str(n), "--algorithm", algorithm, "--format", "json"]
            assert digest(argv) == want, argv
    for command, want in _OTHER_JSON_SHA256.items():
        assert digest(command.split()) == want, command


def test_a_closed_pipe_ends_the_process_by_sigpipe():
    # ``cyclotomy compute --n 180180 | head -c 100``: the reader closes the
    # pipe long before the output is all written.  The process ends as a
    # Unix filter does, not with a traceback and exit 1, the code of a
    # failed check.  The JSON form, 142 kB, cannot fit a 64 KiB pipe buffer
    # whole, as the 62 kB text form could before the pipe is closed.
    src = Path(__file__).resolve().parents[1] / "src"
    argv = [sys.executable, "-m", "cyclotomy.cli", "compute", "--n", "180180", "--format", "json"]
    env = dict(os.environ, PYTHONPATH=str(src))
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.read(100).startswith(b'{"n":180180,')
        proc.stdout.close()
        _, stderr = proc.communicate(timeout=60)
    assert proc.returncode == -signal.SIGPIPE
    assert b"Traceback" not in stderr
