"""End-to-end tests for the command line interface."""

import json
import multiprocessing
import os
import pathlib
import re
import shutil
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import dedsum.cli
import dedsum.congruence
import dedsum.scans
from dedsum.cli import main
from dedsum.report import parse_csv, parse_json
from dedsum.scans import LIFT_WALK_LIMIT, THEOREM1_ROW_LIMIT


def test_sum_output(capsys):
    assert main(["sum", "1", "9"]) == 0
    out = capsys.readouterr().out
    assert out == "S = 56/9\ns = 14/27\nbS = 56\n"


def test_sum_integer_and_negative_values(capsys):
    assert main(["sum", "4", "9"]) == 0
    out = capsys.readouterr().out
    assert out == "S = -16/9\ns = -4/27\nbS = -16\n"


def test_sum_methods_agree(capsys):
    assert main(["sum", "6", "25", "--method", "naive"]) == 0
    naive_out = capsys.readouterr().out
    assert main(["sum", "6", "25", "--method", "both"]) == 0
    captured = capsys.readouterr()
    assert captured.out == naive_out
    assert "naive:" in captured.err and "fast:" in captured.err


def test_sum_both_fails_when_the_evaluators_disagree(monkeypatch, capsys):
    real = dedsum.cli.dedekind_fast
    monkeypatch.setattr(dedsum.cli, "dedekind_fast", lambda a, b: real(a, b) + 1)
    assert main(["sum", "6", "25", "--method", "both"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "evaluators disagree at a=6, b=25: -48/25 vs -23/25" in captured.err


def test_compare_evaluators_returns_the_value_and_both_times(capsys):
    assert main(["sum", "6", "25", "--method", "both"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("S = -48/25\n")
    times = re.fullmatch(r"naive: (\d+\.\d{6}) s\nfast:  (\d+\.\d{6}) s\n", captured.err)
    assert times and float(times[1]) > 0 and float(times[2]) > 0


def test_compare_evaluators_refuses_a_disagreement(monkeypatch, capsys):
    # The fast evaluator is off by one only at b = 25.
    real = dedsum.cli.dedekind_fast
    monkeypatch.setattr(dedsum.cli, "dedekind_fast", lambda a, b: real(a, b) + (b == 25))
    assert main(["sum", "6", "19", "--method", "both"]) == 0
    capsys.readouterr()
    assert main(["sum", "6", "25", "--method", "both"]) == 3
    assert "evaluators disagree at a=6, b=25: -48/25 vs -23/25" in capsys.readouterr().err


def test_cf_output(capsys):
    assert main(["cf", "2", "5"]) == 0
    assert capsys.readouterr().out == "[0;2,1,1] T=2\n"


def test_mu_output(capsys):
    assert main(["mu", "2", "5"]) == 0
    assert capsys.readouterr().out == "4\n"


def test_jacobi_output(capsys):
    assert main(["jacobi", "2", "5"]) == 0
    assert capsys.readouterr().out == "-1\n"


def test_a_family_identity_that_fails_exits_3(monkeypatch, capsys):
    # b S(1, 9) off by one: the closed form of the family no longer holds.
    real = dedsum.congruence.b_times_s
    monkeypatch.setattr(dedsum.congruence, "b_times_s", lambda a, b: real(a, b) + (a == 1))
    assert main(["examples", "--cmax", "1", "--dmax", "3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: ArithmeticError: family identity failed for c=1, d=3: b(S(1,b)-S(a,b))=73, expected 72"
    ]


def test_validation_errors_exit_2(capsys):
    assert main(["sum", "2", "4"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["jacobi", "1", "6"]) == 2
    assert main(["examples", "--cmax", "2"]) == 2
    assert main(["examples", "--dmax", "4"]) == 2
    assert main(["examples", "--dmax", "1"]) == 2
    assert main(["check", "--bmax", "0"]) == 2


def test_unknown_command_exits_2(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_check_clean_run_exits_0(capsys):
    assert main(["check", "--suite", "theorem1", "--bmax", "30"]) == 0
    captured = capsys.readouterr()
    reports = parse_json(captured.out)
    assert len(reports) == 1
    assert reports[0].kind == "theorem1"
    assert reports[0].violations_total == 0
    assert "[PASS]" in captured.err


def test_check_counterexample_exits_1(capsys):
    code = main(
        ["check", "--suite", "theorem1", "--bmax", "9", "--include-9div"]
    )
    assert code == 1
    captured = capsys.readouterr()
    report = parse_json(captured.out)[0]
    rows = [(r["b"], r["a1"], r["a2"]) for r in report.violations]
    assert (9, 1, 4) in rows
    assert report.violations[0]["in24Z"] is False
    assert "[FAIL]" in captured.err


def test_check_writes_report_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(
        ["check", "--suite", "theorem2", "--bmax", "15", "--out", str(out)]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert parse_json(out.read_text())[0].kind == "theorem2"


@pytest.mark.parametrize(
    "argv",
    [
        ["--out", "{tmp}/missing/report.json"],
        ["--suite", "identities", "--bmax", "2000000", "--out", "{tmp}/report.json"],
        ["--suite", "all", "--bmax", "2000000", "--jobs", "2"],
        ["--suite", "theorem1", "--bmax", str(THEOREM1_ROW_LIMIT + 1), "--out", "{tmp}/r.json"],
        ["--suite", "all", "--bmax", str(THEOREM1_ROW_LIMIT + 1)],
        ["--suite", "theorem2", "--bmax", str(LIFT_WALK_LIMIT + 1), "--out", "{tmp}/r.json"],
        ["--out", "{tmp}"],
    ],
)
def test_check_refuses_bad_input_before_scanning(argv, tmp_path, capsys, no_scan_may_start):
    start = time.perf_counter()
    code = main(["check", *(arg.format(tmp=tmp_path) for arg in argv)])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert os.listdir(tmp_path) == []


def test_failed_report_write_leaves_old_file_and_no_temp(tmp_path, monkeypatch, capsys):
    out = tmp_path / "report.json"
    out.write_text("old")

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    assert main(["check", "--suite", "theorem2", "--bmax", "5", "--out", str(out)]) == 3
    assert capsys.readouterr().err == "error: OSError: disk full\n"
    assert out.read_text() == "old"
    assert os.listdir(tmp_path) == ["report.json"]


def test_theorem2_is_not_held_to_the_theorem1_bound(no_scan_may_start, capsys):
    # Validation passes, so the scan starts and the fixture stops it.
    assert main(["check", "--suite", "theorem2", "--bmax", str(THEOREM1_ROW_LIMIT + 1)]) == 3
    assert capsys.readouterr().err == "error: AssertionError: a scan started\n"


@pytest.mark.parametrize(
    "exc, code",
    [
        (OSError("disk full"), 3),
        (ArithmeticError("non-integral"), 3),
        (RuntimeError("a worker process exited with code -9 and sent no result"), 3),
        (KeyboardInterrupt(), 130),
        (TypeError("not a row value"), 3),
    ],
)
def test_runtime_failures_have_their_own_exit_codes(exc, code, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(dedsum.cli, "run_suite", fail)
    assert main(["check", "--bmax", "5"]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize(
    "fmt, columns, error",
    [
        ("json", [[5], [1], [0.5], [3], [2], [0]], "TypeError: Object of type float is not JSON serializable"),
        ("csv", [[5], [1], [0.5], [3], [2], [0]], "TypeError: Object of type float is not JSON serializable"),
        ("json", [[5], [1], [2], [3], [2]], "RuntimeError: columns of lengths [1, 1, 1, 1, 1] for "),
    ],
    ids=["float-json", "float-csv", "five-columns"],
)
def test_a_check_at_fault_exits_3_and_writes_nothing(fmt, columns, error, tmp_path, monkeypatch, capsys):
    # A bs-mod3-9 check that hands _add a row value that no writer takes,
    # or one column too few: a fault of the program, neither a violation
    # (exit 1) nor a usage error (exit 2). It counts every residue of the
    # batch, so its report covers its range.
    _, counters, limit = dedsum.scans._CHECKS["bs-mod3-9"]
    check = (lambda batch: (len(batch.a), columns, None), counters, limit)
    monkeypatch.setitem(dedsum.scans._CHECKS, "bs-mod3-9", check)
    out = tmp_path / f"report.{fmt}"
    argv = ["check", "--suite", "identities", "--bmax", "5", "--format", fmt, "--out", str(out)]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"error: {error}")
    assert os.listdir(tmp_path) == []


def test_an_inverse_that_fails_its_self_check_exits_3(monkeypatch, capsys):
    # With phi(b) + 1 the power is a^phi(b) == 1, not a^-1: an arithmetic
    # check inside the scan fails, which is no usage or validation error.
    real = dedsum.scans._inverse_pairs
    monkeypatch.setattr(dedsum.scans, "_inverse_pairs", lambda a, b, phi: real(a, b, phi + 1))
    assert main(["check", "--suite", "theorem2", "--bmax", "12"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: ArithmeticError: the inverse kernel needs coprime pairs and their phi(b)"
    ]


def test_a_non_unit_residue_in_the_row_kernel_exits_3_and_writes_nothing(tmp_path, monkeypatch, capsys):
    # Rows that hold every residue hand the row kernel pairs that are not
    # coprime: an arithmetic check inside the scan fails, which is no
    # usage or validation error, and no report is written.
    monkeypatch.setattr(dedsum.scans, "coprime_residues", lambda b: np.arange(1, b))
    out = tmp_path / "report.json"
    assert main(["check", "--suite", "identities", "--bmax", "12", "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: ArithmeticError: the row kernel needs coprime pairs 0 < a < b"
    ]
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_memory_that_runs_out_exits_3_and_writes_nothing(jobs, tmp_path, monkeypatch, capsys):
    # Every --jobs value sieves the row sizes of the whole range first,
    # and a huge --bmax runs out of memory there.
    def sieve(b_max):
        raise MemoryError(f"Unable to allocate the row sizes of {b_max}")

    monkeypatch.setattr(dedsum.scans, "_row_sizes", sieve)
    out = tmp_path / "report.json"
    argv = ["check", "--suite", "theorem2", "--bmax", "60", "--jobs", jobs, "--out", str(out)]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: MemoryError: Unable to allocate the row sizes of 60"
    ]
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("holder", ["caller", "worker"])
def test_a_row_that_fails_in_a_parallel_suite_exits_3_and_writes_nothing(
    holder, tmp_path, monkeypatch, capsys
):
    # Every process starts on a piece of its own, so the planted error
    # fires in the first batch that the holder runs.
    caller = os.getpid()
    real = dedsum.scans.bs_values

    def planted(a, b):
        if (os.getpid() == caller) == (holder == "caller"):
            raise ArithmeticError(f"planted in process {os.getpid()}")
        return real(a, b)

    monkeypatch.setattr(dedsum.scans, "bs_values", planted)
    out = tmp_path / "report.json"
    argv = ["check", "--suite", "all", "--bmax", "60", "--jobs", "2", "--out", str(out)]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    prefix = "error: ArithmeticError: planted in process "
    assert captured.err.startswith(prefix)
    assert (int(captured.err[len(prefix):]) == caller) == (holder == "caller")
    assert os.listdir(tmp_path) == []
    assert multiprocessing.active_children() == []


def test_a_worker_that_dies_exits_3_and_writes_nothing(tmp_path, monkeypatch, capsys):
    # The worker exits at its first batch and sends no result: the caller
    # names its exit code, not the end of the pipe.
    caller = os.getpid()
    real = dedsum.scans.bs_values

    def planted(a, b):
        if os.getpid() != caller:
            os._exit(7)
        return real(a, b)

    monkeypatch.setattr(dedsum.scans, "bs_values", planted)
    out = tmp_path / "report.json"
    argv = ["check", "--suite", "all", "--bmax", "60", "--jobs", "2", "--out", str(out)]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: RuntimeError: a worker process exited with code 7 and sent no result"
    ]
    assert os.listdir(tmp_path) == []
    assert multiprocessing.active_children() == []


class _Hung(BaseException):
    """Raised by the test's alarm; no handler of main catches it."""


def test_a_caller_that_fails_leaves_no_worker_on_a_full_pipe(tmp_path, monkeypatch, capsys):
    # At bmax 400 the worker's share keeps 6,124 theorem1 rows, about
    # 210 KB pickled: more than a pipe buffer holds, so the worker waits
    # on its pipe once its share is done. The caller fails at its first
    # batch, after a pause that lets the worker get there; unless the
    # worker is killed, the call never returns, and the alarm fails the
    # test.
    caller = os.getpid()
    real = dedsum.scans.bs_values

    def planted(a, b):
        if os.getpid() == caller:
            time.sleep(0.5)
            raise ArithmeticError("planted in the caller")
        return real(a, b)

    def hung(signum, frame):
        raise _Hung("check did not return within 30 s")

    monkeypatch.setattr(dedsum.scans, "bs_values", planted)
    out = tmp_path / "report.json"
    argv = [
        "check", "--suite", "theorem1", "--include-9div", "--cap", "1000000",
        "--bmax", "400", "--jobs", "2", "--out", str(out),
    ]
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(30)
    try:
        code = main(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 3
    assert capsys.readouterr().err.splitlines() == ["error: ArithmeticError: planted in the caller"]
    assert os.listdir(tmp_path) == []
    assert multiprocessing.active_children() == []


def _skipping_claims(pieces, first, claims):
    # scans._claimed with claims that step by 2: pieces 3, 5, 7, ... are
    # never claimed, so no process runs them.
    index = first
    while index < len(pieces):
        yield pieces[index]
        with claims.get_lock():
            index = claims.value
            claims.value += 2


@pytest.mark.parametrize("fault", ["skipped-claims", "dropped-part"])
def test_a_report_that_misses_part_of_its_range_exits_3(fault, tmp_path, monkeypatch, capsys):
    # Every row that is checked passes, so only the tuple count shows the
    # pieces that were never run, or the worker's part that _merge lost.
    if fault == "skipped-claims":
        monkeypatch.setattr(dedsum.scans, "_claimed", _skipping_claims)
    else:
        real = dedsum.scans._merge
        monkeypatch.setattr(dedsum.scans, "_merge", lambda parts: real(parts[:-1]))
    out = tmp_path / "report.json"
    argv = ["check", "--suite", "theorem2", "--bmax", "300", "--jobs", "2", "--out", str(out)]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    match = re.fullmatch(r"error: RuntimeError: theorem2 checked (\d+) tuples, but b <= 300 holds 82191", line)
    assert match and int(match[1]) < 82_191
    if fault == "skipped-claims":
        assert int(match[1]) == 50_013
    assert os.listdir(tmp_path) == []


def test_a_parallel_suite_matches_the_golden_report(capsys):
    argv = ["check", "--suite", "all", "--bmax", "60", "--include-9div", "--jobs", "2"]
    assert main(argv) == 1
    out = re.sub(r'^\s*"elapsed_seconds": .*\n', "", capsys.readouterr().out, flags=re.M)
    golden = pathlib.Path(__file__).parent / "golden" / "check_all_bmax60.json"
    assert out == golden.read_text(encoding="utf-8")


def test_check_csv_and_json_agree(capsys):
    args = ["check", "--suite", "theorem1", "--bmax", "9", "--include-9div"]
    assert main([*args, "--format", "csv"]) == 1
    from_csv = parse_csv(capsys.readouterr().out)
    assert main([*args, "--format", "json"]) == 1
    from_json = parse_json(capsys.readouterr().out)
    for a, b in zip(from_csv, from_json):
        a.elapsed = b.elapsed = 0.0
    assert from_csv == from_json


def test_check_suite_all_emits_every_report(capsys):
    assert main(["check", "--suite", "all", "--bmax", "12"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [d["kind"] for d in doc] == [
        "theorem1",
        "theorem2",
        "oracle-equivalence",
        "reciprocity",
        "bhk",
        "bt-mod8",
        "bs-mod3-9",
        "mu-mod8",
    ]


def test_check_jobs_flag_does_not_change_output(capsys):
    assert main(["check", "--suite", "theorem1", "--bmax", "25"]) == 0
    single = parse_json(capsys.readouterr().out)
    assert main(["check", "--suite", "theorem1", "--bmax", "25", "--jobs", "2"]) == 0
    multi = parse_json(capsys.readouterr().out)
    for a, b in zip(single, multi):
        a.elapsed = b.elapsed = 0.0
    assert single == multi


def test_examples_table(capsys):
    assert main(["examples", "--cmax", "1", "--dmax", "5", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "c,d,b,a,diff,div8,div24" in lines
    assert "1,3,9,4,8,true,false" in lines
    assert "1,5,25,6,24,true,true" in lines


def test_examples_json_roundtrip(capsys):
    assert main(["examples", "--cmax", "3", "--dmax", "9"]) == 0
    report = parse_json(capsys.readouterr().out)[0]
    assert report.kind == "examples"
    assert len(report.rows) == 2 * 4
    assert all(row["div8"] for row in report.rows)


def test_the_bench_subcommand_is_gone(capsys):
    assert main(["bench"]) == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err


def test_the_docstring_lists_exactly_the_subcommands():
    doc = dedsum.cli.__doc__
    listed = doc[doc.index("Subcommands:\n") :].split("\n\n")[0].splitlines()[1:]
    assert [line.split()[0] for line in listed] == list(dedsum.cli._COMMANDS)


def test_the_entry_point_runs_without_an_install():
    root = pathlib.Path(__file__).parent.parent
    pyproject = (root / "pyproject.toml").read_text(encoding="utf-8")
    assert '[project.scripts]\ndedsum = "dedsum.cli:entry"\n' in pyproject
    script = "import sys; from dedsum.cli import entry; sys.argv = ['dedsum', 'sum', '1', '3']; entry()"
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "S = 2/3"


def test_console_script_is_installed():
    exe = shutil.which("dedsum")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run(
        [exe, "sum", "1", "3"], capture_output=True, text=True, check=False
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "S = 2/3"
