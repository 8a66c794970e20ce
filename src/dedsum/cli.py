"""Command line interface.

Subcommands:
  sum       evaluate S(a, b), s(a, b), and b S(a, b)
  cf        normalized continued fraction and alternating sum T(a, b)
  mu        the correction term mu(a, b)
  jacobi    the Jacobi symbol (a | b)
  check     run exhaustive verification scans, emit a report
  examples  generate the two-parameter family of sum differences

Exit codes: 0 success (and all checks clean), 1 check violations found,
2 usage or validation error, 3 any other failure (an I/O error, an
arithmetic check that failed, a broken worker pool, memory that ran
out, or a fault of the program itself), 130 interrupted.
Validation covers the --out directory and the scan bounds, and is done
before any scan starts.
"""

import argparse
import os
import sys
import time

from dedsum.arith import jacobi
from dedsum.congruence import family_example, mu
from dedsum.contfrac import cf_expand, t_value
from dedsum.dedekind import dedekind_fast, dedekind_naive
from dedsum.report import COLUMNS, Report, TableReport, render
from dedsum.scans import SUITES, run_suite


def _add_pair(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("a", type=int, help="upper argument")
    parser.add_argument("b", type=int, help="lower argument")


def _add_output(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=("csv", "json"), default="json", help="report format"
    )
    parser.add_argument("--out", metavar="PATH", help="write the report to a file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dedsum",
        description="Exact Dedekind sums and exhaustive congruence checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sum", help="evaluate a normalized Dedekind sum")
    _add_pair(p)
    p.add_argument(
        "--method",
        choices=("fast", "naive", "both"),
        default="fast",
        help="evaluator to use; 'both' cross-checks and reports timings",
    )

    p = sub.add_parser("cf", help="normalized continued fraction and T value")
    _add_pair(p)

    p = sub.add_parser("mu", help="correction term mu(a, b)")
    _add_pair(p)

    p = sub.add_parser("jacobi", help="Jacobi symbol (a | b), odd b > 0")
    _add_pair(p)

    p = sub.add_parser("check", help="run verification scans")
    p.add_argument(
        "--suite", choices=SUITES, default="all", help="which scan suite to run"
    )
    p.add_argument("--bmax", type=int, default=100, help="largest b to scan")
    p.add_argument(
        "--include-9div",
        action="store_true",
        help="also scan b divisible by 9 in the theorem1 suite",
    )
    p.add_argument(
        "--cap", type=int, default=100, help="most violation rows kept per report"
    )
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    _add_output(p)

    p = sub.add_parser("examples", help="family b = c d^2, a = c d + 1")
    p.add_argument("--cmax", type=int, default=9, help="largest odd c")
    p.add_argument("--dmax", type=int, default=9, help="largest odd d")
    _add_output(p)

    return parser


# Best-of repetitions for the fast evaluator, whose single-call time is
# near the clock resolution.
_FAST_REPS = 7


def _cmd_sum(args) -> int:
    a, b = args.a, args.b
    if args.method == "both":
        start = time.perf_counter()
        slow = dedekind_naive(a, b)
        naive_s = time.perf_counter() - start
        fast_s = float("inf")
        for _ in range(_FAST_REPS):
            start = time.perf_counter()
            value = dedekind_fast(a, b)
            fast_s = min(fast_s, time.perf_counter() - start)
        if slow != value:
            raise ArithmeticError(f"evaluators disagree at a={a}, b={b}: {slow} vs {value}")
        print(f"naive: {naive_s:.6f} s", file=sys.stderr)
        print(f"fast:  {fast_s:.6f} s", file=sys.stderr)
    elif args.method == "naive":
        value = dedekind_naive(a, b)
    else:
        value = dedekind_fast(a, b)
    print(f"S = {value}")
    print(f"s = {value / 12}")
    print(f"bS = {value * b}")
    return 0


def _cmd_cf(args) -> int:
    expansion = cf_expand(args.a, args.b)
    print(f"{expansion} T={t_value(args.a, args.b)}")
    return 0


def _cmd_mu(args) -> int:
    print(mu(args.a, args.b))
    return 0


def _cmd_jacobi(args) -> int:
    print(jacobi(args.a, args.b))
    return 0


def _check_out_path(path: str) -> None:
    """Refuse an --out path whose report could not be written."""
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        raise ValueError(f"--out directory does not exist: {directory}")
    if not os.access(directory, os.W_OK):
        raise ValueError(f"--out directory is not writable: {directory}")
    if os.path.isdir(path):
        raise ValueError(f"--out names a directory: {path}")


def _write_atomic(path: str, text: str) -> None:
    """Write through a temporary file in the same directory and rename it
    into place, so the report file is either complete or absent."""
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _emit(reports: list[Report], args) -> None:
    text = render(reports, args.format)
    if args.out:
        _write_atomic(args.out, text)
    else:
        sys.stdout.write(text)


def _cmd_check(args) -> int:
    reports = run_suite(
        args.suite,
        args.bmax,
        include_9div=args.include_9div,
        cap=args.cap,
        jobs=args.jobs,
    )
    _emit(reports, args)
    clean = True
    for report in reports:
        verdict = "PASS" if report.passed else "FAIL"
        clean = clean and report.passed
        print(
            f"{report.kind}: b<={report.b_hi} tuples={report.tuples_checked} "
            f"violations={report.violations_total} [{verdict}] "
            f"({report.elapsed:.2f}s)",
            file=sys.stderr,
        )
    return 0 if clean else 1


def _cmd_examples(args) -> int:
    if args.cmax < 1 or args.cmax % 2 == 0:
        raise ValueError(f"--cmax must be odd and positive, got {args.cmax}")
    if args.dmax < 3 or args.dmax % 2 == 0:
        raise ValueError(f"--dmax must be odd and at least 3, got {args.dmax}")
    start = time.perf_counter()
    names = [name for name, _ in COLUMNS["examples"]]
    rows = []
    for c in range(1, args.cmax + 1, 2):
        for d in range(3, args.dmax + 1, 2):
            ex = family_example(c, d)
            values = (ex.c, ex.d, ex.b, ex.a, ex.s_diff, ex.diff_in_8z, ex.diff_in_24z)
            rows.append(dict(zip(names, values, strict=True)))
    report = TableReport(
        kind="examples",
        parameters={"cmax": args.cmax, "dmax": args.dmax},
        rows=rows,
        elapsed=time.perf_counter() - start,
    )
    _emit([report], args)
    return 0


_COMMANDS = {
    "sum": _cmd_sum,
    "cf": _cmd_cf,
    "mu": _cmd_mu,
    "jacobi": _cmd_jacobi,
    "check": _cmd_check,
    "examples": _cmd_examples,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if getattr(args, "out", None):
            _check_out_path(args.out)
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
