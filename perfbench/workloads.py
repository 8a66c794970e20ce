"""The benchmark workloads, the timed loop and the traced run.

Every workload goes through dedsum's public scan API or its command line
entry point, never through scan internals, so it keeps working when the
scan driver is rewritten. Why each workload exists is written down in
NOTES.md next to this file.
"""

import contextlib
import functools
import io
import os
import random
import resource
import statistics
import time

from dedsum import cli, report, scans

import hostspeed
from gate import Gate
from probes import PROBE_METRICS, run_probes
from tracer import KERNELS, Tracer

# A cap no scan here reaches, so every report keeps all its rows.
KEEP_ALL = 10**9

SUITE = "suite-jobs2"
SUITE_KINDS = (
    "theorem1",
    "theorem2",
    "oracle-equivalence",
    "reciprocity",
    "bhk",
    "bt-mod8",
    "bs-mod3-9",
    "mu-mod8",
)

# (report kind, public scan function, extra keyword arguments)
SCAN_STEPS = {
    "pairs": (("theorem1", "scan_theorem1", {"include_9div": True}),),
    "lifts": (
        ("theorem2", "scan_theorem2", {}),
        ("bhk", "scan_bhk", {}),
        ("bt-mod8", "scan_bt_mod8", {}),
    ),
    "oracle": (
        ("oracle-equivalence", "scan_oracle_equivalence", {}),
        ("reciprocity", "scan_reciprocity", {}),
        ("bs-mod3-9", "scan_bs_congruences", {}),
    ),
}

# Base bound per workload, sized so that one verdict takes 0.5 to 1.5 s
# on a 2-core Xeon and a 20 s run holds more than ten verdicts.
BASE_BMAX = {"pairs": 250, "lifts": 250, "oracle": 500, SUITE: 200}
WORKLOADS = tuple(BASE_BMAX)

# The seed shifts the bound by at most this much either way, so a claim
# can be re-checked on inputs that no earlier run used.
SEED_WINDOW = 1

MIN_SAMPLES = 3
WARM_UP_BMAX = 30
REPORT_REPEATS = 3
FIXED_REPEATS = 3

PER_LAYER_METRICS = (
    tuple(
        (f"scans.{kind}.{field}", unit)
        for kind in SUITE_KINDS
        for field, unit in (("s", "s"), ("self_s", "s"), ("tuples", "count"), ("rows", "count"))
    )
    + (("scans.fixed_s_jobs2", "s"),)
    + tuple(
        (f"{kernel}.{field}", unit)
        for kernel in KERNELS
        for field, unit in (("calls", "count"), ("s", "s"))
    )
    + (("dedekind.naive_bs_row.bytes", "B_computed"),)
    + (
        ("report.render_json.s", "s"),
        ("report.render_csv.s", "s"),
        ("report.parse_json.s", "s"),
        ("report.parse_csv.s", "s"),
        ("report.json_bytes", "B"),
    )
    + PROBE_METRICS
    + (
        ("trace.verdict_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.unaccounted_s", "s"),
    )
)


def bound_for(workload: str, seed: int) -> int:
    shift = random.Random(f"bmax:{workload}:{seed}").randint(-SEED_WINDOW, SEED_WINDOW)
    return BASE_BMAX[workload] + shift


def kinds_of(workload: str) -> tuple[str, ...]:
    if workload == SUITE:
        return SUITE_KINDS
    return tuple(kind for kind, _, _ in SCAN_STEPS[workload])


class Tally:
    """Reports attempted and failed, with the first few reasons."""

    MAX_PROBLEMS = 20

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def note(self, found) -> None:
        room = self.MAX_PROBLEMS - len(self.problems)
        self.problems.extend(list(found)[: max(room, 0)])

    def record(self, reports, kinds, gate: Gate, shared=()) -> None:
        """Gate each expected report; a missing one counts as failed."""
        if len(reports) != len(kinds):
            self.note([f"{len(reports)} reports for kinds {kinds}"])
        for i, kind in enumerate(kinds):
            self.attempted += 1
            found = list(shared)
            if i < len(reports):
                found += gate.problems(reports[i], kind)
            else:
                found.append(f"{kind}: no report")
            if found:
                self.failed += 1
                self.note(found)

    def raised(self, kinds, exc: BaseException) -> None:
        """A scan that raises fails every report of its verdict."""
        self.attempted += len(kinds)
        self.failed += len(kinds)
        self.note([f"{kinds}: raised {exc!r}"])


def run_once(workload: str, bmax: int, workdir: str, tracer: Tracer | None = None):
    """One verdict: (seconds, reports, problems shared by every report).

    The seconds run from the first scan call to the last report in hand;
    for the command line that is when the report file is written.
    """
    if workload == SUITE:
        return _run_suite_cli(bmax, workdir, tracer)
    calls = [
        (kind, functools.partial(getattr(scans, fn), bmax, cap=KEEP_ALL, jobs=1, **kw))
        for kind, fn, kw in SCAN_STEPS[workload]
    ]
    reports = []
    start = time.perf_counter()
    for kind, call in calls:
        if tracer is None:
            reports.append(call())
        else:
            with tracer.span(f"scans.{kind}"):
                reports.append(call())
    return time.perf_counter() - start, reports, []


def _run_suite_cli(bmax: int, workdir: str, tracer: Tracer | None):
    out = os.path.join(workdir, "suite.json")
    argv = [
        "check", "--suite", "all", "--include-9div", "--bmax", str(bmax),
        "--jobs", "2", "--cap", str(KEEP_ALL), "--format", "json", "--out", out,
    ]
    with contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - start
    with open(out, encoding="utf-8") as handle:
        reports = report.parse_json(handle.read())
    os.remove(out)
    if tracer is not None:
        for rep in reports:
            tracer.add(f"scans.{rep.kind}", rep.elapsed)
    # The 9 | b rows of theorem1 are violations, so a correct run exits 1.
    shared = [] if code == 1 else [f"{SUITE}: exit code {code}, expected 1"]
    return elapsed, reports, shared


def gated_sample(workload, bmax, workdir, gate, tally):
    """run_once, then the gate; (seconds, reports) or None if it raised."""
    kinds = kinds_of(workload)
    try:
        elapsed, reports, shared = run_once(workload, bmax, workdir)
    except Exception as exc:  # counted as failed reports, the run goes on
        tally.raised(kinds, exc)
        return None
    tally.record(reports, kinds, gate, shared)
    return elapsed, reports


def warm_up(workload: str, workdir: str, tally: Tally) -> None:
    """A small gated verdict, untimed: imports, interpreter caches and
    the first process pool are ready before the first timed verdict."""
    gate = Gate(WARM_UP_BMAX, random.Random(0))
    gated_sample(workload, WARM_UP_BMAX, workdir, gate, tally)


def peak_rss_mb() -> float:
    usage = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return usage / 1024.0


def timed_phase(workload: str, seed: int, seconds: float, workdir: str, tally: Tally):
    """Untraced verdicts for `seconds`, as lists for run.py to pool: the
    wall seconds of each verdict, and the same scaled to the nominal host
    speed by the reference timed right before and right after it."""
    bmax = bound_for(workload, seed)
    gate = Gate(bmax, random.Random(f"gate:{seed}"))
    warm_up(workload, workdir, tally)
    verdicts: list[float] = []
    walls: list[float] = []
    tuples = 0
    deadline = time.perf_counter() + seconds
    before = hostspeed.reference()
    while time.perf_counter() < deadline or (
        len(verdicts) < MIN_SAMPLES and tally.failed == 0
    ):
        result = gated_sample(workload, bmax, workdir, gate, tally)
        after = hostspeed.reference()
        if result is not None:
            elapsed, reports = result
            walls.append(elapsed)
            verdicts.append(hostspeed.scaled(elapsed, before, after))
            tuples = sum(rep.tuples_checked for rep in reports)
        before = after
    return {
        "bmax": bmax,
        "tuples": tuples,
        "verdicts": verdicts,
        "walls": walls,
        "peak_rss_mb": peak_rss_mb(),
    }


def _median_time(fn, *args):
    times = []
    for _ in range(REPORT_REPEATS):
        start = time.perf_counter()
        result = fn(*args)
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


def report_layer(reports, tally: Tally) -> dict:
    """Render and parse the workload's reports directly, and check that
    both formats round-trip the deterministic content."""
    metrics = {}
    metrics["report.render_json.s"], json_text = _median_time(report.render_json, reports)
    metrics["report.render_csv.s"], csv_text = _median_time(report.render_csv, reports)
    metrics["report.parse_json.s"], from_json = _median_time(report.parse_json, json_text)
    metrics["report.parse_csv.s"], from_csv = _median_time(report.parse_csv, csv_text)
    metrics["report.json_bytes"] = len(json_text.encode("utf-8"))
    content = [(r.kind, r.tuples_checked, r.violations, r.summary) for r in reports]
    for fmt, parsed in (("json", from_json), ("csv", from_csv)):
        tally.attempted += 1
        if [(r.kind, r.tuples_checked, r.violations, r.summary) for r in parsed] != content:
            tally.failed += 1
            tally.note([f"report: {fmt} round trip changed the content"])
    return metrics


def fixed_jobs2(tally: Tally, seed: int) -> float:
    """Wall of the whole suite at b_max 2 with two workers: almost no
    tuples, so this is pool start-up, partition and merge cost."""
    gate = Gate(2, random.Random(f"gate:{seed}"), include_9div=False)
    times = []
    for _ in range(FIXED_REPEATS):
        start = time.perf_counter()
        reports = scans.run_suite("all", 2, jobs=2)
        times.append(time.perf_counter() - start)
        tally.record(reports, SUITE_KINDS, gate)
    return statistics.median(times)


def traced_phase(workload: str, seed: int, workdir: str, tally: Tally, trace_path: str):
    """One traced verdict after an untraced warm-up, plus the report
    layer, the fixed pool cost and the kernel probes."""
    bmax = bound_for(workload, seed)
    gate = Gate(bmax, random.Random(f"gate:{seed}"))
    warm_up(workload, workdir, tally)
    tracer = Tracer()
    if workload == SUITE:
        # Kernel calls happen in worker processes, out of the tracer's
        # reach; only scan-level spans are recorded.
        elapsed, reports, shared = run_once(workload, bmax, workdir, tracer)
    else:
        with tracer.installed():
            elapsed, reports, shared = run_once(workload, bmax, workdir, tracer)
    tally.record(reports, kinds_of(workload), gate, shared)
    tracer.dump(trace_path)

    metrics: dict[str, float] = {}
    top = tracer.root.children
    by_kind = {rep.kind: rep for rep in reports}
    for kind in SUITE_KINDS:
        node, rep = top.get(f"scans.{kind}"), by_kind.get(kind)
        metrics[f"scans.{kind}.s"] = node.seconds if node else 0.0
        in_process = node is not None and workload != SUITE
        metrics[f"scans.{kind}.self_s"] = node.self_seconds if in_process else 0.0
        metrics[f"scans.{kind}.tuples"] = rep.tuples_checked if rep else 0
        metrics[f"scans.{kind}.rows"] = len(rep.violations) if rep else 0
    totals = tracer.totals()
    for kernel in KERNELS:
        node = totals.get(kernel)
        metrics[f"{kernel}.calls"] = node.calls if node else 0
        metrics[f"{kernel}.s"] = node.seconds if node else 0.0
    naive = totals.get("dedekind.naive_bs_row")
    metrics["dedekind.naive_bs_row.bytes"] = naive.bytes if naive else 0
    metrics.update(report_layer(reports, tally))
    metrics["scans.fixed_s_jobs2"] = fixed_jobs2(tally, seed)
    probe_metrics, probe_problems = run_probes(seed)
    metrics.update(probe_metrics)
    metrics["trace.verdict_s"] = elapsed
    metrics["trace.unaccounted_s"] = elapsed - sum(
        metrics[f"scans.{kind}.s"] for kind in SUITE_KINDS
    )
    return metrics, {"bmax": bmax, "probe_problems": probe_problems}
