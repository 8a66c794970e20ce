"""dedsum benchmark: time to a verdict of the exhaustive congruence scans.

    python3 perfbench/run.py --workload pairs --seed 1 --seconds 20 --trace 1

Run from the root of a source checkout; dedsum is imported from src/.
A run times set-up in fresh interpreters and runs the workload's
verdicts for --seconds, spread over three fresh worker interpreters,
gating every report for correctness. Each verdict and set-up sample
is scaled to the nominal host speed by a reference task timed right
before and after it (hostspeed.py). With --trace 1 one more worker
makes a traced verdict and the kernel probes. Human-readable lines come
first; the last line of standard output is one JSON object with the
end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
NOTES.md next to this file defines every metric and workload.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("pairs", "lifts", "oracle", "suite-jobs2")

# Speed differs a few percent from one interpreter process to the next
# (memory layout), so the timed verdicts are spread over several fresh
# worker processes and pooled; set-up samples are interleaved with them.
TIMED_WORKERS = 3
SETUP_PER_WORKER = 3
# Fresh interpreters that only warm the file and bytecode caches.
SETUP_WARMUPS = 2
READY = "import dedsum.cli, dedsum.scans; print('ready', flush=True)"

E2E_UNITS = {"verdict_s": "s", "tuples_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

# The whole run must end within this many seconds.
RUN_LIMIT_S = 170


class BenchError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _stop(proc: subprocess.Popen) -> None:
    """Kill the process and everything it started, then wait for it."""
    if proc.poll() is None:
        os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()


def measure_setup(count: int, deadline: float) -> tuple[list[float], list[float]]:
    """Seconds from starting an interpreter until dedsum is imported:
    (scaled to the nominal host speed, wall)."""
    samples, walls = [], []
    before = hostspeed.reference()
    for _ in range(count):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", READY],
            stdout=subprocess.PIPE,
            env=_env(),
            cwd=ROOT,
            text=True,
            start_new_session=True,
        )
        try:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        finally:
            proc.stdout.close()
            _stop(proc)
        if line != "ready" or proc.returncode != 0:
            raise BenchError("a fresh interpreter could not import dedsum")
        after = hostspeed.reference()
        walls.append(elapsed)
        samples.append(hostspeed.scaled(elapsed, before, after))
        before = after
    return samples, walls


def run_worker(args, phase: str, seconds: float, deadline: float) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(seconds), "--phase", phase,
    ]
    proc = subprocess.Popen(
        cmd,
        stdout=subprocess.PIPE,
        env=_env(),
        cwd=ROOT,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"the {phase} phase did not finish in time") from None
    finally:
        _stop(proc)
    if proc.returncode != 0:
        raise BenchError(f"the {phase} phase exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    """Median, the highest percentile with ten samples beyond it, and n."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"n": n, "median": statistics.median(ordered), "max": ordered[-1]}
    if n >= 11:
        out["tail_percentile"] = round(100 * (n - 10) / n)
        out["tail"] = ordered[n - 11]
    return out


def timed_runs(args, deadline: float) -> dict:
    """Set-up samples and timed verdicts, interleaved over fresh workers."""
    measure_setup(SETUP_WARMUPS, deadline)
    pooled = {"attempted": 0, "failed": 0, "problems": [], "verdicts": [], "walls": [],
              "setup": [], "setup_walls": [], "peak_rss_mb": 0.0}
    for _ in range(TIMED_WORKERS):
        setup, setup_walls = measure_setup(SETUP_PER_WORKER, deadline)
        pooled["setup"] += setup
        pooled["setup_walls"] += setup_walls
        part = run_worker(args, "timed", args.seconds / TIMED_WORKERS, deadline)
        for key in ("attempted", "failed"):
            pooled[key] += part[key]
        pooled["problems"] += part["problems"]
        detail = part["detail"]
        pooled["verdicts"] += detail["verdicts"]
        pooled["walls"] += detail["walls"]
        pooled["peak_rss_mb"] = max(pooled["peak_rss_mb"], detail["peak_rss_mb"])
        pooled["bmax"], pooled["tuples"] = detail["bmax"], detail["tuples"]
    if not pooled["verdicts"]:
        raise BenchError(f"no verdict completed: {pooled['problems'][:3]}")
    verdict = statistics.median(pooled["verdicts"])
    values = {
        "verdict_s": verdict,
        "tuples_per_s": pooled["tuples"] / verdict,
        "setup_s": statistics.median(pooled["setup"]),
        "peak_rss_mb": pooled["peak_rss_mb"],
    }
    pooled["metrics"] = {
        name: {"value": values[name], "unit": unit} for name, unit in E2E_UNITS.items()
    }
    return pooled


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _line(name: str, value, unit: str, note: str = "") -> None:
    print(f"  {name:<40} {_fmt(value):>14} {unit:<6} {note}".rstrip())


def print_human(args, timed, traced, result) -> None:
    verdict = spread(timed["verdicts"])
    print(
        f"workload {args.workload}  seed {args.seed}  bmax {timed['bmax']}  "
        f"tuples per verdict {timed['tuples']}"
    )
    print(
        f"end to end, untraced, {TIMED_WORKERS} worker processes, "
        f"seconds at the nominal host speed (hostspeed.py):"
    )
    notes = {
        "verdict_s": f"median of {verdict['n']}",
        "setup_s": f"median of {len(timed['setup'])} fresh interpreters",
    }
    for name, metric in timed["metrics"].items():
        _line(name, metric["value"], metric["unit"], notes.get(name, ""))
    if "tail" in verdict:
        _line(f"verdict_s p{verdict['tail_percentile']}", verdict["tail"], "s",
              "ten verdicts beyond it")
    else:
        _line("verdict_s max", verdict["max"], "s", "fewer than 11 verdicts")
    _line("verdict wall", statistics.median(timed["walls"]), "s", "median, not scaled")
    _line("setup wall", statistics.median(timed["setup_walls"]), "s", "median, not scaled")
    _line(
        "failed_ratio", result["failed"] / result["attempted"], "ratio",
        f"{result['failed']} of {result['attempted']} reports failed",
    )
    if traced is not None:
        print("per layer, one traced verdict:")
        for name, metric in traced["metrics"].items():
            _line(name, metric["value"], metric["unit"])
    for problem in timed["problems"] + (traced["problems"] if traced else []):
        print(f"  problem: {problem}")


def _terminated(signum, frame):
    # Unwinds through the finally blocks, which stop every worker.
    raise SystemExit(128 + signum)


def main() -> int:
    signal.signal(signal.SIGTERM, _terminated)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "dedsum", "__init__.py")):
        print(f"error: no dedsum source under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        timed = timed_runs(args, deadline)
        traced = run_worker(args, "traced", 0, deadline) if args.trace else None
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = timed["attempted"] + (traced["attempted"] if traced else 0)
    failed = timed["failed"] + (traced["failed"] if traced else 0)
    probe_problems = []
    metrics = timed["metrics"]
    if traced:
        metrics = traced["metrics"]
        metrics["trace.overhead_s"] = {
            "value": metrics["trace.verdict_s"]["value"] - statistics.median(timed["walls"]),
            "unit": "s",
        }
        probe_problems = traced["detail"]["probe_problems"]
        traced["problems"] += probe_problems
    result = {
        "correct": failed == 0 and not probe_problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print_human(args, timed, traced, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
