"""One phase of one benchmark run, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --phase timed|traced

Prints one JSON line: reports attempted and failed, the first problems
found, and the metrics of the phase. run.py starts this script; it is
not meant to be run by hand.
"""

import argparse
import json
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402  (needs the source tree on the path)

OUT_DIR = os.path.join(ROOT, ".perfbench")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--phase", choices=("timed", "traced"), required=True)
    args = parser.parse_args()

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    tally = workloads.Tally()
    try:
        if args.phase == "timed":
            metrics = {}
            detail = workloads.timed_phase(
                args.workload, args.seed, args.seconds, workdir, tally
            )
        else:
            trace_path = os.path.join(
                OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json"
            )
            metrics, detail = workloads.traced_phase(
                args.workload, args.seed, workdir, tally, trace_path
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = dict(workloads.PER_LAYER_METRICS)
    print(
        json.dumps(
            {
                "attempted": tally.attempted,
                "failed": tally.failed,
                "problems": tally.problems,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
                "detail": detail,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
