"""How fast the shared host runs right now, from a fixed reference task.

The host is shared with other tenants. Its speed drifts by 20 to 50 %
over tens of seconds, so plain wall times of whole runs spread more
than any useful bound. Every workload slows down together with this
reference, which mixes interpreter-bound integer work (Euclid walks,
calls, tuples, a dict) with int64 numpy passes.

The benchmark times the reference right before and right after each
verdict and each set-up sample, and scales the sample by
NOMINAL_S / (mean of the two reference times). The result is the
sample's seconds on a host that runs the reference in NOMINAL_S. The
reference never calls dedsum, so no change to dedsum can move it.
"""

import time

import numpy as np

# About the median seconds of one reference() on the 2-core Xeon this
# benchmark was sized on. It is only a scale: every commit compared is
# measured with the same constant.
NOMINAL_S = 0.040

# Work done by one reference() call, checked so that it cannot be skipped.
EXPECTED = (119_998, 503_850_063)


def _interpreter_part() -> int:
    total = 0
    buckets: dict[int, int] = {}
    for a in range(1, 40000):
        x, y = 1000003, a
        while y:
            x, y = y, x % y
        buckets[a & 255] = buckets.get(a & 255, 0) + x
        total += len((a, x, y))
    return total + len(buckets) - 255


def _numpy_part() -> int:
    # Small arrays, so that the reference never sets the peak RSS.
    values = np.arange(1, 8001, dtype=np.int64)
    total = 0
    for k in range(125):
        total += int(((values * (k + 7)) % 1009).sum())
    return total


def reference() -> float:
    """Seconds of one run of the reference task."""
    start = time.perf_counter()
    done = (_interpreter_part(), _numpy_part())
    elapsed = time.perf_counter() - start
    if done != EXPECTED:
        raise RuntimeError(f"the host-speed reference computed {done}, not {EXPECTED}")
    return elapsed


def scaled(seconds: float, before: float, after: float) -> float:
    """A sample's seconds at the nominal host speed, from the reference
    times measured right before and right after it."""
    return seconds * NOMINAL_S * 2.0 / (before + after)
