"""Timing comparison of the two Dedekind sum evaluators.

The point of the benchmark is the growth law, not absolute speed: the
direct summation scales linearly in b while the reciprocity recursion
is logarithmic. Inputs are drawn deterministically from a seeded RNG
and both evaluators must agree exactly on every sample. One timed
cross-check, compare_evaluators, serves the benchmark and
`dedsum sum --method both`.
"""

import random
import statistics
import time
from dataclasses import dataclass
from math import gcd

from dedsum.dedekind import dedekind_fast, dedekind_naive

# Best-of repetitions for the fast evaluator, whose single-call time is
# near the clock resolution.
_FAST_REPS = 7


@dataclass(frozen=True)
class BenchRow:
    """Median single-call times in seconds at one denominator."""

    b: int
    samples: int
    naive_median: float
    fast_median: float


def _random_coprime(rng: random.Random, b: int) -> int:
    while True:
        a = rng.randrange(1, b)
        if gcd(a, b) == 1:
            return a


def compare_evaluators(a: int, b: int) -> tuple:
    """(S(a, b), naive_s, fast_s): the value both evaluators agree on,
    the time of one naive call and the best time of _FAST_REPS fast
    calls, in seconds.

    Raises ArithmeticError if the evaluators disagree.
    """
    start = time.perf_counter()
    slow_value = dedekind_naive(a, b)
    naive_s = time.perf_counter() - start
    fast_s = float("inf")
    for _ in range(_FAST_REPS):
        start = time.perf_counter()
        value = dedekind_fast(a, b)
        fast_s = min(fast_s, time.perf_counter() - start)
    if slow_value != value:
        raise ArithmeticError(f"evaluators disagree at a={a}, b={b}: {slow_value} vs {value}")
    return value, naive_s, fast_s


def run_benchmark(b_values: list[int], samples: int, seed: int = 0) -> list[BenchRow]:
    """Time both evaluators by compare_evaluators at each b over
    `samples` random numerators.

    Raises ValueError for b < 2 or samples < 0, and ArithmeticError if
    the evaluators ever disagree.
    """
    if samples < 0:
        raise ValueError(f"samples must not be negative, got {samples}")
    rows = []
    for b in b_values:
        if b < 2:
            raise ValueError(f"benchmark denominators must be at least 2, got {b}")
        rng = random.Random(f"{seed}:{b}")
        times = [compare_evaluators(_random_coprime(rng, b), b)[1:] for _ in range(samples)]
        if samples:
            naive_times, fast_times = zip(*times)
            rows.append(
                BenchRow(
                    b=b,
                    samples=samples,
                    naive_median=statistics.median(naive_times),
                    fast_median=statistics.median(fast_times),
                )
            )
    return rows


def decade_values(b_max: int) -> list[int]:
    """Powers of ten up to b_max, or just [b_max] when b_max < 10."""
    if b_max < 2:
        raise ValueError(f"b_max must be at least 2, got {b_max}")
    if b_max < 10:
        return [b_max]
    values = []
    b = 10
    while b <= b_max:
        values.append(b)
        b *= 10
    return values


def growth_ratios(rows: list[BenchRow], attr: str) -> list[float]:
    """Consecutive-row time ratios for 'naive_median' or 'fast_median'."""
    times = [getattr(row, attr) for row in rows]
    return [later / max(earlier, 1e-12) for earlier, later in zip(times, times[1:])]
