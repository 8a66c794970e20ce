"""Seeded kernel probes: time per call of each kernel on isolated inputs.

Inputs are drawn from the benchmark seed at b near 10^3 and 10^6. Every
probe result is checked against an independent computation: the
definitional evaluator at the small b, modular arithmetic, the Euler
criterion over a factorization, and the quadratic form of mu.
"""

import random
import statistics
import time
from fractions import Fraction
from math import gcd

from dedsum import arith, congruence, contfrac, dedekind

SIZES = (("b1e3", 1000), ("b1e6", 10**6))
INPUTS_PER_SIZE = 64
NAIVE_ROW_B = 2000
MIN_PROBE_SECONDS = 0.03
REPEATS = 3

# (metric prefix, module, attribute, needs odd b)
KERNEL_PROBES = (
    ("dedekind._fast_parts", dedekind, "_fast_parts", False),
    ("contfrac.t_value", contfrac, "t_value", False),
    ("arith.mod_inverse", arith, "mod_inverse", False),
    ("arith.jacobi", arith, "jacobi", True),
    ("congruence.mu", congruence, "mu", False),
    ("congruence.bt_residue", congruence, "bt_residue", False),
)

PROBE_METRICS = tuple(
    (f"{prefix}.us_{tag}", "us") for prefix, *_ in KERNEL_PROBES for tag, _ in SIZES
) + (("dedekind.naive_bs_row.ms_b2000", "ms"),)


def draw_pairs(rng: random.Random, lo: int, odd: bool) -> list[tuple[int, int]]:
    """Coprime (a, b) with lo <= b < 1.1 lo and 1 <= a < b."""
    pairs = []
    while len(pairs) < INPUTS_PER_SIZE:
        b = rng.randrange(lo, lo + lo // 10) | (1 if odd else 0)
        a = rng.randrange(1, b)
        if gcd(a, b) == 1:
            pairs.append((a, b))
    return pairs


def per_call_seconds(fn, pairs) -> float:
    """Median over repeats of the mean time per call, each repeat at least
    MIN_PROBE_SECONDS long."""
    samples = []
    for _ in range(REPEATS):
        calls = 0
        start = time.perf_counter()
        while True:
            for a, b in pairs:
                fn(a, b)
            calls += len(pairs)
            elapsed = time.perf_counter() - start
            if elapsed >= MIN_PROBE_SECONDS:
                break
        samples.append(elapsed / calls)
    return statistics.median(samples)


def _jacobi_reference(a: int, b: int) -> int:
    """(a|b) from the factorization of odd b and Euler's criterion."""
    result, n, p = 1, b, 3
    while n > 1:
        if p * p > n:
            p = n
        while n % p == 0:
            n //= p
            euler = pow(a, (p - 1) // 2, p)
            result *= -1 if euler == p - 1 else euler
        p += 2
    return result


def _check(name: str, a: int, b: int, value, small: bool) -> bool:
    if name == "dedekind._fast_parts":
        num, den = value
        if small:
            return Fraction(num, den) == dedekind.dedekind_naive(a, b)
        return (b * num) % den == 0
    if name == "contfrac.t_value":
        if not small:
            return True
        lhs = b * value + a + pow(a, -1, b) - 3 * b
        return lhs == b * dedekind.dedekind_naive(a, b)
    if name == "arith.mod_inverse":
        return 1 <= value < b and (a * value) % b == 1
    if name == "arith.jacobi":
        return value == _jacobi_reference(a, b)
    if name == "congruence.mu":
        if b % 2:
            return value == 2 - 2 * _jacobi_reference(a, b)
        return value in (0, 4) and (value - (a - 1) * (a + b - 1)) % 8 == 0
    if name == "congruence.bt_residue":
        return value.matches
    raise KeyError(name)


def run_probes(seed: int) -> tuple[dict[str, float], list[str]]:
    """Metric values keyed by name, and every failed probe check.

    A kernel that no longer exists under its name reads 0."""
    rng = random.Random(f"probes:{seed}")
    metrics: dict[str, float] = {}
    problems: list[str] = []
    for prefix, module, attr, odd in KERNEL_PROBES:
        fn = getattr(module, attr, None)
        for tag, lo in SIZES:
            pairs = draw_pairs(rng, lo, odd)
            metric = f"{prefix}.us_{tag}"
            if fn is None:
                metrics[metric] = 0.0
                continue
            for a, b in pairs:
                if not _check(prefix, a, b, fn(a, b), small=lo < 10**4):
                    problems.append(f"probe {prefix} wrong at a={a}, b={b}")
                    break
            metrics[metric] = 1e6 * per_call_seconds(fn, pairs)
    metrics["dedekind.naive_bs_row.ms_b2000"] = _naive_row_probe(problems)
    return metrics, problems


def _naive_row_probe(problems: list[str]) -> float:
    row = getattr(dedekind, "naive_bs_row", None)
    if row is None:
        return 0.0
    b = NAIVE_ROW_B
    times = []
    for _ in range(5):
        start = time.perf_counter()
        residues, values = row(b)
        times.append(time.perf_counter() - start)
    for a, value in zip(residues.tolist(), values.tolist()):
        if value != b * dedekind.dedekind_fast(a, b):
            problems.append(f"probe naive_bs_row({b}) wrong at a={a}")
            break
    if residues.tolist() != [a for a in range(1, b) if gcd(a, b) == 1]:
        problems.append(f"probe naive_bs_row({b}) has the wrong residues")
    return 1e3 * statistics.median(times)
