"""Acceptance criteria for the package, one test and PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict
lines. The heavy scans are shared through session fixtures; the timing
budgets refer to the scan wall time recorded in each report, not to
fixture reuse.
"""

import random
import statistics
import time
from math import gcd

import pytest

from dedsum.congruence import family_example
from dedsum.dedekind import dedekind_fast, dedekind_naive
from dedsum.scans import (
    scan_bhk,
    scan_bs_congruences,
    scan_mu_mod8,
    scan_oracle_equivalence,
    scan_theorem1,
    scan_theorem2,
)


def verdict(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def totients(n: int) -> list[int]:
    phi = list(range(n + 1))
    for p in range(2, n + 1):
        if phi[p] == p:
            for k in range(p, n + 1, p):
                phi[k] -= phi[k] // p
    return phi


@pytest.fixture(scope="session")
def oracle_2000():
    return scan_oracle_equivalence(2000)


@pytest.fixture(scope="session")
def theorem1_300():
    return scan_theorem1(300)


@pytest.fixture(scope="session")
def theorem1_300_incl():
    return scan_theorem1(300, include_9div=True)


@pytest.fixture(scope="session")
def theorem2_500():
    return scan_theorem2(500)


def test_c1_oracle_equivalence_to_2000(oracle_2000):
    report = oracle_2000
    phi = totients(2000)
    expected = sum(phi[b] for b in range(2, 2001))
    ok = (
        report.violations_total == 0
        and report.tuples_checked == expected
        and report.elapsed < 60.0
    )
    verdict(
        "criterion 1, evaluator equivalence for all coprime pairs with b <= 2000",
        ok,
        f"{report.tuples_checked} pairs, {report.violations_total} mismatches, "
        f"{report.elapsed:.1f}s (budget 60s)",
    )


def test_c2_pair_condition_matches_24z_to_300(theorem1_300):
    report = theorem1_300
    ok = report.violations_total == 0 and report.elapsed < 30.0
    verdict(
        "criterion 2, pairing condition matches 8Z and 24Z membership "
        "for b <= 300 with 9 not dividing b",
        ok,
        f"{report.tuples_checked} pairs, {report.violations_total} violations, "
        f"{report.elapsed:.1f}s (budget 30s)",
    )


def test_c2b_pair_condition_matches_24z_to_1000():
    report = scan_theorem1(1000)
    phi = totients(1000)
    expected = sum(phi[b] * (phi[b] - 1) // 2 for b in range(3, 1001) if b % 9 != 0)
    ok = (
        report.violations_total == 0
        and report.tuples_checked == expected
        and report.elapsed < 30.0
    )
    verdict(
        "criterion 2b, pairing condition matches 8Z and 24Z membership "
        "for b <= 1000 with 9 not dividing b",
        ok,
        f"{report.tuples_checked} pairs, {report.violations_total} violations, "
        f"{report.elapsed:.1f}s (budget 30s)",
    )


def test_c3_condition_matches_8z_even_at_9div(theorem1_300_incl):
    report = theorem1_300_incl
    ok = report.summary["mod8_mismatches"] == 0
    verdict(
        "criterion 3, pairing condition matches 8Z membership for all "
        "b <= 300 including 9 | b",
        ok,
        f"{report.tuples_checked} pairs, "
        f"{report.summary['mod8_mismatches']} mod-8 mismatches",
    )


def test_c4_explicit_counterexample_at_nine():
    report = scan_theorem1(9, include_9div=True)
    rows = {
        (r["b"], r["a1"], r["a2"]): r for r in report.violations
    }
    row = rows.get((9, 1, 4))
    example = family_example(1, 3)
    ok = (
        row is not None
        and row["condition"] is True
        and (row["diff_num"], row["diff_den"]) == (8, 1)
        and row["in8Z"] is True
        and row["in24Z"] is False
        and (example.b, example.a, example.s_diff) == (9, 4, 8)
    )
    verdict(
        "criterion 4, counterexample (b, a1, a2) = (9, 1, 4) with "
        "difference 8 outside 24Z, matching the constructed family at "
        "(c, d) = (1, 3)",
        ok,
        f"violations at b=9: {sorted(rows)}, family gives "
        f"b={example.b} a={example.a} diff={example.s_diff}",
    )


def test_c5_bt_residues_to_500(theorem2_500):
    report = theorem2_500
    ok = report.summary["residue_mismatches"] == 0 and report.elapsed < 30.0
    verdict(
        "criterion 5, predicted residues of b*T mod 24/72 hold for "
        "b <= 500 over three integer lifts",
        ok,
        f"{report.tuples_checked} lifts, "
        f"{report.summary['residue_mismatches']} mismatches, "
        f"{report.elapsed:.1f}s (budget 30s)",
    )


def test_c6_mod8_congruences_to_500(theorem2_500):
    mu_report = scan_mu_mod8(500)
    ok = (
        theorem2_500.summary["mod8_failures"] == 0
        and mu_report.violations_total == 0
    )
    verdict(
        "criterion 6, mod-8 congruence for b*T and the quadratic form "
        "of mu hold for b <= 500",
        ok,
        f"{theorem2_500.summary['mod8_failures']} b*T failures, "
        f"{mu_report.violations_total} mu mismatches over "
        f"{mu_report.tuples_checked} tuples",
    )


def test_c7_structural_identities_to_1000():
    bhk = scan_bhk(1000)
    congruences = scan_bs_congruences(1000)
    ok = bhk.violations_total == 0 and congruences.violations_total == 0
    verdict(
        "criterion 7, continued fraction identity for S and the mod-3/9 "
        "congruences of b*S hold for b <= 1000",
        ok,
        f"{bhk.tuples_checked} identity checks and "
        f"{congruences.tuples_checked} congruence checks, "
        f"{bhk.violations_total + congruences.violations_total} failures",
    )


def test_c8_family_divisibility_grid():
    failures = []
    for c in range(1, 16, 2):
        for d in range(3, 16, 2):
            ex = family_example(c, d)
            expected_24 = d % 3 != 0 or c % 3 == 0
            if not ex.diff_in_8z or ex.diff_in_24z != expected_24:
                failures.append((c, d))
            if ex.s_diff != c * (d * d - 1):
                failures.append((c, d))
    ok = not failures
    verdict(
        "criterion 8, family b=c*d^2, a=c*d+1 has difference c(d^2-1), "
        "always in 8Z and outside 24Z exactly when 3 | d and 3 does not "
        "divide c (odd c, d <= 15)",
        ok,
        f"56 members checked, failures at {failures}" if failures else
        "56 members checked, all divisibility patterns as predicted",
    )


def _median_times(b: int) -> tuple[float, float]:
    """Median times of one naive call and of the best of 7 fast calls, over 3 seeded draws of a."""
    rng = random.Random(f"0:{b}")
    naive_times, fast_times = [], []
    for _ in range(3):
        a = rng.randrange(1, b)
        while gcd(a, b) != 1:
            a = rng.randrange(1, b)
        start = time.perf_counter()
        slow = dedekind_naive(a, b)
        naive_times.append(time.perf_counter() - start)
        fast_s = float("inf")
        for _ in range(7):
            start = time.perf_counter()
            fast = dedekind_fast(a, b)
            fast_s = min(fast_s, time.perf_counter() - start)
        fast_times.append(fast_s)
        assert slow == fast, f"evaluators disagree at a={a}, b={b}: {slow} vs {fast}"
    return statistics.median(naive_times), statistics.median(fast_times)


def test_c9_evaluator_scaling():
    (naive_lo, fast_lo), *_, (naive_hi, fast_hi) = [
        _median_times(b) for b in (10**3, 10**4, 10**5, 10**6)
    ]
    naive_growth = naive_hi / naive_lo
    fast_growth = fast_hi / fast_lo
    ok = naive_growth > 50.0 and fast_growth < 50.0 and fast_hi < naive_hi / 10.0
    verdict(
        "criterion 9, direct summation scales roughly linearly while "
        "the recursion stays near-logarithmic from b=10^3 to 10^6, "
        "with exact agreement on every sample",
        ok,
        f"naive grew {naive_growth:.0f}x (must exceed 50x), fast grew "
        f"{fast_growth:.1f}x (must stay under 50x), fast is "
        f"{naive_hi / fast_hi:.0f}x faster at 10^6",
    )
