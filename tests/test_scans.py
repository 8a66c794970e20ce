"""Tests for the exhaustive scan drivers.

Tuple counts are checked against totient sums computed independently,
the b = 9 counterexample matrix is pinned exactly, and report content
must be identical for any worker count. Planted defects in the raw
kernels show that each scan can fail, and under which counter.
"""

import multiprocessing
import pkgutil
import time
from dataclasses import replace
from fractions import Fraction
from importlib import import_module
from math import gcd
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dedsum.arith
import dedsum.congruence
import dedsum.contfrac
import dedsum.dedekind
import dedsum.scans
from dedsum.arith import POWER_INT32_LIMIT, mod_inverse
from dedsum.congruence import (
    _mu_pairs,
    bt_congruence_mod8,
    bt_residue,
    mu,
    mu_condition,
)
from dedsum.contfrac import t_value
from dedsum.dedekind import (
    NAIVE_ROW_LIMIT,
    NAIVE_SUM32_LIMIT,
    b_times_s,
    coprime_residues,
    dedekind_naive,
)
from dedsum.report import COLUMNS
from dedsum.scans import (
    IDENTITY_KINDS,
    LIFT_WALK_LIMIT,
    MU_QUADRATIC_LIMIT,
    THEOREM1_ROW_LIMIT,
    _pair_condition,
    run_suite,
    scan_bhk,
    scan_bs_congruences,
    scan_bt_mod8,
    scan_mu_mod8,
    scan_oracle_equivalence,
    scan_reciprocity,
    scan_theorem1,
    scan_theorem2,
)


def solved(a, b):
    """(p, sign): the residue p that a batch solves b S and the inverse
    on for the residue a of b, and the sign that reflects them back. p is
    a itself when 2a <= b, and sign 1; else p = b - a and sign -1, and
    then b S(a, b) = -b S(p, b) and a^-1 = b - p^-1. For ints and int64
    arrays alike."""
    upper = 2 * a > b
    return a + upper * (b - 2 * a), 1 - 2 * upper


def planted_bs(a: int, b: int, delta) -> int:
    """b S(a, b) as a batch reads it when the row kernel is off by
    delta(a, b) on every pair that it solves."""
    p, sign = solved(a, b)
    return b_times_s(a, b) + sign * delta(p, b)


def planted_inverse(a: int, b: int, plant) -> int:
    """a^-1 mod b as a batch reads it when the inverse kernel returns
    plant(p^-1, b) for every p that it solves."""
    p, sign = solved(a, b)
    inverse = plant(pow(p, -1, b), b)
    return inverse if sign == 1 else b - inverse


def totients(n: int) -> list[int]:
    phi = list(range(n + 1))
    for p in range(2, n + 1):
        if phi[p] == p:
            for k in range(p, n + 1, p):
                phi[k] -= phi[k] // p
    return phi


def test_theorem1_small_range_clean():
    report = scan_theorem1(60)
    assert report.violations_total == 0
    assert report.violations == []
    assert report.summary == {
        "mod24_mismatches_9div": 0,
        "mod24_mismatches_9ndiv": 0,
        "mod8_mismatches": 0,
    }
    phi = totients(60)
    expected = sum(
        phi[b] * (phi[b] - 1) // 2 for b in range(3, 61) if b % 9 != 0
    )
    assert report.tuples_checked == expected


def test_theorem1_counterexample_matrix_at_nine():
    report = scan_theorem1(9, include_9div=True)
    assert report.tuples_checked == 45
    assert report.violations_total == 4
    assert report.summary["mod8_mismatches"] == 0
    assert report.summary["mod24_mismatches_9div"] == 4
    assert [(r["a1"], r["a2"]) for r in report.violations] == [
        (1, 4),
        (1, 7),
        (2, 8),
        (5, 8),
    ]
    first = report.violations[0]
    assert first["condition"] is True
    assert (first["diff_num"], first["diff_den"]) == (8, 1)
    assert first["in8Z"] is True
    assert first["in24Z"] is False


def test_theorem1_default_skips_nine_divisible():
    report = scan_theorem1(9)
    assert report.tuples_checked == 45 - 15  # b = 9 contributes C(6, 2)
    assert report.violations_total == 0


def test_theorem1_condition_column_matches_public_predicate():
    report = scan_theorem1(9, include_9div=True)
    for row in report.violations:
        assert mu_condition(row["a1"], row["a2"], row["b"]) == row["condition"]


def test_inline_condition_formula_equals_public_predicate():
    # The condition as the scan states it, pair by pair in Python ints,
    # pinned to the public predicate.
    for b in range(3, 26):
        residues = [a for a in range(1, b) if gcd(a, b) == 1]
        for i, a1 in enumerate(residues):
            for a2 in residues[i + 1 :]:
                inline = (
                    b * (a2 * mu(b, a1) - a1 * mu(b, a2))
                    - (a1 - a2) * (b - 1) * (a1 * a2 + b - 1)
                ) % (8 * b) == 0
                assert inline == mu_condition(a1, a2, b)


def test_array_condition_equals_public_predicate():
    # The scan evaluates the condition over int64 blocks of pairs.
    for b in range(3, 60):
        residues = [a for a in range(1, b) if gcd(a, b) == 1]
        a = np.array(residues, dtype=np.int64)
        m = np.array([mu(b, x) for x in residues], dtype=np.int64)
        table = _pair_condition(b, a[:, None], m[:, None], a[None, :], m[None, :])
        for i, a1 in enumerate(residues):
            for j in range(i + 1, len(residues)):
                assert table[i, j] == mu_condition(a1, residues[j], b), (b, a1)


def test_pair_condition_is_exact_at_the_row_limit():
    # The int64 condition against Python ints at b = THEOREM1_ROW_LIMIT,
    # m in {0, 4}, on residues near 1, b / 2 and b. The pairing expression
    # C peaks near a1 = b, a2 = b / 2 at about b^4 / 4; an overflow would
    # show only on a pair with 8b | C, so pairs there with C == 0 (mod 8b)
    # are found first, from factors reduced mod 8b (exact in int64).
    b = THEOREM1_ROW_LIMIT
    assert b**4 + 16 * b**2 < 2**65 <= (b + 1) ** 4 + 16 * (b + 1) ** 2
    ends = [1, 2, 3, b // 2 - 1, b // 2, b // 2 + 1, b - 3, b - 2, b - 1]
    pairs = [(x, m1, y, m2) for x in ends for y in ends for m1 in (0, 4) for m2 in (0, 4)]
    x, y = (v.ravel() for v in np.meshgrid(np.arange(b - 64, b), b // 2 + np.arange(-1536, 1536)))
    for m1 in (0, 4):
        for m2 in (0, 4):
            second = (x - y) * (b - 1) % (8 * b) * ((x * y + b - 1) % (8 * b))
            hit = (b * (y * m1 - x * m2) - second) % (8 * b) == 0
            pairs += [(i, m1, j, m2) for i, j in zip(x[hit].tolist(), y[hit].tolist())]
    expected = [_pair_condition(b, *pair) for pair in pairs]
    columns = np.array(pairs, dtype=np.int64).T
    assert _pair_condition(np.int64(b), *columns).tolist() == expected
    assert sum(expected) >= 8


THEOREM1_COUNTERS = ("mod24_mismatches_9div", "mod24_mismatches_9ndiv", "mod8_mismatches")


def full_triangle(b_max: int, include_9div: bool):
    """theorem1's (tuples_checked, rows, summary) from the whole pair
    triangle of every b: the pairing condition and both memberships on
    every pair i < j, in (a1, a2) order. It reads b S from the same
    kernel as the scan, on the residues that `solved` names, so a defect
    planted there reaches both alike, and mu(b, a) from `_mu_pairs`,
    apart from the scan's own mu kernel."""
    tuples, rows, summary = 0, [], dict.fromkeys(THEOREM1_COUNTERS, 0)
    for b in range(3, b_max + 1):
        if not (include_9div or b % 9):
            continue
        a = coprime_residues(b)
        column = np.full_like(a, b)
        p, sign = solved(a, column)
        bs = sign * dedsum.dedekind.bs_values(p, column)
        mus = dedsum.scans._mu_pairs(column, a)
        i, j = np.triu_indices(len(a), 1)
        cond = _pair_condition(b, a[i], mus[i], a[j], mus[j])
        d = bs[i] - bs[j]
        in8, in24 = d % (8 * b) == 0, d % (24 * b) == 0
        tuples += len(i)
        for k in np.flatnonzero((cond != in8) | (cond != in24)).tolist():
            counters = ["mod8_mismatches"] if cond[k] != in8[k] else []
            if cond[k] != in24[k]:
                counters.append("mod24_mismatches_9ndiv" if b % 9 else "mod24_mismatches_9div")
            for key in counters:
                summary[key] += 1
            diff = Fraction(int(d[k]), b)
            values = (b, int(a[i[k]]), int(a[j[k]]), bool(cond[k]))
            values += (diff.numerator, diff.denominator, bool(in8[k]), bool(in24[k]))
            rows.append(dict(zip([name for name, _ in COLUMNS["theorem1"]], values, strict=True)))
    return tuples, rows, summary


def assert_theorem1_equals_full_triangle(b_max: int, include_9div: bool, caps=(10**6,)):
    tuples, rows, summary = full_triangle(b_max, include_9div)
    for cap in caps:
        report = scan_theorem1(b_max, include_9div=include_9div, cap=cap)
        assert report.tuples_checked == tuples, cap
        assert (report.violations_total, report.summary) == (len(rows), summary), cap
        assert report.violations == rows[:cap], cap
    return rows


@pytest.mark.parametrize("include_9div", [False, True])
@pytest.mark.parametrize("b_max", [60, 300])
def test_theorem1_equals_the_full_pair_triangle(b_max, include_9div):
    rows = assert_theorem1_equals_full_triangle(b_max, include_9div, caps=(100, 0, 10**6))
    assert bool(rows) == include_9div


def key_pairs(keys: np.ndarray) -> set[tuple[int, int]]:
    """The pairs i < j with equal keys, from theorem1's helper."""
    return {divmod(code, len(keys)) for code in dedsum.scans._same_key_pairs(keys).tolist()}


def test_pairs_that_share_no_key_meet_no_predicate():
    # The lemma behind theorem1's candidate pairs, on every pair: a pair
    # that shares neither a + a^-1 nor b S mod b has the condition and
    # both memberships False. The inverses come from pow, not from the
    # kernel whose keys select the pairs.
    for b in range(3, 200):
        a = coprime_residues(b)
        column = np.full_like(a, b)
        bs = dedsum.dedekind.bs_values(a, column)
        i, j = np.triu_indices(len(a), 1)
        a_inv = np.array([pow(x, -1, b) for x in a.tolist()], dtype=np.int64)
        keys = [(a + a_inv) % b, bs % b]
        shared = (keys[0][i] == keys[0][j]) | (keys[1][i] == keys[1][j])
        candidates = set().union(*(key_pairs(key) for key in keys))
        assert candidates == set(zip(i[shared].tolist(), j[shared].tolist())), b
        mus = _mu_pairs(column, a)
        cond = _pair_condition(b, a[i], mus[i], a[j], mus[j])
        d = bs[i] - bs[j]
        met = cond | (d % (8 * b) == 0) | (d % (24 * b) == 0)
        assert not met[~shared].any(), b


def test_same_key_pairs_of_runs_and_singletons():
    keys = np.array([5, 3, 5, 5, 3, 7], dtype=np.int64)
    assert key_pairs(keys) == {(0, 2), (0, 3), (2, 3), (1, 4)}
    assert key_pairs(np.zeros(0, dtype=np.int64)) == set()


def inverse_key(a: int, b: int) -> int:
    return (a + mod_inverse(a, b)) % b


def test_b_s_defect_off_the_inverse_key_equals_the_full_triangle(monkeypatch):
    # b S(1, b) + 8, and so b S(b - 1, b) - 8, break b S == a + a^-1
    # (mod b) twice per row, so some pairs whose difference of b S is in
    # 8bZ share b S mod b but no a + a^-1. Their rows must be found all the
    # same. The pair (a1, a2) is such a row exactly when (b - a2, b - a1)
    # is, so there are twice the 45 rows of a defect at b S(1, b) alone.
    plant_in_row_kernel(monkeypatch, lambda a, b: np.where(a == 1, 8, 0))
    for include_9div in (False, True):
        rows = assert_theorem1_equals_full_triangle(150, include_9div)
        off_key = [
            row
            for row in rows
            if inverse_key(row["a1"], row["b"]) != inverse_key(row["a2"], row["b"])
        ]
        assert len(off_key) == 2 * 45, include_9div


def test_a_wrong_inverse_hides_theorem1_rows_that_only_its_key_finds(monkeypatch):
    # b S + a (b S - b + a on the reflected halves) moves the b S key off
    # a + a^-1, so the pairs that meet the condition are found through the
    # inverse key alone. A +1 on every inverse that the batch reads shifts
    # every inverse key alike and selects the same pairs. The +1 of the
    # inverse kernel is a -1 on the reflected halves, and a doubled inverse
    # does not shift the keys alike either: theorem1 misses rows of the
    # full triangle under both.
    plant_in_row_kernel(monkeypatch, lambda a, b: a)
    rows = assert_theorem1_equals_full_triangle(60, False)
    real = dedsum.scans._Batch.a_inv.func
    with monkeypatch.context() as patch:
        patch.setattr(dedsum.scans._Batch, "a_inv", property(lambda batch: real(batch) + 1))
        assert scan_theorem1(60, cap=10**6).violations == rows
    real_kernel = dedsum.scans._inverse_pairs
    plant_wrong_inverse(monkeypatch)
    report = scan_theorem1(60, cap=10**6)
    assert len(rows) == 589 and 0 < report.violations_total < len(rows)
    monkeypatch.setattr(
        dedsum.scans, "_inverse_pairs", lambda a, b, phi: real_kernel(a, b, phi) * 2 % b
    )
    report = scan_theorem1(60, cap=10**6)
    assert 0 < report.violations_total < len(rows)


def test_theorem1_evaluates_at_most_two_pairs_per_residue(monkeypatch):
    real = dedsum.scans._pair_condition
    evaluated = []

    def counted(*args):
        result = real(*args)
        evaluated.append(np.size(result))
        return result

    monkeypatch.setattr(dedsum.scans, "_pair_condition", counted)
    report = scan_theorem1(300, include_9div=True)
    phi = totients(300)
    assert report.tuples_checked == sum(p * (p - 1) // 2 for p in phi[3:])
    assert 0 < sum(evaluated) <= 2 * sum(phi[3:])


@pytest.mark.parametrize("planted", [False, True])
def test_theorem1_sorts_one_key_when_the_keys_agree(planted, monkeypatch):
    # On correct code b S == a + a^-1 (mod b), so the keys are equal and
    # one sort serves both. b S(1, b) + 8 moves the b S key off in every
    # batch at bmax 150, and both keys are sorted; the rows are the full
    # triangle's either way.
    calls, batches = [], []
    real = dedsum.scans._same_key_pairs

    def counted(keys):
        calls.append(len(keys))
        return real(keys)

    class CountedBatch(dedsum.scans._Batch):
        def __init__(self, piece):
            batches.append(piece)
            super().__init__(piece)

    monkeypatch.setattr(dedsum.scans, "_same_key_pairs", counted)
    monkeypatch.setattr(dedsum.scans, "_Batch", CountedBatch)
    if planted:
        plant_in_row_kernel(monkeypatch, lambda a, b: np.where(a == 1, 8, 0))
    rows = assert_theorem1_equals_full_triangle(150, True)
    assert bool(rows) and len(batches) > 1
    assert len(calls) == (2 if planted else 1) * len(batches)


def test_a_row_of_the_wrong_length_is_refused():
    # The columns are checked on every call, also when no row is kept and
    # when the batch is clean.
    for cap in (0, 1):
        (report,) = dedsum.scans._pass(["mu-mod8"], [], 4, cap, {})
        for columns in (([2], [1], [0]), ([], [], []), ([2], [1], [0], [4, 0])):
            with pytest.raises(RuntimeError):
                dedsum.scans._add(report, 1, columns)
        dedsum.scans._add(report, 8, (np.array([2, 4]), [1, 3], [0, 4], [4, 0]))
        dedsum.scans._add(report, 4, ([], [], [], []))
        rows = [{"b": 2, "a": 1, "mu_simple": 0, "mu_quadratic": 4}]
        assert report.violations == rows[:cap], cap
        assert all(type(value) is int for row in report.violations for value in row.values())
        assert report.tuples_checked == 12, cap
        assert (report.violations_total, report.summary) == (2, {"mod8_mismatches": 2}), cap


def test_theorem1_decides_the_pair_at_b_three(monkeypatch):
    # b S(1, 3) = 2 becomes 12, and its reflection b S(2, 3) = -2 becomes
    # -12, the only changes up to bmax 12: then S(1, 3) - S(2, 3) = 8 is
    # in 8Z but not in 24Z, and the pairing condition stays False.
    assert [planted_bs(a, 3, lambda a, b: 10 * (a == 1)) for a in (1, 2)] == [12, -12]
    plant_in_row_kernel(monkeypatch, lambda a, b: np.where((a == 1) & (b == 3), 10, 0))
    report = scan_theorem1(12)
    assert report.violations == [
        {
            "b": 3,
            "a1": 1,
            "a2": 2,
            "condition": False,
            "diff_num": 8,
            "diff_den": 1,
            "in8Z": True,
            "in24Z": False,
        }
    ]
    assert report.summary == {
        "mod8_mismatches": 1,
        "mod24_mismatches_9ndiv": 0,
        "mod24_mismatches_9div": 0,
    }


def test_theorem2_small_range_clean():
    report = scan_theorem2(40)
    assert report.violations_total == 0
    assert report.summary == {"mod8_failures": 0, "residue_mismatches": 0}
    phi = totients(40)
    assert report.tuples_checked == 3 * sum(phi[b] for b in range(2, 41))


def test_oracle_scan_counts_every_pair():
    report = scan_oracle_equivalence(80)
    assert report.violations_total == 0
    phi = totients(80)
    assert report.tuples_checked == sum(phi[b] for b in range(2, 81))


def test_reciprocity_scan_clean():
    report = scan_reciprocity(60)
    assert report.violations_total == 0
    phi = totients(60)
    assert report.tuples_checked == 1 + sum(phi[b] for b in range(2, 61))


def test_identity_scans_clean_small():
    for fn in (scan_bhk, scan_bt_mod8, scan_bs_congruences, scan_mu_mod8):
        report = fn(40)
        assert report.violations_total == 0, report.kind


def plant_wrong_inverse(monkeypatch):
    real = dedsum.scans._inverse_pairs
    monkeypatch.setattr(dedsum.scans, "_inverse_pairs", lambda *args: real(*args) + 1)


def plant_shifted_mu_original(monkeypatch):
    """Add 4 to the quadratic form of mu at every a == 1 (mod 8)."""
    real = dedsum.scans._mu_quadratic_pairs

    def shifted(a, b):
        return real(a, b) + np.where(a % 8 == 1, 4, 0)

    monkeypatch.setattr(dedsum.scans, "_mu_quadratic_pairs", shifted)


def test_violation_rows_match_column_schema(monkeypatch):
    # One planted defect per kind (theorem1 has its 9 | b rows), so that
    # every kind has rows: their keys are the kind's columns, in order,
    # and the first row is pinned value by value. The row kernel solves
    # a = 2 first at b = 5 (at b = 3, 2 is the reflected partner of 1),
    # where b S(2, 5) = 0 comes back as 5.
    cases = [
        (
            lambda: scan_theorem1(9, include_9div=True),
            lambda patch: None,
            (9, 1, 4, True, 8, 1, True, False),
        ),
        (
            lambda: scan_theorem2(12),
            lambda patch: plant_in_lift_walk(patch, lambda a, b: a > b),
            (2, 3, "residue", "even_half_ndiv3", 24, 2, 4),
        ),
        (
            lambda: scan_oracle_equivalence(12),
            lambda patch: plant_in_row_kernel(patch, lambda a, b: np.where(a == 2, b, 0)),
            (5, 2, 1, 1, 0, 1),
        ),
        (
            lambda: scan_reciprocity(12),
            lambda patch: plant_in_row_kernel(patch, lambda a, b: np.where(a == 2, b, 0)),
            (2, 5, 1, 1),
        ),
        (lambda: scan_bhk(12), plant_wrong_inverse, (2, 1, 1, 0)),
        (
            lambda: scan_bt_mod8(12),
            lambda patch: plant_in_lift_walk(patch, lambda a, b: a > b),
            (2, 3, 4, 2),
        ),
        (
            lambda: scan_bs_congruences(12),
            lambda patch: plant_in_row_kernel(patch, lambda a, b: (a == 1).astype(np.int64)),
            (2, 1, 1, 3, 0, 1),
        ),
        (lambda: scan_mu_mod8(12), plant_shifted_mu_original, (2, 1, 0, 4)),
    ]
    kinds = []
    for scan, plant, first in cases:
        with monkeypatch.context() as patch:
            plant(patch)
            report = scan()
        names = [name for name, _ in COLUMNS[report.kind]]
        assert report.violations, report.kind
        for row in report.violations:
            assert list(row) == names, report.kind
        assert report.violations[0] == dict(zip(names, first, strict=True)), report.kind
        kinds.append(report.kind)
    assert kinds == ["theorem1", "theorem2", *IDENTITY_KINDS]


def test_cap_limits_rows_not_counters():
    report = scan_theorem1(9, include_9div=True, cap=2)
    assert len(report.violations) == 2
    assert report.violations_total == 4
    assert report.summary["mod24_mismatches_9div"] == 4
    assert [(r["a1"], r["a2"]) for r in report.violations] == [(1, 4), (1, 7)]


def test_a_worker_tally_keeps_no_more_rows_than_the_cap(monkeypatch):
    # Batches of 16 residues: bhk flags every lift of each, so the
    # process's report gets a column call per batch after its cap is
    # reached.
    plant_wrong_inverse(monkeypatch)
    monkeypatch.setattr(dedsum.scans, "_BATCH", 16)
    sizes = dedsum.scans._row_sizes(30)
    (report,) = dedsum.scans._pass(["bhk"], dedsum.scans._pieces(sizes, 1), 30, 3, {})
    (full,) = dedsum.scans._pass(["bhk"], dedsum.scans._pieces(sizes, 1), 30, 10**6, {})
    assert report.violations == full.violations[:3]
    assert report.violations_total == full.violations_total == 831


@pytest.mark.parametrize("jobs", [2, 3])
def test_each_process_returns_at_most_cap_rows_per_kind(jobs, monkeypatch):
    # Batches of 16 residues give every process several pieces; theorem1
    # has its 9 | b rows, and a wrong inverse gives rows in every lift scan.
    plant_wrong_inverse(monkeypatch)
    monkeypatch.setattr(dedsum.scans, "_BATCH", 16)
    real = dedsum.scans._shared
    shares = []

    def spy(*args):
        shares.extend(real(*args))
        return shares

    monkeypatch.setattr(dedsum.scans, "_shared", spy)
    reports = run_suite("all", 60, include_9div=True, cap=3, jobs=jobs)
    assert len(shares) == jobs
    for share in shares:
        assert [[name for name, _ in COLUMNS[part.kind]] for part in share] == [
            [name for name, _ in COLUMNS[report.kind]] for report in reports
        ]
        assert all(len(part.violations) <= 3 for part in share)
    for k, report in enumerate(reports):
        assert report.violations_total == sum(share[k].violations_total for share in shares)
        assert len(report.violations) == min(3, report.violations_total)
    assert sum(report.violations_total > 3 for report in reports) >= 4


@pytest.mark.parametrize("fault", [False, True])
@settings(max_examples=25, deadline=None)
@given(data=st.data(), n=st.integers(1, 80), cap=st.sampled_from([0, 1, 3, 10**6]))
def test_merged_shares_equal_one_pass(fault, data, n, cap):
    # Any cut of the pieces into ascending shares, each run as one
    # process's pass and merged in any order, equals one pass over all
    # the pieces. theorem1 has its 9 | b rows; a wrong inverse gives the
    # lift kinds rows too. Batches of 16 residues make several pieces.
    kinds = ["theorem1", "theorem2", *IDENTITY_KINDS]
    options = {"theorem1": {"include_9div": True}}
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(dedsum.scans, "_BATCH", 16)
        if fault:
            plant_wrong_inverse(monkeypatch)
        pieces = list(dedsum.scans._pieces(dedsum.scans._row_sizes(n), 1))
        count = data.draw(st.integers(1, 4), label="shares")
        owner = st.integers(0, count - 1)
        owners = data.draw(st.lists(owner, min_size=len(pieces), max_size=len(pieces)))
        order = data.draw(st.permutations(range(count)), label="order")
        shares = [[piece for piece, owner in zip(pieces, owners) if owner == s] for s in order]
        parts = [dedsum.scans._pass(kinds, share, n, cap, options) for share in shares]
        whole = dedsum.scans._pass(kinds, pieces, n, cap, options)
    merged = [dedsum.scans._merge(reports) for reports in zip(*parts)]
    assert [replace(r, elapsed=0.0) for r in merged] == [replace(r, elapsed=0.0) for r in whole]
    assert [r.elapsed for r in merged] == [max(r.elapsed for r in kind) for kind in zip(*parts)]
    if fault and n >= 2:
        assert all(r.violations_total for r in whole if r.kind in ("theorem2", "bhk", "bt-mod8"))


def test_cap_zero_keeps_counts_only():
    report = scan_theorem1(9, include_9div=True, cap=0)
    assert report.violations == []
    assert report.violations_total == 4


@pytest.mark.parametrize(
    "fn,bmax",
    [
        (scan_theorem1, 40),
        (scan_theorem2, 25),
        (scan_oracle_equivalence, 30),
        (scan_reciprocity, 30),
        (scan_bhk, 25),
        (scan_bt_mod8, 25),
        (scan_bs_congruences, 30),
        (scan_mu_mod8, 30),
    ],
)
def test_jobs_do_not_change_report_content(fn, bmax):
    sequential = fn(bmax)
    parallel = fn(bmax, jobs=3)
    sequential.elapsed = parallel.elapsed = 0.0
    assert sequential == parallel


def test_jobs_do_not_change_suite_content():
    sequential = run_suite("all", 27, include_9div=True, cap=5)
    parallel = run_suite("all", 27, include_9div=True, cap=5, jobs=3)
    for report in sequential + parallel:
        report.elapsed = 0.0
    assert sequential == parallel
    assert sequential[0].violations_total > 5


# bmax 3 at jobs 5: more jobs than b, and b = 1 and 2 share a piece.
# bmax 130 holds three batches of residues, so at jobs 2 the caller and
# the worker claim the third from the shared counter.
@pytest.mark.parametrize(
    "b_max,jobs,cap", [(27, 2, 5), (27, 4, 5), (3, 5, 5), (130, 2, 5), (130, 2, 10**6), (130, 3, 0)]
)
def test_more_jobs_do_not_change_suite_content(b_max, jobs, cap):
    sequential = run_suite("all", b_max, include_9div=True, cap=cap)
    parallel = run_suite("all", b_max, include_9div=True, cap=cap, jobs=jobs)
    for report in sequential + parallel:
        report.elapsed = 0.0
    assert sequential == parallel
    assert (sequential[0].violations_total > 5) == (b_max >= 9)


@pytest.mark.parametrize("jobs,pools", [(1, 0), (2, 1), (3, 1)])
def test_a_suite_runs_on_at_most_one_pool(jobs, pools, monkeypatch):
    started = []
    real = multiprocessing.Process.start

    def counting(process):
        started.append(process)
        real(process)

    monkeypatch.setattr(multiprocessing.Process, "start", counting)
    reports = run_suite("all", 30, include_9div=True, jobs=jobs)
    assert len(reports) == 8
    # The calling process works pieces too, so one set of jobs - 1 workers starts.
    assert len(started) == (jobs - 1) * pools


@pytest.mark.parametrize("jobs", [1, 2, 3, 4, 7])
@pytest.mark.parametrize("b_max", [1, 2, 3, 9, 60, 251, 1000, 3000])
def test_pieces_cut_the_range_into_runs_of_about_one_batch(b_max, jobs):
    pieces = [list(piece) for piece in dedsum.scans._pieces(dedsum.scans._row_sizes(b_max), jobs)]
    assert all(pieces)
    assert [b for piece in pieces for b in piece] == list(range(1, b_max + 1))
    sizes = [0] + [len(coprime_residues(b)) for b in range(1, b_max + 1)]
    # One batch, or at jobs > 1 less, so that every process gets two pieces.
    shares = 1 if jobs == 1 else 2 * jobs
    size = max(1, min(dedsum.scans._BATCH, -(-sum(sizes) // shares)))
    loads = [sum(sizes[b] for b in piece) for piece in pieces]
    assert all(size <= load < size + max(sizes) for load in loads[:-1])
    assert loads[-1] < size + max(sizes)
    # A reference cut: gather rows in ascending b until a piece holds at
    # least size residues.
    expected, piece, load = [], [], 0
    for b in range(1, b_max + 1):
        piece.append(b)
        load += sizes[b]
        if load >= size:
            expected.append(piece)
            piece, load = [], 0
    assert pieces == expected + [piece] * bool(piece)


@pytest.mark.parametrize("jobs", [2, 3])
def test_shared_pieces_run_once_each(jobs):
    pieces = [[i] for i in range(12)]
    shares = dedsum.scans._shared(list, iter(pieces), jobs)
    assert len(shares) == jobs
    # Process i starts on piece i, then claims pieces in list order.
    assert [share[0] for share in shares] == [[i] for i in range(jobs)]
    assert all(share == sorted(share) for share in shares)
    assert sorted(i for share in shares for [i] in share) == list(range(12))
    assert dedsum.scans._shared(list, iter([[0], [1]]), 5) == [[[0]], [[1]]]
    assert dedsum.scans._shared(list, iter(pieces), 1) == [pieces]


@pytest.mark.parametrize("include_9div", [False, True])
@pytest.mark.parametrize("b_max", [1, 2, 3, 8, 9, 10, 61, 200])
def test_each_kind_counts_the_tuples_of_its_range(b_max, include_9div):
    # Each kind's tuples counted from their definition by gcd: the closed
    # form of _TUPLES, and the count that each report must reach.
    units = {b: [a for a in range(1, b) if gcd(a, b) == 1] for b in range(1, b_max + 1)}
    residues = sum(len(row) for row in units.values())
    expected = {
        "theorem1": sum(
            len(row) * (len(row) - 1) // 2 for b, row in units.items() if include_9div or b % 9
        ),
        "theorem2": 3 * residues,
        "oracle-equivalence": residues,
        "reciprocity": sum(gcd(a, b) == 1 for b in range(1, b_max + 1) for a in range(1, b + 1)),
        "bhk": 3 * residues,
        "bt-mod8": 3 * residues,
        "bs-mod3-9": residues,
        "mu-mod8": sum(gcd(a, b) == 1 for b in range(2, b_max + 1, 2) for a in range(1, 4 * b + 1)),
    }
    sizes = dedsum.scans._row_sizes(b_max)
    options = {"theorem1": {"include_9div": include_9div}}
    counts = {kind: count(sizes, **options.get(kind, {})) for kind, count in dedsum.scans._TUPLES.items()}
    assert counts == expected
    reports = run_suite("all", b_max, include_9div=include_9div)
    assert {report.kind: report.tuples_checked for report in reports} == expected


def test_row_sizes_are_the_coprime_residue_counts():
    sizes = dedsum.scans._row_sizes(3000).tolist()
    assert sizes == [0] + [len(coprime_residues(b)) for b in range(1, 3001)]
    # The ends where the prime sieve finds no prime or only the first.
    for b_max in range(4):
        assert dedsum.scans._row_sizes(b_max).tolist() == sizes[: b_max + 1]


def test_jobs_preserve_capped_row_order():
    sequential = scan_theorem1(27, include_9div=True, cap=5)
    parallel = scan_theorem1(27, include_9div=True, cap=5, jobs=4)
    assert sequential.violations == parallel.violations
    assert sequential.violations_total == parallel.violations_total


def test_scan_argument_validation():
    with pytest.raises(ValueError):
        scan_theorem1(0)
    with pytest.raises(ValueError):
        scan_theorem1(10, cap=-1)
    with pytest.raises(ValueError):
        scan_theorem1(10, jobs=0)


def test_oracle_bound_beyond_naive_rows_fails_up_front(no_scan_may_start):
    # The suites that contain this scan are covered through the CLI.
    start = time.perf_counter()
    with pytest.raises(ValueError, match="int64-exact"):
        scan_oracle_equivalence(NAIVE_ROW_LIMIT + 1, jobs=2)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("fn", [scan_reciprocity, scan_bs_congruences, scan_bhk])
def test_row_kernel_bound_fails_up_front(fn, no_scan_may_start):
    start = time.perf_counter()
    with pytest.raises(ValueError, match="int64-exact limit .* row kernel"):
        fn(NAIVE_ROW_LIMIT + 1, jobs=2)
    assert time.perf_counter() - start < 1.0


def test_theorem1_bound_beyond_int64_blocks_fails_up_front(no_scan_may_start):
    start = time.perf_counter()
    with pytest.raises(ValueError, match="int64-exact"):
        scan_theorem1(THEOREM1_ROW_LIMIT + 1, jobs=2)
    with pytest.raises(ValueError, match="int64-exact"):
        run_suite("theorem1", THEOREM1_ROW_LIMIT + 1)
    assert time.perf_counter() - start < 1.0


BMAX_PLANTED = 30


def lift_scans():
    return {
        "theorem2": scan_theorem2(BMAX_PLANTED).summary,
        "bhk": scan_bhk(BMAX_PLANTED).summary,
        "bt-mod8": scan_bt_mod8(BMAX_PLANTED).summary,
    }


def plant_in_lift_walk(monkeypatch, delta):
    """Add delta(a, b), elementwise, to every T that the lift walk
    returns; theorem2, bhk and bt-mod8 read b T only from this walk."""
    real = dedsum.scans._t_pairs
    monkeypatch.setattr(dedsum.scans, "_t_pairs", lambda a, b: real(a, b) + delta(a, b))


def test_walk_off_by_one_above_b_fails_every_lift_scan(monkeypatch):
    # Only the lift a + b is walked wrong; a scan that reused the walk of
    # a for its other lifts would not see it.
    plant_in_lift_walk(monkeypatch, lambda a, b: a > b)
    assert lift_scans() == {
        "theorem2": {"mod8_failures": 257, "residue_mismatches": 277},
        "bhk": {"identity_failures": 277},
        "bt-mod8": {"mod8_failures": 257},
    }


def test_flipped_mu_fails_the_mod8_checks_only(monkeypatch):
    # Flipped only where the mod-8 prediction reads mu.
    real = dedsum.scans._mod8_offset_pairs

    def flipped(b, a_inv, m):
        return real(b, a_inv, np.where(b % 4 == 3, 4 - m, m))

    monkeypatch.setattr(dedsum.scans, "_mod8_offset_pairs", flipped)
    assert lift_scans() == {
        "theorem2": {"mod8_failures": 252, "residue_mismatches": 0},
        "bhk": {"identity_failures": 0},
        "bt-mod8": {"mod8_failures": 252},
    }


def test_flipped_mu_fails_both_predictions_of_theorem2(monkeypatch):
    # The batch's mu serves the residue prediction, through the Jacobi
    # symbol of odd b, and the mod-8 prediction alike.
    real = dedsum.scans._mu_pairs

    def flipped(a, b):
        m = real(a, b)
        return np.where(b % 4 == 3, 4 - m, m)

    monkeypatch.setattr(dedsum.scans, "_mu_pairs", flipped)
    assert lift_scans() == {
        "theorem2": {"mod8_failures": 252, "residue_mismatches": 252},
        "bhk": {"identity_failures": 0},
        "bt-mod8": {"mod8_failures": 252},
    }


def test_perturbed_inverse_fails_bhk(monkeypatch):
    # The inverse enters every lift check: bhk's identity and both
    # predicted residues.
    plant_wrong_inverse(monkeypatch)
    assert lift_scans() == {
        "theorem2": {"mod8_failures": 831, "residue_mismatches": 831},
        "bhk": {"identity_failures": 831},
        "bt-mod8": {"mod8_failures": 831},
    }


# The public scalar functions of the package, each a formula on plain ints.
SCALAR_FUNCTIONS = (
    "b_times_s",
    "bt_congruence_mod8",
    "bt_residue",
    "cf_expand",
    "dedekind_fast",
    "dedekind_naive",
    "difference_verdict",
    "family_example",
    "jacobi",
    "mod_inverse",
    "mu",
    "mu_condition",
    "mu_original",
    "sign_mod3",
    "t_value",
)


def test_scans_make_no_scalar_kernel_calls(monkeypatch):
    # Clean scans build no violation row, so no scalar function may run,
    # and the oracle reads the row kernel, not the scalar b S walk. Each
    # is replaced in every module that binds it, so a call through any
    # name fails.
    def scalar(*args):
        raise AssertionError("a scalar kernel ran")

    modules = [dedsum, *(import_module(f"dedsum.{m.name}") for m in pkgutil.iter_modules(dedsum.__path__))]
    patched = set()
    for module in modules:
        for name in SCALAR_FUNCTIONS:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, scalar)
                patched.add(name)
    assert patched == set(SCALAR_FUNCTIONS)
    summary = lift_scans()
    assert all(not any(counts.values()) for counts in summary.values()), summary
    for report in run_suite("all", BMAX_PLANTED):
        assert report.violations_total == 0, report.kind


def test_theorem2_takes_its_case_tags_from_the_array_kernel(monkeypatch):
    # Under a wrong inverse every lift fails both checks; at cap 0 no row
    # is kept, and no scalar bt_residue may run for a tag.
    calls = []
    real = dedsum.congruence.bt_residue

    def counted(*args):
        calls.append(args)
        return real(*args)

    for module in (dedsum, dedsum.congruence):
        monkeypatch.setattr(module, "bt_residue", counted)
    plant_wrong_inverse(monkeypatch)
    report = scan_theorem2(250, cap=0)
    assert report.violations == []
    assert report.summary == {"residue_mismatches": 57069, "mod8_failures": 57069}
    assert calls == []


def suite_at_60():
    reports = run_suite("all", 60, include_9div=True, cap=10**6)
    for report in reports:
        report.elapsed = 0.0
    return reports


@pytest.mark.parametrize("batch", [1, 7, 64])
def test_row_batch_edges_drop_or_repeat_no_pair(batch, monkeypatch):
    # The whole suite, clean and with a row kernel defect that leaves
    # violation rows, whose order must not depend on the batches either.
    # Rows are gathered into batches of `batch` residues, and the row
    # kernel solves them in slices of as many pairs.
    plants = [
        lambda patch: None,
        lambda patch: plant_in_row_kernel(patch, lambda a, b: np.where(a == 2, b, 0)),
    ]
    for planted, plant in enumerate(plants):
        with monkeypatch.context() as patch:
            plant(patch)
            defaults = suite_at_60()
            patch.setattr(dedsum.scans, "_BATCH", batch)
            patch.setattr(dedsum.dedekind, "_ROW_BATCH", batch)
            assert suite_at_60() == defaults, planted
        # theorem1 always has its 9 | b rows; the other kinds only when planted.
        assert bool(sum(r.violations_total for r in defaults[1:])) == bool(planted)


LIFT_SCANS = [scan_theorem2, scan_bhk, scan_bt_mod8]


@pytest.mark.parametrize("batch", [1, 7, 64])
def test_lift_batch_edges_drop_or_repeat_no_lift(batch, monkeypatch):
    # Clean, and with a walk defect that leaves violation rows whose
    # order must not depend on the batches either. The lifts of a batch
    # of `batch` residues are walked together.
    for planted in (False, True):
        with monkeypatch.context() as patch:
            if planted:
                plant_in_lift_walk(patch, lambda a, b: (a > b) + 2 * (a < 0))
            defaults = [fn(60, cap=10**6) for fn in LIFT_SCANS]
            patch.setattr(dedsum.scans, "_BATCH", batch)
            for fn, default in zip(LIFT_SCANS, defaults):
                batched = fn(60, cap=10**6)
                default.elapsed = batched.elapsed = 0.0
                assert batched == default, (default.kind, planted)
                assert bool(default.violations) == planted


@pytest.mark.parametrize("batch", [None, 64])
def test_a_suite_builds_each_row_once_and_walks_each_lift_once(batch, monkeypatch):
    # At the default batch size the suite at bmax 60 is one batch.
    calls = {"_t_pairs": 0, "_inverse_pairs": 0, "bs_values": 0}
    built: list[int] = []
    batches = []

    def counted(name):
        real = getattr(dedsum.scans, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    real_residues = dedsum.scans.coprime_residues

    def residues(b):
        built.append(b)
        return real_residues(b)

    class CountedBatch(dedsum.scans._Batch):
        def __init__(self, piece):
            batches.append(piece)
            super().__init__(piece)

    for name in calls:
        monkeypatch.setattr(dedsum.scans, name, counted(name))
    monkeypatch.setattr(dedsum.scans, "coprime_residues", residues)
    monkeypatch.setattr(dedsum.scans, "_Batch", CountedBatch)
    if batch:
        monkeypatch.setattr(dedsum.scans, "_BATCH", batch)
    run_suite("all", 60, include_9div=True)
    assert built == list(range(1, 61))
    assert (len(batches) == 1) == (batch is None)
    # One walk and one inverse per batch; the row kernel once for b S and
    # once for the mirrored term.
    assert calls == {
        "_t_pairs": len(batches),
        "_inverse_pairs": len(batches),
        "bs_values": 2 * len(batches),
    }


@pytest.mark.parametrize("batch", [16, 64, None])
def test_a_batch_reflects_b_s_and_the_inverse_onto_every_residue(batch, monkeypatch):
    # On every piece to b <= 600, and on one-row pieces (b = 1 is empty,
    # b = 2 holds a = b/2, its own partner), the row kernel and the power
    # solve the residues a <= b/2 alone, once each, and the batch's b S and
    # inverse are the row kernel's and pow's on every residue.
    solved_pairs = []

    def counted(name):
        real = getattr(dedsum.scans, name)

        def wrapper(a, b, *rest):
            solved_pairs.extend(zip([name] * len(a), a.tolist(), b.tolist()))
            return real(a, b, *rest)

        return wrapper

    for name in ("bs_values", "_inverse_pairs"):
        monkeypatch.setattr(dedsum.scans, name, counted(name))
    if batch:
        monkeypatch.setattr(dedsum.scans, "_BATCH", batch)
    pieces = list(dedsum.scans._pieces(dedsum.scans._row_sizes(600), 1))
    if batch == 16:
        assert sum(len(piece) == 1 for piece in pieces) > 400
    pieces += [range(b, b + 1) for b in (1, 2, 3, 4, 600)]
    for piece in pieces:
        solved_pairs.clear()
        rows = dedsum.scans._Batch(piece)
        a, b = rows.a.tolist(), rows.b.tolist()
        assert rows.bs.tolist() == dedsum.dedekind.bs_values(rows.a, rows.b).tolist()
        assert rows.a_inv.tolist() == [pow(x, -1, y) for x, y in zip(a, b)]
        lower = [(x, y) for x, y in zip(a, b) if 2 * x <= y]
        assert solved_pairs == [("bs_values", *pair) for pair in lower] + [
            ("_inverse_pairs", *pair) for pair in lower
        ]


def plant_partner_off_by_one(monkeypatch):
    """A batch that reflects each a > b/2 from the index one past its
    partner b - a."""
    real = dedsum.scans._Batch.halves.func

    def shifted(batch):
        lower, upper, partner = real(batch)
        return lower, upper, partner + 1

    monkeypatch.setattr(dedsum.scans._Batch, "halves", property(shifted))


def off_by_one_partner(a: int, b: int):
    """The residue that such a batch reflects a > b/2 from: the unit of b
    after b - a, or None where that is a > b/2 itself, which is solved
    for no residue and reads the 0 that the arrays start with."""
    row = residues_of(b)
    partner = row[len(row) - row.index(a)]
    return partner if 2 * partner <= b else None


def test_a_partner_off_by_one_fails_the_oracle_and_bhk(monkeypatch):
    # The oracle compares the reflected b S with the naive rows, and bhk
    # ties b S and the inverse to the lift walks, which are not reflected.
    plant_partner_off_by_one(monkeypatch)
    values, identities = 0, 0
    for b in range(2, BMAX_PLANTED + 1):
        for base in residues_of(b):
            bs, a_inv = b_times_s(base, b), pow(base, -1, b)
            if 2 * base > b:
                partner = off_by_one_partner(base, b)
                bs = -b_times_s(partner, b) if partner else 0
                a_inv = b - (pow(partner, -1, b) if partner else 0)
            values += bs != b_times_s(base, b)
            for a in (base, base - b, base + b):
                identities += b * t_value(a, b) + a + a_inv - 3 * b != bs
    assert 0 < values < identities
    assert scan_oracle_equivalence(BMAX_PLANTED).summary["value_mismatches"] == values
    assert scan_bhk(BMAX_PLANTED).summary["identity_failures"] == identities


@pytest.mark.parametrize("batch", [None, 64])
def test_theorem2_walks_the_jacobi_symbols_once_per_batch(batch, monkeypatch):
    # mu, and through it the Jacobi symbols, serve both predictions.
    calls, batches = [], []
    real = dedsum.congruence._jacobi_pairs

    def counted(a, b):
        calls.append(len(a))
        return real(a, b)

    class CountedBatch(dedsum.scans._Batch):
        def __init__(self, piece):
            batches.append(piece)
            super().__init__(piece)

    monkeypatch.setattr(dedsum.congruence, "_jacobi_pairs", counted)
    monkeypatch.setattr(dedsum.scans, "_Batch", CountedBatch)
    if batch:
        monkeypatch.setattr(dedsum.scans, "_BATCH", batch)
    assert scan_theorem2(60).violations_total == 0
    assert (len(batches) == 1) == (batch is None)
    assert len(calls) == len(batches)
    assert sum(calls) == sum(b % 2 * len(coprime_residues(b)) for b in range(1, 61))


def test_theorem2_rows_follow_a_plain_loop_over_the_public_checks(monkeypatch):
    # The same defect in the array walk and in the scalar walk that the
    # public predicates read: the scan must report exactly the rows of a
    # loop over residues and lifts, residue row before mod-8 row.
    def delta(a, b):
        return (a > b) + 2 * (a < 0)

    plant_in_lift_walk(monkeypatch, delta)
    monkeypatch.setattr(dedsum.congruence, "t_value", lambda a, b: t_value(a, b) + delta(a, b))
    expected = []
    for b in range(2, 41):
        for base in range(1, b):
            if gcd(base, b) != 1:
                continue
            for a in (base, base - b, base + b):
                residue = bt_residue(a, b)
                row = {"b": b, "a": a, "case": residue.case_tag}
                if not residue.matches:
                    expected.append(
                        {
                            **row,
                            "check": "residue",
                            "modulus": residue.modulus,
                            "predicted": residue.predicted,
                            "actual": residue.actual,
                        }
                    )
                if not bt_congruence_mod8(a, b):
                    predicted = (b * b + 2 - mu(a, b) - mod_inverse(a, b) - a) % 8
                    actual = b * dedsum.congruence.t_value(a, b) % 8
                    expected.append(
                        {**row, "check": "mod8", "modulus": 8, "predicted": predicted, "actual": actual}
                    )
    report = scan_theorem2(40, cap=10**6)
    checks = {row["check"] for row in expected}
    assert checks == {"residue", "mod8"} and len(expected) > 500
    order = [name for name, _ in COLUMNS["theorem2"]]
    assert report.violations == [{name: row[name] for name in order} for row in expected]
    assert report.violations_total == len(expected)


def test_mu_quadratic_bound_fails_up_front(no_scan_may_start):
    with pytest.raises(ValueError, match="int64-exact limit .* quadratic form"):
        scan_mu_mod8(MU_QUADRATIC_LIMIT + 1, jobs=2)


def test_lift_walk_bound_fails_up_front(no_scan_may_start):
    start = time.perf_counter()
    for fn in (scan_theorem2, scan_bt_mod8):
        with pytest.raises(ValueError, match="int64-exact limit .* lift walks"):
            fn(LIFT_WALK_LIMIT + 1, jobs=2)
    assert time.perf_counter() - start < 1.0


def one_residue_rows(monkeypatch, *residues):
    """Give every row the residues given, so that a batch at a huge b
    does not build its whole row."""
    row = np.array(residues, dtype=np.int64)
    monkeypatch.setattr(dedsum.scans, "coprime_residues", lambda b: row)


def test_a_batch_walks_the_lifts_at_the_limit(monkeypatch):
    b = LIFT_WALK_LIMIT
    # 1 and b - 1 are units of every b; 2 is none of this even b.
    one_residue_rows(monkeypatch, 1, b - 1)
    batch = dedsum.scans._Batch([b])
    assert batch.bt.tolist() == [[b * t_value(x, b) for x in (a, a - b, a + b)] for a in (1, b - 1)]


def test_the_oracle_scans_a_window_across_the_int32_sum_switch(monkeypatch):
    # The rows b = 3,722..3,725 straddle NAIVE_SUM32_LIMIT = 3,723, above
    # which the naive rows contract in int64. The whole scan path runs on
    # them as one piece; with the limit one too high, b = 3,724 contracts
    # in int32, wraps, and the range check of its row raises.
    window = range(NAIVE_SUM32_LIMIT - 1, NAIVE_SUM32_LIMIT + 3)

    def oracle():
        return dedsum.scans._pass(["oracle-equivalence"], [window], window[-1], 100, {})[0]

    report = oracle()
    phi = totients(window[-1])
    assert report.tuples_checked == sum(phi[b] for b in window) == 8636
    assert report.violations_total == 0
    monkeypatch.setattr(dedsum.dedekind, "NAIVE_SUM32_LIMIT", NAIVE_SUM32_LIMIT + 1)
    with pytest.raises(ArithmeticError):
        oracle()


def test_the_lift_scans_scan_a_window_across_the_int32_power_switch():
    # The rows b = 46,338..46,341 end at POWER_INT32_LIMIT, where the
    # inverses still multiply in int32; the row b = 46,342, a piece of its
    # own, multiplies in int64. Only (b - 1)^2 = 46,341^2 passes 2^31 at
    # that row, and the power solves the residues a <= b/2 alone, none of
    # whose products reaches 2^31, so the limit set one too high wraps
    # nothing here; test_inverse_pairs_at_the_int32_switch sees the wrap
    # of a = b - 1 raise.
    b_max = POWER_INT32_LIMIT + 1
    pieces = [range(b_max - 4, b_max), range(b_max, b_max + 1)]
    reports = dedsum.scans._pass(["theorem2", "bhk", "bt-mod8"], pieces, b_max, 0, {})
    phi = totients(b_max)
    for report in reports:
        assert report.tuples_checked == 3 * sum(phi[b_max - 4 :]) == 380_796, report.kind
        assert report.violations_total == 0, report.kind


def test_the_lift_scans_scan_a_window_at_the_theorem1_row_limit(monkeypatch):
    # The rows b = 77,920..77,935, one row per piece, end where theorem1
    # stops; the lift scans go on far past them, with their inverses in
    # int64. With POWER_INT32_LIMIT raised to 77,935 those inverses
    # multiply in int32, wrap, and the inverse's self-check raises.
    window = range(THEOREM1_ROW_LIMIT - 15, THEOREM1_ROW_LIMIT + 1)
    pieces = [range(b, b + 1) for b in window]

    def lifts():
        return dedsum.scans._pass(["theorem2", "bt-mod8"], pieces, window[-1], 0, {})

    phi = totients(window[-1])
    for report in lifts():
        assert report.tuples_checked == 3 * sum(phi[window[0] :]) == 2_291_892, report.kind
        assert report.violations_total == 0, report.kind
    monkeypatch.setattr(dedsum.arith, "POWER_INT32_LIMIT", window[-1])
    with pytest.raises(ArithmeticError, match="inverse"):
        lifts()


def test_theorem1_scans_a_window_at_its_row_limit():
    # The rows b = 77,920..77,935 end at THEOREM1_ROW_LIMIT, one row per
    # piece, with the 9 | b rows kept: every pair of each row is decided.
    # 9 divides 77,922 and 77,931, whose rows hold every mismatch (166,320
    # and 98,800), each one mod 24 only.
    window = range(THEOREM1_ROW_LIMIT - 15, THEOREM1_ROW_LIMIT + 1)
    pieces = [range(b, b + 1) for b in window]
    options = {"theorem1": {"include_9div": True}}
    report = dedsum.scans._pass(["theorem1"], pieces, window[-1], 0, options)[0]
    sizes = dedsum.scans._row_sizes(window[-1])[window[0] :].tolist()
    assert report.tuples_checked == sum(p * (p - 1) // 2 for p in sizes) == 21_779_384_794
    assert report.violations_total == 265_120
    assert report.summary == {
        "mod24_mismatches_9div": 265_120,
        "mod24_mismatches_9ndiv": 0,
        "mod8_mismatches": 0,
    }


def test_lift_walk_limit_is_the_largest_exact_bound():
    # The mod-8 check of theorem2 reaches 2b^2 + 5b + 2 in size.
    def largest(b):
        return 2 * b * b + 5 * b + 2

    assert largest(LIFT_WALK_LIMIT) < 2**63 <= largest(LIFT_WALK_LIMIT + 1)


def test_run_suite_layout():
    reports = run_suite("all", 12)
    assert [r.kind for r in reports] == ["theorem1", "theorem2", *IDENTITY_KINDS]
    assert run_suite("theorem1", 12)[0].kind == "theorem1"
    assert [r.kind for r in run_suite("identities", 12)] == list(IDENTITY_KINDS)
    with pytest.raises(ValueError):
        run_suite("bogus", 12)


def test_run_identities_clean():
    for report in run_suite("identities", 25):
        assert report.violations_total == 0, report.kind


def test_parameters_do_not_include_jobs():
    report = scan_theorem1(12, jobs=2)
    assert "jobs" not in report.parameters
    assert report.parameters == {"bmax": 12, "cap": 100, "include_9div": False}


def test_flipped_mu_fails_theorem1_mod8(monkeypatch):
    real = dedsum.scans._mu_swapped_pairs

    def flipped(top, modulus):
        # theorem1 reads mu(b, a): flip the class a == 1 (mod 4).
        m = real(top, modulus)
        return np.where(modulus % 4 == 1, 4 - m, m)

    monkeypatch.setattr(dedsum.scans, "_mu_swapped_pairs", flipped)
    assert scan_theorem1(BMAX_PLANTED).summary["mod8_mismatches"] == 18


def plant_in_row_kernel(monkeypatch, delta):
    """Add delta(a, b), an int64 array, to every value the row kernel
    returns. Every scan that reads b S gets it from this kernel."""
    real = dedsum.dedekind._bs_pairs
    monkeypatch.setattr(dedsum.dedekind, "_bs_pairs", lambda a, b: real(a, b) + delta(a, b))


def test_perturbed_bs_fails_theorem1_mod8_and_mod24(monkeypatch):
    plant_in_row_kernel(monkeypatch, lambda a, b: np.where((a == 1) & (b % 3 != 0), b, 0))
    summary = scan_theorem1(BMAX_PLANTED).summary
    assert summary["mod8_mismatches"] > 0
    assert summary["mod24_mismatches_9ndiv"] > 0


def test_wrong_row_kernel_fails_oracle_and_reciprocity(monkeypatch):
    # b S(2, b) is off by b, which is S(2, b) off by 1.
    plant_in_row_kernel(monkeypatch, lambda a, b: np.where(a == 2, b, 0))
    assert scan_oracle_equivalence(BMAX_PLANTED).summary["value_mismatches"] > 0
    assert scan_reciprocity(BMAX_PLANTED).summary["residual_nonzero"] > 0


def test_perturbed_bs_fails_bs_congruences(monkeypatch):
    plant_in_row_kernel(monkeypatch, lambda a, b: (a == 1).astype(np.int64))
    summary = scan_bs_congruences(BMAX_PLANTED).summary
    assert summary["congruence_failures"] > 0


def test_wrong_kernel_entry_fails_every_scan_that_reads_it(monkeypatch):
    def delta(a, b):
        return (a == 1) * (b % 3 != 0) * b

    plant_in_row_kernel(monkeypatch, delta)
    wrong = [
        (b, a)
        for b in range(2, BMAX_PLANTED + 1)
        for a in residues_of(b)
        if planted_bs(a, b, delta) != b_times_s(a, b)
    ]
    # b S(1, b) and its reflection b S(b - 1, b) for each of the 19 b in
    # 2..30 that 3 does not divide, one entry at b = 2.
    assert len(wrong) == 2 * 19 - 1
    oracle = scan_oracle_equivalence(BMAX_PLANTED, cap=10**6)
    assert oracle.summary["value_mismatches"] == len(wrong)
    assert [(row["b"], row["a"]) for row in oracle.violations] == wrong
    row = oracle.violations[0]
    # The row shows the kernel's value, S(1, 2) + 1 = 1, not the naive 0.
    assert (row["fast_num"], row["fast_den"], row["naive_num"]) == (1, 1, 0)
    assert scan_bs_congruences(BMAX_PLANTED).summary["congruence_failures"] == len(wrong)
    assert scan_theorem1(BMAX_PLANTED).summary["mod8_mismatches"] > 0
    assert scan_bhk(BMAX_PLANTED).summary["identity_failures"] == 3 * len(wrong)


def test_asymmetric_kernel_defect_fails_reciprocity(monkeypatch):
    # Only the rows b < 15 are wrong. Rows of larger b read them through
    # the mirrored term a S(b mod a, a), so they fail too.
    plant_in_row_kernel(monkeypatch, lambda a, b: np.where(b < 15, b, 0))
    report = scan_reciprocity(BMAX_PLANTED, cap=10**6)
    assert report.summary["residual_nonzero"] > 0
    assert any(row["b"] >= 15 for row in report.violations)


def flip_sign(a: int, b: int) -> int:
    """-1 where a walk that takes b - a for a > b/2 must flip the sign."""
    return -1 if 2 * a > b else 1


def nonzero_flipped_pairs() -> int:
    """The pairs 0 < a < b <= BMAX_PLANTED with 2a > b and S(a, b) != 0:
    those whose value a walk that forgets the flip's sign gets wrong."""
    return sum(
        2 * a > b and dedekind_naive(a, b) != 0
        for b in range(2, BMAX_PLANTED + 1)
        for a in residues_of(b)
    )


def plant_unsigned_reflection(monkeypatch):
    """A batch that forgot to negate b S where it reflects a > b/2 from
    b - a, and so reads b S(b - a, b) = -b S(a, b) there."""
    real = dedsum.scans._Batch.bs.func

    def unsigned(batch):
        bs = real(batch)
        return np.where(2 * batch.a > batch.b, -bs, bs)

    monkeypatch.setattr(dedsum.scans._Batch, "bs", property(unsigned))


def test_wrong_flip_sign_in_row_kernel_fails_oracle_and_reciprocity(monkeypatch):
    # The flip that the row kernel's first level took for a > b/2 is now
    # the batch's reflection, and the kernel solves a <= b/2 alone there.
    # A reflection that forgot to negate returns b S(b - a, b) = -b S(a, b).
    plant_unsigned_reflection(monkeypatch)
    oracle = scan_oracle_equivalence(BMAX_PLANTED)
    assert oracle.summary["value_mismatches"] == nonzero_flipped_pairs() > 0
    # bhk reads the wrong b S on all three lifts of each of those residues.
    bhk = scan_bhk(BMAX_PLANTED)
    assert bhk.summary["identity_failures"] == 3 * nonzero_flipped_pairs()
    # The reciprocity check reads the wrong b S, and the mirrored term
    # a S(b mod a, a) from the row kernel unreflected.
    expected = 0
    for b in range(2, BMAX_PLANTED + 1):
        for a in residues_of(b):
            bs = flip_sign(a, b) * b * dedekind_naive(a, b)
            mirror = a * dedekind_naive(b % a, a) if a > 1 else 0
            expected += a * bs + b * mirror != a * a + b * b + 1 - 3 * a * b
    assert scan_reciprocity(BMAX_PLANTED).summary["residual_nonzero"] == expected > 0


def test_shifted_mu_original_fails_mu_mod8(monkeypatch):
    # The rows are those of a plain loop over a in 1..4b, in that order.
    plant_shifted_mu_original(monkeypatch)
    report = scan_mu_mod8(BMAX_PLANTED, cap=10**6)
    expected = [
        (b, a)
        for b in range(2, BMAX_PLANTED + 1, 2)
        for a in range(1, 4 * b + 1)
        if gcd(a, b) == 1 and a % 8 == 1
    ]
    assert [(row["b"], row["a"]) for row in report.violations] == expected
    assert report.summary["mod8_mismatches"] == len(expected) > 0


def residues_of(b: int) -> list[int]:
    return [a for a in range(1, b) if gcd(a, b) == 1]


def assert_rows_equal_plain_loop(scan, counter: str, expected: list[tuple]):
    """The scan at BMAX_PLANTED, uncapped and capped at 3, reports
    exactly `expected`, the rows of a plain loop, under one counter."""
    assert len(expected) > 3
    for cap in (10**6, 3):
        report = scan(BMAX_PLANTED, cap=cap)
        names = [name for name, _ in COLUMNS[report.kind]]
        rows = [dict(zip(names, values, strict=True)) for values in expected]
        assert report.violations == rows[:cap], cap
        assert (report.violations_total, report.summary) == (len(rows), {counter: len(rows)}), cap


def kernel_delta(a, b):
    """A row kernel defect whose wrong values are negative, zero and
    reducible over b; for ints and int64 arrays alike."""
    return (a % 3 == 2) * (2 - b)


def test_oracle_rows_follow_a_plain_loop(monkeypatch):
    # The row kernel is wrong at a == 2 (mod 3), on the residues that it
    # solves and on their reflections, and each row shows its value.
    plant_in_row_kernel(monkeypatch, kernel_delta)
    expected = []
    for b in range(2, BMAX_PLANTED + 1):
        for a in residues_of(b):
            naive = dedekind_naive(a, b)
            fast = Fraction(planted_bs(a, b, kernel_delta), b)
            if fast != naive:
                expected.append((b, a, fast.numerator, fast.denominator, naive.numerator, naive.denominator))
    assert min(row[2] for row in expected) < 0 and any(row[2] == 0 for row in expected)
    assert any(1 < row[3] < row[0] for row in expected)
    assert_rows_equal_plain_loop(scan_oracle_equivalence, "value_mismatches", expected)


def test_a_wrong_naive_row_fails_the_oracle_alone(monkeypatch):
    # The reference is wrong by 1 on every residue of b = 12 and right
    # elsewhere. The row kernel is right, and the row shows its value;
    # the reciprocity scan reads no naive row.
    real = dedsum.scans._naive_row_values
    monkeypatch.setattr(
        dedsum.scans, "_naive_row_values", lambda residues, b: real(residues, b) + (b == 12)
    )
    expected = []
    for a in residues_of(12):
        fast, naive = dedekind_naive(a, 12), dedekind_naive(a, 12) + Fraction(1, 12)
        expected.append((12, a, fast.numerator, fast.denominator, naive.numerator, naive.denominator))
    assert len(expected) == totients(12)[12]
    assert_rows_equal_plain_loop(scan_oracle_equivalence, "value_mismatches", expected)
    assert scan_reciprocity(BMAX_PLANTED).violations_total == 0


def test_a_huge_scalar_value_is_a_mismatch_and_never_wraps(monkeypatch):
    # 8 S(1, 8) = 42. The scan compares b S as int64 and multiplies no
    # value, so values at the top of the int64 range are mismatches like
    # any other; their reflections, at the bottom, too. Each row shows the
    # value that came back, over b.
    planted = {(1, 8): 42 + 2**62, (2, 7): 2**63 - 1}
    real = dedsum.scans.bs_values

    def huge(a, b):
        values = real(a, b)
        for (pa, pb), value in planted.items():
            values[(a == pa) & (b == pb)] = value
        return values

    monkeypatch.setattr(dedsum.scans, "bs_values", huge)
    expected = []
    for b in range(2, BMAX_PLANTED + 1):
        for a in residues_of(b):
            p, sign = solved(a, b)
            if (p, b) in planted:
                value = Fraction(sign * planted[p, b], b)
                expected.append((a, b, value.numerator, value.denominator))
    assert [row[:2] for row in expected] == [(2, 7), (5, 7), (1, 8), (7, 8)]
    assert expected[0][2:] == ((2**63 - 1) // 7, 1)
    report = scan_oracle_equivalence(BMAX_PLANTED)
    assert report.summary == {"value_mismatches": len(expected)}
    rows = [(row["a"], row["b"], row["fast_num"], row["fast_den"]) for row in report.violations]
    assert rows == expected


def test_reciprocity_rows_follow_a_plain_loop(monkeypatch):
    # b S is reflected, and the mirrored term is solved as it stands.
    plant_in_row_kernel(monkeypatch, kernel_delta)
    expected = []
    for b in range(2, BMAX_PLANTED + 1):
        for a in residues_of(b):
            bs = planted_bs(a, b, kernel_delta)
            mirror = b_times_s(b % a, a) + kernel_delta(b % a, a) if a > 1 else 0
            residual = Fraction(a * bs + b * mirror - (a * a + b * b + 1 - 3 * a * b), a * b)
            if residual:
                expected.append((a, b, residual.numerator, residual.denominator))
    assert min(row[2] for row in expected) < 0
    assert any(row[3] < row[0] * row[1] for row in expected)
    assert_rows_equal_plain_loop(scan_reciprocity, "residual_nonzero", expected)


def test_bs_congruence_rows_follow_a_plain_loop(monkeypatch):
    plant_in_row_kernel(monkeypatch, kernel_delta)
    expected = []
    for b in range(2, BMAX_PLANTED + 1):
        for a in residues_of(b):
            value = planted_bs(a, b, kernel_delta)
            modulus = 9 if b % 3 == 0 else 3
            residue = (2 if a % 3 == 1 else 7) if b % 3 == 0 else 0
            if value % modulus != residue:
                expected.append((b, a, value, modulus, residue, value % modulus))
    assert min(row[2] for row in expected) < 0 and any(row[-1] == 0 for row in expected)
    assert_rows_equal_plain_loop(scan_bs_congruences, "congruence_failures", expected)


def lift_rows(check) -> list[tuple]:
    """check(b, residue, lift) over the three lifts of every residue, in
    scan order; the rows of the lifts where it returns one."""
    rows = []
    for b in range(2, BMAX_PLANTED + 1):
        for base in residues_of(b):
            for a in (base, base - b, base + b):
                row = check(b, base, a)
                if row:
                    rows.append(row)
    return rows


def test_bhk_rows_follow_a_plain_loop(monkeypatch):
    plant_wrong_inverse(monkeypatch)

    def check(b, base, a):
        a_inv = planted_inverse(base, b, lambda inverse, b: inverse + 1)
        lhs = b * t_value(a, b) + a + a_inv - 3 * b
        rhs = b_times_s(base, b)
        return (b, a, lhs, rhs) if lhs != rhs else None

    expected = lift_rows(check)
    assert min(row[3] for row in expected) < 0 and any(row[3] == 0 for row in expected)
    assert_rows_equal_plain_loop(scan_bhk, "identity_failures", expected)


def test_bt_mod8_rows_follow_a_plain_loop(monkeypatch):
    def delta(a, b):
        return (a > b) + 2 * (a < 0)

    plant_in_lift_walk(monkeypatch, delta)

    def check(b, base, a):
        actual = b * (t_value(a, b) + delta(a, b)) % 8
        expected = (b * b + 2 - mu(base, b) - mod_inverse(base, b) - a) % 8
        return (b, a, actual, expected) if actual != expected else None

    expected = lift_rows(check)
    assert any(row[2] == 0 for row in expected) and any(row[3] == 0 for row in expected)
    assert_rows_equal_plain_loop(scan_bt_mod8, "mod8_failures", expected)


def test_readme_scan_table_states_the_int64_limits_of_the_checks():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    header = "| scan "
    table = readme[readme.index(header) :].split("\n\n")[0].splitlines()[2:]
    stated = {}
    for line in table:
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        limit = cells[-1].replace(",", "")
        stated[cells[0].strip("`")] = None if limit == "none" else int(limit)
    checks = dedsum.scans._CHECKS
    assert stated == {kind: limit and limit[0] for kind, (_, _, limit) in checks.items()}
