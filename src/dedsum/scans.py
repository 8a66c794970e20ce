"""Exhaustive verification scans over ranges of denominators.

Each scan walks every admissible tuple with b up to a bound, checks one
family of claims with exact arithmetic, and returns a ScanReport. Rows
describing violating tuples are collected up to a cap; the counters in
the report are never capped.

Scans can be partitioned across processes with jobs > 1. Workers get
disjoint strided slices of the b range and their partial results are
merged in ascending b order, so the report content is identical for any
job count (elapsed time aside).
"""

import functools
import itertools
import time
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from math import gcd

import numpy as np

from dedsum.arith import _inverse_pairs
from dedsum.congruence import (
    _bt_case,
    _bt_case_pairs,
    _mod8_offset_pairs,
    _mu,
    mu,
    mu_original,
)
from dedsum.contfrac import _t_pairs
from dedsum.dedekind import (
    LIFT_WALK_LIMIT,
    NAIVE_ROW_LIMIT,
    THEOREM1_ROW_LIMIT,
    _fast_parts,
    fast_bs_rows,
    gather_rows,
    naive_bs_row,
    residue_rows,
)
from dedsum.report import ScanReport

SUITES = ("theorem1", "theorem2", "identities", "all")

IDENTITY_KINDS = (
    "oracle-equivalence",
    "reciprocity",
    "bhk",
    "bt-mod8",
    "bs-mod3-9",
    "mu-mod8",
)

# Elements per int64 block of theorem1's pair triangle. Small blocks keep
# the temporaries in cache and the peak memory flat; much larger ones
# are slower and raise the peak RSS.
_PAIR_BLOCK = 4096

# Residues per batch of the lift scans; each residue has three lifts.
# Smaller batches pay more numpy call overhead, larger ones raise the
# peak memory.
_LIFT_BATCH = 2048

# The lifts a, a - b, a + b of a residue a, as multiples of b.
_LIFT_SHIFTS = np.array([0, -1, 1], dtype=np.int64)


def _new_acc() -> dict:
    """Empty accumulator for one worker."""
    return {
        "tuples_checked": 0,
        "violations_total": 0,
        "violations": [],
        "summary": {},
    }


def _record(acc: dict, cap: int, row: dict) -> None:
    acc["violations_total"] += 1
    if len(acc["violations"]) < cap:
        acc["violations"].append(row)


def _bump(acc: dict, key: str, amount: int = 1) -> None:
    acc["summary"][key] = acc["summary"].get(key, 0) + amount


def _pair_condition(b, a1, m1, a2, m2):
    """The mod-8b pairing condition of `mu_condition`, elementwise.

    a1 and a2 are residues coprime to b, m1 and m2 are mu(b, a1) and
    mu(b, a2). They may be int64 arrays that broadcast together; the
    result is then exact for b <= THEOREM1_ROW_LIMIT.
    """
    return (
        b * (a2 * m1 - a1 * m2) - (a1 - a2) * (b - 1) * (a1 * a2 + b - 1)
    ) % (8 * b) == 0


def _theorem1_rows(bs: list[int], cap: int, include_9div: bool) -> dict:
    """Pairing condition vs. membership of S(a1,b)-S(a2,b) in 8Z and 24Z.

    bS comes from the row kernel and mu is computed per residue. The pair
    triangle is checked in int64 blocks of about _PAIR_BLOCK elements:
    rows lo..hi-1 against columns lo+1..n-1, of which the pairs with
    j > i are kept. np.nonzero walks a block in row-major order, so the
    violation rows come out in the order of the pairs (a1, a2).
    """
    acc = _new_acc()
    for key in ("mod8_mismatches", "mod24_mismatches_9ndiv", "mod24_mismatches_9div"):
        acc["summary"][key] = 0
    scanned = (b for b in bs if b >= 3 and (include_9div or b % 9))
    for b, a, bss in fast_bs_rows(scanned):
        key24 = "mod24_mismatches_9ndiv" if b % 9 else "mod24_mismatches_9div"
        residues = a.tolist()
        n = len(residues)
        acc["tuples_checked"] += n * (n - 1) // 2
        mus = np.array([_mu(b, x) for x in residues], dtype=np.int64)
        lo = 0
        while lo < n - 1:
            hi = min(n - 1, lo + max(1, _PAIR_BLOCK // (n - 1 - lo)))
            rows, cols = slice(lo, hi), slice(lo + 1, n)
            cond = _pair_condition(
                b, a[rows, None], mus[rows, None], a[None, cols], mus[None, cols]
            )
            d = bss[rows, None] - bss[None, cols]
            d24 = d % (24 * b)
            in24 = d24 == 0
            in8 = d24 % (8 * b) == 0
            # Block entry (r, c) is the pair (lo + r, lo + 1 + c): keep c >= r.
            bad = np.triu((cond != in8) | (cond != in24))
            for r, c in zip(*(idx.tolist() for idx in np.nonzero(bad))):
                cond_rc, in8_rc, in24_rc = bool(cond[r, c]), bool(in8[r, c]), bool(in24[r, c])
                if cond_rc != in8_rc:
                    _bump(acc, "mod8_mismatches")
                if cond_rc != in24_rc:
                    _bump(acc, key24)
                diff = Fraction(int(d[r, c]), b)
                _record(
                    acc,
                    cap,
                    {
                        "b": b,
                        "a1": residues[lo + r],
                        "a2": residues[lo + 1 + c],
                        "condition": cond_rc,
                        "diff_num": diff.numerator,
                        "diff_den": diff.denominator,
                        "in8Z": in8_rc,
                        "in24Z": in24_rc,
                    },
                )
            lo = hi
    return acc


def _lift_batches(rows):
    """Walk T once for every lift of a batch of residues.

    rows are (b, residues, ...) tuples, gathered into batches of about
    _LIFT_BATCH residues. Each batch yields (rows, b, a, a_inv, lifts,
    bt): b, a and a_inv are per residue, lifts is the (n, 3) array of
    a, a - b, a + b and bt holds b T of each lift. T is sensitive to the
    lift even though S is not, so every lift gets its own walk.
    """
    for batch in gather_rows(rows, _LIFT_BATCH):
        b = np.repeat(
            np.array([row[0] for row in batch], dtype=np.int64),
            [len(row[1]) for row in batch],
        )
        a = np.concatenate([row[1] for row in batch])
        lifts = a[:, None] + b[:, None] * _LIFT_SHIFTS
        t = _t_pairs(lifts.ravel(), np.repeat(b, 3)).reshape(lifts.shape)
        yield batch, b, a, _inverse_pairs(a, b), lifts, b[:, None] * t


def _theorem2_rows(bs: list[int], cap: int) -> dict:
    """Exact residues of b T(a, b) mod 24/72 plus the mod-8 congruence.

    Every residue class is checked through three integer lifts a, a - b,
    a + b. The per-class terms are computed once per residue and one
    walk of each lift serves both checks. A lift that fails both gets
    its residue row first.
    """
    acc = _new_acc()
    acc["summary"] = {"residue_mismatches": 0, "mod8_failures": 0}
    for _, b, a, a_inv, lifts, bt in _lift_batches(residue_rows(bs, LIFT_WALK_LIMIT)):
        acc["tuples_checked"] += lifts.size
        modulus, offset = (col[:, None] for col in _bt_case_pairs(a, b, a_inv))
        offset8 = _mod8_offset_pairs(a, b, a_inv)[:, None]
        actual = bt % modulus
        predicted = (offset - lifts) % modulus
        residue_bad = actual != predicted
        mod8_bad = (bt - offset8 + lifts) % 8 != 0
        for i, j in np.argwhere(residue_bad | mod8_bad).tolist():
            row_b, lift = int(b[i]), int(lifts[i, j])
            case = _bt_case(int(a[i]), row_b, int(a_inv[i]))[0]
            if residue_bad[i, j]:
                _bump(acc, "residue_mismatches")
                _record(
                    acc,
                    cap,
                    {
                        "b": row_b,
                        "a": lift,
                        "check": "residue",
                        "case": case,
                        "modulus": int(modulus[i, 0]),
                        "predicted": int(predicted[i, j]),
                        "actual": int(actual[i, j]),
                    },
                )
            if mod8_bad[i, j]:
                _bump(acc, "mod8_failures")
                _record(
                    acc,
                    cap,
                    {
                        "b": row_b,
                        "a": lift,
                        "check": "mod8",
                        "case": case,
                        "modulus": 8,
                        "predicted": int((offset8[i, 0] - lift) % 8),
                        "actual": int(bt[i, j] % 8),
                    },
                )
    return acc


def _oracle_rows(bs: list[int], cap: int) -> dict:
    """Both reciprocity evaluators against the definitional summation.

    The row kernel is compared with the naive row as a whole array, and
    the scalar `_fast_parts` pair by pair. A pair counts once if either
    disagrees; its row shows the kernel's value when the kernel is wrong,
    else the scalar's.
    """
    acc = _new_acc()
    acc["summary"] = {"value_mismatches": 0}
    for b, residues, fast in fast_bs_rows(bs):
        _, naive = naive_bs_row(b)
        acc["tuples_checked"] += len(residues)
        kernel_bad = fast != naive
        parts = [_fast_parts(a, b) for a in residues.tolist()]
        bad = set(np.flatnonzero(kernel_bad).tolist())
        bad.update(
            i
            for i, ((num, den), bs_naive) in enumerate(zip(parts, naive.tolist()))
            if num * b != bs_naive * den
        )
        for i in sorted(bad):
            _bump(acc, "value_mismatches")
            if kernel_bad[i]:
                s_fast = Fraction(int(fast[i]), b)
                num, den = s_fast.numerator, s_fast.denominator
            else:
                num, den = parts[i]
            s_naive = Fraction(int(naive[i]), b)
            _record(
                acc,
                cap,
                {
                    "b": b,
                    "a": int(residues[i]),
                    "fast_num": num,
                    "fast_den": den,
                    "naive_num": s_naive.numerator,
                    "naive_den": s_naive.denominator,
                },
            )
    return acc


def _reciprocity_rows(bs: list[int], cap: int) -> dict:
    """ab S(a,b) + ab S(b,a) == a^2 + b^2 + 1 - 3ab for coprime a <= b.

    Checked as a (b S(a, b)) + b (a S(b mod a, a)) == rhs over whole rows;
    both terms come from the row kernel, the second from the mirrored
    pairs (b mod a, a), which it solves in the same batch.
    """
    acc = _new_acc()
    acc["summary"] = {"residual_nonzero": 0}
    kernel_rows = fast_bs_rows(bs, mirrored=True)
    if 1 in bs:
        # The tuple a = b = 1: S(1, 1) = 0 on both sides, and rhs = 0.
        one = np.ones(1, dtype=np.int64)
        kernel_rows = itertools.chain([(1, one, 0 * one, 0 * one)], kernel_rows)
    for b, a, bs_ab, as_ba in kernel_rows:
        acc["tuples_checked"] += len(a)
        rhs = a * a + b * b + 1 - 3 * a * b
        lhs = a * bs_ab + b * as_ba
        for i in np.flatnonzero(lhs != rhs).tolist():
            _bump(acc, "residual_nonzero")
            upper = int(a[i])
            residual = Fraction(int(lhs[i] - rhs[i]), upper * b)
            _record(
                acc,
                cap,
                {
                    "a": upper,
                    "b": b,
                    "residual_num": residual.numerator,
                    "residual_den": residual.denominator,
                },
            )
    return acc


def _bhk_rows(bs: list[int], cap: int) -> dict:
    """b T(a,b) + a + a_inv - 3b == b S(a,b) over three lifts per class.

    b S comes from the reciprocity row kernel and b T from the Euclid
    walk of each lift, so the two sides never share a computation.
    """
    acc = _new_acc()
    acc["summary"] = {"identity_failures": 0}
    for batch, b, _, a_inv, lifts, bt in _lift_batches(fast_bs_rows(bs)):
        acc["tuples_checked"] += lifts.size
        rhs = np.concatenate([values for _, _, values in batch])
        lhs = bt + lifts + (a_inv - 3 * b)[:, None]
        for i, j in np.argwhere(lhs != rhs[:, None]).tolist():
            _bump(acc, "identity_failures")
            _record(
                acc,
                cap,
                {"b": int(b[i]), "a": int(lifts[i, j]), "lhs": int(lhs[i, j]), "rhs": int(rhs[i])},
            )
    return acc


def _bt_mod8_rows(bs: list[int], cap: int) -> dict:
    """b T(a,b) == -mu(a,b) + b^2 + 2 - a - a_inv (mod 8), three lifts."""
    acc = _new_acc()
    acc["summary"] = {"mod8_failures": 0}
    for _, b, a, a_inv, lifts, bt in _lift_batches(residue_rows(bs, LIFT_WALK_LIMIT)):
        acc["tuples_checked"] += lifts.size
        actual = bt % 8
        expected = (_mod8_offset_pairs(a, b, a_inv)[:, None] - lifts) % 8
        for i, j in np.argwhere(actual != expected).tolist():
            _bump(acc, "mod8_failures")
            _record(
                acc,
                cap,
                {
                    "b": int(b[i]),
                    "a": int(lifts[i, j]),
                    "actual_mod8": int(actual[i, j]),
                    "expected_mod8": int(expected[i, j]),
                },
            )
    return acc


def _bs_congruence_rows(bs: list[int], cap: int) -> dict:
    """b S(a,b) == 0 (mod 3) when 3 does not divide b, else 2e (mod 9).

    e = +-1 with a == e (mod 3), so 2e mod 9 is 2 or 7. Each row is
    checked as a whole array.
    """
    acc = _new_acc()
    acc["summary"] = {"congruence_failures": 0}
    for b, residues, values in fast_bs_rows(bs):
        acc["tuples_checked"] += len(residues)
        div3 = b % 3 == 0
        modulus = 9 if div3 else 3
        expected = np.where(residues % 3 == 1, 2, 7) if div3 else np.zeros_like(values)
        actual = values % modulus
        for i in np.flatnonzero(actual != expected).tolist():
            _bump(acc, "congruence_failures")
            _record(
                acc,
                cap,
                {
                    "b": b,
                    "a": int(residues[i]),
                    "b_times_s": int(values[i]),
                    "modulus": modulus,
                    "expected": int(expected[i]),
                    "actual": int(actual[i]),
                },
            )
    return acc


def _mu_mod8_rows(bs: list[int], cap: int) -> dict:
    """mu(a,b) == (a-1)(a+b-1) (mod 8) for even b, a over a full period."""
    acc = _new_acc()
    acc["summary"] = {"mod8_mismatches": 0}
    for b in bs:
        if b < 2 or b % 2 == 1:
            continue
        for a in range(1, 4 * b + 1):
            if gcd(a, b) != 1:
                continue
            acc["tuples_checked"] += 1
            simple = mu(a, b)
            quadratic = mu_original(a, b)
            if (simple - quadratic) % 8 != 0:
                _bump(acc, "mod8_mismatches")
                _record(
                    acc,
                    cap,
                    {"b": b, "a": a, "mu_simple": simple, "mu_quadratic": quadratic},
                )
    return acc


_RANGE_FN = {
    "theorem1": _theorem1_rows,
    "theorem2": _theorem2_rows,
    "oracle-equivalence": _oracle_rows,
    "reciprocity": _reciprocity_rows,
    "bhk": _bhk_rows,
    "bt-mod8": _bt_mod8_rows,
    "bs-mod3-9": _bs_congruence_rows,
    "mu-mod8": _mu_mod8_rows,
}


# Largest b_max of the scans with an int64 fast path, and what it bounds.
_INT64_LIMITS = {
    "theorem1": (THEOREM1_ROW_LIMIT, "the pair blocks of theorem1"),
    "theorem2": (LIFT_WALK_LIMIT, "the lift walks of theorem2"),
    "bt-mod8": (LIFT_WALK_LIMIT, "the lift walks of bt-mod8"),
    "oracle-equivalence": (
        NAIVE_ROW_LIMIT,
        "the naive rows and the row kernel that oracle-equivalence compares",
    ),
    "reciprocity": (NAIVE_ROW_LIMIT, "the row kernel that reciprocity reads"),
    "bhk": (NAIVE_ROW_LIMIT, "the row kernel that bhk reads"),
    "bs-mod3-9": (NAIVE_ROW_LIMIT, "the row kernel that bs-mod3-9 reads"),
}


def _validate_scan_args(kind: str, b_max: int, cap: int, jobs: int) -> None:
    if b_max < 1:
        raise ValueError(f"b_max must be at least 1, got {b_max}")
    if cap < 0:
        raise ValueError(f"cap must not be negative, got {cap}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if kind in _INT64_LIMITS and b_max > _INT64_LIMITS[kind][0]:
        limit, what = _INT64_LIMITS[kind]
        raise ValueError(f"b_max={b_max} exceeds {limit}, the int64-exact limit of {what}")


def _run_scan(kind: str, b_max: int, cap: int, jobs: int, parameters: dict, **kwargs) -> ScanReport:
    """Run one scan, optionally across processes, and assemble the report.

    Workers receive strided slices bs[i::jobs], so their b sets are
    disjoint; a stable sort by b restores the sequential row order
    before the cap is applied to the merged list.
    """
    _validate_scan_args(kind, b_max, cap, jobs)
    start = time.perf_counter()
    fn = functools.partial(_RANGE_FN[kind], cap=cap, **kwargs)
    all_bs = list(range(1, b_max + 1))
    slices = [all_bs[i::jobs] for i in range(jobs)]
    slices = [s for s in slices if s]
    if len(slices) <= 1:
        partials = [fn(all_bs)]
    else:
        with ProcessPoolExecutor(max_workers=len(slices)) as pool:
            partials = list(pool.map(fn, slices))
    rows = sorted(
        (row for part in partials for row in part["violations"]),
        key=lambda row: row["b"],
    )
    summary: dict = {}
    for part in partials:
        for key, value in part["summary"].items():
            summary[key] = summary.get(key, 0) + value
    return ScanReport(
        kind=kind,
        b_lo=1,
        b_hi=b_max,
        tuples_checked=sum(p["tuples_checked"] for p in partials),
        violations_total=sum(p["violations_total"] for p in partials),
        violations=rows[:cap],
        parameters=dict(sorted(parameters.items())),
        summary=dict(sorted(summary.items())),
        elapsed=time.perf_counter() - start,
    )


def scan_theorem1(
    b_max: int, *, include_9div: bool = False, cap: int = 100, jobs: int = 1
) -> ScanReport:
    """Check the pairing condition against 8Z/24Z membership of differences.

    By default b divisible by 9 is skipped, matching the range where the
    24Z equivalence is claimed. With include_9div=True those b are
    scanned too; their expected 24Z mismatches are reported as
    violations and tallied under summary['mod24_mismatches_9div'].

    Raises ValueError before any work when b_max exceeds
    THEOREM1_ROW_LIMIT, the bound of its int64 pair blocks.
    """
    return _run_scan(
        "theorem1",
        b_max,
        cap,
        jobs,
        {"bmax": b_max, "cap": cap, "include_9div": include_9div},
        include_9div=include_9div,
    )


def scan_theorem2(b_max: int, *, cap: int = 100, jobs: int = 1) -> ScanReport:
    """Check predicted residues of b T(a,b) mod 24/72 and the mod-8 form."""
    return _bounded_scan("theorem2", b_max, cap, jobs)


def _bounded_scan(kind: str, b_max: int, cap: int, jobs: int) -> ScanReport:
    """A scan whose only parameters are its bound and its row cap."""
    return _run_scan(kind, b_max, cap, jobs, {"bmax": b_max, "cap": cap})


def scan_oracle_equivalence(b_max: int, *, cap: int = 100, jobs: int = 1) -> ScanReport:
    """Compare the fast evaluator to direct summation for every (a, b).

    Raises ValueError before any work when b_max exceeds NAIVE_ROW_LIMIT.
    """
    return _bounded_scan("oracle-equivalence", b_max, cap, jobs)


def scan_reciprocity(b_max: int, *, cap: int = 100, jobs: int = 1) -> ScanReport:
    """Check the reciprocity law in integer form for coprime a <= b."""
    return _bounded_scan("reciprocity", b_max, cap, jobs)


def scan_bhk(b_max: int, *, cap: int = 100, jobs: int = 1) -> ScanReport:
    """Check S = T + (a + a_inv)/b - 3 in integer form over three lifts."""
    return _bounded_scan("bhk", b_max, cap, jobs)


def scan_bt_mod8(b_max: int, *, cap: int = 100, jobs: int = 1) -> ScanReport:
    """Check the mod-8 congruence for b T(a,b) over three lifts."""
    return _bounded_scan("bt-mod8", b_max, cap, jobs)


def scan_bs_congruences(b_max: int, *, cap: int = 100, jobs: int = 1) -> ScanReport:
    """Check b S(a,b) mod 3 (or mod 9 when 3 | b) against its closed form."""
    return _bounded_scan("bs-mod3-9", b_max, cap, jobs)


def scan_mu_mod8(b_max: int, *, cap: int = 100, jobs: int = 1) -> ScanReport:
    """Check mu against its quadratic form mod 8 for even b."""
    return _bounded_scan("mu-mod8", b_max, cap, jobs)


def run_identities(b_max: int, *, cap: int = 100, jobs: int = 1) -> list[ScanReport]:
    """All structural identity scans at one bound, in a fixed order."""
    return run_suite("identities", b_max, cap=cap, jobs=jobs)


def run_suite(
    suite: str,
    b_max: int,
    *,
    include_9div: bool = False,
    cap: int = 100,
    jobs: int = 1,
) -> list[ScanReport]:
    """Reports for one named suite: theorem1, theorem2, identities, or all.

    Every scan's arguments are checked before the first scan starts, so
    a bound one scan cannot take fails at once, not after the others ran.
    """
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}, expected one of {SUITES}")
    kinds = [kind for kind in ("theorem1", "theorem2") if suite in (kind, "all")]
    if suite in ("identities", "all"):
        kinds.extend(IDENTITY_KINDS)
    for kind in kinds:
        _validate_scan_args(kind, b_max, cap, jobs)
    return [
        scan_theorem1(b_max, include_9div=include_9div, cap=cap, jobs=jobs)
        if kind == "theorem1"
        else _bounded_scan(kind, b_max, cap, jobs)
        for kind in kinds
    ]
