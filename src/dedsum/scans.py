"""Exhaustive verification scans over ranges of denominators.

Each scan walks every admissible tuple with b up to a bound, checks one
family of claims with exact arithmetic, and returns a ScanReport. Rows
describing violating tuples are collected up to a cap; the counters in
the report are never capped. Every scan is one entry of the check table
_CHECKS, and one driver, _run, runs any list of them. A check decides a
batch of tuples as int64 arrays and returns the batch's count of tuples
and its violations as index-selected columns; _pass hands them to _add
in one call per batch, and only _add counts, caps and builds rows.

_pieces cuts the b range into pieces of consecutive b, about one batch
of residues each, in ascending b. The calling process and a pool of up
to jobs - 1 workers (none at jobs 1) share them: each process starts on
a piece of its own, then claims the next unclaimed piece from a shared
counter until none is left, so a process that runs slower on a busy
host does less of the work. A process makes one pass (_pass): it builds
each piece as one _Batch, runs every kind on it before the next, and
fills one ScanReport per kind. The arrays that several kinds read are
computed at most once per batch, by the first kind that reads them, and
every check reads the batch's residues: none builds a row of them again.

_merge turns the processes' reports of one kind into the final report,
rows in ascending b order, so the report content is identical for any
job count. A report's elapsed time is its kind's longest time in one
process, including the shared arrays that kind was the first to read.
Building the rows and starting the pool count in no kind.
"""

import dataclasses
import functools
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from math import isqrt

import numpy as np

from dedsum.arith import _inverse_pairs
from dedsum.congruence import (
    BT_CASES,
    _bt_case_pairs,
    _mod8_offset_pairs,
    _mu_pairs,
    _mu_quadratic_pairs,
    _mu_swapped_pairs,
)
from dedsum.contfrac import _t_pairs
from dedsum.dedekind import NAIVE_ROW_LIMIT, _naive_row_values, bs_values, coprime_residues
from dedsum.report import COLUMNS, ScanReport

SUITES = ("theorem1", "theorem2", "identities", "all")

# Residues per batch: rows are gathered until a batch holds at least this
# many. One numpy call per short row costs more in call overhead than in
# arithmetic; larger batches raise the peak memory.
_BATCH = 2048


# The lift scans theorem2 and bt-mod8 walk T(a, b) for the lifts a, a - b,
# a + b of each residue 0 < a < b, so -b < a < 2b. The first quotient
# floor(a/b) is -1, 0 or 1 and the rest are those of a mod b over b, whose
# sum is at most b; with the +2 of an odd quotient count, every partial sum
# of the walk and T itself stay within b + 3 in size. The walk runs in
# int32 while max |a| + max b = 3b - 1 is at most
# contfrac.T_PAIRS_INT32_LIMIT (2^31), that is up to b = 715,827,883, and
# in int64 above; T comes back as int64 either way. So |b T| <= b^2 + 3b,
# the mod-8 offset b^2 + 2 - mu - a_inv lies in [b^2 - b - 3, b^2 + 2],
# and the mod-8 check b T - offset + a stays within 2b^2 + 5b + 2. That is
# below 2^63 up to b = 2^31 - 2. The power a^(phi(b) - 1) mod b that gives
# a^-1 multiplies factors reduced mod b: each product is below
# b^2 <= (2^31 - 2)^2 < 2^62, and below 2^31 in its int32 rounds, up to
# b = arith.POWER_INT32_LIMIT (46,341); the inverse is int64 either way.
# The Jacobi symbol in mu reads, for each prime p | b up to 4096, a table
# of p entries, each 0 or +-1, at a mod p; for a larger p, the Euler power
# a^((p - 1)/2) mod p, each product below p^2 <= b^2 < 2^62
# (arith.JACOBI_PAIRS_LIMIT, 2^31 - 1, is above this limit).
LIFT_WALK_LIMIT = 2_147_483_646


class _Batch:
    """The rows (b, coprime residues of b) of one piece, ascending b.

    a and b hold one entry per residue, and spans the (b, start, end) of
    each row, so that a[start:end] are the residues of that b; b = 1 has
    an empty row. Each array that a check reads is computed on first use
    and kept for the other checks of the batch.
    """

    def __init__(self, piece):
        rows = [coprime_residues(b) for b in piece]
        sizes = [len(residues) for residues in rows]
        ends = np.cumsum(sizes).tolist()
        self.spans = [(b, end - size, end) for b, size, end in zip(piece, sizes, ends)]
        self.a = np.concatenate(rows)
        self.b = np.repeat(np.array(piece, dtype=np.int64), sizes)

    @functools.cached_property
    def bs(self) -> np.ndarray:
        """b S(a, b), from the row kernel."""
        return bs_values(self.a, self.b)

    @functools.cached_property
    def mirror(self) -> np.ndarray:
        """a S(b mod a, a), from the row kernel; 0 at a = 1."""
        upper = self.a > 1
        mirror = np.zeros_like(self.a)
        mirror[upper] = bs_values(self.b[upper] % self.a[upper], self.a[upper])
        return mirror

    @functools.cached_property
    def a_inv(self) -> np.ndarray:
        """a^-1 mod b by Euler's theorem: each row is the phi(b) units mod b."""
        sizes = np.array([end - start for _, start, end in self.spans], dtype=np.int64)
        return _inverse_pairs(self.a, self.b, np.repeat(sizes, sizes))

    @functools.cached_property
    def mu(self) -> np.ndarray:
        """mu(a, b) of each residue: one Jacobi kernel call for the batch."""
        return _mu_pairs(self.a, self.b)

    @functools.cached_property
    def lifts(self) -> np.ndarray:
        """The (n, 3) array of the lifts a, a - b, a + b of each residue."""
        return self.a[:, None] + self.b[:, None] * np.array([0, -1, 1], dtype=np.int64)

    @functools.cached_property
    def bt(self) -> np.ndarray:
        """b T of every lift. T is sensitive to the lift even though S is
        not, so every lift gets its own walk. `_run` refuses a b above
        LIFT_WALK_LIMIT before any walk."""
        t = _t_pairs(self.lifts.ravel(), np.repeat(self.b, 3))
        return self.b[:, None] * t.reshape(self.lifts.shape)

    @functools.cached_property
    def mod8(self) -> tuple[np.ndarray, np.ndarray]:
        """(actual, predicted) b T mod 8 of every lift; the prediction is
        -mu(a, b) + b^2 + 2 - a - a_inv."""
        offset = _mod8_offset_pairs(self.b, self.a_inv, self.mu)
        return self.bt % 8, (offset[:, None] - self.lifts) % 8


def _reduced(num: np.ndarray, den: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The fractions num / den in lowest terms, elementwise; den > 0."""
    g = np.gcd(num, den)
    return num // g, den // g


# The theorem1 scan evaluates the pairing condition
#     b (a2 m1 - a1 m2) - (a1 - a2)(b - 1)(a1 a2 + b - 1)
# in int64 on its candidate pairs of residues 0 < a1, a2 < b, with m1, m2
# in {0, 4}. The first term is below 4b^2 in absolute value. In the
# second, with d = |a1 - a2|, a1 a2 <= (b - 1)(b - 1 - d) gives
# a1 a2 + b - 1 <= (b - 1)(b - d), so |second| <= d(b - d)(b - 1)^2
# <= b^2 (b - 1)^2 / 4, and its partial product d(b - 1) is below b^2.
# The whole is exact while b^4 / 4 + 4b^2 < 2^63, that is up to
# b = 77,935. Reducing the factors mod 8b first would raise the bound;
# the scan does not, so it refuses larger b. The differences
# of b S(a, b) of the same pairs stay below 2b^2, and so do the keys
# b^2 + (a + a^-1) mod b and b^2 + b S mod b that select the candidates.
THEOREM1_ROW_LIMIT = 77_935


def _pair_condition(b, a1, m1, a2, m2):
    """The mod-8b pairing condition of `mu_condition`, elementwise.

    a1 and a2 are residues coprime to b, m1 and m2 are mu(b, a1) and
    mu(b, a2). They may be int64 arrays that broadcast together; the
    result is then exact for b <= THEOREM1_ROW_LIMIT.
    """
    return (
        b * (a2 * m1 - a1 * m2) - (a1 - a2) * (b - 1) * (a1 * a2 + b - 1)
    ) % (8 * b) == 0


def _same_key_pairs(keys: np.ndarray) -> np.ndarray:
    """The codes i * n + j, n = len(keys), of the pairs i < j with equal
    keys. A stable sort keeps the indices of equal keys ascending, and
    each position pairs with the rest of its run of equal keys."""
    n = len(keys)
    order = np.argsort(keys, kind="stable")
    partners = np.searchsorted(keys[order], keys[order], side="right") - np.arange(n) - 1
    first = np.repeat(np.arange(n), partners)
    starts = np.repeat(np.cumsum(partners) - partners, partners)
    return order[first] * n + order[first + 1 + np.arange(len(first)) - starts]


# theorem1 evaluates only candidate pairs and decides the rest by a lemma.
# Let a1, a2 be residues coprime to b with mu m1, m2, and C the pairing
# expression b (a2 m1 - a1 m2) - (a1 - a2)(b - 1)(a1 a2 + b - 1). Modulo
# b, C == (a1 - a2)(a1 a2 - 1), and times the unit (a1 a2)^-1 this is
# (a1 + a1^-1) - (a2 + a2^-1): the condition 8b | C implies
# a1 + a1^-1 == a2 + a2^-1 (mod b). A difference of b S in 8bZ or in 24bZ
# is in bZ, so either membership implies b S(a1) == b S(a2) (mod b). A
# pair that shares neither key has all three False: it is checked, and no
# violation. No Dedekind-sum theorem is used, and the b S key is read
# from the values the memberships read, so a wrong b S hides no pair.
# Where the two keys agree on every residue of a batch, as they do when
# b S == a + a^-1 (mod b) holds, the pairs that share one share the
# other, so the pairs of one key are all the candidates.
def _theorem1_rows(batch: _Batch, include_9div: bool = False):
    """Pairing condition vs. membership of S(a1,b)-S(a2,b) in 8Z and 24Z.

    Every pair a1 < a2 of a row is decided and counts in tuples_checked.
    Only the candidate pairs, which share a + a^-1 or b S mod b, are
    evaluated, with bS from the row kernel and mu(b, a) from one array
    call per batch. They are ordered by their indices (i, j), so the
    violation rows come out in the order of (b, a1, a2).
    """
    a, b, bs = batch.a, batch.b, batch.bs
    # b^2 + key is unique to the row of b, since 0 <= key < b.
    keys = (b * b + (a + batch.a_inv) % b, b * b + bs % b)
    if np.array_equal(*keys):
        keys = keys[:1]
    codes = np.sort(np.concatenate([_same_key_pairs(key) for key in keys]))
    i, j = np.divmod(codes[np.diff(codes, prepend=-1) != 0], len(a))
    kept = include_9div | (b[i] % 9 != 0)
    i, j, pb = i[kept], j[kept], b[i[kept]]
    mus = _mu_swapped_pairs(b, a)
    cond = _pair_condition(pb, a[i], mus[i], a[j], mus[j])
    d = bs[i] - bs[j]
    in8, in24 = d % (8 * pb) == 0, d % (24 * pb) == 0
    # Rows with b < 3 hold fewer than two residues, so no pair.
    sizes = [end - start for row_b, start, end in batch.spans if include_9div or row_b % 9]
    checked = sum(n * (n - 1) // 2 for n in sizes)
    bad = np.flatnonzero((cond != in8) | (cond != in24))
    i, j, pb, cond, d, in8, in24 = (c[bad] for c in (i, j, pb, cond, d, in8, in24))
    div9 = pb % 9 == 0
    masks = {
        "mod8_mismatches": cond != in8,
        "mod24_mismatches_9ndiv": (cond != in24) & ~div9,
        "mod24_mismatches_9div": (cond != in24) & div9,
    }
    return checked, (pb, a[i], a[j], cond, *_reduced(d, pb), in8, in24), masks


def _theorem2_rows(batch: _Batch):
    """Exact residues of b T(a, b) mod 24/72 plus the mod-8 congruence.

    Every residue class is checked through three integer lifts a, a - b,
    a + b. The per-class terms are computed once per residue and one
    walk of each lift serves both checks. A lift that fails both gets
    its residue row first: the checks are the last axis of the violation
    mask, k = 0 the residue and k = 1 the mod-8 check, so the row-major
    order of the flagged entries is the row order.
    """
    a, b, a_inv, lifts, bt = batch.a, batch.b, batch.a_inv, batch.lifts, batch.bt
    case, modulus, offset = (col[:, None] for col in _bt_case_pairs(a, b, a_inv, batch.mu))
    actual = bt % modulus
    predicted = (offset - lifts) % modulus
    actual8, predicted8 = batch.mod8
    bad = np.stack([actual != predicted, actual8 != predicted8], axis=-1)
    i, j, k = np.unravel_index(np.flatnonzero(bad), bad.shape)
    columns = (
        b[i],
        lifts[i, j],
        np.array(["residue", "mod8"])[k],
        np.array(BT_CASES)[case[i, 0]],
        np.where(k, 8, modulus[i, 0]),
        np.where(k, predicted8[i, j], predicted[i, j]),
        np.where(k, actual8[i, j], actual[i, j]),
    )
    return lifts.size, columns, {"residue_mismatches": k == 0, "mod8_failures": k == 1}


def _oracle_rows(batch: _Batch):
    """The reciprocity row kernel against the definitional summation.

    The naive rows are summed over the batch's own residues and compared
    with the row kernel as int64 arrays of b S(a, b); a row shows the
    kernel's value. Every scan that reads b S reads this kernel, and bhk
    ties it to the BHK identity on three lifts of every residue. The
    scalar evaluator behind `dedekind_fast` is checked by tests.
    """
    a, b, bs = batch.a, batch.b, batch.bs
    rows = (_naive_row_values(a[lo:hi], row_b) for row_b, lo, hi in batch.spans if row_b > 1)
    naive = np.concatenate([a[:0], *rows])
    i = np.flatnonzero(bs != naive)
    return len(a), (b[i], a[i], *_reduced(bs[i], b[i]), *_reduced(naive[i], b[i])), None


def _reciprocity_rows(batch: _Batch):
    """ab S(a,b) + ab S(b,a) == a^2 + b^2 + 1 - 3ab for coprime a <= b.

    Checked as a (b S(a, b)) + b (a S(b mod a, a)) == rhs over the whole
    batch; both terms come from the row kernel. For a < b/2 the walk of
    a S(b mod a, a) is the tail of that of b S(a, b), so the check compares
    one walk with itself; for a > b/2 the walk of b S(a, b) starts at
    (b, b - a) and that of a S(b mod a, a) at (a, b mod a), two different
    walks. The tuple a = b = 1 is checked too: S(1, 1) = 0 on both sides,
    and rhs = 0.
    """
    a, b = batch.a, batch.b
    residual = a * batch.bs + b * batch.mirror - (a * a + b * b + 1 - 3 * a * b)
    bad = np.flatnonzero(residual)
    checked = len(a) + (batch.spans[0][0] == 1)
    return checked, (a[bad], b[bad], *_reduced(residual[bad], a[bad] * b[bad])), None


def _bhk_rows(batch: _Batch):
    """b T(a,b) + a + a_inv - 3b == b S(a,b) over three lifts per class.

    b S comes from the reciprocity row kernel and b T from the Euclid
    walk of each lift, so the two sides never share a computation.
    """
    b, lifts, rhs = batch.b, batch.lifts, batch.bs
    lhs = batch.bt + lifts + (batch.a_inv - 3 * b)[:, None]
    i, j = np.nonzero(lhs != rhs[:, None])
    return lifts.size, (b[i], lifts[i, j], lhs[i, j], rhs[i]), None


def _bt_mod8_rows(batch: _Batch):
    """b T(a,b) == -mu(a,b) + b^2 + 2 - a - a_inv (mod 8), three lifts.

    The claim of theorem2's mod-8 check, read from the same arrays.
    """
    b, lifts, (actual, expected) = batch.b, batch.lifts, batch.mod8
    i, j = np.nonzero(actual != expected)
    return actual.size, (b[i], lifts[i, j], actual[i, j], expected[i, j]), None


def _bs_congruence_rows(batch: _Batch):
    """b S(a,b) == 0 (mod 3) when 3 does not divide b, else 2e (mod 9).

    e = +-1 with a == e (mod 3), so 2e mod 9 is 2 or 7. The whole batch
    is checked as one array.
    """
    a, b, values = batch.a, batch.b, batch.bs
    div3 = b % 3 == 0
    modulus = np.where(div3, 9, 3)
    expected = np.where(div3, np.where(a % 3 == 1, 2, 7), 0)
    actual = values % modulus
    bad = np.flatnonzero(actual != expected)
    columns = (b, a, values, modulus, expected, actual)
    return len(a), tuple(column[bad] for column in columns), None


# The mu-mod8 scan evaluates the quadratic form (a - 1)(a + b - 1) in
# int64 for the a in 1..4b coprime to an even b. Then 0 <= a - 1 < 4b and
# 0 < a + b - 1 < 5b, so the product stays below 20b^2, which is below
# 2^63 up to b = 679,093,956.
MU_QUADRATIC_LIMIT = 679_093_956


def _mu_mod8_rows(batch: _Batch):
    """mu(a,b) == (a-1)(a+b-1) (mod 8) for even b, a over a full period.

    The a in 1..4b coprime to b are the residues plus 0, b, 2b and 3b,
    checked as one array per batch; the rows come in the order of (b, a).
    """
    even = batch.b % 2 == 0
    b = np.tile(batch.b[even], 4)
    a = np.tile(batch.a[even], 4) + b * np.repeat(np.arange(4), np.count_nonzero(even))
    simple, quadratic = _mu_pairs(a, b), _mu_quadratic_pairs(a, b)
    bad = np.flatnonzero((simple - quadratic) % 8 != 0)
    bad = bad[np.lexsort((a[bad], b[bad]))]
    return len(a), tuple(column[bad] for column in (b, a, simple, quadratic)), None


# The int64-exact limits of b_max that several checks share, and what
# each bounds.
_ROW_KERNEL = (NAIVE_ROW_LIMIT, "the row kernel that {kind} reads")
_LIFT_WALKS = (LIFT_WALK_LIMIT, "the lift walks of {kind}")

# kind -> (check(batch, ...), summary counters, (largest b_max of
# its int64 fast path, what that limit bounds)).
_CHECKS = {
    "theorem1": (
        _theorem1_rows,
        ("mod8_mismatches", "mod24_mismatches_9ndiv", "mod24_mismatches_9div"),
        (THEOREM1_ROW_LIMIT, "the candidate pairs that theorem1 evaluates"),
    ),
    "theorem2": (_theorem2_rows, ("residue_mismatches", "mod8_failures"), _LIFT_WALKS),
    "oracle-equivalence": (
        _oracle_rows,
        ("value_mismatches",),
        (NAIVE_ROW_LIMIT, "the naive rows and the row kernel that {kind} compares"),
    ),
    "reciprocity": (_reciprocity_rows, ("residual_nonzero",), _ROW_KERNEL),
    "bhk": (_bhk_rows, ("identity_failures",), _ROW_KERNEL),
    "bt-mod8": (_bt_mod8_rows, ("mod8_failures",), _LIFT_WALKS),
    "bs-mod3-9": (_bs_congruence_rows, ("congruence_failures",), _ROW_KERNEL),
    "mu-mod8": (_mu_mod8_rows, ("mod8_mismatches",), (MU_QUADRATIC_LIMIT, "mu's quadratic form")),
}

# The kinds of the identities suite, in report order.
IDENTITY_KINDS = tuple(kind for kind in _CHECKS if kind not in ("theorem1", "theorem2"))


def _add(report: ScanReport, tuples_checked: int, columns: tuple, masks: dict | None = None):
    """Count a batch's tuples and its violations into one process's
    report, and keep their rows up to the report's cap, as plain Python
    values.

    The violations come as equal-length columns, arrays or lists, one per
    name of COLUMNS[kind], in row order, else RuntimeError: the check is
    at fault, not the caller's input. With masks None every violation
    moves every counter of the kind; else masks maps each counter to a
    mask of the violations that it counts.
    """
    names = [name for name, _ in COLUMNS[report.kind]]
    if len(columns) != len(names) or len({len(c) for c in columns}) != 1:
        raise RuntimeError(f"columns of lengths {[len(c) for c in columns]} for {names}")
    report.tuples_checked += tuples_checked
    count = len(columns[0])
    if not count:
        return
    report.violations_total += count
    for key in report.summary:
        report.summary[key] += count if masks is None else int(np.count_nonzero(masks[key]))
    room = report.parameters["cap"] - len(report.violations)
    kept = [np.asarray(column[:room]).tolist() for column in columns]
    report.violations.extend(dict(zip(names, row)) for row in zip(*kept))


def _pass(kinds: list[str], pieces, b_max: int, cap: int, options: dict) -> list[ScanReport]:
    """One process's pass over its pieces, each one batch, every kind on
    a batch before the next one is built: one report per kind, with the
    process's counters and its first `cap` rows. Each kind's time is the
    sum of its checks' times. The reports are built here, in the process
    that fills them, never sent to a worker half filled.
    """
    reports = [
        ScanReport(
            kind=kind,
            b_lo=1,
            b_hi=b_max,
            tuples_checked=0,
            violations_total=0,
            parameters=dict(sorted({"bmax": b_max, "cap": cap, **options.get(kind, {})}.items())),
            summary=dict.fromkeys(sorted(_CHECKS[kind][1]), 0),
        )
        for kind in kinds
    ]
    for piece in pieces:
        batch = _Batch(piece)
        for report in reports:
            start = time.perf_counter()
            _add(report, *_CHECKS[report.kind][0](batch, **options.get(report.kind, {})))
            report.elapsed += time.perf_counter() - start
    return reports


def _merge(parts) -> ScanReport:
    """One kind's report from the reports of the processes that shared
    its range: counters and summaries summed, rows sorted stably by b and
    cut to the cap, and the longest time of one process."""
    first = parts[0]
    rows = sorted((row for part in parts for row in part.violations), key=lambda row: row["b"])
    return dataclasses.replace(
        first,
        tuples_checked=sum(part.tuples_checked for part in parts),
        violations_total=sum(part.violations_total for part in parts),
        violations=rows[: first.parameters["cap"]],
        summary={key: sum(part.summary[key] for part in parts) for key in first.summary},
        elapsed=max(part.elapsed for part in parts),
    )


def _row_sizes(b_max: int) -> np.ndarray:
    """The row size of each b in 0..b_max: phi(b), the count of residues
    coprime to b, by a totient sieve over the primes to b_max, which a
    boolean sieve finds first; 0 at b = 0 and at b = 1, whose row is
    empty."""
    prime = np.ones(b_max + 1, dtype=bool)
    prime[:2] = False
    for p in range(2, isqrt(b_max) + 1):
        if prime[p]:
            prime[p * p :: p] = False
    sizes = np.arange(b_max + 1)
    for p in np.flatnonzero(prime).tolist():
        sizes[p::p] -= sizes[p::p] // p
    sizes[:2] = 0
    return sizes


def _pieces(b_max: int, jobs: int):
    """1..b_max cut into ranges of consecutive b for jobs processes to
    share, yielded in ascending b.

    A piece gathers rows in ascending b until it holds at least `size`
    residues, so a piece is one batch. size is _BATCH, or a jobs-th of
    the range's residues when that is less, so that a short range still
    gives every process a piece. Every piece but the last holds at least
    size residues, and every piece fewer than size plus its largest row.
    """
    sizes = _row_sizes(b_max).tolist()
    size = max(1, min(_BATCH, -(-sum(sizes) // jobs)))
    start, load = 1, 0
    for b in range(1, b_max + 1):
        load += sizes[b]
        if load >= size:
            yield range(start, b + 1)
            start, load = b + 1, 0
    if start <= b_max:
        yield range(start, b_max + 1)


# The claim counter of the pieces in a pool worker; _join sets it when
# the worker starts.
_pool_claims = None


def _join(claims) -> None:
    global _pool_claims
    _pool_claims = claims


def _claimed(pieces: list[range], first: int, claims=None):
    """One process's share of pieces: piece `first`, then, until none is
    left, the next piece that no process has claimed yet from the shared
    counter `claims` (a pool worker's own when None). A process that runs
    slower than the others thus claims fewer pieces, each in turn as it
    finishes the last, and claims them in ascending order.
    """
    claims = _pool_claims if claims is None else claims
    index = first
    while index < len(pieces):
        yield pieces[index]
        with claims.get_lock():
            index = claims.value
            claims.value += 1


def _work_claimed(work, pieces: list[range], first: int):
    return work(_claimed(pieces, first))


def _shared(work, pieces, jobs: int) -> list:
    """work(share) for each process's share of pieces, on the calling
    process and a pool of at most jobs - 1 workers: one result per
    process, the caller's first. With one job or one piece the caller
    works them all, and no pool starts. Else process i starts on piece
    i, so every process runs at least one."""
    if jobs > 1:
        pieces = list(pieces)
        jobs = min(jobs, len(pieces))
    if jobs == 1:
        return [work(pieces)]
    claims = multiprocessing.Value("q", jobs)
    with ProcessPoolExecutor(max_workers=jobs - 1, initializer=_join, initargs=(claims,)) as pool:
        pending = [pool.submit(_work_claimed, work, pieces, i) for i in range(1, jobs)]
        return [work(_claimed(pieces, 0, claims)), *(f.result() for f in pending)]


def _run(kinds, b_max, cap, jobs, include_9div=False) -> list[ScanReport]:
    """Run several kinds over b = 1..b_max on at most one process pool.

    Every kind's arguments are checked before any work, so a bound one
    kind cannot take fails at once, not after the others ran. The pieces
    of _pieces are shared by the caller and up to jobs - 1 workers
    (_shared), and each process returns one report per kind (_pass).
    _merge makes each kind's reports one, at every job count.
    """
    if b_max < 1:
        raise ValueError(f"b_max must be at least 1, got {b_max}")
    if cap < 0:
        raise ValueError(f"cap must not be negative, got {cap}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    for kind in kinds:
        bound, what = _CHECKS[kind][2]
        if b_max > bound:
            what = what.format(kind=kind)
            raise ValueError(f"b_max={b_max} exceeds {bound}, the int64-exact limit of {what}")
    # The keyword arguments of each kind's check, also in its parameters.
    options = {"theorem1": {"include_9div": include_9div}}
    work = functools.partial(_pass, kinds, b_max=b_max, cap=cap, options=options)
    return [_merge(parts) for parts in zip(*_shared(work, _pieces(b_max, jobs), jobs))]


def scan_theorem1(
    b_max: int, *, include_9div: bool = False, cap: int = 100, jobs: int = 1
) -> ScanReport:
    """Check the pairing condition against 8Z/24Z membership of differences.

    By default b divisible by 9 is skipped, matching the range where the
    24Z equivalence is claimed. With include_9div=True those b are
    scanned too; their expected 24Z mismatches are reported as
    violations and tallied under summary['mod24_mismatches_9div'].

    Raises ValueError before any work when b_max exceeds
    THEOREM1_ROW_LIMIT, the int64 bound of the candidate pairs it evaluates.
    """
    return _run(["theorem1"], b_max, cap, jobs, include_9div)[0]


def scan_theorem2(b_max: int, *, cap: int = 100, jobs: int = 1) -> ScanReport:
    """Check predicted residues of b T(a,b) mod 24/72 and the mod-8 form."""
    return _run(["theorem2"], b_max, cap, jobs)[0]


def scan_oracle_equivalence(b_max: int, *, cap: int = 100, jobs: int = 1) -> ScanReport:
    """Compare the row kernel's b S(a, b) to direct summation for every (a, b).

    Raises ValueError before any work when b_max exceeds NAIVE_ROW_LIMIT.
    """
    return _run(["oracle-equivalence"], b_max, cap, jobs)[0]


def scan_reciprocity(b_max: int, *, cap: int = 100, jobs: int = 1) -> ScanReport:
    """Check the reciprocity law in integer form for coprime a <= b."""
    return _run(["reciprocity"], b_max, cap, jobs)[0]


def scan_bhk(b_max: int, *, cap: int = 100, jobs: int = 1) -> ScanReport:
    """Check S = T + (a + a_inv)/b - 3 in integer form over three lifts."""
    return _run(["bhk"], b_max, cap, jobs)[0]


def scan_bt_mod8(b_max: int, *, cap: int = 100, jobs: int = 1) -> ScanReport:
    """Check the mod-8 congruence for b T(a,b) over three lifts."""
    return _run(["bt-mod8"], b_max, cap, jobs)[0]


def scan_bs_congruences(b_max: int, *, cap: int = 100, jobs: int = 1) -> ScanReport:
    """Check b S(a,b) mod 3 (or mod 9 when 3 | b) against its closed form."""
    return _run(["bs-mod3-9"], b_max, cap, jobs)[0]


def scan_mu_mod8(b_max: int, *, cap: int = 100, jobs: int = 1) -> ScanReport:
    """Check mu against its quadratic form mod 8 for even b."""
    return _run(["mu-mod8"], b_max, cap, jobs)[0]


def run_suite(
    suite: str,
    b_max: int,
    *,
    include_9div: bool = False,
    cap: int = 100,
    jobs: int = 1,
) -> list[ScanReport]:
    """Reports for one named suite: theorem1, theorem2, identities, or all.

    All of a suite's scans run on one process pool when jobs > 1.
    """
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}, expected one of {SUITES}")
    kinds = [kind for kind in ("theorem1", "theorem2") if suite in (kind, "all")]
    if suite in ("identities", "all"):
        kinds.extend(IDENTITY_KINDS)
    return _run(kinds, b_max, cap, jobs, include_9div)
