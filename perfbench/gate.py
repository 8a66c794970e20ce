"""Correctness gate applied to every scan report the benchmark receives.

The expected tuple counts come from the benchmark's own totient sieve,
and a seeded sample of violation rows is re-derived with the
definitional evaluator dedekind_naive, which no scan uses. A report
passes when problems() returns an empty list.
"""

import random
from fractions import Fraction

from dedsum.dedekind import dedekind_naive

# Violation rows re-derived per theorem1 report.
ROW_SAMPLE = 16

# The smallest 9 | b counterexample to the 24Z half of theorem 1:
# S(1, 9) - S(4, 9) = 8 lies in 8Z but not in 24Z.
FIRST_9DIV_ROW = {"b": 9, "a1": 1, "a2": 4, "diff_num": 8, "diff_den": 1}


def totients(n: int) -> list[int]:
    phi = list(range(n + 1))
    for p in range(2, n + 1):
        if phi[p] == p:
            for k in range(p, n + 1, p):
                phi[k] -= phi[k] // p
    return phi


class Gate:
    """Expected content of every scan kind at one bound b_max."""

    def __init__(self, b_max: int, rng: random.Random, include_9div: bool = True):
        phi = totients(b_max)
        coprime = sum(phi[2:])
        self.b_max = b_max
        self.include_9div = include_9div
        self.rng = rng
        self.expected_tuples = {
            "oracle-equivalence": coprime,
            "bs-mod3-9": coprime,
            "reciprocity": coprime + 1,
            "theorem2": 3 * coprime,
            "bhk": 3 * coprime,
            "bt-mod8": 3 * coprime,
            "mu-mod8": sum(4 * phi[b] for b in range(2, b_max + 1, 2)),
            "theorem1": sum(
                phi[b] * (phi[b] - 1) // 2
                for b in range(3, b_max + 1)
                if include_9div or b % 9
            ),
        }

    def problems(self, report, kind: str) -> list[str]:
        """Every way the report departs from what the paper's claims imply."""
        where = f"{kind} b<={self.b_max}"
        if report.kind != kind:
            return [f"{where}: report kind is {report.kind!r}"]
        found = []
        if report.b_hi != self.b_max:
            found.append(f"{where}: b_hi is {report.b_hi}")
        expected = self.expected_tuples[kind]
        if report.tuples_checked != expected:
            found.append(
                f"{where}: tuples_checked {report.tuples_checked}, expected {expected}"
            )
        if kind == "theorem1":
            found += self._theorem1_problems(report, where)
        else:
            nonzero = {k: v for k, v in report.summary.items() if v}
            if report.violations_total or report.violations or nonzero:
                found.append(
                    f"{where}: {report.violations_total} violations, summary {nonzero}"
                )
        return found

    def _theorem1_problems(self, report, where: str) -> list[str]:
        found = []
        summary = report.summary
        for key in ("mod8_mismatches", "mod24_mismatches_9ndiv"):
            if summary.get(key, 0):
                found.append(f"{where}: {key} = {summary[key]}")
        allowed = summary.get("mod24_mismatches_9div", 0)
        if report.violations_total != allowed:
            found.append(
                f"{where}: {report.violations_total} violations, "
                f"{allowed} of them 9|b mismatches"
            )
        rows = report.violations
        if len(rows) != report.violations_total:
            found.append(f"{where}: {len(rows)} rows kept of {report.violations_total}")
        if self.include_9div and self.b_max >= 9:
            first = {k: rows[0][k] for k in FIRST_9DIV_ROW} if rows else None
            if first != FIRST_9DIV_ROW:
                found.append(f"{where}: first 9|b row is {first}")
        if any(row["b"] % 9 for row in rows):
            found.append(f"{where}: a violation row has 9 not dividing b")
        for row in self.rng.sample(rows, min(ROW_SAMPLE, len(rows))):
            found += _rederive_theorem1_row(row, where)
        return found


def _rederive_theorem1_row(row: dict, where: str) -> list[str]:
    b, a1, a2 = row["b"], row["a1"], row["a2"]
    diff = dedekind_naive(a1, b) - dedekind_naive(a2, b)
    in8 = diff.denominator == 1 and diff.numerator % 8 == 0
    in24 = diff.denominator == 1 and diff.numerator % 24 == 0
    # The 8Z half of theorem 1 holds for every b, so the pairing
    # condition equals 8Z membership; a violation row lies outside 24Z.
    if (
        Fraction(row["diff_num"], row["diff_den"]) != diff
        or row["in8Z"] != in8
        or row["in24Z"] != in24
        or row["condition"] != in8
        or in24
    ):
        return [f"{where}: row {row} disagrees with dedekind_naive difference {diff}"]
    return []
