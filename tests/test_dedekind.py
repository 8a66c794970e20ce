"""Tests for the two Dedekind sum evaluators.

The ground truth is a sawtooth-product oracle straight from the
definition, kept independent of both production evaluators. The fast
recursion is additionally checked against the naive evaluator on larger
inputs, where the oracle would be too slow.
"""

import math
import random
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import dedsum.arith
import dedsum.dedekind
import dedsum.scans
from dedsum.dedekind import (
    NAIVE_INT32_LIMIT,
    NAIVE_ROW_LIMIT,
    _bs_pairs,
    _fast_parts,
    _naive_row_values,
    b_times_s,
    bs_values,
    coprime_residues,
    dedekind_fast,
    dedekind_naive,
    naive_bs_row,
)


def sawtooth(x: Fraction) -> Fraction:
    if x.denominator == 1:
        return Fraction(0)
    return x - math.floor(x) - Fraction(1, 2)


def s_oracle(a: int, b: int) -> Fraction:
    """12 s(a, b) from the definition, term by term."""
    total = sum(
        (sawtooth(Fraction(k, b)) * sawtooth(Fraction(a * k, b)) for k in range(1, b)),
        Fraction(0),
    )
    return 12 * total


def coprime_pairs(b_max: int):
    for b in range(1, b_max + 1):
        for a in range(1, b + 1):
            if gcd(a, b) == 1:
                yield a, b


FROZEN = [
    (1, 3, Fraction(2, 3)),
    (2, 5, Fraction(0)),
    (7, 1, Fraction(0)),
    (1, 9, Fraction(56, 9)),
    (4, 9, Fraction(-16, 9)),
    (6, 25, Fraction(-48, 25)),
    (3, 8, Fraction(3, 4)),
]


@pytest.mark.parametrize("a,b,expected", FROZEN)
def test_frozen_values(a, b, expected):
    assert dedekind_naive(a, b) == expected
    assert dedekind_fast(a, b) == expected


def test_naive_matches_definition_oracle():
    for a, b in coprime_pairs(40):
        assert dedekind_naive(a, b) == s_oracle(a, b), (a, b)


def test_fast_matches_naive_exhaustive():
    for a, b in coprime_pairs(120):
        assert dedekind_fast(a, b) == dedekind_naive(a, b), (a, b)


def test_first_argument_closed_form():
    # S(1, b) = (b - 1)(b - 2) / b
    for b in range(1, 200):
        assert dedekind_fast(1, b) == Fraction((b - 1) * (b - 2), b)


@settings(max_examples=60)
@given(data=st.data(), b=st.integers(1, 3000))
def test_fast_matches_naive_random(data, b):
    a = data.draw(st.integers(1, b).filter(lambda x: gcd(x, b) == 1))
    assert dedekind_fast(a, b) == dedekind_naive(a, b)


@settings(max_examples=60)
@given(data=st.data(), b=st.integers(1, 10**6))
def test_periodicity_and_oddness(data, b):
    a = data.draw(st.integers(1, b).filter(lambda x: gcd(x, b) == 1))
    value = dedekind_fast(a, b)
    assert dedekind_fast(a + b, b) == value
    assert dedekind_fast(a - b, b) == value
    assert dedekind_fast(-a, b) == -value


def test_b_times_s_is_exact_integer():
    for a, b in coprime_pairs(80):
        value = b_times_s(a, b)
        assert isinstance(value, int)
        assert Fraction(value, b) == dedekind_fast(a, b)


@settings(max_examples=60)
@given(data=st.data(), b=st.integers(2, 10**6))
def test_b_times_s_random(data, b):
    a = data.draw(st.integers(1, b - 1).filter(lambda x: gcd(x, b) == 1))
    assert b_times_s(a, b) == dedekind_fast(a, b) * b


def test_denominator_divides_b():
    for a, b in coprime_pairs(80):
        assert b % dedekind_fast(a, b).denominator == 0


def s_fast(a: int, b: int) -> Fraction:
    """S(a, b) from the raw scalar kernel, whose pair must be reduced with
    a positive denominator that divides b."""
    num, den = _fast_parts(a, b)
    assert den > 0 and gcd(num, den) == 1 and b % den == 0, (a, b, num, den)
    return Fraction(num, den)


def test_fast_parts_match_naive_to_300():
    for a, b in coprime_pairs(300):
        assert s_fast(a, b) == dedekind_naive(a, b), (a, b)


# Consecutive Fibonacci numbers, the longest plain Euclid walk for their
# size; the nearest-integer walk flips at every level of it.
FIB_A, FIB_B = 1, 2
while FIB_B < 10**60:
    FIB_A, FIB_B = FIB_B, FIB_A + FIB_B


def pell_pairs(limit: int) -> list[tuple[int, int]]:
    """Consecutive Pell numbers (a, b) = (1, 2), (2, 5), (5, 12), ... with
    b <= limit: the longest nearest-integer walks for their size."""
    a, b, pairs = 1, 2, []
    while b <= limit:
        pairs.append((a, b))
        a, b = b, 2 * b + a
    return pairs


PELL_A, PELL_B = pell_pairs(10**60)[-1]


@settings(max_examples=200)
@given(b=st.integers(1, 10**60), a=st.integers(-(10**61), 10**61), k=st.integers(-(10**60), 10**60))
@example(b=1, a=0, k=1)
@example(b=1, a=-7, k=-3)
@example(b=2, a=-1, k=10**60)
@example(b=FIB_B, a=FIB_A, k=-1)
@example(b=PELL_B, a=PELL_A, k=1)
@example(b=10**60 - 1, a=2 * 10**60 + 1, k=1)
def test_fast_parts_identities_at_large_b(b, a, k):
    # Identities that hold for every coprime pair and need no second
    # evaluator: periodicity, oddness, inversion and reciprocity.
    assume(gcd(a, b) == 1)
    value = s_fast(a, b)
    assert s_fast(a + k * b, b) == value
    assert s_fast(-a, b) == -value
    assert s_fast(pow(a, -1, b), b) == value
    r = a % b
    if r:
        assert value + s_fast(b, r) == Fraction(r * r + b * b + 1, r * b) - 3


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        dedekind_naive(2, 4)
    with pytest.raises(ValueError):
        dedekind_fast(3, 9)
    with pytest.raises(ValueError):
        dedekind_fast(1, 0)
    with pytest.raises(ValueError):
        dedekind_fast(1, -5)


def test_coprime_residues_match_gcd():
    for b in range(1, 3000):
        residues = coprime_residues(b)
        assert residues.dtype == np.int64
        assert residues.tolist() == [a for a in range(1, b) if gcd(a, b) == 1], b


def test_naive_bs_row_matches_scalar_naive():
    # The row sums only k < b/2: the half range is empty at b = 2, and
    # for even b the term k = b/2 drops out; the scalar sums every k.
    for b in [*range(2, 301), 360]:
        residues, values = naive_bs_row(b)
        expected_residues = [a for a in range(1, b) if gcd(a, b) == 1]
        assert residues.tolist() == expected_residues
        for a, value in zip(residues.tolist(), values.tolist()):
            assert Fraction(value, b) == dedekind_naive(a, b), (a, b)


def test_naive_rows_agree_at_the_int32_switch(monkeypatch):
    # Blocks hold a k and (2k - b) r_k, below b^2: int32 up to the bound.
    assert NAIVE_INT32_LIMIT**2 <= 2**31 - 1 < (NAIVE_INT32_LIMIT + 1) ** 2
    rng = random.Random(NAIVE_INT32_LIMIT)
    for b in [NAIVE_INT32_LIMIT, NAIVE_INT32_LIMIT + 1]:
        residues = coprime_residues(b)
        sample = residues[[0, 1, -2, -1, *rng.sample(range(len(residues)), 8)]]
        values = _naive_row_values(sample, b)
        for a, value in zip(sample.tolist(), values.tolist()):
            assert Fraction(value, b) == dedekind_naive(a, b), (a, b)
        if b == NAIVE_INT32_LIMIT:
            with monkeypatch.context() as patch:
                patch.setattr(dedsum.dedekind, "NAIVE_INT32_LIMIT", b - 1)
                assert _naive_row_values(sample, b).tolist() == values.tolist()
    # The switch matters: int32 blocks at twice the bound overflow.
    b = 2 * NAIVE_INT32_LIMIT + 1
    sample = np.array([1, b // 3, b - 2, b - 1], dtype=np.int64)
    values = _naive_row_values(sample, b)
    assert values.tolist() == [b * dedekind_naive(a, b) for a in sample.tolist()]
    monkeypatch.setattr(dedsum.dedekind, "NAIVE_INT32_LIMIT", b)
    with pytest.raises(ArithmeticError, match="non-integral"):
        _naive_row_values(sample, b)


@pytest.mark.parametrize("b", [521, 1009, 2003])
def test_naive_row_split_over_blocks_matches_scalar_naive(b):
    # 521 is the least b whose row takes more than one block; each of
    # these rows ends on a partial block.
    residues, values = naive_bs_row(b)
    rows = dedsum.dedekind._NAIVE_BLOCK // ((b - 1) // 2)
    assert rows < len(residues) and len(residues) % rows
    # The first and last residue of every block, and a random sample.
    picks = {*range(0, len(residues), rows), *range(rows - 1, len(residues), rows)}
    picks |= {len(residues) - 1, *random.Random(b).sample(range(len(residues)), 16)}
    for i in sorted(picks):
        a = int(residues[i])
        assert Fraction(int(values[i]), b) == dedekind_naive(a, b), (a, b)


def test_naive_bs_row_rejects_bad_input():
    with pytest.raises(ValueError):
        naive_bs_row(1)
    with pytest.raises(ValueError):
        naive_bs_row(NAIVE_ROW_LIMIT + 1)


def full(b: int, residues: np.ndarray) -> np.ndarray:
    return np.full(len(residues), b, dtype=np.int64)


def test_bs_values_match_naive_rows_below_400():
    # One call over all the rows, so it is solved in many slices.
    rows = [naive_bs_row(b) for b in range(2, 400)]
    a = np.concatenate([residues for residues, _ in rows])
    b = np.concatenate([full(b, residues) for b, (residues, _) in enumerate(rows, 2)])
    assert len(a) > 10 * dedsum.dedekind._ROW_BATCH
    assert bs_values(a, b).tolist() == np.concatenate([values for _, values in rows]).tolist()


def test_bs_values_mirrored_term():
    # The scans read a S(b mod a, a) from the same kernel, 0 at a = 1.
    batch = dedsum.scans._Batch(range(1, 120))
    for a, b, value, mirror in zip(
        batch.a.tolist(), batch.b.tolist(), batch.bs.tolist(), batch.mirror.tolist()
    ):
        assert value == b_times_s(a, b), (a, b)
        assert mirror == (b_times_s(b % a, a) if a > 1 else 0), (a, b)


@pytest.mark.parametrize("b", [10**6, NAIVE_ROW_LIMIT])
def test_bs_values_match_b_times_s_at_large_b(b):
    residues = coprime_residues(b)
    values = bs_values(residues, full(b, residues))
    n = len(residues)
    # The ends of the row hold the largest |b S| and the shortest walks.
    picks = random.Random(b).sample(range(n), 300) + [0, 1, n - 2, n - 1]
    for i in picks:
        assert int(values[i]) == b_times_s(int(residues[i]), b), int(residues[i])


def test_row_kernel_on_long_euclid_walks():
    # Consecutive Fibonacci numbers give the longest plain Euclid walks
    # below the limit; the nearest-integer walk flips at every level.
    fib = [1, 2]
    while fib[-1] + fib[-2] <= NAIVE_ROW_LIMIT:
        fib.append(fib[-1] + fib[-2])
    a = np.array(fib[:-1], dtype=np.int64)
    b = np.array(fib[1:], dtype=np.int64)
    assert _bs_pairs(a, b).tolist() == [b_times_s(x, y) for x, y in zip(fib, fib[1:])]


@pytest.fixture(scope="module")
def pell_walks():
    """The Pell pairs up to NAIVE_ROW_LIMIT and their mirrors (b - a, b),
    whose first level flips, with b S(a, b) by direct summation, which
    shares no code with either walk."""
    pairs = pell_pairs(NAIVE_ROW_LIMIT)
    naive = [b * dedekind_naive(a, b) for a, b in pairs]
    return pairs + [(b - a, b) for a, b in pairs], naive + [-value for value in naive]


def test_row_kernel_on_pell_walks(pell_walks):
    pairs, naive = pell_walks
    a, b = (np.array(column, dtype=np.int64) for column in zip(*pairs))
    assert _bs_pairs(a, b).tolist() == naive


def test_fast_parts_on_pell_walks(pell_walks):
    pairs, naive = pell_walks
    assert [b * s_fast(a, b) for a, b in pairs] == naive


def test_pell_walks_reach_the_level_bound_of_the_row_kernel(pell_walks, monkeypatch):
    # Each walk alone: its b sets the bound, and the walk takes every
    # level of it, so the same walk fails once the bound is one less.
    pairs, naive = pell_walks
    singles = [tuple(np.array([x], dtype=np.int64) for x in pair) for pair in pairs]
    assert [_bs_pairs(a, b).tolist() for a, b in singles] == [[value] for value in naive]
    real = dedsum.arith._walk_bound
    monkeypatch.setattr(dedsum.dedekind, "_walk_bound", lambda b_max, c: real(b_max, c) - 1)
    for a, b in singles:
        with pytest.raises(ArithmeticError, match="bound"):
            _bs_pairs(a, b)


def test_non_integral_step_raises(monkeypatch):
    # Off by one wherever the step divides by y > 1; the steps that end a
    # walk (y = 1) stay right, so the first step above them cannot divide.
    real = dedsum.dedekind._reciprocity_rhs
    monkeypatch.setattr(dedsum.dedekind, "_reciprocity_rhs", lambda x, y: real(x, y) + (y > 1))
    residues = coprime_residues(7)
    with pytest.raises(ArithmeticError, match="non-integral"):
        bs_values(residues, full(7, residues))


def test_row_kernel_rejects_bad_input():
    with pytest.raises(ValueError, match="int64-exact"):
        bs_values(np.array([1], dtype=np.int64), np.array([NAIVE_ROW_LIMIT + 1], dtype=np.int64))
    # Outside 0 < a < b the first remainder, a or b - a, is below 1.
    for a, b in [(2, 4), (6, 6), (0, 5), (-1, 5), (7, 5)]:
        with pytest.raises(ValueError, match="coprime"):
            _bs_pairs(np.array([a], dtype=np.int64), np.array([b], dtype=np.int64))
