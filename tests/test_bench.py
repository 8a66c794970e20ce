"""Tests for the benchmark helpers."""

from fractions import Fraction

import pytest

import dedsum.bench
from dedsum.bench import BenchRow, compare_evaluators, decade_values, growth_ratios, run_benchmark
from dedsum.dedekind import dedekind_fast


def test_decade_values():
    assert decade_values(100_000) == [10, 100, 1000, 10_000, 100_000]
    assert decade_values(9999) == [10, 100, 1000]
    assert decade_values(7) == [7]
    assert decade_values(10) == [10]
    with pytest.raises(ValueError):
        decade_values(1)


def test_run_benchmark_rows_are_deterministic_in_shape():
    rows = run_benchmark([10, 100], samples=2, seed=1)
    assert [row.b for row in rows] == [10, 100]
    assert all(row.samples == 2 for row in rows)
    assert all(row.naive_median > 0 and row.fast_median > 0 for row in rows)


def test_compare_evaluators_returns_the_value_and_both_times():
    value, naive_s, fast_s = compare_evaluators(6, 25)
    assert value == dedekind_fast(6, 25) == Fraction(-48, 25)
    assert naive_s > 0 and fast_s > 0


def test_compare_evaluators_refuses_a_disagreement(monkeypatch):
    # The fast evaluator is off by one only at b = 25; both the timed
    # cross-check and the benchmark that draws on it raise.
    monkeypatch.setattr(
        dedsum.bench, "dedekind_fast", lambda a, b: dedekind_fast(a, b) + (b == 25)
    )
    with pytest.raises(ArithmeticError, match=r"disagree at a=6, b=25: -48/25 vs -23/25"):
        compare_evaluators(6, 25)
    assert compare_evaluators(6, 19)[0] == dedekind_fast(6, 19)
    with pytest.raises(ArithmeticError, match="b=25"):
        run_benchmark([10, 25], samples=1)


def test_run_benchmark_zero_samples():
    assert run_benchmark([10, 100], samples=0) == []


def test_run_benchmark_validation():
    with pytest.raises(ValueError):
        run_benchmark([1], samples=1)
    with pytest.raises(ValueError):
        run_benchmark([10], samples=-2)


def test_growth_ratios():
    rows = [
        BenchRow(b=10, samples=1, naive_median=1.0, fast_median=0.5),
        BenchRow(b=100, samples=1, naive_median=10.0, fast_median=1.0),
    ]
    assert growth_ratios(rows, "naive_median") == [10.0]
    assert growth_ratios(rows, "fast_median") == [2.0]
