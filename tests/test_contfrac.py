"""Tests for normalized continued fractions and the alternating sum T.

The expansion is validated by reconstructing the rational it encodes;
T is validated through the closed-form link to the Dedekind sum,
b T(a,b) = b S(a,b) - a - a_inv + 3b, with S supplied by the separately
tested evaluators. The raw Euclid walk behind t_value is pinned to the
alternating sum of the quotients that cf_expand builds.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dedsum.arith import mod_inverse
from dedsum.contfrac import _normalize_odd, _raw_quotients, cf_expand, t_value
from dedsum.dedekind import b_times_s


def coprime_pairs(b_max: int):
    for b in range(1, b_max + 1):
        for a in range(1, b + 1):
            if gcd(a, b) == 1:
                yield a, b


def test_frozen_expansions():
    assert str(cf_expand(2, 5)) == "[0;2,1,1]"
    assert str(cf_expand(7, 3)) == "[2;3]"
    assert str(cf_expand(1, 1)) == "[0;1]"
    assert str(cf_expand(1, 3)) == "[0;3]"
    assert str(cf_expand(-1, 3)) == "[-1;1,1,1]"


@pytest.mark.parametrize(
    "a,b,expected",
    [(2, 5, 2), (7, 3, 1), (1, 3, 3), (1, 2, 2), (2, 3, 1), (3, 4, 0), (1, 4, 4)],
)
def test_frozen_t_values(a, b, expected):
    assert t_value(a, b) == expected


def test_expansion_reconstructs_value_exhaustive():
    for a, b in coprime_pairs(40):
        cf = cf_expand(a, b)
        assert cf.as_fraction() == Fraction(a, b), (a, b)
        assert cf.n % 2 == 1
        assert len(cf.quotients()) % 2 == 0
        assert all(q >= 1 for q in cf.tail)


@settings(max_examples=100)
@given(data=st.data(), b=st.integers(1, 10**9))
def test_expansion_reconstructs_value_random(data, b):
    a = data.draw(st.integers(-b, b).filter(lambda x: gcd(x, b) == 1))
    cf = cf_expand(a, b)
    assert cf.as_fraction() == Fraction(a, b)
    assert cf.n % 2 == 1
    assert all(q >= 1 for q in cf.tail)


def test_normalize_needs_no_merge_exhaustive():
    # A raw expansion of two or more quotients never ends on 1, so
    # normalizing only ever splits the last quotient.
    for b in range(1, 200):
        for a in range(-3 * b + 1, 3 * b):
            if gcd(a, b) != 1:
                continue
            raw = _raw_quotients(a, b)
            assert len(raw) == 1 or raw[-1] >= 2, (a, b)
            qs = _normalize_odd(raw)
            assert len(qs) % 2 == 0 and min(qs[1:]) >= 1, (a, b)
            assert qs == cf_expand(a, b).quotients(), (a, b)


def test_normalize_splits_and_adjusts():
    assert _normalize_odd([3]) == [2, 1]
    assert _normalize_odd([0, 2, 2]) == [0, 2, 1, 1]
    assert _normalize_odd([0, 2]) == [0, 2]


def test_t_links_to_dedekind_sum_exhaustive():
    # b T(a, b) = b S(a, b) - a - a_inv + 3 b, for any integer lift of a
    for base, b in coprime_pairs(60):
        if b < 2:
            continue
        a_inv = mod_inverse(base, b)
        bs = b_times_s(base, b)
        for a in (base, base - b, base + b):
            assert b * t_value(a, b) == bs - a - a_inv + 3 * b, (a, b)


def alternating_sum(a: int, b: int) -> int:
    """-q0 + q1 - q2 + ... + qn over the normalized expansion."""
    return sum(q if i % 2 else -q for i, q in enumerate(cf_expand(a, b).quotients()))


def test_walk_equals_quotient_sum_exhaustive():
    for b in range(1, 200):
        for a in range(-3 * b + 1, 3 * b):
            if gcd(a, b) == 1:
                assert t_value(a, b) == alternating_sum(a, b), (a, b)


@settings(max_examples=300)
@given(data=st.data(), b=st.integers(1, 10**12))
def test_walk_equals_quotient_sum_random(data, b):
    a = data.draw(st.integers(-(10**13), 10**13).filter(lambda x: gcd(x, b) == 1))
    assert t_value(a, b) == alternating_sum(a, b)


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        cf_expand(2, 4)
    with pytest.raises(ValueError):
        cf_expand(1, 0)
    with pytest.raises(ValueError):
        t_value(3, 6)
