"""Tests for the correction term mu and the congruence predicates.

Everything is cross-checked at small bounds against exact sum
differences computed by the separately tested evaluators, so no claim
here rests on the formula under test.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from dedsum.arith import jacobi, mod_inverse, sign_mod3
from dedsum.congruence import (
    bt_congruence_mod8,
    bt_residue,
    difference_verdict,
    family_example,
    mu,
    mu_condition,
    mu_original,
)
from dedsum.dedekind import dedekind_fast


def coprime_residues(b: int) -> list[int]:
    return [a for a in range(1, b) if gcd(a, b) == 1]


def test_mu_frozen_values():
    assert mu(5, 1) == 0
    assert mu(2, 5) == 4
    assert mu(7, 4) == 4
    assert mu(1, 4) == 0
    assert mu(3, 2) == 0
    assert mu(1, 9) == 0
    assert mu(9, 4) == 0


def test_mu_values_are_zero_or_four():
    for b in range(1, 51):
        for a in range(1, 4 * b + 1):
            if gcd(a, b) == 1:
                assert mu(a, b) in (0, 4)


def test_mu_rejects_bad_input():
    with pytest.raises(ValueError):
        mu(2, 4)
    with pytest.raises(ValueError):
        mu(1, 0)


def test_mu_original_frozen_values():
    assert mu_original(3, 4) == 12
    assert mu_original(1, 8) == 0
    assert mu_original(5, 6) == 40


def test_mu_original_needs_even_modulus():
    with pytest.raises(ValueError):
        mu_original(2, 5)
    with pytest.raises(ValueError):
        mu_original(2, 9)


def test_mu_agrees_with_quadratic_form_mod8():
    for b in range(2, 61, 2):
        for a in range(1, 4 * b + 1):
            if gcd(a, b) == 1:
                assert (mu(a, b) - mu_original(a, b)) % 8 == 0, (a, b)


def test_mu_condition_frozen_values():
    assert mu_condition(1, 6, 25) is True
    assert mu_condition(1, 4, 5) is False
    assert mu_condition(1, 4, 9) is True


def test_mu_condition_rejects_nonpositive():
    with pytest.raises(ValueError):
        mu_condition(0, 3, 5)
    with pytest.raises(ValueError):
        mu_condition(3, -1, 5)


def test_mu_condition_rejects_a_nonpositive_modulus():
    # b = 0 once divided by zero, and b = -3 returned True.
    for b in (0, -3):
        with pytest.raises(ValueError, match="lower argument must be positive"):
            mu_condition(1, 1, b)


def test_condition_matches_8z_membership_exhaustive():
    # The pairing condition must coincide with S-difference membership
    # in 8Z for every b, including b divisible by 9.
    for b in range(3, 41):
        for a1, a2 in combinations(coprime_residues(b), 2):
            diff = dedekind_fast(a1, b) - dedekind_fast(a2, b)
            in_8z = diff.denominator == 1 and diff.numerator % 8 == 0
            assert mu_condition(a1, a2, b) == in_8z, (a1, a2, b)


def test_condition_matches_24z_membership_away_from_9():
    for b in range(3, 41):
        if b % 9 == 0:
            continue
        for a1, a2 in combinations(coprime_residues(b), 2):
            diff = dedekind_fast(a1, b) - dedekind_fast(a2, b)
            in_24z = diff.denominator == 1 and diff.numerator % 24 == 0
            assert mu_condition(a1, a2, b) == in_24z, (a1, a2, b)


def test_difference_verdict_counterexample_at_nine():
    v = difference_verdict(1, 4, 9)
    assert v.condition_holds is True
    assert v.diff_in_8z is True
    assert v.diff_in_24z is False
    assert v.s_diff == Fraction(8)


def test_difference_verdict_consistent_fields():
    for b in (5, 8, 9, 12):
        for a1, a2 in combinations(coprime_residues(b), 2):
            v = difference_verdict(a1, a2, b)
            assert v.s_diff == dedekind_fast(a1, b) - dedekind_fast(a2, b)
            assert v.condition_holds == v.diff_in_8z
            if v.diff_in_24z:
                assert v.diff_in_8z


def test_bt_congruence_mod8_frozen():
    assert bt_congruence_mod8(2, 5) is True
    assert bt_congruence_mod8(1, 4) is True
    assert bt_congruence_mod8(3, 4) is True


def test_bt_congruence_mod8_exhaustive_with_lifts():
    for b in range(2, 41):
        for base in coprime_residues(b):
            for a in (base, base - b, base + b):
                assert bt_congruence_mod8(a, b), (a, b)


def test_bt_congruence_mod8_rejects_small_modulus():
    with pytest.raises(ValueError):
        bt_congruence_mod8(1, 1)


@pytest.mark.parametrize(
    "a,b,tag,modulus,value",
    [
        (2, 5, "odd_ndiv3", 24, 10),
        (2, 3, "odd_div3", 72, 3),
        (1, 3, "odd_div3", 72, 9),
        (1, 2, "even_half_ndiv3", 24, 4),
        (3, 4, "even_half_ndiv3", 24, 0),
        (1, 4, "even_quarter_ndiv3", 24, 16),
    ],
)
def test_bt_residue_frozen(a, b, tag, modulus, value):
    res = bt_residue(a, b)
    assert res.case_tag == tag
    assert res.modulus == modulus
    assert res.predicted == value
    assert res.actual == value
    assert res.matches


def test_bt_residue_matches_exhaustive_with_lifts():
    for b in range(2, 61):
        for base in coprime_residues(b):
            for a in (base, base - b, base + b):
                res = bt_residue(a, b)
                assert res.modulus == (72 if b % 3 == 0 else 24)
                assert res.matches, (a, b, res)


def test_bt_residue_rejects_bad_input():
    with pytest.raises(ValueError):
        bt_residue(1, 1)
    with pytest.raises(ValueError):
        bt_residue(2, 4)


def test_per_class_terms_are_the_same_on_every_lift():
    # The lift scans compute these once per residue class and reuse them
    # on a, a - b and a + b.
    for b in range(2, 121):
        for base in coprime_residues(b):
            lifts = (base, base - b, base + b)
            assert len({mod_inverse(a, b) for a in lifts}) == 1, (base, b)
            assert len({mu(a, b) for a in lifts}) == 1, (base, b)
            assert len({bt_residue(a, b).case_tag for a in lifts}) == 1, (base, b)
            if b % 2:
                assert len({jacobi(a, b) for a in lifts}) == 1, (base, b)
            if b % 3 == 0:
                assert len({sign_mod3(a) for a in lifts}) == 1, (base, b)


def test_family_frozen_values():
    assert family_example(1, 3) == family_example(1, 3)
    ex = family_example(1, 3)
    assert (ex.b, ex.a, ex.s_diff) == (9, 4, 8)
    ex = family_example(1, 5)
    assert (ex.b, ex.a, ex.s_diff) == (25, 6, 24)
    ex = family_example(3, 3)
    assert (ex.b, ex.a, ex.s_diff) == (27, 10, 24)
    ex = family_example(1, 9)
    assert (ex.b, ex.a, ex.s_diff) == (81, 10, 80)


def test_family_difference_is_verified_against_sums():
    for c in range(1, 10, 2):
        for d in range(3, 12, 2):
            ex = family_example(c, d)
            assert gcd(ex.a, ex.b) == 1
            assert ex.s_diff == c * (d * d - 1)
            assert dedekind_fast(1, ex.b) - dedekind_fast(ex.a, ex.b) == ex.s_diff
            assert ex.diff_in_8z
            assert ex.diff_in_24z == (d % 3 != 0 or c % 3 == 0)


def test_family_rejects_bad_parameters():
    with pytest.raises(ValueError):
        family_example(2, 3)
    with pytest.raises(ValueError):
        family_example(-1, 3)
    with pytest.raises(ValueError):
        family_example(1, 1)
    with pytest.raises(ValueError):
        family_example(1, 4)
