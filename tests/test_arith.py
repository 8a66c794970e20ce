"""Tests for the elementary number theory helpers.

The Jacobi symbol and modular inverse are checked against independent
brute-force oracles: Euler's criterion over the prime factorization,
and exhaustive search for the inverse.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dedsum.arith import (
    ExactRational,
    jacobi,
    mod_inverse,
    require_coprime,
    sign_mod3,
)
from dedsum.congruence import mu
from dedsum.contfrac import cf_expand, t_value
from dedsum.dedekind import b_times_s, dedekind_fast, dedekind_naive


def prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def jacobi_oracle(a: int, b: int) -> int:
    """Product of Legendre symbols computed with Euler's criterion."""
    result = 1
    for p in prime_factors(b):
        e = pow(a % p, (p - 1) // 2, p)
        result *= {0: 0, 1: 1, p - 1: -1}[e]
    return result


def inverse_oracle(a: int, b: int) -> int:
    return next(x for x in range(1, b) if (a * x) % b == 1)


def test_require_coprime():
    require_coprime(3, 8)
    with pytest.raises(ValueError):
        require_coprime(6, 9)


@pytest.mark.parametrize("fn", [dedekind_naive, dedekind_fast, b_times_s, mu, t_value, cf_expand])
def test_the_scalar_functions_share_one_pair_check(fn):
    with pytest.raises(ValueError, match="^lower argument must be positive, got 0$"):
        fn(1, 0)
    with pytest.raises(ValueError, match=r"^arguments must be coprime, gcd\(6, 9\) != 1$"):
        fn(6, 9)


def test_exact_rational_is_exact():
    assert ExactRational is Fraction
    assert ExactRational(1, 3) + ExactRational(1, 6) == ExactRational(1, 2)
    assert ExactRational(56, 9).numerator == 56


def test_jacobi_against_euler_oracle_exhaustive():
    for b in range(1, 100, 2):
        for a in range(-b, 2 * b + 1):
            assert jacobi(a, b) == jacobi_oracle(a, b), (a, b)


def test_jacobi_known_values():
    assert jacobi(2, 5) == -1
    assert jacobi(1, 9) == 1
    assert jacobi(4, 9) == 1
    assert jacobi(2, 15) == 1
    assert jacobi(3, 9) == 0
    assert jacobi(7, 1) == 1


def test_jacobi_rejects_bad_modulus():
    with pytest.raises(ValueError):
        jacobi(1, 6)
    with pytest.raises(ValueError):
        jacobi(1, 0)
    with pytest.raises(ValueError):
        jacobi(1, -3)


@given(
    a1=st.integers(-500, 500),
    a2=st.integers(-500, 500),
    b=st.integers(0, 200),
)
def test_jacobi_multiplicative_in_numerator(a1, a2, b):
    b = 2 * b + 1
    assert jacobi(a1 * a2, b) == jacobi(a1, b) * jacobi(a2, b)


@given(a=st.integers(-500, 500), b=st.integers(0, 200))
def test_jacobi_periodic_in_numerator(a, b):
    b = 2 * b + 1
    assert jacobi(a, b) == jacobi(a + b, b)


def test_mod_inverse_against_search_exhaustive():
    for b in range(2, 61):
        for a in range(1, b):
            if gcd(a, b) != 1:
                continue
            inv = mod_inverse(a, b)
            assert inv == inverse_oracle(a, b)
            assert 1 <= inv < b


@given(a=st.integers(-10**6, 10**6), b=st.integers(2, 10**6))
def test_mod_inverse_property(a, b):
    if gcd(a, b) != 1:
        with pytest.raises(ValueError):
            mod_inverse(a, b)
    else:
        assert (a * mod_inverse(a, b)) % b == 1 % b


def test_mod_inverse_rejects_bad_input():
    with pytest.raises(ValueError):
        mod_inverse(2, 4)
    with pytest.raises(ValueError):
        mod_inverse(1, 1)
    with pytest.raises(ValueError):
        mod_inverse(1, 0)


def test_sign_mod3_exhaustive():
    for a in range(-50, 51):
        if a % 3 == 0:
            with pytest.raises(ValueError):
                sign_mod3(a)
        else:
            e = sign_mod3(a)
            assert e in (1, -1)
            assert (a - e) % 3 == 0
