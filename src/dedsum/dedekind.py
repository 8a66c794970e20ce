"""Exact evaluation of classical Dedekind sums.

The normalized sum here is S(a, b) = 12 s(a, b), where

    s(a, b) = sum_{k=1}^{b} ((k/b)) ((ak/b))

and ((x)) is the sawtooth x - floor(x) - 1/2, zero at integers. Two
independent evaluators are provided: a definitional O(b) loop and an
O(log b) recursion driven by the reciprocity law. Both return exact
rationals and must agree everywhere; the scan suite checks that they do.
"""

from fractions import Fraction
from math import gcd

import numpy as np

from dedsum.arith import require_coprime

# 3 * b**3 must stay below 2**63 for the vectorized row to be exact.
NAIVE_ROW_LIMIT = 1_400_000

# The theorem1 scan evaluates the pairing condition
#     b (a2 m1 - a1 m2) - (a1 - a2)(b - 1)(a1 a2 + b - 1)
# in int64 for residues 0 < a1, a2 < b and m1, m2 in {0, 4}. The first
# term is below 4b^2 in absolute value; in the second, |a1 - a2| < b,
# b - 1 < b and a1 a2 + b - 1 <= b(b - 1) < b^2, so every partial
# product stays below b^4. The whole is exact while b^4 + 4b^2 < 2^63,
# which holds up to b = 55,108. Reducing the factors mod 8b first would
# raise the bound; the scan does not, so it refuses larger b. The
# differences of b S(a, b) in the same blocks stay below 2b^2.
THEOREM1_ROW_LIMIT = 55_108


def _validate(a: int, b: int) -> None:
    if b < 1:
        raise ValueError(f"lower argument must be positive, got {b}")
    require_coprime(a, b)


def dedekind_naive(a: int, b: int) -> Fraction:
    """Normalized Dedekind sum S(a, b) by direct summation, O(b) time.

    Uses the integer identity 4 b^2 s(a, b) =
    sum_{k=1}^{b-1} (2k - b)(2 (ak mod b) - b), so the accumulator
    stays integral until the final division.
    """
    _validate(a, b)
    if b == 1:
        return Fraction(0)
    total = 0
    r = 0
    a %= b
    for k in range(1, b):
        r += a
        if r >= b:
            r -= b
        total += (2 * k - b) * (2 * r - b)
    return Fraction(3 * total, b * b)


def _fast_parts(a: int, b: int) -> tuple[int, int]:
    """S(a, b) as a reduced pair (numerator, denominator), b >= 1.

    Runs the reciprocity recursion
        S(a, b) = (a^2 + b^2 + 1 - 3ab) / (ab) - S(b mod a, a)
    entirely in integer arithmetic. Partial sums are reduced at each
    step, which keeps the denominator bounded by the product of two
    consecutive remainders.
    """
    a %= b
    num, den = 0, 1
    sign = 1
    while a > 1:
        # num/den += sign * (a^2 + b^2 + 1 - 3ab) / (ab)
        num = num * a * b + sign * (a * a + b * b + 1 - 3 * a * b) * den
        den *= a * b
        g = gcd(num, den)
        num //= g
        den //= g
        sign = -sign
        a, b = b % a, a
    if a == 1:
        # S(1, y) = (y - 1)(y - 2) / y
        num = num * b + sign * (b * b - 3 * b + 2) * den
        den *= b
        g = gcd(num, den)
        num //= g
        den //= g
    return num, den


def dedekind_fast(a: int, b: int) -> Fraction:
    """Normalized Dedekind sum S(a, b) via reciprocity, O(log b) time."""
    _validate(a, b)
    if b == 1:
        return Fraction(0)
    num, den = _fast_parts(a % b, b)
    return Fraction(num, den)


def b_times_s(a: int, b: int) -> int:
    """The integer b * S(a, b).

    Raises ArithmeticError if the computed value is not integral, which
    would indicate a bug rather than bad input.
    """
    _validate(a, b)
    if b == 1:
        return 0
    num, den = _fast_parts(a % b, b)
    if b % den != 0:
        raise ArithmeticError(f"b*S({a}, {b}) came out non-integral: {num}/{den}")
    return num * (b // den)


def naive_bs_row(b: int) -> tuple[np.ndarray, np.ndarray]:
    """b * S(a, b) by direct summation for every a in 1..b-1 coprime to b.

    Returns (residues, values) as int64 arrays. This is the bulk oracle
    used by the equivalence scan; it never touches the recursion. Raises
    ValueError when b exceeds the exactness bound for int64.
    """
    if b < 2:
        raise ValueError(f"lower argument must be at least 2, got {b}")
    if b > NAIVE_ROW_LIMIT:
        raise ValueError(f"b={b} exceeds the int64-exact limit {NAIVE_ROW_LIMIT}")
    k = np.arange(1, b, dtype=np.int64)
    residues = k[np.gcd(k, b) == 1]
    wk = 2 * k - b
    sums = np.zeros(len(residues), dtype=np.int64)
    chunk = max(1, 4_000_000 // b)
    block = np.empty((min(chunk, len(residues)), b - 1), dtype=np.int64)
    for lo in range(0, len(residues), chunk):
        part = residues[lo : lo + chunk]
        buf = block[: len(part)]
        np.multiply(part[:, None], k[None, :], out=buf)
        buf %= b
        buf *= 2
        buf -= b
        buf *= wk[None, :]
        sums[lo : lo + chunk] = buf.sum(axis=1)
    bs, rem = np.divmod(3 * sums, b)
    if rem.any():
        raise ArithmeticError(f"non-integral b*S value in row b={b}")
    return residues, bs
