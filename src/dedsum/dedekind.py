"""Exact evaluation of classical Dedekind sums.

The normalized sum here is S(a, b) = 12 s(a, b), where

    s(a, b) = sum_{k=1}^{b} ((k/b)) ((ak/b))

and ((x)) is the sawtooth x - floor(x) - 1/2, zero at integers. Three
evaluators are provided, and they share no code: a definitional O(b)
loop (`dedekind_naive`, and its row form `_naive_row_values`); an O(log b)
scalar, `b_times_s` behind `dedekind_fast`, which reads the integer
b S(a, b) from the Barkan-Hickerson-Knuth identity over the Euclid walk
of T(a, b) in `contfrac`; and the reciprocity law solved
backward in int64 for whole arrays of pairs (`bs_values`). All return
exact values and must agree everywhere. The oracle-equivalence scan
checks the reciprocity kernel against the definitional rows on every
pair, the bhk scan checks it against the T walk through the BHK
identity, and tests check the scalar. The reciprocity kernel walks
nearest-integer remainders: the sawtooth is odd, so S(y, x) =
-S(x - y, x), and where 2y > x a level takes x - y in place of y and
flips the sign of its term. Each remainder is then at most half the one
before, so a walk takes at most floor(log2 b) levels.
"""

from fractions import Fraction

import numpy as np

from dedsum.arith import _prime_powers, _require_pair, _walk_bound
from dedsum.contfrac import t_value

# 3 * b**3 must stay below 2**63 for the vectorized row to be exact. The
# row sums only its terms k < b/2 (see `_naive_row_values`). Each of those
# h < b/2 terms (2k - b)(ak mod b) is below b^2 in size, so their sum is
# below b^3 / 2, and no intermediate of the contraction that computes it
# is larger than b^3 / 2 + b^2 (see NAIVE_SUM32_LIMIT). Twice that sum,
# plus the correction b h (b - 1 - h) <= b^3 / 4, gives the half sum
# H = sum_{k < b/2} (2k - b)(2 (ak mod b) - b), whose h terms are below
# b^2 too, so |H| < b^3 / 2. The row's value b S(a, b) = 6H / b has 6H
# below 3b^3.
#
# The same bound covers the reciprocity row kernel `_bs_pairs`. It walks
# the nearest-integer remainders r_0 = b, r_1 = min(a, b - a), ...: with
# s = r_{k-1} mod r_k, r_{k+1} = min(s, r_k - s) <= r_k / 2. With
# V_k = r_k S(r_{k+1}, r_k), each backward step solves
#     r_{k+1} V_k + r_k V_{k+1} = r_k^2 + r_{k+1}^2 + 1 - 3 r_k r_{k+1}
# for V_k and keeps V_k or -V_k, the value of the level's own remainder.
# |S(a, c)| <= (c - 1)(c - 2)/c < c gives |V_{k+1}| < r_{k+1}^2 <= r_k^2 / 4,
# so r_k |V_{k+1}| < b^3 / 4; the right side, computed as (r_k - r_{k+1})^2
# - r_k r_{k+1} + 1 (`_reciprocity_rhs`), has terms below b^2. The
# reciprocity scan adds a b S(a, b) + b a S(b mod a, a), below 2b^3. Every
# step and every such sum stays below 2b^3 + 5b^2 < 2^63 for
# b <= NAIVE_ROW_LIMIT.
NAIVE_ROW_LIMIT = 1_400_000

# Pairs per call of the row kernel; `bs_values` solves longer arrays in
# slices of this size. The remainder levels of one call keep 25 bytes per
# pair and level: about 0.4 MB for b <= 500 (3.7 levels on average), at most
# 1.6 MB below NAIVE_ROW_LIMIT (16 levels, see `_bs_pairs`). Calls of 8192
# pairs are no faster and double that memory.
_ROW_BATCH = 4096


def dedekind_naive(a: int, b: int) -> Fraction:
    """Normalized Dedekind sum S(a, b) by direct summation, O(b) time.

    Uses the integer identity 4 b^2 s(a, b) =
    sum_{k=1}^{b-1} (2k - b)(2 (ak mod b) - b), so the accumulator
    stays integral until the final division.
    """
    _require_pair(a, b)
    total = 0
    r = 0
    a %= b
    for k in range(1, b):
        r += a
        if r >= b:
            r -= b
        total += (2 * k - b) * (2 * r - b)
    return Fraction(3 * total, b * b)


def b_times_s(a: int, b: int) -> int:
    """The integer b S(a, b), for b >= 1 and a coprime to b, exact in Python ints.

    The Barkan-Hickerson-Knuth identity S(a, b) = T(a, b) + (a + a^-1)/b - 3,
    0 < a^-1 < b (Knuth, "Notes on generalized Dedekind sums", Acta Arith. 33,
    1977), over the Euclid walk of `contfrac.t_value`; b = 1 gives 0.
    """
    _require_pair(a, b)
    if b == 1:
        return 0
    return b * t_value(a, b) + a + pow(a, -1, b) - 3 * b


def dedekind_fast(a: int, b: int) -> Fraction:
    """Normalized Dedekind sum S(a, b) from `b_times_s`, O(log b) time."""
    return Fraction(b_times_s(a, b), b)


def coprime_residues(b: int) -> np.ndarray:
    """The residues a in 1..b-1 with gcd(a, b) == 1, as an int64 array.

    Sieves 1..b-1: clears the multiples of each prime factor of b, found
    by `_prime_powers`.
    """
    keep = np.ones(max(b, 1), dtype=bool)
    keep[0] = False
    for p, _ in _prime_powers(b):
        keep[::p] = False
    return keep.nonzero()[0].astype(np.int64, copy=False)


def _reciprocity_rhs(x, y):
    """(x - y)^2 - xy + 1 = x^2 + y^2 + 1 - 3xy, which is xy (S(x, y) + S(y, x))."""
    return (x - y) ** 2 - x * y + 1


def _bs_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """b * S(a, b) for int64 arrays of coprime pairs 0 < a < b.

    Steps the nearest-integer Euclid remainders forward, keeping at each
    level only the pairs whose remainder has not reached 1, then solves
    the reciprocity law for V_k = r_k S(r_{k+1}, r_k) backward from the
    deepest level. Where a remainder y has 2y > r_k, the level takes
    r_{k+1} = r_k - y and stores a flip, and its backward step keeps
    -V_k, as S(y, r_k) = -S(r_k - y, r_k) for the odd sawtooth. So
    r_{k+1} <= r_k / 2 and r_{k-1} >= 2 r_k + r_{k+1} (r_{k-1} = q r_k + s,
    q >= 2, and r_{k+1} = s or r_k - s <= s): a walk from b takes at most
    as many levels as there are Pell numbers 2, 5, 12, ... up to b
    (`arith._walk_bound`, at most floor(log2 b)), and one from consecutive
    Pell numbers (b, a) = (5, 2), (12, 5), ... takes them all. Where
    r_{k+1} = 1 the next term r_{k+1} S(0, 1) is 0, so the step gives
    V_k = (r_k - 1)(r_k - 2) = r_k S(1, r_k) with the same formula.
    Exact for b <= NAIVE_ROW_LIMIT (see there); `bs_values` checks that
    bound. Raises ArithmeticError where a remainder falls below 1, which
    a pair outside 0 < a < b or not coprime does at some level, past the
    level bound, and where a step does not divide.
    """
    levels = []
    idx = np.arange(len(a))
    x, y = b, a
    depth = _walk_bound(int(b.max(initial=0)), 2)
    while len(idx):
        d = x - y
        flip = d < y
        y = np.minimum(y, d)
        if y.min() < 1:
            raise ArithmeticError("the row kernel needs coprime pairs 0 < a < b")
        if len(levels) == depth:
            raise ArithmeticError(f"the row kernel walked past its bound of {depth} levels")
        levels.append((idx, x, y, flip))
        more = (y > 1).nonzero()[0]
        idx, x, y = idx[more], y[more], x[more]
        y %= x  # the next level: (y, x mod y) of the pairs with y > 1
    v = np.zeros(len(a), dtype=np.int64)
    for idx, x, y, flip in reversed(levels):
        step, rem = np.divmod(_reciprocity_rhs(x, y) - x * v[idx], y)
        if rem.any():
            raise ArithmeticError("a reciprocity step of the row kernel came out non-integral")
        v[idx] = np.where(flip, -step, step)
    return v


def bs_values(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """b * S(a, b) for int64 arrays of coprime pairs 0 < a < b.

    Runs the reciprocity row kernel in slices of at most _ROW_BATCH
    pairs. Raises ValueError when a b exceeds NAIVE_ROW_LIMIT, before
    any pair is solved.
    """
    if len(b) and b.max() > NAIVE_ROW_LIMIT:
        raise ValueError(f"b={int(b.max())} exceeds the int64-exact limit {NAIVE_ROW_LIMIT}")
    parts = [
        _bs_pairs(a[lo : lo + _ROW_BATCH], b[lo : lo + _ROW_BATCH])
        for lo in range(0, len(a), _ROW_BATCH)
    ]
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)


# The row sums half of its range. ((x)) is odd, ((-x)) = -((x)), and
# periodic, so the summand of k in
#     4 b^2 s(a, b) = sum_{k=1}^{b-1} (2k - b)(2 r_k - b),  r_k = ak mod b,
# equals that of b - k: r_{b-k} = b - r_k, as r_k > 0 for a coprime to b,
# so both factors change sign. For even b the term k = b/2 is 0. So the
# row is 2H with H = sum_{1 <= k < b/2} (2k - b)(2 r_k - b), and
# b S(a, b) = 3 (2H) / b = 6H / b. This pairs the summation index only;
# it uses no identity of Dedekind sums, so the row stays the definitional
# sum that `dedekind_naive` runs in full.
#
# With h = floor((b - 1) / 2) terms, H = 2 sum_k (2k - b) r_k - b W for
# the constant W = sum_{k=1}^{h} (2k - b) = -h (b - 1 - h). As
# r_k = ak - b q_k, q_k = floor(ak / b), the row's sum is a C - b s with
# C = sum_k (2k - b) k and the contraction s = sum_k (2k - b) q_k. The
# blocks hold a k < b^2 / 2 and then, in place, q_k < k: int32 while
# b^2 <= 2^31 - 1 (b <= NAIVE_INT32_LIMIT), int64 above. For 0 < a < b,
# 0 <= q_k <= k - 1 and 2k - b < 0, so every partial sum of s is at most
# sum_k (b - 2k)(k - 1) in size: below 2^31 for b <= NAIVE_SUM32_LIMIT,
# where s is contracted in int32, and below b^3 / 24 above. |C| < b^3 / 24
# too, but a C may reach b^4 / 24: with C = b C1 + C0, 0 <= C0 < b, the
# sum is a C0 + b (a C1 - s), where a C0 < b^2, |a C1| < b^3 / 24 + b and
# the second term is the sum, below h b^2 < b^3 / 2, less a C0. No
# intermediate reaches 3b^3 (see NAIVE_ROW_LIMIT). As b s drops out mod b,
# the remainder check sees only an int64 wrap; a wrapped contraction breaks
# the range check |b S(a, b)| <= (b - 1)(b - 2), tight at a = b - 1.
# The power behind the inverses multiplies residues below its modulus, so
# its int32 bound, arith.POWER_INT32_LIMIT, is one modulus higher: 46,341.
NAIVE_INT32_LIMIT = 46_340
NAIVE_SUM32_LIMIT = 3_723

# The number of elements in a block of the naive row.
_NAIVE_BLOCK = 2**17


def _naive_row_values(residues: np.ndarray, b: int) -> np.ndarray:
    """b S(a, b) = 6H / b, H the half sum above, for each of the residues
    0 < a < b: the bulk oracle, which never touches the recursion. A whole
    row is `coprime_residues(b)`. The caller keeps b <= NAIVE_ROW_LIMIT."""
    dtype = np.int32 if b <= NAIVE_INT32_LIMIT else np.int64
    h = (b - 1) // 2
    k = np.arange(1, h + 1, dtype=dtype)
    wk = (2 * k - b).astype(np.int32 if b <= NAIVE_SUM32_LIMIT else np.int64)
    s = np.empty(len(residues), dtype=np.int64)
    # Blocks of about _NAIVE_BLOCK elements, _NAIVE_BLOCK // h rows of
    # h < b/2 terms: at most 512 KB in int32 and 1 MB in int64, or one row
    # once a row alone is longer (b > 262,146). A fresh block of the whole
    # row would cost more in first touches of its pages than in arithmetic
    # at b near 2000. A row with b <= 513 is one block.
    chunk = max(1, _NAIVE_BLOCK // max(h, 1))
    block = np.empty((min(chunk, len(residues)), h), dtype=dtype)
    for lo in range(0, len(residues), chunk):
        part = residues[lo : lo + chunk].astype(dtype, copy=False)
        q = block[: len(part)]
        np.multiply(part[:, None], k, out=q)
        np.floor_divide(q, b, out=q)
        s[lo : lo + chunk] = np.einsum("ij,j->i", q, wk)
    c1, c0 = divmod(h * (h + 1) * (2 * h + 1) // 3 - b * h * (h + 1) // 2, b)
    sums = residues * c0 + b * (residues * c1 - s)
    bs, rem = np.divmod(6 * (2 * sums + b * h * (b - 1 - h)), b)
    if rem.any() or np.abs(bs).max(initial=0) > (b - 1) * (b - 2):
        raise ArithmeticError(f"non-integral or out-of-range b*S value in row b={b}")
    return bs
