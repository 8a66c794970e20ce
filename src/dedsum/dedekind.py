"""Exact evaluation of classical Dedekind sums.

The normalized sum here is S(a, b) = 12 s(a, b), where

    s(a, b) = sum_{k=1}^{b} ((k/b)) ((ak/b))

and ((x)) is the sawtooth x - floor(x) - 1/2, zero at integers. Two
independent evaluators are provided: a definitional O(b) loop and an
O(log b) recursion driven by the reciprocity law. Both return exact
rationals and must agree everywhere; the scan suite checks that they do.
The recursion has a scalar form, `_fast_parts`, which walks the Euclid
remainders forward on one Python integer, and a row form, `bs_values`,
which solves them backward in int64 for whole arrays of pairs. Both walk
nearest-integer remainders: the sawtooth is odd, so
S(y, x) = -S(x - y, x), and where 2y > x a level takes x - y in place of
y and flips the sign of its term. Each remainder is then at most half the
one before, so a walk takes at most floor(log2 b) levels.
"""

from fractions import Fraction
from math import gcd

import numpy as np

from dedsum.arith import _prime_powers, require_coprime

# 3 * b**3 must stay below 2**63 for the vectorized row to be exact. The
# row sums only its terms k < b/2 (see `naive_bs_row`). Each of those
# h < b/2 terms (2k - b)(ak mod b) is below b^2 in size, so every partial
# sum of them stays below b^3 / 2. Twice that sum, plus the correction
# b h (b - 1 - h) <= b^3 / 4, gives the half sum
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
# so r_k |V_{k+1}| < b^3 / 4 and the right side stays below 5b^2 + 1. The
# reciprocity scan adds a b S(a, b) + b a S(b mod a, a), below 2b^3. Every
# step and every such sum stays below 2b^3 + 5b^2 < 2^63 for
# b <= NAIVE_ROW_LIMIT.
NAIVE_ROW_LIMIT = 1_400_000

# Pairs per call of the row kernel; `bs_values` solves longer arrays in
# slices of this size. The remainder levels of one call keep 25 bytes per
# pair and level: about 0.4 MB for b <= 500 (3.7 levels on average), at most
# 2.0 MB below NAIVE_ROW_LIMIT (20 levels, see `_bs_pairs`). Calls of 8192 pairs are no
# faster and double that memory.
_ROW_BATCH = 4096

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

# The lift scans theorem2 and bt-mod8 walk T(a, b) in int64 for the lifts
# a, a - b, a + b of each residue 0 < a < b, so -b < a < 2b. The first
# quotient floor(a/b) is -1, 0 or 1 and the rest are those of a mod b
# over b, whose sum is at most b; with the +2 of an odd quotient count,
# every partial sum of the walk and T itself stay within b + 3 in size.
# So |b T| <= b^2 + 3b, the mod-8 offset b^2 + 2 - mu - a_inv lies in
# [b^2 - b - 3, b^2 + 2], and the mod-8 check b T - offset + a stays
# within 2b^2 + 5b + 2. That is below 2^63 up to b = 2^31 - 2. The power
# a^(phi(b) - 1) mod b that gives a^-1 multiplies factors reduced mod b:
# each product is below b^2 <= (2^31 - 2)^2 < 2^62. The Jacobi symbol in
# mu reads, for each prime p | b up to 4096, a table of p entries, each
# 0 or +-1, at a mod p; for a larger p, the Euler power a^((p - 1)/2)
# mod p, each product below p^2 <= b^2 < 2^62 (arith.JACOBI_PAIRS_LIMIT,
# 2^31 - 1, is above this limit).
LIFT_WALK_LIMIT = 2_147_483_646


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
    """S(a, b) as a reduced pair (numerator, denominator), b >= 1 and
    a coprime to b.

    Walks the reciprocity law
        S(y, x) = (x^2 + y^2 + 1 - 3xy) / (xy) - S(x mod y, y)
    forward along the nearest-integer Euclid remainders x = b,
    y = min(a mod b, b - a mod b), ... on one integer, with one exact
    division per level, and reduces b S(a, b) over b once at the end.
    Python ints keep it exact for every b.
    Raises ArithmeticError if a step does not divide exactly.
    """
    # Level k has x = x_k, a remainder y and sb = e_k b with e_k = +-1; the
    # first level has x_0 = b, y = a mod b and e_0 = 1. The law gives
    #     S(a, b) = P_k + e_k S(y, x),
    # P_k the sum of the terms e_j (x_j^2 + y_j^2 + 1 - 3 x_j y_j)
    # / (x_j y_j) of the levels j < k. The walk keeps n = b x P_k:
    #     n = x (b S(a, b)) - sb (x S(y, x)),
    # and c S(d, c) is an integer for every c >= 1 and d coprime to c
    # (Rademacher and Grosswald, Dedekind Sums, ch. 3), so n is an integer
    # at every level.
    # The sawtooth is odd, so S(y, x) = -S(x - y, x). Where 2y > x the level
    # takes y = x - y and flips the sign of sb: e_k S(y, x) and n stay the
    # same. So y <= x / 2, and the next level has x_{k+1} = y: x at least
    # halves at each level, and a walk takes at most floor(log2 b) levels.
    # The longest walks for their size (checked for every b < 3000) start
    # at consecutive Pell numbers (b, a) = (5, 2), (12, 5), (29, 12), ...,
    # whose levels never flip; consecutive Fibonacci numbers, the longest
    # plain Euclid walks, flip at every level.
    # The step computes t = y n + sb (x^2 + y^2 + 1 - 3xy), which is x times
    # the next level's n = b y P_{k+1}, with sb negated for that level; so
    # t / x is exact. The last level has y = 1: its step adds
    # sb (x - 1)(x - 2), as S(1, x) = (x - 1)(x - 2) / x, and leaves
    # n = b P_{k+1} = b S(a, b), as S(0, 1) = 0. For b = 1 the walk never
    # starts and b S(a, b) = n = 0.
    x, y = b, a % b
    n, sb = 0, b
    while y:
        if 2 * y > x:
            y, sb = x - y, -sb
        t = n * y + sb * ((x - y) ** 2 - x * y + 1)
        n = t // x
        if n * x != t:
            raise ArithmeticError(
                f"a reciprocity step of the scalar kernel came out non-integral: S({a}, {b})"
            )
        x, y, sb = y, x % y, -sb
    g = gcd(n, b)
    return n // g, b // g


def dedekind_fast(a: int, b: int) -> Fraction:
    """Normalized Dedekind sum S(a, b) via reciprocity, O(log b) time."""
    _validate(a, b)
    num, den = _fast_parts(a, b)
    return Fraction(num, den)


def b_times_s(a: int, b: int) -> int:
    """The integer b * S(a, b).

    `_fast_parts` reduces b S(a, b) over b, so its denominator divides b.
    It raises ArithmeticError if a step of its walk does not divide
    exactly, which would indicate a bug rather than bad input.
    """
    _validate(a, b)
    num, den = _fast_parts(a, b)
    return num * (b // den)


def coprime_residues(b: int) -> np.ndarray:
    """The residues a in 1..b-1 with gcd(a, b) == 1, as an int64 array.

    Sieves 1..b-1: clears the multiples of each prime factor of b, found
    by `_prime_powers`.
    """
    keep = np.ones(max(b, 1), dtype=bool)
    keep[0] = False
    for p, _ in _prime_powers(b):
        keep[::p] = False
    return np.flatnonzero(keep).astype(np.int64, copy=False)


def _reciprocity_rhs(x, y):
    """x^2 + y^2 + 1 - 3xy, which is xy (S(x, y) + S(y, x))."""
    return x * x + y * y + 1 - 3 * x * y


def _bs_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """b * S(a, b) for int64 arrays of coprime pairs 0 < a < b.

    Steps the nearest-integer Euclid remainders forward, keeping at each
    level only the pairs whose remainder has not reached 1, then solves
    the reciprocity law for V_k = r_k S(r_{k+1}, r_k) backward from the
    deepest level. Where a remainder y has 2y > r_k, the level takes
    r_{k+1} = r_k - y and stores a flip, and its backward step keeps
    -V_k, as S(y, r_k) = -S(r_k - y, r_k) for the odd sawtooth. So
    r_{k+1} <= r_k / 2 and a walk takes at most floor(log2 b) levels; the
    longest for their size start at consecutive Pell numbers (b, a) =
    (5, 2), (12, 5), .... Where r_{k+1} = 1 the next term r_{k+1} S(0, 1)
    is 0, so the step gives V_k = (r_k - 1)(r_k - 2) = r_k S(1, r_k) with
    the same formula.
    Exact for b <= NAIVE_ROW_LIMIT (see there); `bs_values` checks that
    bound. Raises ValueError where a remainder falls below 1, which a
    pair outside 0 < a < b or not coprime does at some level, and
    ArithmeticError if a step does not divide exactly.
    """
    levels = []
    idx = np.arange(len(a))
    x, y = b, a
    while len(idx):
        flip = 2 * y > x
        y = np.where(flip, x - y, y)
        if y.min() < 1:
            raise ValueError("the row kernel needs coprime pairs 0 < a < b")
        levels.append((idx, x, y, flip))
        more = y > 1
        idx, x, y = idx[more], y[more], x[more] % y[more]
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
# the constant W = sum_{k=1}^{h} (2k - b) = -h (b - 1 - h). The blocks
# hold a k < b^2 / 2 and then (2k - b) r_k, below b^2 in size; both fit
# int32 while b^2 <= 2^31 - 1, that is for b <= NAIVE_INT32_LIMIT.
# Larger b run the same blocks in int64. The sums over k are int64.
NAIVE_INT32_LIMIT = 46_340

# The number of elements in a block of the naive row.
_NAIVE_BLOCK = 2**17


def naive_bs_row(b: int) -> tuple[np.ndarray, np.ndarray]:
    """b * S(a, b) by direct summation for every a in 1..b-1 coprime to b.

    Returns (residues, values) as int64 arrays. This is the bulk oracle
    used by the equivalence scan; it never touches the recursion. Each
    row sums the terms k < b/2 of the defining sum, which equal those of
    b - k, in int32 blocks up to NAIVE_INT32_LIMIT and int64 blocks above
    it. Raises ValueError when b exceeds the exactness bound for int64.
    """
    if b < 2:
        raise ValueError(f"lower argument must be at least 2, got {b}")
    if b > NAIVE_ROW_LIMIT:
        raise ValueError(f"b={b} exceeds the int64-exact limit {NAIVE_ROW_LIMIT}")
    residues = coprime_residues(b)
    return residues, _naive_row_values(residues, b)


def _naive_row_values(residues: np.ndarray, b: int) -> np.ndarray:
    """6H / b for each of the residues, H the half sum above."""
    dtype = np.int32 if b <= NAIVE_INT32_LIMIT else np.int64
    h = (b - 1) // 2
    k = np.arange(1, h + 1, dtype=dtype)
    wk = 2 * k - b
    sums = np.zeros(len(residues), dtype=np.int64)
    # Blocks of about _NAIVE_BLOCK elements, _NAIVE_BLOCK // h rows of
    # h < b/2 terms, one for the products and one for the quotients: at
    # most 512 KB each in int32 and 1 MB each in int64, or one row each
    # once a row alone is longer (b > 262,146). Two fresh blocks of the
    # whole row would cost more in first touches of their pages than in
    # arithmetic at b near 2000. A row with b <= 513 is one block.
    chunk = max(1, _NAIVE_BLOCK // max(h, 1))
    block = np.empty((min(chunk, len(residues)), h), dtype=dtype)
    quot = np.empty_like(block)
    for lo in range(0, len(residues), chunk):
        part = residues[lo : lo + chunk].astype(dtype, copy=False)
        buf, q = block[: len(part)], quot[: len(part)]
        np.multiply(part[:, None], k, out=buf)
        # r = ak - b floor(ak / b): numpy divides by a scalar in vector
        # loops, about three times faster than its remainder.
        np.floor_divide(buf, b, out=q)
        q *= b
        buf -= q
        buf *= wk
        sums[lo : lo + chunk] = buf.sum(axis=1, dtype=np.int64)
    bs, rem = np.divmod(6 * (2 * sums + b * h * (b - 1 - h)), b)
    if rem.any():
        raise ArithmeticError(f"non-integral b*S value in row b={b}")
    return bs
