"""Regular continued fractions normalized to an odd last index.

For coprime integers a and b >= 1 the expansion a/b = [q0; q1, ..., qn]
is computed by floor-division Euclid and then normalized so that the
last index n is odd. Every rational has exactly one expansion of this
shape, which pins down the alternating sum

    T(a, b) = -q0 + q1 - q2 + ... + qn

so that the final quotient always enters with a plus sign.

`t_value` checks b >= 1 and gcd(a, b) = 1 and then runs one
floor-division Euclid walk over plain ints that sums the quotients as it
goes and builds no list; `dedekind.b_times_s` reads b S(a, b) from it.
`_t_pairs` is the same walk on int64 arrays of pairs, which the lift
scans run on whole batches of lifts: in int32 while the call's
max |a| + max b is at most T_PAIRS_INT32_LIMIT (2^31), in int64 above,
with an int64 result either way. `cf_expand` builds the expansion itself
by a separate path and serves as the reference for the walks.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from dedsum.arith import _require_pair, _walk_bound


def _raw_quotients(a: int, b: int) -> list[int]:
    """Plain Euclidean expansion; last quotient >= 2 unless a/b is an integer."""
    qs = []
    while b != 0:
        q, r = divmod(a, b)
        qs.append(q)
        a, b = b, r
    return qs


def _normalize_odd(qs: list[int]) -> list[int]:
    """Force an odd last index n (even quotient count).

    [..., qn] -> [..., qn - 1, 1], which for [q0] alone is [q0 - 1; 1]. A
    raw expansion of a coprime pair with two or more quotients ends on
    qn >= 2, so no quotient of the result is 0 past the head.
    """
    return qs if len(qs) % 2 == 0 else qs[:-1] + [qs[-1] - 1, 1]


@dataclass(frozen=True)
class CFExpansion:
    """Continued fraction of a rational with an odd last index."""

    head: int
    tail: tuple[int, ...]

    @property
    def n(self) -> int:
        """Index of the last partial quotient (always odd)."""
        return len(self.tail)

    def quotients(self) -> list[int]:
        return [self.head, *self.tail]

    def as_fraction(self) -> Fraction:
        value = Fraction(self.quotients()[-1])
        for q in reversed(self.quotients()[:-1]):
            value = q + 1 / value
        return value

    def __str__(self) -> str:
        return f"[{self.head};{','.join(str(q) for q in self.tail)}]"


def cf_expand(a: int, b: int) -> CFExpansion:
    """Normalized continued fraction of a/b for b >= 1, gcd(a, b) == 1."""
    _require_pair(a, b)
    qs = _normalize_odd(_raw_quotients(a, b))
    return CFExpansion(head=qs[0], tail=tuple(qs[1:]))


def t_value(a: int, b: int) -> int:
    """Alternating quotient sum T(a, b) = -q0 + q1 - q2 + ... + qn.

    Quotients enter with alternating signs, -q0 first. A raw expansion
    with an odd number of quotients ends on an even index, and its last
    quotient is >= 2 (or it is [q0] alone); normalizing it to an odd last
    index, [..., qn] -> [..., qn - 1, 1], adds 2 to the sum.
    """
    _require_pair(a, b)
    t = 0
    while True:
        t -= a // b
        a %= b
        if not a:
            return t + 2
        t += b // a
        b %= a
        if not b:
            return t


# `_t_pairs` walks in int32 while the call's max |a| + max b is at most this
# bound, and in int64 above it. The walk holds a, b and remainders below b.
# Every partial sum of T is at most |a| + b - 1 in size, but 3 at
# (a, b) = (-1, 2):
#   - b = 1: the walk is the one quotient q0 = a.
#   - b >= 2: the later quotients, those of Euclid's walk on (b, a mod b),
#     sum to at most b (q1 + r1 <= q1 r1 + 1 <= b while r2 > 0, by
#     induction), and |q0| <= ceil(|a| / 2), which is at most |a| - 1 for
#     |a| >= 2 and 0 for a = 1. a = -1 takes q0 = -1 and then the quotients
#     of (b, b - 1): 2 for b = 2, and 1, b - 1 for b >= 3. Its partial sums
#     are 1, 3 and 1, 2, 3 - b.
# The +2 of an odd quotient count is added in int64. So every value fits
# int32 up to the bound, and b = 1 reaches it: T(a, 1) walks -a first, and
# a = -2^31 is the first to wrap.
T_PAIRS_INT32_LIMIT = 2**31


def _t_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """T(a, b) of `t_value` for int64 arrays of pairs, b >= 1, as int64.

    Every pair steps in lockstep: at step k the quotient enters with the
    sign (-1)^(k+1), the same for all pairs. a may be negative; the first
    division floors, as in `t_value`. The walk runs in int32 while the
    call's max |a| + max b is at most T_PAIRS_INT32_LIMIT, else in int64.
    No pair leaves the arrays: a pair whose remainder has hit 0 holds
    (gcd, 0) and then (0, 0), divides by 1 in place of y = 0 and adds 0.
    Each step flips the parity of the quotient count of the pairs still
    walking, and an odd count gets its +2 once, at the end. The loop ends
    when every remainder is 0. The callers keep |T| inside int64 (see
    scans.LIFT_WALK_LIMIT).
    """
    # Lamé (Knuth, TAOCP vol. 2, 4.5.3): Euclid's walk on u > v > 0 in n steps
    # has u >= F_{n+2}, F = 1, 1, 2, 3, .... The first step floors a over b, a
    # negative lift too, and leaves Euclid's walk on (b, a mod b): at most 1 + n
    # steps, n the count of F_3 = 2, F_4 = 3, ... up to b (`arith._walk_bound`),
    # all taken from consecutive Fibonacci numbers a < b. Past them it raises.
    b_max = int(b.max(initial=0))
    a_max = max(int(a.max(initial=0)), -int(a.min(initial=0)))
    dtype = np.int32 if a_max + b_max <= T_PAIRS_INT32_LIMIT else np.int64
    x, y = a.astype(dtype), b.astype(dtype)
    t = np.zeros_like(x)
    odd = np.zeros(len(x), dtype=bool)
    sign = -1
    steps = 1 + _walk_bound(b_max, 1)
    while (live := y != 0).any():
        if not steps:
            raise ArithmeticError("the lift walk took more steps than Lamé's bound")
        steps -= 1
        odd ^= live
        q, r = np.divmod(x, y | ~live)
        q *= live
        if sign < 0:
            t -= q
        else:
            t += q
        x, y, sign = y, r, -sign
    return t + 2 * odd.astype(np.int64)
