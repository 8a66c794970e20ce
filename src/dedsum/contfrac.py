"""Regular continued fractions normalized to an odd last index.

For coprime integers a and b >= 1 the expansion a/b = [q0; q1, ..., qn]
is computed by floor-division Euclid and then normalized so that the
last index n is odd. Every rational has exactly one expansion of this
shape, which pins down the alternating sum

    T(a, b) = -q0 + q1 - q2 + ... + qn

so that the final quotient always enters with a plus sign.

`_t_walk` is the raw kernel: one floor-division Euclid walk over plain
ints that sums the quotients as it goes, builds no list and checks
nothing. `t_value` is the public form; it checks b >= 1 and
gcd(a, b) = 1, then runs the walk, and `dedekind._bs_walk` reads
b S(a, b) from it. `_t_pairs` is the same walk on int64 arrays of pairs,
which the lift scans run on whole batches of lifts. `cf_expand` builds
the expansion itself by a separate path and serves as the reference for
the walks.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from dedsum.arith import _walk_bound, require_coprime


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
    if b < 1:
        raise ValueError(f"denominator must be positive, got {b}")
    require_coprime(a, b)
    qs = _normalize_odd(_raw_quotients(a, b))
    return CFExpansion(head=qs[0], tail=tuple(qs[1:]))


def t_value(a: int, b: int) -> int:
    """Alternating quotient sum T(a, b) = -q0 + q1 - q2 + ... + qn."""
    if b < 1:
        raise ValueError(f"denominator must be positive, got {b}")
    require_coprime(a, b)
    return _t_walk(a, b)


def _t_walk(a: int, b: int) -> int:
    """T(a, b) without checks; b >= 1 and gcd(a, b) = 1 are the caller's.

    Quotients enter with alternating signs, -q0 first. A raw expansion
    with an odd number of quotients ends on an even index, and its last
    quotient is >= 2 (or it is [q0] alone); normalizing it to an odd last
    index, [..., qn] -> [..., qn - 1, 1], adds 2 to the sum.
    """
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


def _t_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """T(a, b) of `_t_walk` for int64 arrays of coprime pairs, b >= 1.

    Every pair steps in lockstep: at step k the quotient enters with the
    sign (-1)^(k+1), the same for all pairs still walking. A pair leaves
    the walk when its remainder hits 0, with +2 when that happens on a
    minus step (an odd quotient count). a may be negative; the first
    division floors, as in `_t_walk`. The callers keep |T| and the
    partial sums inside int64 (see dedekind.LIFT_WALK_LIMIT).
    """
    # Lamé (Knuth, TAOCP vol. 2, 4.5.3): Euclid's walk on u > v > 0 in n steps
    # has u >= F_{n+2}, F = 1, 1, 2, 3, .... The first step floors a over b, a
    # negative lift too, and leaves Euclid's walk on (b, a mod b): at most 1 + n
    # steps, n the count of F_3 = 2, F_4 = 3, ... up to b (`arith._walk_bound`),
    # all taken from consecutive Fibonacci numbers a < b. Past them it raises.
    out = np.empty(len(a), dtype=np.int64)
    idx = np.arange(len(a))
    t = np.zeros_like(out)
    x, y, sign = a, b, -1
    steps = 1 + _walk_bound(int(b.max(initial=0)), 1)
    while len(idx):
        if not steps:
            raise ArithmeticError("the lift walk took more steps than Lamé's bound")
        steps -= 1
        q, r = np.divmod(x, y)
        t += sign * q
        done = r == 0
        if done.any():
            out[idx[done]] = t[done] + (1 - sign)
            live = ~done
            idx, t, y, r = idx[live], t[live], y[live], r[live]
        x, y, sign = y, r, -sign
    return out
