"""Congruence structure of Dedekind sums modulo 8, 24, and 72.

The central object is the correction term mu(a, b), defined for
gcd(a, b) = 1 by a Jacobi symbol when b is odd and by the residue of a
mod 4 when b is even. Its value is always 0 or 4, and it controls

  * whether two sums S(a1, b), S(a2, b) differ by an element of 8Z
    or 24Z (difference_verdict, mu_condition),
  * the residue of b * T(a, b) modulo 8 (bt_congruence_mod8), and
  * the exact residue of b * T(a, b) modulo 24 or 72 (bt_residue).

family_example produces an explicit two-parameter family whose
difference of sums is divisible by 8 but, for suitable parameters,
not by 24.

The public predicates check their arguments (b large enough, a coprime
to b) and then evaluate their formulas on `mu`, `arith.jacobi` and
`contfrac.t_value`, which check theirs again. Each prediction depends
on a only through a mod b, apart from a linear -a term, so it is the
same on every lift of a residue class. `_mu_pairs` (on top of
`_jacobi_pairs`), `_bt_case_pairs` and `_mod8_offset_pairs` are the
array forms of `mu` and of the predictions of `bt_residue` and
`bt_congruence_mod8`, and those predicates are the tests' reference for
them. The lift scans compute them once per residue for whole batches,
one mu for both. `_mu_swapped_pairs` is theorem1's mu(b, a), whose
Jacobi modulus is the residue a: by quadratic reciprocity it reads (a|c)
instead, c the odd part of b, so its moduli are a batch's few rows, not
its residues; the tests compare it with the scalar `mu`.
`_mu_quadratic_pairs` is the array form of `mu_original`, for the
mu-mod8 scan; it stays independent of `_mu_pairs`.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from dedsum.arith import _jacobi_pairs, _require_pair, jacobi, require_coprime, sign_mod3
from dedsum.contfrac import t_value
from dedsum.dedekind import b_times_s, dedekind_fast


def mu(a: int, b: int) -> int:
    """Correction term mu(a, b) in {0, 4} for gcd(a, b) = 1, b >= 1.

    For odd b this is 2 - 2(a|b) with (a|b) the Jacobi symbol. For even
    b it is 4 exactly when b == 0 (mod 4) and a == 3 (mod 4).
    """
    _require_pair(a, b)
    if b & 1:
        return 2 - 2 * jacobi(a, b)
    return 4 if b & 3 == 0 and a & 3 == 3 else 0


def _mu_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`mu` elementwise over int64 arrays of coprime pairs, b >= 1."""
    m = np.where((b & 3 == 0) & (a & 3 == 3), 4, 0)
    odd = (b & 1) == 1
    m[odd] = 2 - 2 * _jacobi_pairs(a[odd], b[odd])
    return m


# Bits 1, 3, 5, ... of an int64. A power of two 2^v has one of them set
# exactly when v is odd.
_ODD_BITS = 0x2AAA_AAAA_AAAA_AAAA


def _mu_swapped_pairs(b: np.ndarray, a: np.ndarray) -> np.ndarray:
    """mu(b, a) of `mu` elementwise over int64 arrays of coprime pairs,
    a >= 1 and b >= 1: the residue a is the modulus.

    With b = 2^v c, c odd, an odd a has (b|a) = (2|a)^v (c|a), where
    (2|a) = -1 iff a == 3, 5 (mod 8), and by quadratic reciprocity
    (c|a) = (a|c) (-1)^((a - 1)/2 (c - 1)/2). So the Jacobi moduli are
    the odd parts of the b, not the a: over the rows of a batch, a few
    distinct moduli, not one per residue. An even a is coprime only to
    an odd b, and mu(b, a) = 4 iff a == 0 (mod 4) and b == 3 (mod 4).
    """
    m = np.where((a & 3 == 0) & (b & 3 == 3), 4, 0)
    odd = (a & 1) == 1
    a, b = a[odd], b[odd]
    low = b & -b
    c = b // low
    a8 = a & 7
    flip = ((low & _ODD_BITS) != 0) & ((a8 == 3) | (a8 == 5))
    flip ^= (a & c & 2) != 0
    m[odd] = 2 - 2 * np.where(flip, -1, 1) * _jacobi_pairs(a, c)
    return m


def mu_original(a: int, b: int) -> int:
    """Quadratic form (a - 1)(a + b - 1) of the correction term, even b only.

    Agrees with mu(a, b) modulo 8; kept as an independent cross-check.
    """
    if b < 1 or b % 2 == 1:
        raise ValueError(f"lower argument must be even and positive, got {b}")
    require_coprime(a, b)
    return (a - 1) * (a + b - 1)


def _mu_quadratic_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`mu_original`'s (a - 1)(a + b - 1) elementwise over int64 arrays,
    unchecked; exact for 0 < a < 4b and b <= scans.MU_QUADRATIC_LIMIT."""
    return (a - 1) * (a + b - 1)


def mu_condition(a1: int, a2: int, b: int) -> bool:
    """The mod-8b pairing condition on (a1, a2) for fixed b.

    True iff b (a2 mu(b, a1) - a1 mu(b, a2)) ==
    (a1 - a2)(b - 1)(a1 a2 + b - 1)  (mod 8b). Both a1 and a2 must be
    positive and coprime to b, and b positive; note mu is evaluated with
    the arguments swapped.
    """
    if a1 < 1 or a2 < 1:
        raise ValueError(f"upper arguments must be positive, got {a1}, {a2}")
    if b < 1:
        raise ValueError(f"lower argument must be positive, got {b}")
    lhs = b * (a2 * mu(b, a1) - a1 * mu(b, a2))
    rhs = (a1 - a2) * (b - 1) * (a1 * a2 + b - 1)
    return (lhs - rhs) % (8 * b) == 0


def _in_m_z(x: Fraction, m: int) -> bool:
    """True iff x is an integer divisible by m."""
    return x.denominator == 1 and x.numerator % m == 0


@dataclass(frozen=True)
class DifferenceVerdict:
    """Outcome of the pairing condition next to the actual sum difference."""

    b: int
    a1: int
    a2: int
    condition_holds: bool
    diff_in_8z: bool
    diff_in_24z: bool
    s_diff: Fraction


def difference_verdict(a1: int, a2: int, b: int) -> DifferenceVerdict:
    """Evaluate the pairing condition and S(a1, b) - S(a2, b) together.

    The condition is equivalent to the difference lying in 8Z, and when
    9 does not divide b also to the difference lying in 24Z.
    """
    diff = dedekind_fast(a1, b) - dedekind_fast(a2, b)
    return DifferenceVerdict(
        b=b,
        a1=a1,
        a2=a2,
        condition_holds=mu_condition(a1, a2, b),
        diff_in_8z=_in_m_z(diff, 8),
        diff_in_24z=_in_m_z(diff, 24),
        s_diff=diff,
    )


def bt_congruence_mod8(a: int, b: int) -> bool:
    """Check b T(a, b) == -mu(a, b) + b^2 + 2 - a - a_inv (mod 8).

    a_inv is the inverse of a modulo b taken in 1..b-1. Requires b >= 2;
    a may be any integer coprime to b.
    """
    if b < 2:
        raise ValueError(f"lower argument must be at least 2, got {b}")
    require_coprime(a, b)
    offset = b * b + 2 - mu(a, b) - pow(a, -1, b)
    return (b * t_value(a, b) - offset + a) % 8 == 0


def _mod8_offset_pairs(b: np.ndarray, a_inv: np.ndarray, mus: np.ndarray) -> np.ndarray:
    """The offset b^2 + 2 - mus - a_inv of `bt_congruence_mod8`, mus =
    mu(a, b), elementwise over int64 arrays, unchecked; b^2 must fit."""
    return b * b + 2 - mus - a_inv


@dataclass(frozen=True)
class BTResidue:
    """Predicted vs. actual residue of b T(a, b) mod 24 (or 72 when 3 | b)."""

    b: int
    a: int
    case_tag: str
    modulus: int
    predicted: int
    actual: int

    @property
    def matches(self) -> bool:
        return self.predicted == self.actual


def bt_residue(a: int, b: int) -> BTResidue:
    """Residue of b T(a, b) modulo 24, or modulo 72 when 3 divides b.

    The prediction splits on the parity class of b (odd; b == 2 mod 4 or
    b == 0 mod 4 with a == 3 mod 4; b == 0 mod 4 with a == 1 mod 4) and
    on whether 3 divides b. a may be any integer coprime to b, b >= 2.
    """
    if b < 2:
        raise ValueError(f"lower argument must be at least 2, got {b}")
    require_coprime(a, b)
    div3 = b % 3 == 0
    if b & 1:
        case, offset = 0, 9 + 18 * jacobi(a, b)
    elif b & 3 == 2 or a & 3 == 3:
        case, offset = 1, 54 if div3 else 6
    else:
        case, offset = 2, 18
    offset -= pow(a, -1, b) + (16 * sign_mod3(a) if div3 else 0)
    modulus = 72 if div3 else 24
    return BTResidue(
        b=b,
        a=a,
        case_tag=BT_CASES[2 * case + div3],
        modulus=modulus,
        predicted=(offset - a) % modulus,
        actual=(b * t_value(a, b)) % modulus,
    )


# The case tags of the bt_residue prediction, at 2 * class + (3 | b) for
# the parity classes 0 (b odd), 1 (b == 2 mod 4 or a == 3 mod 4) and 2.
BT_CASES = tuple(c + d for c in ("odd", "even_half", "even_quarter") for d in ("_ndiv3", "_div3"))


def _bt_case_pairs(a: np.ndarray, b: np.ndarray, a_inv: np.ndarray, mus: np.ndarray):
    """(case, modulus, offset) of the `bt_residue` prediction
    (offset - a) % modulus elementwise over int64 arrays, unchecked; the
    case is the index of its tag in BT_CASES. mus is `_mu_pairs(a, b)`:
    for odd b, (a|b) = 1 - mu/2, so 9 + 18 (a|b) = 27 - 9 mu."""
    div3 = b % 3 == 0
    half = (b & 3 == 2) | (a & 3 == 3)
    offset = np.where(half, np.where(div3, 54, 6), 18)
    odd = (b & 1) == 1
    offset[odd] = 27 - 9 * mus[odd]
    offset -= a_inv
    offset[div3] -= 16 * np.where(a[div3] % 3 == 1, 1, -1)
    return 2 * np.where(odd, 0, 2 - half) + div3, np.where(div3, 72, 24), offset


@dataclass(frozen=True)
class FamilyExample:
    """Member of the family b = c d^2, a = c d + 1 with odd c, d."""

    c: int
    d: int
    b: int
    a: int
    s_diff: int

    @property
    def diff_in_8z(self) -> bool:
        return self.s_diff % 8 == 0

    @property
    def diff_in_24z(self) -> bool:
        return self.s_diff % 24 == 0


def family_example(c: int, d: int) -> FamilyExample:
    """Construct the example with S(1, b) - S(a, b) = c (d^2 - 1).

    Requires odd c >= 1 and odd d >= 3. The difference is always in 8Z;
    it is in 24Z iff 3 does not divide d or 3 divides c. The closed form
    is verified against the exact sums before returning.
    """
    if c < 1 or c % 2 == 0:
        raise ValueError(f"first parameter must be odd and positive, got {c}")
    if d < 3 or d % 2 == 0:
        raise ValueError(f"second parameter must be odd and at least 3, got {d}")
    b = c * d * d
    a = c * d + 1
    expected = c * (d * d - 1)
    actual = b_times_s(1, b) - b_times_s(a, b)
    if actual != expected * b:
        raise ArithmeticError(
            f"family identity failed for c={c}, d={d}: "
            f"b(S(1,b)-S(a,b))={actual}, expected {expected * b}"
        )
    return FamilyExample(c=c, d=d, b=b, a=a, s_diff=expected)
