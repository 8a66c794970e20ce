"""Elementary exact number theory: coprimality, modular inverse, Jacobi symbol.

Every function here works on plain Python integers and returns exact
results. Rational values elsewhere in the package are represented by
``ExactRational``, an alias for :class:`fractions.Fraction`. `jacobi`
checks its modulus and then runs `_jacobi`, the unchecked kernel that
`congruence` builds on.

`_inverse_pairs` and `_jacobi_pairs` are the array forms that the lift
scans run on int64 arrays of pairs: the inverse a^(phi(b) - 1) mod b by
Euler's theorem, with every product below b^2 < 2^62 up to
`dedekind.LIFT_WALK_LIMIT`, and the binary walk of `_jacobi`.
"""

import math
from fractions import Fraction

import numpy as np

ExactRational = Fraction


def require_coprime(a: int, b: int) -> None:
    """Raise ValueError unless gcd(a, b) == 1."""
    if math.gcd(a, b) != 1:
        raise ValueError(f"arguments must be coprime, gcd({a}, {b}) != 1")


def mod_inverse(a: int, b: int) -> int:
    """Inverse of a modulo b, as the representative in 1..b-1.

    Raises ValueError if b < 2 or gcd(a, b) != 1.
    """
    if b < 2:
        raise ValueError(f"modulus must be at least 2, got {b}")
    require_coprime(a, b)
    return pow(a, -1, b)


def jacobi(a: int, b: int) -> int:
    """Jacobi symbol (a|b) for odd positive b.

    Returns 1, -1, or 0 (the last only when gcd(a, b) > 1). Raises
    ValueError if b is even or not positive.
    """
    if b <= 0:
        raise ValueError(f"Jacobi symbol needs a positive lower argument, got {b}")
    if b % 2 == 0:
        raise ValueError(f"Jacobi symbol needs an odd lower argument, got {b}")
    return _jacobi(a, b)


def _jacobi(a: int, b: int) -> int:
    """(a|b) without checks; b must be odd and positive.

    Binary form of the law of quadratic reciprocity: each run of factors
    2 is shifted out at once and flips the sign when the run is odd and
    b == 3, 5 (mod 8); the swap flips it when both are 3 (mod 4).
    """
    a %= b
    result = 1
    while a:
        if not a & 1:
            twos = (a & -a).bit_length() - 1
            a >>= twos
            if twos & 1 and (b & 7 == 3 or b & 7 == 5):
                result = -result
        if a & b & 2:
            result = -result
        a, b = b % a, a
    return result if b == 1 else 0


def _inverse_pairs(a: np.ndarray, b: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """a^-1 mod b in 1..b-1 for int64 arrays of pairs, b >= 2, phi = phi(b).

    a^(phi - 1) mod b by square and multiply over factors reduced mod b,
    one round per bit of the largest exponent. Raises ValueError where
    a a^-1 != 1 (mod b): a pair that is not coprime, or a wrong phi.
    """
    base = a % b
    exp = phi - 1
    out = np.ones_like(base)
    for _ in range(int(exp.max(initial=0)).bit_length()):
        out = out * np.where(exp & 1, base, 1) % b
        base = base * base % b
        exp >>= 1
    if (out * (a % b) % b != 1).any():
        raise ValueError("the inverse kernel needs coprime pairs and their phi(b)")
    return out


# Bits 1, 3, 5, ... of an int64. A power of two 2^k has one of them set
# exactly when k is odd.
_ODD_BITS = 0x2AAA_AAAA_AAAA_AAAA


def _jacobi_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a|b) of `_jacobi` for int64 arrays of pairs; every b odd, positive.

    The same binary walk on all pairs at once, with masks for the sign
    flips. A run of k factors 2 is the lowest set bit 2^k = a & -a, shifted
    out by one exact division; it flips the sign when k is odd and
    b == 3, 5 (mod 8). A pair leaves the walk when its a reaches 0.
    """
    out = np.empty(len(a), dtype=np.int64)
    idx = np.arange(len(a))
    a = a % b
    sign = np.ones_like(out)
    while len(idx):
        done = a == 0
        if done.any():
            out[idx[done]] = np.where(b[done] == 1, sign[done], 0)
            live = ~done
            idx, a, b, sign = idx[live], a[live], b[live], sign[live]
        low = a & -a
        a = a // low
        b8 = b & 7
        flip = ((low & _ODD_BITS) != 0) & ((b8 == 3) | (b8 == 5))
        flip ^= (a & b & 2) != 0
        sign[flip] *= -1
        a, b = b % a, a
    return out


def sign_mod3(a: int) -> int:
    """The unit e in {1, -1} with a == e (mod 3).

    Raises ValueError when a is divisible by 3.
    """
    r = a % 3
    if r == 0:
        raise ValueError(f"argument must not be divisible by 3, got {a}")
    return 1 if r == 1 else -1
