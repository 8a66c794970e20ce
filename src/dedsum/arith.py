"""Elementary exact number theory: coprimality, modular inverse, Jacobi symbol.

Every function here works on plain Python integers and returns exact
results. Rational values elsewhere in the package are represented by
``ExactRational``, an alias for :class:`fractions.Fraction`. `jacobi`
checks its modulus and then runs `_jacobi`, the unchecked kernel that
`congruence` uses on the scans' hot paths.
"""

import math
from fractions import Fraction

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


def sign_mod3(a: int) -> int:
    """The unit e in {1, -1} with a == e (mod 3).

    Raises ValueError when a is divisible by 3.
    """
    r = a % 3
    if r == 0:
        raise ValueError(f"argument must not be divisible by 3, got {a}")
    return 1 if r == 1 else -1
