"""Elementary exact number theory: coprimality, modular inverse, Jacobi symbol.

Every function here works on plain Python integers and returns exact
results. Rational values elsewhere in the package are represented by
``ExactRational``, an alias for :class:`fractions.Fraction`. `jacobi`
checks its modulus and then runs `_jacobi`, the unchecked kernel that
`congruence` builds on.

`_inverse_pairs` and `_jacobi_pairs` are the array forms that the scans
run on int64 arrays of pairs, and they return int64. The inverse is
a^(phi(b) - 1) mod b by Euler's theorem, through the square and
multiply of `_power_pairs`, with every product below b^2 < 2^62 up to
`dedekind.LIFT_WALK_LIMIT`. The power multiplies in int32 while every
modulus of the call is at most POWER_INT32_LIMIT (46,341), where each
product of two residues stays below 2^31, and in int64 above; the
inverse checks a a^-1 == 1 (mod b) in int64 on every pair. The Jacobi
symbol is the product of the Legendre symbols of b's prime powers
(`_prime_powers`, a trial division that `dedekind.coprime_residues`
shares), each read from a table of the squares mod p, or for a large p
by Euler's criterion through the same `_power_pairs`.
"""

import functools
import math
from fractions import Fraction
from itertools import zip_longest

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


def _prime_powers(n: int) -> list[tuple[int, int]]:
    """The prime powers p^e that make up n >= 1, as (p, e) pairs with p
    ascending, by trial division; [] for n = 1."""
    powers = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            powers.append((p, e))
        p += 1
    if n > 1:
        powers.append((n, 1))
    return powers


def _walk_bound(b_max: int, c: int) -> int:
    """How many of u_2 = 2, u_3, ... with u_{k+1} = c u_k + u_{k-1}, u_1 = 1, are
    at most b_max: Pell numbers for c = 2, Fibonacci numbers for c = 1."""
    count, u, v = 0, 1, 2
    while v <= b_max:
        count, u, v = count + 1, v, c * v + u
    return count


# `_power_pairs` runs in int32 when every modulus of the call is at most
# this bound: the factors are residues up to 46,340, and
# 46,340^2 = 2,147,395,600 < 2^31 <= 46,341^2 (the bound of
# `dedekind.NAIVE_INT32_LIMIT`, one modulus higher).
POWER_INT32_LIMIT = 46_341


def _power_pairs(base: np.ndarray, exp: np.ndarray, mod: np.ndarray) -> np.ndarray:
    """base^exp mod `mod` elementwise over int64 arrays, exp >= 0 and
    mod >= 2, as int64: square and multiply over factors reduced mod
    `mod`, one round per bit of the largest exponent. Every product is
    below mod^2: the rounds run in int32 while every mod is at most
    POWER_INT32_LIMIT and every exp below 2^31, and in int64 otherwise,
    exact while mod^2 < 2^63."""
    rounds = int(exp.max(initial=0)).bit_length()
    dtype = np.int32 if int(mod.max(initial=0)) <= POWER_INT32_LIMIT and rounds < 32 else np.int64
    base = (base % mod).astype(dtype)
    exp, mod = exp.astype(dtype), mod.astype(dtype)
    out = np.ones_like(base)
    for _ in range(rounds):
        out = out * np.where(exp & 1, base, 1) % mod
        base = base * base % mod
        exp = exp >> 1
    return out.astype(np.int64)


def _inverse_pairs(a: np.ndarray, b: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """a^-1 mod b in 1..b-1 for int64 arrays of pairs, b >= 2, phi = phi(b).

    a^(phi - 1) mod b by `_power_pairs`. Raises ValueError where
    a a^-1 != 1 (mod b): a pair that is not coprime, or a wrong phi.
    """
    out = _power_pairs(a, phi - 1, b)
    if (out * (a % b) % b != 1).any():
        raise ValueError("the inverse kernel needs coprime pairs and their phi(b)")
    return out


# The largest modulus of `_jacobi_pairs`. Its Euler powers multiply
# residues mod a prime p <= b, each product below b^2 < 2^62.
JACOBI_PAIRS_LIMIT = 2**31 - 1

# `_jacobi_pairs` reads (a|p) for an odd prime p up to this bound from a
# segment of p entries, and takes Euler's criterion for larger p. There
# are at most two segments per such prime, one per parity of its
# exponent, and the odd primes below 4096 sum to 1,070,089. So a call's
# flat table, and the cache of `_legendre_segment` in a process, hold at
# most 2 * 1,070,089 + 1 int8 entries, about 2.1 MB. An odd
# b <= JACOBI_PAIRS_LIMIT has at most eight prime factors
# (3 * 5 * ... * 29 > 2^31), so a pair takes at most eight gathers, and
# at most two of its primes exceed this bound (4099^3 > 2^31).
_LEGENDRE_TABLE_LIMIT = 4096


@functools.cache
def _legendre_segment(p: int, odd: int) -> np.ndarray:
    """(x|p)^e for x = 0..p-1, p an odd prime, e of the parity `odd`, as
    a read-only int8 array: 0 at 0; on the units, 1 when e is even, and
    when e is odd 1 on the squares mod p and -1 on the rest."""
    segment = np.full(p, -1 if odd else 1, dtype=np.int8)
    segment[np.arange(1, p) ** 2 % p] = 1
    segment[0] = 0
    segment.flags.writeable = False
    return segment


def _jacobi_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a|b) of `_jacobi` for int64 arrays of pairs; every b odd and
    0 < b <= JACOBI_PAIRS_LIMIT, a of any sign.

    (a|b) is the product of the Legendre symbols (a|p)^e over the prime
    powers p^e of b (Ireland & Rosen, ch. 5), which are 0 where p | a.
    Each distinct b is factored once by `_prime_powers`, and its k-th
    prime is slot k. A prime up to _LEGENDRE_TABLE_LIMIT gives its
    symbols by one gather from a flat table of the call's segments
    (`_legendre_segment`), a larger one by Euler's criterion
    (a|p) == a^((p - 1)/2) (mod p), through `_power_pairs`.
    """
    if len(b) and b.max() > JACOBI_PAIRS_LIMIT:
        raise ValueError(f"b={int(b.max())} exceeds the int64-exact limit {JACOBI_PAIRS_LIMIT}")
    moduli = np.sort(b)
    moduli = moduli[np.diff(moduli, prepend=0) != 0]
    row = np.searchsorted(moduli, b)
    # Per modulus, (p, start of its segment) of each prime up to the
    # bound and (p, e mod 2) of the larger ones. The table starts with
    # the entry 1, which a slot past the last prime of its modulus reads
    # as p = 1 and start 0.
    segments, starts, size = [np.ones(1, dtype=np.int8)], {}, 1
    tabled, large = [], []
    for n in moduli.tolist():
        tabled.append([])
        large.append([])
        for p, e in _prime_powers(n):
            if p > _LEGENDRE_TABLE_LIMIT:
                large[-1].append((p, e & 1))
                continue
            if (p, e & 1) not in starts:
                starts[p, e & 1] = size
                segments.append(_legendre_segment(p, e & 1))
                size += p
            tabled[-1].append((p, starts[p, e & 1]))
    table = np.concatenate(segments)
    out = np.ones(len(a), dtype=np.int64)
    for slot in zip_longest(*tabled, fillvalue=(1, 0)):
        p, start = np.array(slot).T
        out *= table[start[row] + a % p[row]]
    for slot in zip_longest(*large, fillvalue=(1, 1)):
        p, odd = np.array(slot).T
        pairs = np.flatnonzero(p[row] > 1)
        q = p[row[pairs]]
        power = _power_pairs(a[pairs], (q - 1) // 2, q)
        symbol = np.where(power > 1, -1, power)
        out[pairs] *= np.where(odd[row[pairs]], symbol, symbol * symbol)
    return out


def sign_mod3(a: int) -> int:
    """The unit e in {1, -1} with a == e (mod 3).

    Raises ValueError when a is divisible by 3.
    """
    r = a % 3
    if r == 0:
        raise ValueError(f"argument must not be divisible by 3, got {a}")
    return 1 if r == 1 else -1
