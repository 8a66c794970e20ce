"""The int64 array kernels of the lift scans and of mu-mod8 against the
scalar kernels and the public predicates.

Each array form must equal its scalar counterpart pair by pair:
exhaustively for every b < 200 and every lift a in (-3b, 3b), and by
Hypothesis for lifts in (-b, 2b) up to dedekind.LIFT_WALK_LIMIT, the
bound that the lift scans refuse to pass. The inverse kernel takes
phi(b) from `totient` here, a trial division of its own, and is also
compared with pow(a, -1, b) on every residue of every b <= 2000.
"""

from functools import lru_cache
from math import gcd

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dedsum.arith
import dedsum.contfrac
from dedsum.arith import (
    _LEGENDRE_TABLE_LIMIT,
    JACOBI_PAIRS_LIMIT,
    POWER_INT32_LIMIT,
    _inverse_pairs,
    _jacobi,
    _jacobi_pairs,
    _power_pairs,
)
from dedsum.congruence import (
    BT_CASES,
    MU_QUADRATIC_LIMIT,
    _bt_case_pairs,
    _mod8_offset_pairs,
    _mu,
    _mu_pairs,
    _mu_quadratic_pairs,
    _mu_swapped_pairs,
    bt_residue,
    mu,
    mu_original,
)
from dedsum.contfrac import T_PAIRS_INT32_LIMIT, _raw_quotients, _t_pairs, _t_walk
from dedsum.dedekind import LIFT_WALK_LIMIT, THEOREM1_ROW_LIMIT, bs_values, coprime_residues


def as_arrays(a: list[int], b: list[int]):
    return np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)


@lru_cache(maxsize=None)
def totient(n: int) -> int:
    """phi(n) by trial division."""
    phi, p = n, 2
    while p * p <= n:
        if n % p == 0:
            phi -= phi // p
            while n % p == 0:
                n //= p
        p += 1
    return phi - phi // n if n > 1 else phi


def check_against_scalar(a: list[int], b: list[int]) -> None:
    """Every array kernel on coprime pairs with b >= 2."""
    xa, xb = as_arrays(a, b)
    assert _t_pairs(xa, xb).tolist() == [_t_walk(x, y) for x, y in zip(a, b)]
    inverses = [pow(x, -1, y) for x, y in zip(a, b)]
    xinv = _inverse_pairs(xa, xb, np.array([totient(y) for y in b], dtype=np.int64))
    assert xinv.tolist() == inverses
    mus = _mu_pairs(xa, xb)
    assert mus.tolist() == [_mu(x, y) for x, y in zip(a, b)]
    case, modulus, offset = _bt_case_pairs(xa, xb, xinv, mus)
    tags = [BT_CASES[c] for c in case.tolist()]
    predicted = ((offset - xa) % modulus).tolist()
    residues = [bt_residue(x, y) for x, y in zip(a, b)]
    assert list(zip(tags, modulus.tolist(), predicted)) == [
        (r.case_tag, r.modulus, r.predicted) for r in residues
    ]
    assert _mod8_offset_pairs(xb, xinv, mus).tolist() == [
        y * y + 2 - mu(x, y) - z for x, y, z in zip(a, b, inverses)
    ]


def lifts_below(b_max: int):
    a, b = [], []
    for y in range(2, b_max):
        for x in range(-3 * y + 1, 3 * y):
            if gcd(x, y) == 1:
                a.append(x)
                b.append(y)
    return a, b


def test_array_kernels_equal_scalar_kernels_exhaustive():
    a, b = lifts_below(200)
    check_against_scalar(a, b)


def test_walk_at_b_one():
    # T(a, 1) = -a + 2: one quotient, then the +2 of the normalization.
    a = list(range(-5, 6))
    assert _t_pairs(*as_arrays(a, [1] * len(a))).tolist() == [_t_walk(x, 1) for x in a]


def test_fibonacci_walks_reach_lames_bound(monkeypatch):
    # Consecutive Fibonacci numbers a < b up to the lift limit, through the
    # lifts a, a - b and a + b, whose first floor step leaves the same
    # pair (b, a). Each walk alone takes every step that Lamé's bound
    # allows for its b, so it fails once the bound is one less.
    fib = [1, 2]
    while fib[-1] + fib[-2] <= LIFT_WALK_LIMIT:
        fib.append(fib[-1] + fib[-2])
    singles = [
        as_arrays([a + lift * b], [b]) for a, b in zip(fib, fib[1:]) for lift in (0, -1, 1)
    ]
    assert [_t_pairs(a, b).tolist() for a, b in singles] == [
        [_t_walk(int(a[0]), int(b[0]))] for a, b in singles
    ]
    real = dedsum.arith._walk_bound
    monkeypatch.setattr(dedsum.contfrac, "_walk_bound", lambda b_max, c: real(b_max, c) - 1)
    for a, b in singles:
        with pytest.raises(ArithmeticError, match="Lam"):
            _t_pairs(a, b)


def test_t_pairs_at_the_int32_switch(monkeypatch):
    # Every partial sum of a walk is at most max |a| + max b - 1 (or 3), so
    # int32 holds up to the switch; b = 1 walks -a first, and -a = 2^31
    # wraps. Just below: b = 1 lanes at the extremes of a, and the prime
    # b = 2^31 - 1 with a = +-1. Just above: a = -2^31 at b = 1.
    limit = T_PAIRS_INT32_LIMIT
    assert limit == 2**31
    below = [
        as_arrays([-(limit - 1), limit - 1, -2, 0, 3], [1] * 5),
        as_arrays([1, -1], [limit - 1] * 2),
    ]
    above = as_arrays([-limit, 5, -3], [1, 1, 1])
    for a, b in [*below, above]:
        expected = [_t_walk(x, y) for x, y in zip(a.tolist(), b.tolist())]
        assert _t_pairs(a, b).tolist() == expected
    assert [int(abs(a).max() + b.max()) for a, b in [*below, above]] == [limit, limit, limit + 1]
    # One step too high, the int32 walk of -a at b = 1 wraps.
    monkeypatch.setattr(dedsum.contfrac, "T_PAIRS_INT32_LIMIT", limit + 1)
    assert _t_pairs(*above).tolist()[0] != _t_walk(-limit, 1)


@pytest.mark.parametrize("limit", [T_PAIRS_INT32_LIMIT, 0])
def test_t_pairs_finished_lanes_add_nothing(monkeypatch, limit):
    # One call mixes walks that end at different steps: b = 1 lanes, which
    # end at the first step; walks ending on a plus step (an even quotient
    # count) and on a minus step (an odd count, +2); and the lifts of the
    # longest Fibonacci walk below the int32 switch, F_44 / F_45. Every
    # lane must equal its own walk, in int32 and, with the switch at 0, in
    # int64.
    monkeypatch.setattr(dedsum.contfrac, "T_PAIRS_INT32_LIMIT", limit)
    fib = [1, 2]
    while fib[-1] + fib[-2] <= T_PAIRS_INT32_LIMIT:
        fib.append(fib[-1] + fib[-2])
    f, g = fib[-3], fib[-2]
    assert 2 * g + f > T_PAIRS_INT32_LIMIT >= g + f
    a = [-3, -1, 0, 1, 2, 1, 3, 2, 5, 3, 7, f, f - g]
    b = [1, 1, 1, 1, 1, 2, 4, 5, 7, 8, 9, g, g]
    counts = [len(_raw_quotients(x, y)) % 2 for x, y in zip(a, b) if y > 1]
    assert 0 in counts and 1 in counts
    assert _t_pairs(*as_arrays(a, b)).tolist() == [_t_walk(x, y) for x, y in zip(a, b)]


def test_jacobi_pairs_equal_scalar_on_every_numerator():
    # Including the numerators that share a factor with b, where (a|b) = 0.
    a, b = [], []
    for y in range(1, 200, 2):
        for x in range(-3 * y + 1, 3 * y):
            a.append(x)
            b.append(y)
    # Moduli with primes above the table bound, which take Euler's
    # criterion, one of them squared; p^2 | b with p | a, where (a|p)^2
    # is 0; 5 * 19 * 22,605,091, primes on both sides of the bound; and
    # the largest modulus, the prime 2^31 - 1. The numerators are small
    # ones of both signs, multiples of the primes, and lifts.
    p, q = 4099, 4111
    assert 19 < _LEGENDRE_TABLE_LIMIT < p < q
    moduli = [p, 3 * p, 9 * p, p * p, 5 * p * p, p * q, 45 * q, 2_147_483_645, JACOBI_PAIRS_LIMIT]
    for y in moduli:
        for x in (*range(-40, 41), p, 3 * p, p * p, q, 9 * q, 5 * 19, y - 1, y + 2, 2 * y - 1, -y - 3):
            a.append(x)
            b.append(y)
    assert _jacobi_pairs(*as_arrays(a, b)).tolist() == [_jacobi(x, y) for x, y in zip(a, b)]


def test_jacobi_pairs_refuse_a_modulus_above_the_limit():
    # Its Euler powers would leave int64.
    with pytest.raises(ValueError, match="limit"):
        _jacobi_pairs(*as_arrays([1, 2], [3, JACOBI_PAIRS_LIMIT + 2]))


def test_mu_swapped_pairs_equal_scalar_mu_on_every_residue():
    # theorem1's mu(b, a) by reciprocity against the scalar mu(b, a), whose
    # modulus is the residue: every residue of every b <= 2000, and the rows
    # at the theorem1 limit, the primes below it and 2^16 (odd part 1).
    rows = [*range(1, 2001), 2**16, 77_929, 77_933, THEOREM1_ROW_LIMIT - 1, THEOREM1_ROW_LIMIT]
    residues = [coprime_residues(y) for y in rows]
    a = np.concatenate(residues)
    b = np.concatenate([np.full_like(row, y) for row, y in zip(residues, rows)])
    expected = [_mu(y, x) for x, y in zip(a.tolist(), b.tolist())]
    assert _mu_swapped_pairs(b, a).tolist() == expected


def test_inverse_pairs_equal_pow_on_every_residue():
    # phi(b) is the length of b's row of residues, as the scans pass it.
    rows = [(coprime_residues(b), b) for b in range(2, 2001)]
    a = np.concatenate([row for row, _ in rows])
    b = np.concatenate([np.full_like(row, y) for row, y in rows])
    phi = np.concatenate([np.full_like(row, len(row)) for row, _ in rows])
    assert _inverse_pairs(a, b, phi).tolist() == [pow(x, -1, y) for x, y in zip(a.tolist(), b.tolist())]


@pytest.mark.parametrize("b", [LIFT_WALK_LIMIT - 1, LIFT_WALK_LIMIT])
def test_inverse_pairs_at_the_limit(b):
    # Every product of the power is below b^2 < 2^62 here; the units among
    # 1, 2, b - 2, b - 1 (both ends of the range, odd and even b). Their
    # lifts by 2b give the same inverses: a and the self-check are reduced
    # mod b before they multiply.
    a = [x for x in (1, 2, b - 2, b - 1) if gcd(x, b) == 1]
    xa, xb = as_arrays(a, [b] * len(a))
    phi = np.full_like(xa, totient(b))
    expected = [pow(x, -1, b) for x in a]
    assert _inverse_pairs(xa, xb, phi).tolist() == expected
    assert _inverse_pairs(xa + 2 * xb, xb, phi).tolist() == expected


@pytest.mark.parametrize("b", [POWER_INT32_LIMIT, POWER_INT32_LIMIT + 1])
def test_inverse_pairs_at_the_int32_switch(monkeypatch, b):
    # The power multiplies residues below the modulus: int32 up to the
    # switch, where (b - 1)^2 < 2^31 <= b^2. The units among 1, 2, b - 2,
    # b - 1 on both sides, as test_inverse_pairs_at_the_limit picks them.
    assert (POWER_INT32_LIMIT - 1) ** 2 < 2**31 <= POWER_INT32_LIMIT**2
    a = [x for x in (1, 2, b - 2, b - 1) if gcd(x, b) == 1]
    xa, xb = as_arrays(a, [b] * len(a))
    phi = np.full_like(xa, totient(b))
    assert _inverse_pairs(xa, xb, phi).tolist() == [pow(x, -1, b) for x in a]
    if b > POWER_INT32_LIMIT:
        # One step too high, (b - 1)^2 wraps in int32 and the self-check
        # a a^-1 == 1 (mod b) refuses the result.
        monkeypatch.setattr(dedsum.arith, "POWER_INT32_LIMIT", b)
        with pytest.raises(ValueError, match="coprime"):
            _inverse_pairs(xa, xb, phi)


def test_inverse_pairs_reject_a_common_factor():
    with pytest.raises(ValueError, match="coprime"):
        _inverse_pairs(*as_arrays([1, 2], [5, 4]), np.array([4, 2], dtype=np.int64))


def test_inverse_pairs_reject_a_wrong_exponent():
    # With phi(b) + 1 the power is a^phi(b) == 1, not a^-1.
    a, b = as_arrays([2, 3, 5], [7, 7, 7])
    assert _inverse_pairs(a, b, np.full_like(a, 6)).tolist() == [4, 5, 3]
    with pytest.raises(ValueError, match="phi"):
        _inverse_pairs(a, b, np.full_like(a, 7))


def test_empty_batches():
    empty = np.zeros(0, dtype=np.int64)
    for kernel in (_t_pairs, _jacobi_pairs, _mu_pairs, _mu_swapped_pairs, bs_values):
        values = kernel(empty, empty)
        assert (values.dtype, values.shape) == (np.int64, (0,))
    for values in (_inverse_pairs(empty, empty, empty), _power_pairs(empty, empty, empty)):
        assert (values.dtype, values.shape) == (np.int64, (0,))
    # On both sides of each int32 switch the kernels return int64, so that
    # no int32 value reaches the scans' arithmetic. T at the walk's switch;
    # the powers at the primes 46,337 and 46,349 around theirs, where the
    # Jacobi kernel takes Euler's criterion (p > _LEGENDRE_TABLE_LIMIT).
    for a, b in (([1 - T_PAIRS_INT32_LIMIT], [1]), ([-T_PAIRS_INT32_LIMIT], [1])):
        assert _t_pairs(*as_arrays(a, b)).dtype == np.int64
    assert _LEGENDRE_TABLE_LIMIT < 46_337 <= POWER_INT32_LIMIT < 46_349
    for p in (46_337, 46_349):
        a, b = as_arrays([2, 3, p - 1], [p] * 3)
        for values in (
            _power_pairs(a, b - 2, b),
            _inverse_pairs(a, b, b - 1),
            _jacobi_pairs(a, b),
            _mu_pairs(a, b),
            bs_values(a, b),
        ):
            assert values.dtype == np.int64


def test_mu_quadratic_pairs_equal_mu_original():
    # The a in 1..4b coprime to every even b < 200, as mu-mod8 reads them,
    # and the largest such a at the int64 limit of the quadratic form.
    a, b = [], []
    for y in range(2, 200, 2):
        for x in range(1, 4 * y):
            if gcd(x, y) == 1:
                a.append(x)
                b.append(y)
    a.append(4 * MU_QUADRATIC_LIMIT - 1)
    b.append(MU_QUADRATIC_LIMIT)
    expected = [mu_original(x, y) for x, y in zip(a, b)]
    assert _mu_quadratic_pairs(*as_arrays(a, b)).tolist() == expected
    assert expected[-1] < 20 * MU_QUADRATIC_LIMIT**2 < 2**63 <= 20 * (MU_QUADRATIC_LIMIT + 1) ** 2


@st.composite
def lift_batches(draw):
    """One b up to LIFT_WALK_LIMIT and a few lifts -b < a < 2b coprime to it."""
    b = draw(st.integers(2, LIFT_WALK_LIMIT))
    a = draw(
        st.lists(st.integers(-b + 1, 2 * b - 1).filter(lambda x: gcd(x, b) == 1), min_size=1, max_size=8)
    )
    return a, b


@settings(max_examples=300)
@example(([1, LIFT_WALK_LIMIT - 1, 1 - LIFT_WALK_LIMIT, LIFT_WALK_LIMIT + 1, 2 * LIFT_WALK_LIMIT - 1], LIFT_WALK_LIMIT))
@example(([1, 2, -1, LIFT_WALK_LIMIT - 2, 2 * LIFT_WALK_LIMIT - 3], LIFT_WALK_LIMIT - 1))
@given(batch=lift_batches())
def test_array_kernels_equal_scalar_kernels_up_to_the_limit(batch):
    a, b = batch
    check_against_scalar(a, [b] * len(a))
    # The bound behind LIFT_WALK_LIMIT: |T| <= b + 3 on these lifts, and
    # the mod-8 check of theorem2 stays within 2b^2 + 5b + 2.
    for x in a:
        t = _t_walk(x, b)
        assert abs(t) <= b + 3
        offset = b * b + 2 - mu(x, b) - pow(x, -1, b)
        assert abs(b * t - offset + x) <= 2 * b * b + 5 * b + 2
