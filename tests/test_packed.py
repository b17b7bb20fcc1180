"""The packed polynomial kernels against the schoolbook tuple loops they
replaced (conftest), over seeded inputs that cross the multiply's chunk
boundary (28 coefficients over Z4, 254 over F2), fold inputs of at
least three periods, lead-3 divisors, zero operands and entries
outside the ring's range, which are taken mod 4 (mod 2 over F2), in
the divisor's lead too."""

import random

import pytest

from conftest import (
    gcd_f2_oracle,
    naive_add,
    naive_add_f2,
    naive_divmod_f2,
    naive_divmod_monic,
    naive_mod_cyclic,
    naive_mul,
    naive_mul_f2,
)
from z4dc import f2poly as fp, z4poly as zp
from z4dc.code import rotations, shift_T, tau_inv
from z4dc.errors import BothZero

WILD = (-300, -7, -4, -1, 4, 7, 255, 256, 259, 300)  # outside 0..3


def raw_poly(rng, length, alphabet=4):
    """length entries, mostly in range(alphabet), a tenth of them wild,
    so trailing entries may vanish mod the ring; sometimes all zero."""
    if rng.random() < 0.05:
        return tuple(rng.choice((0, 4, -8, 256)) for _ in range(length))
    return tuple(rng.choice(WILD) if rng.random() < 0.1 else rng.randrange(alphabet)
                 for _ in range(length))


def unit_lead(rng, length, lead):
    return raw_poly(rng, length - 1) + (lead,)


@pytest.mark.parametrize("seed", range(4))
def test_z4_ring_ops_match_the_schoolbook_loops(seed):
    rng = random.Random(seed)
    for _ in range(150):
        a = raw_poly(rng, rng.choice((0, 1, 5, 27, 28, 29, 56, 57, 90)))
        b = raw_poly(rng, rng.randrange(0, 70))
        c = rng.choice(WILD + (0, 1, 2, 3))
        assert zp.add(a, b) == naive_add(a, b)
        assert zp.sub(a, b) == naive_add(a, naive_mul((3,), b))
        assert zp.mul(a, b) == zp.mul(b, a) == naive_mul(a, b)
        assert zp.scale(c, a) == naive_mul((c,), a)
        assert zp.canon(a) == naive_add(a, ())
        assert zp.reduce_mod2(a) == naive_add_f2(a, ())


@pytest.mark.parametrize("seed", range(4))
def test_z4_fold_and_division_match_the_schoolbook_loops(seed):
    rng = random.Random(seed)
    for _ in range(150):
        n = rng.randrange(1, 40)
        a = raw_poly(rng, rng.randrange(3 * n, 5 * n + 1))
        assert zp.mod_cyclic(a, n) == naive_mod_cyclic(a, n)
        # a lead written out of range (5 = 1 mod 4) is a unit all the same
        d = unit_lead(rng, rng.randrange(1, 35), rng.choice((1, 3, 3, 5, -1, 259)))
        x = raw_poly(rng, rng.choice((0, 1, len(d) - 1, len(d), 3 * len(d) + 5)))
        q, rem = zp.divmod_monic(x, d)
        assert (q, rem) == naive_divmod_monic(x, d[:-1] + (d[-1] % 4,))
        assert zp.add(naive_mul(q, d), rem) == zp.canon(x)


@pytest.mark.parametrize("seed", range(4))
def test_f2_ops_match_the_schoolbook_loops(seed):
    rng = random.Random(seed)
    for _ in range(60):
        a = raw_poly(rng, rng.choice((0, 1, 9, 253, 254, 255, 600)), alphabet=2)
        b = raw_poly(rng, rng.randrange(0, 300), alphabet=2)
        assert fp.add(a, b) == naive_add_f2(a, b)
        assert fp.mul(a, b) == fp.mul(b, a) == naive_mul_f2(a, b)
        abar, bbar = fp.canon(a), fp.canon(b)
        if bbar:
            assert fp.polydivmod(a, b) == naive_divmod_f2(abar, bbar)
        if abar or bbar:
            assert fp.gcd(a, b) == gcd_f2_oracle(abar, bbar)


@pytest.mark.parametrize("n", [27, 28, 29, 56, 57, 100])
def test_all_three_products_carry_into_no_lane(n):
    # each lane of the product takes min(n, m) terms of 9, the most a
    # chunk allows: one coefficient more per chunk would overflow a lane
    for m in (n, n + 1, 3 * n):
        assert zp.mul((3,) * n, (3,) * m) == naive_mul((3,) * n, (3,) * m)


@pytest.mark.parametrize("n", [253, 254, 255, 509])
def test_all_one_products_carry_into_no_lane_over_f2(n):
    for m in (n, n + 1, 2 * n):
        assert fp.mul((1,) * n, (1,) * m) == naive_mul_f2((1,) * n, (1,) * m)


def test_zero_operands():
    for zero in ((), (0,), (4, 0, -8)):
        assert zp.mul(zero, (1, 2, 3)) == zp.mul((3,) * 40, zero) == ()
        assert zp.add(zero, zero) == zp.mod_cyclic(zero, 3) == ()
        assert zp.divmod_monic(zero, (1, 3)) == ((), ())
        assert fp.mul(zero, (1,) * 300) == fp.add(zero, (2, 4)) == ()
        assert fp.gcd(zero, (1, 1)) == (1, 1)
        with pytest.raises(ZeroDivisionError):
            fp.polydivmod((1, 1), zero + (2,))
        with pytest.raises(BothZero):
            fp.gcd(zero, (2,))


@pytest.mark.parametrize("r,s", [(1, 1), (1, 7), (7, 1), (3, 9), (15, 5)])
def test_rotations_are_the_shift_T_images(r, s):
    rng = random.Random(r * 100 + s)
    for _ in range(5):
        pair = (zp.canon(rng.randrange(4) for _ in range(r)),
                zp.canon(rng.randrange(4) for _ in range(s)))
        v = tau_inv(pair, r, s)
        for row in rotations(pair, r, s, 2 * max(r, s) + 1):
            assert row == v.concat()
            v = shift_T(v)
