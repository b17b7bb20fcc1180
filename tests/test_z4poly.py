"""Ring arithmetic over Z4: spec examples against independent oracles,
plus randomized ring-axiom checks."""

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    all_polys,
    check_memoized,
    check_rejected_again,
    memoized_names,
    naive_mod_cyclic,
    naive_mul,
    random_poly,
)
from z4dc import f2poly, z4poly as zp
from z4dc.errors import (
    InvalidInput,
    NonUnitLeadingCoefficient,
    NotADivisor,
    NotInvertible,
    ZeroPolynomial,
)
from z4dc.polytext import parse


def mul_mod_cyclic(a, b, n):
    """The product a*b reduced mod x^n - 1, as the library forms it."""
    return zp.mod_cyclic(zp.mul(a, b), n)


def canon_by_popping(coeffs):
    """canon as a loop with one list.pop per trailing zero."""
    out = [c % 4 for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


@settings(max_examples=200)
@given(st.lists(st.integers(-9, 300), max_size=40),
       st.lists(st.sampled_from([0, 4, -8, 296]), max_size=30))
def test_canon_equals_the_popping_loop(coeffs, zeros):
    padded = coeffs + zeros  # trailing entries that vanish mod 4
    assert zp.canon(padded) == zp.canon(iter(padded)) == canon_by_popping(padded)


class TestMulModCyclic:
    def test_zero_absorbs(self):
        assert mul_mod_cyclic((), (1, 2, 3), 5) == ()

    def test_x_times_xn_minus_1_wraps(self):
        for n in (1, 3, 7, 9):
            assert mul_mod_cyclic((0, 1), zp.monomial(n - 1), n) == (1,)

    def test_theta9_product(self):
        # oracle: longhand convolution then exponent folding
        a, b = parse("x^2+x+1"), parse("x^6+x^3+1")
        expected = naive_mod_cyclic(naive_mul(a, b), 9)
        assert expected == (1,) * 9
        assert mul_mod_cyclic(a, b, 9) == expected

    def test_matches_oracle_randomized(self, rng):
        for _ in range(300):
            n = rng.randrange(1, 12)
            a = random_poly(rng, rng.randrange(0, 2 * n))
            b = random_poly(rng, rng.randrange(0, 2 * n))
            assert mul_mod_cyclic(a, b, n) == naive_mod_cyclic(naive_mul(a, b), n)


class TestDivmodMonic:
    def test_self_division(self):
        d = parse("x^3+2x^2+x+3")
        assert zp.divmod_monic(d, d) == ((1,), ())

    def test_cubic_by_quadratic(self):
        # oracle: multiply back (x^2+x+1)(x+3) = x^3+3 over Z4
        q, rem = zp.divmod_monic(zp.xn_minus_1(3), parse("x^2+x+1"))
        assert naive_mul(parse("x^2+x+1"), q) == zp.xn_minus_1(3)
        assert (q, rem) == (parse("x+3"), ())

    def test_quadratic_by_linear(self):
        # oracle: (x+1)x + 1 = x^2+x+1
        q, rem = zp.divmod_monic(parse("x^2+x+1"), parse("x+1"))
        assert zp.add(naive_mul(parse("x+1"), q), rem) == parse("x^2+x+1")
        assert (q, rem) == ((0, 1), (1,))

    def test_nonunit_lead_rejected(self):
        with pytest.raises(NonUnitLeadingCoefficient):
            zp.divmod_monic(parse("x^2"), parse("2x+1"))
        with pytest.raises(NonUnitLeadingCoefficient):
            zp.divmod_monic(parse("x^2"), ())

    def test_roundtrip_randomized(self, rng):
        for _ in range(300):
            a = random_poly(rng, rng.randrange(0, 10))
            d = random_poly(rng, rng.randrange(0, 6))
            if not d or d[-1] % 2 == 0:
                continue
            q, rem = zp.divmod_monic(a, d)
            assert zp.add(naive_mul(q, d), rem) == a
            assert zp.degree(rem) < zp.degree(d)


class TestDivides:
    def test_one_divides_anything(self, rng):
        for _ in range(20):
            assert zp.divides((1,), random_poly(rng, 8))

    def test_reference_cubic_divides_x7_minus_1(self):
        assert zp.divides(parse("x^3+2x^2+x+3"), zp.xn_minus_1(7))

    def test_x_plus_2_divides_x_squared(self):
        # oracle: exhaust all quotients of degree <= 1 over Z4; the only
        # witness is x+2 itself ((x+2)^2 = x^2 because 4 = 0)
        witnesses = [q for q in all_polys(2)
                     if naive_mul(q, (2, 1)) == (0, 0, 1)]
        assert witnesses == [(2, 1)]
        assert zp.divides((2, 1), (0, 0, 1))

    def test_non_unit_lead_rejected(self):
        # every caller passes a monic divisor; an even lead (zero,
        # 2*(unit-lead) or otherwise) is a caller error
        for d in ((), (2, 2), (2, 1, 2)):
            with pytest.raises(NonUnitLeadingCoefficient):
                zp.divides(d, (0, 0, 1))

    def test_matches_exhaustive_oracle(self, rng):
        for _ in range(150):
            d = random_poly(rng, 2)
            a = random_poly(rng, 3)
            if not d or d[-1] % 2 == 0:
                continue  # divides takes unit-lead divisors only
            truth = any(naive_mul(q, d) == a for q in all_polys(4))
            assert zp.divides(d, a) == truth


class TestMakeMonic:
    def test_unit_lead_scaled_to_one(self):
        assert zp.make_monic(parse("3x+1")) == parse("x+3")
        assert zp.make_monic(parse("x+3")) == parse("x+3")

    @pytest.mark.parametrize("a", [(), parse("2x+1")], ids=["zero", "even-lead"])
    def test_even_lead_rejected(self, a):
        with pytest.raises(NonUnitLeadingCoefficient):
            zp.make_monic(a)


class TestReciprocal:
    def test_palindromes(self):
        assert zp.reciprocal(parse("x+1")) == parse("x+1")
        assert zp.reciprocal(parse("x^6+x^3+1")) == parse("x^6+x^3+1")

    def test_reference_value(self):
        assert zp.reciprocal(parse("3x^2+1")) == parse("x^2+3")

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomial):
            zp.reciprocal(())

    def test_degree_behavior(self, rng):
        for _ in range(200):
            f = random_poly(rng, 8)
            if not f:
                continue
            rec = zp.reciprocal(f)
            assert rec == tuple(reversed(f)) or rec == zp.canon(reversed(f))
            assert zp.degree(rec) <= zp.degree(f)
            assert (zp.degree(rec) == zp.degree(f)) == (f[0] != 0)
            if f[0] % 2 == 1:
                assert zp.reciprocal(rec) == f


class TestTheta:
    def test_theta9_factorization(self):
        # theta_9 = 1 + x + ... + x^8
        assert naive_mul(parse("x^2+x+1"), parse("x^6+x^3+1")) == (1,) * 9


class TestReduceMod2:
    def test_even_poly_vanishes(self):
        assert zp.reduce_mod2(parse("2x^3+2")) == ()

    def test_reference_generator(self):
        assert zp.reduce_mod2(parse("x^3+2x^2+x+3")) == (1, 1, 0, 1)

    def test_degree_drop(self):
        assert zp.reduce_mod2(parse("3x^2+1")) == (1, 0, 1)
        assert zp.reduce_mod2(parse("2x^2+1")) == (1,)


class TestHenselLift:
    def test_linear_factor(self):
        for n in (1, 3, 5, 7, 9):
            assert zp.hensel_lift((1, 1), n) == (3, 1)

    def test_quadratic_fixed_point(self):
        # oracle: (x+3)(x^2+x+1) = x^3-1 over Z4 by expansion
        assert naive_mul((3, 1), (1, 1, 1)) == zp.xn_minus_1(3)
        assert zp.hensel_lift((1, 1, 1), 3) == (1, 1, 1)

    def test_cubic_lift(self):
        h = zp.hensel_lift((1, 1, 0, 1), 7)
        assert h == parse("x^3+2x^2+x+3")
        assert zp.divmod_monic(zp.xn_minus_1(7), h)[1] == ()

    def test_not_a_divisor(self):
        with pytest.raises(NotADivisor):
            zp.hensel_lift((1, 0, 1, 1), 3)

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomial):
            zp.hensel_lift((), 3)

    @pytest.mark.parametrize("n", [1, 3, 5, 7, 9])
    def test_lift_properties_and_uniqueness(self, n):
        for fbar in sorted(_all_divisors_f2(n)):
            h = zp.hensel_lift(fbar, n)
            assert zp.is_monic(h)
            assert zp.reduce_mod2(h) == fbar
            assert zp.divmod_monic(zp.xn_minus_1(n), h)[1] == ()
            # uniqueness: exhaust all monic degree-matched 2-corrections
            d = zp.degree(h)
            matches = set()
            for bits in all_polys(d, alphabet=2):
                cand = zp.add(zp.lift_mod2(fbar), zp.scale(2, bits))
                if zp.is_monic(cand) and zp.divmod_monic(
                        zp.xn_minus_1(n), cand)[1] == ():
                    matches.add(cand)
            assert matches == {h}


def _all_divisors_f2(n):
    from itertools import product as iproduct

    factors = sorted(f2poly.factor_cyclic(n))
    out = set()
    for bits in iproduct((0, 1), repeat=len(factors)):
        d = f2poly.ONE
        for b, p in zip(bits, factors):
            if b:
                d = f2poly.mul(d, p)
        out.add(d)
    return out


class TestInverseModMonic:
    def test_identity(self):
        assert zp.inverse_mod_monic((1,), parse("x^2+x+1")) == (1,)

    def test_reference_inverse(self):
        assert zp.inverse_mod_monic(parse("x+1"), parse("x^2+x+1")) == parse("3x")

    def test_derived_inverse(self):
        # oracle: x(3x+3) = 3x^2+3x = 3(x^2+x) = 3*(-1) = 1 mod x^2+x+1
        b = zp.inverse_mod_monic((0, 1), parse("x^2+x+1"))
        assert b == parse("3x+3")
        assert zp.divmod_monic(naive_mul((0, 1), b), parse("x^2+x+1"))[1] == (1,)

    def test_not_invertible(self):
        with pytest.raises(NotInvertible):
            zp.inverse_mod_monic(parse("x+1"), zp.xn_minus_1(3))

    @pytest.mark.parametrize("m", [parse("3x^2+x+1"), parse("2x+1"), (1,)],
                             ids=["lead-3", "even-lead", "degree-0"])
    def test_modulus_must_be_monic_of_degree_one_or_more(self, m):
        with pytest.raises(NonUnitLeadingCoefficient):
            zp.inverse_mod_monic(parse("x+1"), m)

    def test_randomized_exactness(self, rng):
        for _ in range(200):
            m = zp.add(zp.monomial(rng.randrange(1, 6)), random_poly(rng, 4))
            m = zp.canon(m)
            if not zp.is_monic(m) or zp.degree(m) < 1:
                continue
            a = random_poly(rng, zp.degree(m) - 1)
            try:
                b = zp.inverse_mod_monic(a, m)
            except NotInvertible:
                continue
            assert zp.divmod_monic(naive_mul(a, b), m)[1] == (1,)


class TestRingAxioms:
    def test_axioms_mod_cyclic(self, rng):
        for _ in range(250):
            n = rng.randrange(1, 65)
            a = random_poly(rng, rng.randrange(0, n))
            b = random_poly(rng, rng.randrange(0, n))
            c = random_poly(rng, rng.randrange(0, n))
            ab = mul_mod_cyclic(a, b, n)
            assert ab == mul_mod_cyclic(b, a, n)
            assert mul_mod_cyclic(ab, c, n) == \
                mul_mod_cyclic(a, mul_mod_cyclic(b, c, n), n)
            assert mul_mod_cyclic(a, zp.mod_cyclic(zp.add(b, c), n), n) == \
                zp.mod_cyclic(zp.add(ab, mul_mod_cyclic(a, c, n)), n)


# -- memoization ---------------------------------------------------------

polys = st.lists(st.integers(0, 3), max_size=12).map(zp.canon)
unit_lead = st.builds(lambda p, u: p + (u,), polys, st.sampled_from([1, 3]))
non_unit_lead = st.one_of(st.just(zp.ZERO), st.builds(lambda p: p + (2,), polys))
lengths = st.integers(1, 20)

MEMOIZED = {
    "add": st.tuples(polys, polys),
    "scale": st.tuples(st.integers(0, 3), polys),
    "mul": st.tuples(polys, polys),
    "monomial": st.tuples(st.integers(0, 20), st.integers(0, 3)),
    "xn_minus_1": st.tuples(lengths),
    "mod_cyclic": st.tuples(polys, lengths),
    "divmod_monic": st.tuples(polys, unit_lead),
    "reciprocal": st.tuples(unit_lead),
    "reduce_mod2": st.tuples(polys),
}


def test_memoized_set_is_the_documented_one():
    assert memoized_names(zp) == set(MEMOIZED) | {"hensel_lift"}


@pytest.mark.parametrize("name", sorted(MEMOIZED))
@settings(max_examples=40)
@given(data=st.data())
def test_memoized_equals_uncached(name, data):
    check_memoized(getattr(zp, name), data.draw(MEMOIZED[name]))


@settings(max_examples=40)
@given(polys, non_unit_lead)
def test_division_by_non_unit_lead_raises_every_time(a, d):
    check_rejected_again(zp.divmod_monic, (a, d), NonUnitLeadingCoefficient)


@pytest.mark.parametrize("args", [(-1,), (-3, 2)])
def test_negative_monomial_exponent_raises_every_time(args):
    # [0] * k is empty for k < 0, which once made monomial(-1) the constant 1
    check_rejected_again(zp.monomial, args, InvalidInput)


def test_reciprocal_of_zero_raises_every_time():
    check_rejected_again(zp.reciprocal, ((),), ZeroPolynomial)
