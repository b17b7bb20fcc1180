"""Binary polynomial layer: gcd/xgcd and the x^n-1 factorization."""

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    all_polys,
    check_memoized,
    check_rejected_again,
    gcd_f2_oracle,
    memoized_names,
)
from z4dc import f2poly as fp
from z4dc.errors import BothZero, EvenLength


class TestGcd:
    def test_gcd_with_zero_is_monic_self(self):
        assert fp.gcd((1, 1, 0, 1), ()) == (1, 1, 0, 1)

    def test_coprime_reference(self):
        assert fp.gcd((1, 1, 1), (1, 1)) == (1,)

    def test_divisor_case(self):
        # oracle: x^3+x+1 divides x^7+1 over F2, verified by division
        assert fp.polymod(fp.xn_plus_1(7), (1, 1, 0, 1)) == ()
        assert fp.gcd(fp.xn_plus_1(7), (1, 1, 0, 1)) == (1, 1, 0, 1)

    def test_both_zero_rejected(self):
        with pytest.raises(BothZero):
            fp.gcd((), ())
        with pytest.raises(BothZero):
            fp.xgcd((), ())

    def test_matches_euclid_oracle(self, rng):
        for _ in range(300):
            a = fp.canon(rng.randrange(2) for _ in range(rng.randrange(1, 10)))
            b = fp.canon(rng.randrange(2) for _ in range(rng.randrange(1, 10)))
            if not a and not b:
                continue
            assert fp.gcd(a, b) == gcd_f2_oracle(a, b)

    def test_xgcd_bezout(self, rng):
        for _ in range(300):
            a = fp.canon(rng.randrange(2) for _ in range(rng.randrange(1, 10)))
            b = fp.canon(rng.randrange(2) for _ in range(rng.randrange(1, 10)))
            if not a and not b:
                continue
            g, u, v = fp.xgcd(a, b)
            assert fp.add(fp.mul(u, a), fp.mul(v, b)) == g
            assert g == fp.gcd(a, b) if (a or b) else True


def _is_irreducible_oracle(p):
    """Trial division by every lower-degree candidate."""
    d = fp.degree(p)
    if d <= 0:
        return False
    for q in all_polys(d, alphabet=2):
        if fp.degree(q) < 1 or fp.degree(q) >= d:
            continue
        if fp.polymod(p, q) == ():
            return False
    return True


class TestFactorCyclic:
    def test_n1(self):
        assert fp.factor_cyclic(1) == frozenset({(1, 1)})

    def test_n3(self):
        facs = fp.factor_cyclic(3)
        assert facs == frozenset({(1, 1), (1, 1, 1)})
        prod = fp.ONE
        for f in facs:
            prod = fp.mul(prod, f)
        assert prod == fp.xn_plus_1(3)

    def test_n7(self):
        facs = fp.factor_cyclic(7)
        assert facs == frozenset({(1, 1), (1, 1, 0, 1), (1, 0, 1, 1)})
        prod = fp.ONE
        for f in facs:
            prod = fp.mul(prod, f)
        assert prod == fp.xn_plus_1(7)

    def test_even_length_rejected(self):
        with pytest.raises(EvenLength):
            fp.factor_cyclic(4)

    @pytest.mark.parametrize("n", [0, -1, -3])
    def test_nonpositive_length_rejected(self, n):
        with pytest.raises(EvenLength, match="positive odd integer"):
            fp.factor_cyclic(n)

    @pytest.mark.parametrize("n", [1, 3, 5, 7, 9, 15, 17, 21, 23])
    def test_factors_distinct_irreducible_and_multiply_back(self, n):
        facs = fp.factor_cyclic(n)
        assert len(facs) == len(set(facs))
        prod = fp.ONE
        for f in facs:
            prod = fp.mul(prod, f)
            if fp.degree(f) <= 11:
                assert _is_irreducible_oracle(f), f
        assert prod == fp.xn_plus_1(n)

    def test_n63_structure(self):
        facs = fp.factor_cyclic(63)
        degrees = sorted(fp.degree(f) for f in facs)
        # 2-cyclotomic cosets mod 63: one of size 1, one of 2, two of 3,
        # nine of 6
        assert degrees == [1, 2, 3, 3] + [6] * 9
        prod = fp.ONE
        for f in facs:
            prod = fp.mul(prod, f)
        assert prod == fp.xn_plus_1(63)


# -- memoization ---------------------------------------------------------

polys = st.lists(st.integers(0, 1), max_size=16).map(fp.canon)
nonzero = st.builds(lambda p: p + (1,), polys)

MEMOIZED = {
    "add": st.tuples(polys, polys),
    "mul": st.tuples(polys, polys),
    "xn_plus_1": st.tuples(st.integers(1, 20)),
    "polydivmod": st.tuples(polys, nonzero),
    "gcd": st.one_of(st.tuples(polys, nonzero), st.tuples(nonzero, polys)),
}


def test_memoized_set_is_the_documented_one():
    assert memoized_names(fp) == set(MEMOIZED) | {"factor_cyclic"}


@pytest.mark.parametrize("name", sorted(MEMOIZED))
@settings(max_examples=40)
@given(data=st.data())
def test_memoized_equals_uncached(name, data):
    check_memoized(getattr(fp, name), data.draw(MEMOIZED[name]))


@settings(max_examples=20)
@given(polys)
def test_division_by_zero_raises_every_time(a):
    check_rejected_again(fp.polydivmod, (a, ()), ZeroDivisionError)


def test_gcd_of_zeros_raises_every_time():
    check_rejected_again(fp.gcd, ((), ()), BothZero)
