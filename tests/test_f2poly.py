"""Binary polynomial layer: gcd/xgcd and the x^n-1 factorization."""

import functools
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    check_memoized,
    check_rejected_again,
    gcd_f2_oracle,
    is_irreducible_rabin,
    memoized_names,
    naive_mul,
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

    def test_leaves_no_remainders_in_the_division_cache(self):
        # gcd memoizes its result; the remainders of its Euclid run
        # (here x^15+1 against a degree-13 polynomial) are not cached
        a, b = fp.xn_plus_1(15), (1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0, 0, 1)
        fp.gcd.cache_clear()
        fp.polydivmod.cache_clear()
        assert fp.gcd(a, b) == gcd_f2_oracle(a, b)
        assert fp.polydivmod.cache_info().currsize == 0

    def test_xgcd_bezout(self, rng):
        for _ in range(300):
            a = fp.canon(rng.randrange(2) for _ in range(rng.randrange(1, 10)))
            b = fp.canon(rng.randrange(2) for _ in range(rng.randrange(1, 10)))
            if not a and not b:
                continue
            g, u, v = fp.xgcd(a, b)
            assert fp.add(fp.mul(u, a), fp.mul(v, b)) == g
            assert g == fp.gcd(a, b) if (a or b) else True


# irreducible polynomials of degree 1..8 over F2, by Gauss's formula
# (1/d) sum_{e | d} mu(d/e) 2^e
IRREDUCIBLE_COUNTS = [2, 1, 2, 3, 6, 9, 18, 30]


def test_rabin_oracle_counts_the_irreducibles():
    counts = [sum(is_irreducible_rabin(low + (1,))
                  for low in product((0, 1), repeat=d))
              for d in range(1, 9)]
    assert counts == IRREDUCIBLE_COUNTS


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

    def test_prime_length_with_two_large_factors(self):
        # 2 has order 32759 mod the prime 65519, so x^65519-1 splits into
        # x+1 and two factors of degree 32759: two long Euclid runs
        assert sorted(map(fp.degree, fp.factor_cyclic(65519))) == [1, 32759, 32759]

    def test_even_length_rejected(self):
        with pytest.raises(EvenLength):
            fp.factor_cyclic(4)

    @pytest.mark.parametrize("n", [0, -1, -3])
    def test_nonpositive_length_rejected(self, n):
        with pytest.raises(EvenLength, match="positive odd integer"):
            fp.factor_cyclic(n)

    @pytest.mark.parametrize("n", range(1, 128, 2))
    def test_factors_distinct_irreducible_and_multiply_back(self, n):
        facs = fp.factor_cyclic(n)
        assert (sorted(fp.degree(f) for f in facs)
                == sorted(len(c) for c in fp.cyclotomic_cosets(n)))
        # over Z4 then mod 2: the product mod 2 of the integer product
        assert fp.canon(functools.reduce(naive_mul, facs)) == fp.xn_plus_1(n)
        for f in facs:
            assert is_irreducible_rabin(f), f

    @pytest.mark.parametrize("n", [0, -1, 4])
    def test_cosets_of_a_non_odd_length_rejected(self, n):
        with pytest.raises(EvenLength, match="positive odd integer"):
            fp.cyclotomic_cosets(n)

    @settings(max_examples=60)
    @given(st.integers(0, 1000).map(lambda k: 2 * k + 1))
    def test_cosets_partition_and_are_closed_under_doubling(self, n):
        cosets = fp.cyclotomic_cosets(n)
        assert sorted(i for c in cosets for i in c) == list(range(n))
        for c in cosets:
            assert {2 * i % n for i in c} == set(c)
            assert c[0] == min(c)
        assert [c[0] for c in cosets] == sorted(c[0] for c in cosets)

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


@settings(max_examples=100)
@given(st.lists(st.integers(-5, 300), max_size=40),
       st.lists(st.sampled_from([0, 2, -4, 296]), max_size=30))
def test_canon_equals_the_popping_loop(coeffs, zeros):
    """canon against a loop with one list.pop per trailing zero."""
    padded = coeffs + zeros  # trailing entries that vanish mod 2
    out = [c % 2 for c in padded]
    while out and out[-1] == 0:
        out.pop()
    assert fp.canon(padded) == fp.canon(iter(padded)) == tuple(out)


def test_gcd_of_zeros_raises_every_time():
    check_rejected_again(fp.gcd, ((), ()), BothZero)
