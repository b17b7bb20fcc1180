"""Double cyclic code core: validation, generating sets, enumeration,
ideal canonicalization."""

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (brute_span, code_engine, code_vector, codewords,
                      counter_words, ideal_rows, mat, naive_mod_cyclic, naive_mul,
                      random_code, random_poly, span_size, xstar_mul)
from z4dc import code, f2poly as f2, linalg as la, z4poly as zp
from z4dc.code import (
    CodeVector,
    check_enum_cap,
    code_size,
    contains,
    generator_matrix,
    minimal_generating_set,
    shift_T,
    tau,
    tau_inv,
    validate,
)
from z4dc.errors import (
    BrokenDivisibilityChain,
    DegenerateGenerators,
    DegreeOverflow,
    DimensionMismatch,
    EnumerationCapExceeded,
    EvenLength,
    InvalidInput,
    MixingConstraintViolation,
    NotMonic,
)
from z4dc.polytext import parse


def kerdock():
    return validate(1, 7, l=(1,), f2=parse("x^3+2x^2+x+3"),
                    g2=parse("x^3+2x^2+x+3"))


def pair_3_9():
    return validate(3, 9, f1=parse("x^2+x+1"), g1=parse("x^2+x+1"),
                    l=parse("x+1"), f2=parse("x^6+x^3+1"),
                    g2=parse("x^6+x^3+1"))


class TestShiftAndTau:
    def test_zero_fixed(self):
        v = CodeVector((0, 0), (0, 0, 0))
        assert shift_T(v) == v

    def test_shift_pattern(self):
        v = CodeVector((1, 2, 3), (0, 1))
        assert shift_T(v) == CodeVector((3, 1, 2), (1, 0))

    def test_order_lcm(self, rng):
        for _ in range(30):
            r, s = rng.choice([(3, 9), (3, 5), (1, 7)])
            v = CodeVector(tuple(rng.randrange(4) for _ in range(r)),
                           tuple(rng.randrange(4) for _ in range(s)))
            import math

            w = v
            for _ in range(math.lcm(r, s)):
                w = shift_T(w)
            assert w == v

    def test_tau_round_trip(self):
        v = CodeVector((1, 3, 2), (0, 1))
        assert tau(v) == ((1, 3, 2), (0, 1))
        assert tau_inv(tau(v), 3, 2) == v
        assert tau(CodeVector((0,), (0, 0))) == ((), ())

    def test_tau_inv_degree_overflow(self):
        with pytest.raises(DegreeOverflow):
            tau_inv(((1, 1, 1, 1), ()), 3, 5)

    def test_shift_is_x_action(self, rng):
        for _ in range(200):
            r, s = rng.choice([(1, 3), (3, 3), (3, 9), (5, 7)])
            v = CodeVector(tuple(rng.randrange(4) for _ in range(r)),
                           tuple(rng.randrange(4) for _ in range(s)))
            left, right = tau(v)
            assert tau(shift_T(v)) == xstar_mul((0, 1), (left, right), r, s)


class TestXstarMul:
    def test_identity(self):
        assert xstar_mul((1,), ((1, 2), (3,)), 3, 5) == ((1, 2), (3,))

    def test_power_wraps(self):
        pair = ((1, 1), (2,))
        assert xstar_mul(zp.monomial(3), pair, 3, 3) == pair

    def test_right_component_annihilated(self):
        # ((x^s-1)/g2) * (l | F2) has zero right component
        c = pair_3_9()
        cof = zp.exact_div(zp.xn_minus_1(c.s), c.g2)
        left, right = xstar_mul(cof, (c.l, c.F2_mod), c.r, c.s)
        assert right == ()
        assert left == zp.mod_cyclic(naive_mul(cof, c.l), c.r)


class TestValidate:
    def test_reference_case_ii(self):
        c = kerdock()
        assert c.case == "ii" and not c.left_present and c.right_present

    def test_reference_case_iii_free(self):
        c = pair_3_9()
        assert c.case == "iii" and c.is_free

    def test_degree_normalization(self):
        # l = x^2 reduced against F1 = (x+3) + 2*1 = x+1:
        # x^2 = (x+1)(x+3) + 1 over Z4, so l becomes 1
        c = validate(3, 3, f1=parse("x+3"), g1=(1,), l=parse("x^2"),
                     f2=(1,), g2=(1,))
        assert c.l == (1,)
        assert c.case == "iii"

    def test_even_length_rejected(self):
        with pytest.raises(EvenLength):
            validate(2, 3, f2=(1,), g2=(1,))
        with pytest.raises(EvenLength):
            validate(3, 0, f2=(1,), g2=(1,))

    @pytest.mark.parametrize("r, s", [(True, 1), (1, True), (False, 1), (3.0, 1),
                                      ("3", 1)])
    def test_non_integer_length_rejected(self, r, s):
        # bool is an int subclass: True would pass as the length 1 and
        # echo as "r": true
        name = "r" if type(r) is not int else "s"
        with pytest.raises(InvalidInput, match=f"^{name} must be an integer"):
            validate(r, s)

    def test_chain_violations(self):
        with pytest.raises(BrokenDivisibilityChain):
            validate(3, 3, f2=parse("x+1"), g2=parse("x+1"))  # x+1 does not divide x^3-1
        with pytest.raises(BrokenDivisibilityChain):
            validate(3, 3, f2=parse("x^2+x+1"), g2=parse("x+3"))

    def test_mixing_constraint_violation(self):
        # ((x^3-1)/(x+3)) * 1 = x^2+x+1 is outside the ideal (3(x+3))
        with pytest.raises(MixingConstraintViolation) as ei:
            validate(3, 3, f1=parse("x+3"), g1=parse("x+3"), l=(1,),
                     f2=parse("x+3"), g2=parse("x+3"))
        assert ei.value.witness == (1, 1, 1)

    def test_degenerate_generators(self):
        with pytest.raises(DegenerateGenerators):
            validate(3, 3, f1=parse("x+3"))  # f1 without g1
        with pytest.raises(DegenerateGenerators, match="f2 and g2"):
            validate(3, 3, f2=parse("x+3"))  # f2 without g2
        with pytest.raises(DegenerateGenerators):
            validate(3, 3, l=(1,))  # mixing without a right generator
        with pytest.raises(DegenerateGenerators):
            validate(3, 3, l=(1,), f2=zp.xn_minus_1(3), g2=zp.xn_minus_1(3))

    def test_non_monic_rejected(self):
        with pytest.raises(NotMonic):
            validate(3, 3, f2=parse("2x+1"), g2=(1,))

    def test_zero_code(self):
        c = validate(3, 5)
        assert code_size(c) == 1
        assert list(codewords(c)) == [CodeVector((0,) * 3, (0,) * 5)]


class TestMinimalGeneratingSet:
    def test_kerdock_matrix(self):
        G = generator_matrix(kerdock())
        assert G.rows == ((1, 1, 3, 2, 3, 0, 0, 0),
                          (1, 0, 1, 3, 2, 3, 0, 0),
                          (1, 0, 0, 1, 3, 2, 3, 0),
                          (1, 0, 0, 0, 1, 3, 2, 3))

    def test_pair_3_9_families(self):
        gens = minimal_generating_set(pair_3_9())
        orders = [o for _, o in gens]
        assert orders == [4, 4, 4, 4]  # S1 has 1 row, S3 has 3, no order-2
        assert gens[0][0].concat() == (3, 3, 3) + (0,) * 9

    def test_order2_families(self):
        # f1 = x^r-1, g1 = 1, f2 = x^s-1, g2 = 1: S1/S3 empty, S2 has r
        # rows of 2*(x^r-1)/f1*g1 = 2, S4 has s rows
        c = validate(3, 5, f1=zp.xn_minus_1(3), g1=(1,), l=(),
                     f2=zp.xn_minus_1(5), g2=(1,))
        gens = minimal_generating_set(c)
        assert [o for _, o in gens] == [2] * 3 + [2] * 5
        assert gens[0][0].concat() == (2, 0, 0, 0, 0, 0, 0, 0)
        assert code_size(c) == 2 ** 8

    def test_order_tags_are_real(self, rng):
        # doubling an order-2 row must land in the left ideal (the rows
        # with a vanishing right block); order-4 rows must not vanish
        # when doubled unless the left ideal absorbs them entirely
        for _ in range(50):
            c = random_code(rng, max_size=2 ** 12)
            gens = minimal_generating_set(c)
            left_rows = [v.concat() for v, _ in gens if not any(v.right)]
            h = la.howell(la.MatZ4(tuple(left_rows), c.r + c.s)) \
                if left_rows else None
            for v, order in gens:
                doubled = tuple((2 * x) % 4 for x in v.concat())
                if order == 2:
                    if any(doubled):
                        assert h is not None and la.membership(h, doubled)

    def test_rows_equal_the_polynomial_products(self, rng):
        # oracle: row i of a family is tau_inv(x^i * pair), one
        # polynomial product per row, as the rows were first built
        torsion = 0
        for _ in range(80):
            c = random_code(rng, r_choices=(1, 3, 7, 9), s_choices=(1, 3, 7, 9))
            r, s = c.r, c.s
            families = (
                ((zp.mod_cyclic(c.F1, r), ()), r - c.t1, 4),
                ((zp.mod_cyclic(zp.scale(2, zp.mul(c.h1, c.g1)), r), ()),
                 c.t1 - c.t2, 2),
                ((c.l, zp.mod_cyclic(c.F2, s)), s - c.r1, 4),
                ((zp.mod_cyclic(zp.mul(c.h2, c.l), r),
                  zp.mod_cyclic(zp.scale(2, zp.mul(c.h2, c.g2)), s)),
                 c.r1 - c.r2, 2),
            )
            expected = [(tau_inv(xstar_mul(zp.monomial(i), pair, r, s), r, s), radix)
                        for pair, count, radix in families for i in range(count)]
            assert minimal_generating_set(c) == expected
            torsion += c.t1 > c.t2 or c.r1 > c.r2
        assert torsion >= 20


class TestCodeSize:
    def test_reference_sizes(self):
        assert code_size(kerdock()) == 256
        assert code_size(pair_3_9()) == 4 ** 4

    def test_full_space(self):
        c = validate(3, 5, f1=(1,), g1=(1,), l=(), f2=(1,), g2=(1,))
        assert code_size(c) == 4 ** 8

    def test_formula_equals_enumeration_equals_howell(self, rng):
        for _ in range(220):
            c = random_code(rng, max_size=2 ** 12)
            size = code_size(c)
            words = {v.concat() for v in codewords(c)}
            assert len(words) == size
            assert span_size(la.howell(generator_matrix(c))) == size

    def test_minimality_iff_type_matches(self, rng):
        # The generating set is minimal exactly when the module type
        # matches the degree data: |2*span| = 2^(r+s-t1-r1).  (Modules
        # exist whose canonical quintuple gets the size right but the
        # type wrong; their sets carry one redundant row.)  Nakayama
        # over the local ring Z4 turns the type match into minimality.
        matched = 0
        for _ in range(220):
            c = random_code(rng, max_size=2 ** 10)
            G = generator_matrix(c)
            if not G.rows:
                continue
            full = span_size(la.howell(G))
            doubled = la.MatZ4(tuple(tuple((2 * x) % 4 for x in row)
                                     for row in G.rows), G.ncols)
            type_ok = (span_size(la.howell(doubled))
                       == 2 ** (c.r + c.s - c.t1 - c.r1))
            minimal = all(
                span_size(la.howell(la.MatZ4(G.rows[:i] + G.rows[i + 1:],
                                                G.ncols))) < full
                for i in range(len(G.rows)))
            assert minimal == type_ok
            matched += type_ok
        assert matched >= 180  # the generic case must dominate the sample


class TestEnumeration:
    def test_kerdock_distinct(self):
        words = [v.concat() for v in codewords(kerdock())]
        assert len(words) == len(set(words)) == 256

    def test_matches_brute_span(self, rng):
        for _ in range(25):
            c = random_code(rng, r_choices=(1, 3), s_choices=(1, 3, 5),
                            max_size=2 ** 8)
            G = generator_matrix(c)
            words = {v.concat() for v in codewords(c)}
            assert words == brute_span(G.rows, G.ncols)

    def test_cap_enforced(self):
        c = pair_3_9()
        with pytest.raises(EnumerationCapExceeded):
            check_enum_cap(c, 100)
        assert check_enum_cap(c, code_size(c)) == code_size(c)

    def test_block_enumerator_bit_identical(self):
        c = kerdock()
        be = code_engine(c, max_block=32)
        flat = []
        for h in range(be.nblocks):
            flat.extend(map(tuple, code.unpack(be.block(h), c.r + c.s).tolist()))
        assert flat == list(counter_words(c))

    def test_closure_under_shift(self, rng):
        for _ in range(60):
            c = random_code(rng, max_size=2 ** 10)
            for v in codewords(c):
                assert contains(c, shift_T(v))

    def test_lemma1_style_invariance(self, rng):
        # adding x^i * F1 to the mixing polynomial leaves the span alone
        for _ in range(60):
            c = random_code(rng, max_size=2 ** 12)
            if not (c.left_present and c.right_present):
                continue
            i = rng.randrange(0, c.r)
            shifted_l = zp.mod_cyclic(
                zp.add(c.l, naive_mul(zp.monomial(i), c.F1)), c.r)
            rows = list(generator_matrix(c).rows)
            base = tau_inv((shifted_l, c.F2_mod), c.r, c.s).concat()
            alt_rows = [base] + [r for r in rows]
            assert la.span_equal(generator_matrix(c),
                                 la.MatZ4(tuple(alt_rows), c.r + c.s)) or \
                la.membership(la.howell(generator_matrix(c)), base)

    def test_mixing_witness_is_member(self, rng):
        for _ in range(60):
            c = random_code(rng, max_size=2 ** 14)
            w = zp.mod_cyclic(
                naive_mul(zp.exact_div(zp.xn_minus_1(c.s), c.g2), c.l), c.r)
            assert contains(c, tau_inv((w, ()), c.r, c.s))


class TestContains:
    def test_zero_and_generators(self):
        c = kerdock()
        assert contains(c, CodeVector((0,), (0,) * 7))
        for v, _ in minimal_generating_set(c):
            assert contains(c, v)

    def test_rejection_sampled_non_member(self, rng):
        c = kerdock()
        words = {v.concat() for v in codewords(c)}
        found = 0
        while found < 20:
            v = tuple(rng.randrange(4) for _ in range(8))
            if v in words:
                continue
            assert not contains(c, code_vector(v, 1))
            found += 1

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            contains(kerdock(), CodeVector((0, 0), (0,) * 6))


def assert_canonical_pair_spans(spanning, n):
    """canonicalize_ideal against the Howell span of every rotation: a
    monic chain g | f | x^n-1 whose f + 2g spans the same ideal."""
    f, g = code.canonicalize_ideal(spanning, n)
    assert zp.is_monic(f) and zp.is_monic(g)
    assert zp.divides(g, f) and zp.divides(f, zp.xn_minus_1(n))
    rows = [row for w in spanning for row in ideal_rows(w, n)]
    F = zp.add(f, zp.scale(2, g))
    assert la.span_equal(mat(rows, n), mat(ideal_rows(F, n), n))


class TestCanonicalizeIdeal:
    def test_zero_ideal_sentinel(self):
        assert code.canonicalize_ideal([()], 3) == (zp.xn_minus_1(3),
                                                    zp.xn_minus_1(3))

    def test_unit_ideal(self):
        assert code.canonicalize_ideal([(3,)], 3) == ((1,), (1,))

    def test_mixed_ideal_span_equal(self):
        spanning = [zp.scale(2, parse("x+3")),
                    naive_mul(parse("x+3"), parse("x^2+x+1"))]
        assert_canonical_pair_spans(spanning, 3)

    def test_factoring_is_cached_per_length(self):
        # x^n-1 is factored once per n, however many ideals are canonicalized
        f2.factor_cyclic.cache_clear()
        code.canonicalize_ideal([parse("x+3")], 15)
        code.canonicalize_ideal([zp.scale(2, parse("x^4+x+1"))], 15)
        info = f2.factor_cyclic.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_random_ideals(self, rng):
        for _ in range(100):
            n = rng.choice([1, 3, 5, 7, 9])
            spanning = [random_poly(rng, n - 1)
                        for _ in range(rng.randrange(1, 3))]
            assert_canonical_pair_spans(spanning, n)


IDEAL_LENGTHS = (1, 3, 5, 7, 9, 15, 21)


def z4_polys(n):
    return st.lists(st.integers(0, 3), max_size=n).map(zp.canon)


@st.composite
def cyclic_ideals(draw, n):
    """(f, g) with g | f | x^n-1: each residue factor of x^n-1 is drawn
    as a full, 2-torsion or zero component of the ideal (f + 2g)."""
    fbar = gbar = f2.ONE
    for p in sorted(f2.factor_cyclic(n)):
        kind = draw(st.integers(0, 2))
        if kind:
            fbar = f2.mul(fbar, p)
        if kind == 2:
            gbar = f2.mul(gbar, p)
    return zp.hensel_lift(fbar, n), zp.hensel_lift(gbar, n)


@st.composite
def ideal_members(draw):
    """n, an ideal (f, g) and w = a*f + c*b*g (+ e), c in {1, 2}: with
    c = 1 or a random e, w is in the ideal only sometimes."""
    n = draw(st.sampled_from(IDEAL_LENGTHS))
    f, g = draw(cyclic_ideals(n))
    a, b = draw(z4_polys(n)), draw(z4_polys(n))
    w = zp.add(zp.mul(a, f), zp.scale(draw(st.sampled_from((1, 2))), zp.mul(b, g)))
    if draw(st.booleans()):
        w = zp.add(w, draw(z4_polys(n)))
    return n, f, g, w


@settings(max_examples=150)
@given(ideal_members())
def test_in_ideal_matches_howell_membership(case):
    n, f, g, w = case
    h = la.howell(mat(ideal_rows(zp.add(f, zp.scale(2, g)), n), n))
    assert code.in_ideal(f, g, w) == la.membership(h, code.poly_to_vec(w, n))


@st.composite
def spanning_sets(draw):
    """n and 1-3 polynomials a*(f + 2g), each over its own ideal, so the
    spanned ideal has full, 2-torsion and zero components."""
    n = draw(st.sampled_from(IDEAL_LENGTHS))
    spanning = []
    for _ in range(draw(st.integers(1, 3))):
        f, g = draw(cyclic_ideals(n))
        spanning.append(zp.mul(draw(z4_polys(n)), zp.add(f, zp.scale(2, g))))
    return n, spanning


@settings(max_examples=100)
@given(spanning_sets())
def test_canonicalize_ideal_matches_howell_span(case):
    n, spanning = case
    assert_canonical_pair_spans(spanning, n)


@st.composite
def ideals(draw):
    n = draw(st.sampled_from(IDEAL_LENGTHS))
    return (n, *draw(cyclic_ideals(n)))


@settings(max_examples=80)
@given(ideals())
def test_annihilator_generates_the_whole_annihilator(case):
    # (star) lies in Ann((F)), and |(star)| * |(F)| = 4^n, the size of
    # Ann((F)) in a Frobenius ring, so the two are equal
    n, f, g = case
    F = zp.add(f, zp.scale(2, g))
    star = code.annihilator(f, g, n)
    assert naive_mod_cyclic(naive_mul(star, F), n) == ()

    def size(p):
        return span_size(la.howell(mat(ideal_rows(p, n), n)))

    assert size(star) * size(F) == 4 ** n


class TestSpecDictRoundTrip:
    def test_round_trip(self, rng):
        for _ in range(100):
            c = random_code(rng, max_size=2 ** 16)
            again = code.from_spec_dict(code.spec_dict(c))
            assert again == c

    def test_sentinels_omitted(self):
        d = code.spec_dict(kerdock())
        assert "f1" not in d and "g1" not in d
        assert d["l"] == "1"
