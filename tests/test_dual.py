"""Duality: the pairing, kernel duals, the free closed form, residue
relations, and projections."""

import math

import pytest

from conftest import (
    epsilon,
    gcd_convention_faithful,
    projection_size,
    random_code,
    residue_generators_by_elimination,
    span_size,
)
from z4dc import dual, linalg as la, z4poly as zp, f2poly as fp
from z4dc.code import (
    CodeVector,
    _generator_howell,
    code_size,
    from_spec_dict,
    generator_matrix,
    shift_T,
    spec_dict,
    tau,
    tau_inv,
    validate,
)
from z4dc.errors import (
    DimensionCapExceeded,
    NotFree,
    NotInvertible,
)
from z4dc.polytext import parse


def pair_3_9():
    return validate(3, 9, f1=parse("x^2+x+1"), g1=parse("x^2+x+1"),
                    l=parse("x+1"), f2=parse("x^6+x^3+1"),
                    g2=parse("x^6+x^3+1"))


def random_vector(rng, r, s):
    return CodeVector(tuple(rng.randrange(4) for _ in range(r)),
                      tuple(rng.randrange(4) for _ in range(s)))


class TestInnerProduct:
    def test_zero(self):
        v = CodeVector((1, 2), (3,))
        assert dual.inner_product(CodeVector((0, 0), (0,)), v) == 0

    def test_self_product_wraps(self):
        v = CodeVector((1,), (1, 1, 1))
        assert dual.inner_product(v, v) == 0  # 4 = 0 mod 4

    def test_longhand(self, rng):
        for _ in range(100):
            r, s = rng.randrange(1, 6), rng.randrange(1, 6)
            u, v = random_vector(rng, r, s), random_vector(rng, r, s)
            expected = sum(a * b for a, b in zip(u.concat(), v.concat())) % 4
            assert dual.inner_product(u, v) == expected


class TestPhiMap:
    def test_zero_first_argument(self):
        assert dual.phi_map(((), ()), ((1, 1), (1,)), 3, 3) == ()

    def test_shift_sum_identity(self, rng):
        # With S_i = <c1, T^i c2>, the pairing as defined evaluates to
        # sum_i S_i x^((i-1) mod k): the x-exponents run opposite to the
        # shift index (up to the common x^-1), so it vanishes exactly
        # when every S_i does.  Checked by brute force over the shifts.
        for _ in range(200):
            r, s = rng.choice([(1, 3), (3, 3), (1, 7), (3, 9), (3, 5)])
            k = math.lcm(r, s)
            u, v = random_vector(rng, r, s), random_vector(rng, r, s)
            expected = [0] * k
            w = v
            for i in range(k):
                expected[(i - 1) % k] = \
                    (expected[(i - 1) % k] + dual.inner_product(u, w)) % 4
                w = shift_T(w)
            assert dual.phi_map(tau(u), tau(v), r, s) == zp.canon(expected)

    def test_reference_dual_pairs_vanish(self):
        c = pair_3_9()
        primal = [tau_inv((c.F1_mod, ()), 3, 9),
                  tau_inv((c.l, c.F2_mod), 3, 9)]
        rep = dual.dual_free(c)
        d = rep.dual
        duals = [tau_inv((d.l, d.F2_mod), 3, 9)]
        for dv in duals:
            for pv in primal:
                assert dual.phi_map(tau(dv), tau(pv), 3, 9) == ()


class TestOrthogonalAllShifts:
    def test_zero_vector(self):
        v = CodeVector((1, 2, 3), (1, 0, 2))
        assert dual.orthogonal_all_shifts(CodeVector((0,) * 3, (0,) * 3), v)

    def test_witness_index(self, rng):
        found = 0
        while found < 30:
            u = random_vector(rng, 3, 3)
            v = random_vector(rng, 3, 3)
            i = dual.first_nonorthogonal_shift(u, v)
            if i is None:
                continue
            w = v
            for _ in range(i):
                w = shift_T(w)
            assert dual.inner_product(u, w) != 0
            found += 1

    @pytest.mark.parametrize("r,s", [(1, 3), (3, 3), (1, 7), (3, 9)])
    def test_equivalence_with_phi(self, rng, r, s):
        for _ in range(220):
            u, v = random_vector(rng, r, s), random_vector(rng, r, s)
            assert dual.orthogonal_all_shifts(u, v) == \
                (dual.phi_map(tau(u), tau(v), r, s) == ())

    def test_annihilation_consequence(self, rng):
        # whenever phi((F1|0), (l|F2)) = 0, F1 * reciprocal(l) = 0 mod x^r-1
        checked = 0
        while checked < 120:
            c = random_code(rng, max_size=2 ** 12)
            if c.l == () or c.F1_mod == ():
                continue
            if dual.phi_map((c.F1_mod, ()), (c.l, c.F2_mod), c.r, c.s) != ():
                continue
            prod = zp.mod_cyclic(zp.mul(c.F1_mod, zp.reciprocal(c.l)), c.r)
            assert prod == ()
            checked += 1


class TestDualBruteForce:
    def test_full_space_dual_is_zero(self):
        c = validate(3, 3, f1=(1,), g1=(1,), f2=(1,), g2=(1,))
        K, rep = dual.dual_brute_force(c)
        assert span_size(la.howell(K)) == 1
        assert code_size(rep.dual) == 1

    def test_reference_dual(self):
        c = pair_3_9()
        K, rep = dual.dual_brute_force(c)
        assert span_size(la.howell(K)) == 4 ** 8
        # the published dual generators (x^2-1 | x-1) span the kernel
        alt = validate(3, 9, l=parse("3x^2+1"), f2=parse("x+3"),
                       g2=parse("x+3"))
        assert la.span_equal(generator_matrix(alt), K)

    def test_cap(self):
        c = pair_3_9()
        with pytest.raises(DimensionCapExceeded):
            dual.dual_brute_force(c, cap=10)

    def test_cardinality_and_shift_closure(self, rng):
        for _ in range(200):
            c = random_code(rng, r_choices=(1, 3, 5), s_choices=(1, 3, 5, 7),
                            max_size=2 ** 16)
            K, rep = dual.dual_brute_force(c)
            h = la.howell(K)
            assert code_size(c) * span_size(h) == 4 ** (c.r + c.s)
            for row in K.rows:
                v = shift_T(CodeVector(row[:c.r], row[c.r:]))
                assert la.membership(h, v.concat())
            assert code_size(rep.dual) == span_size(h)

    def test_certified_dual_spans_the_kernel(self, rng):
        """Oracle for the pairing certificate of the kernel route: over a
        seeded population of all three cases, non-free codes included,
        the extracted dual's Howell form equals the kernel's rows."""
        cases = {"i": 0, "ii": 0, "iii": 0}
        free = 0
        for _ in range(300):
            c = random_code(rng, max_size=2 ** 16)
            K, rep = dual.dual_brute_force(c)
            assert _generator_howell(rep.dual).matrix.rows == K.rows
            cases[c.case] += 1
            free += c.is_free
        assert min(cases.values()) >= 20, cases
        assert 20 <= free <= 280, free

    def test_double_dual(self, rng):
        for _ in range(60):
            c = random_code(rng, r_choices=(1, 3), s_choices=(3, 5),
                            max_size=2 ** 12)
            K, _ = dual.dual_brute_force(c)
            KK = la.kernel(K)
            assert la.span_equal(KK, generator_matrix(c))


class TestDualFree:
    def test_reference_closed_form(self):
        rep = dual.dual_free(pair_3_9())
        assert rep.method == "free-closed-form"
        assert rep.F1_hat_star == ()
        assert rep.F2_hat_star == parse("x+3")
        assert rep.nu == parse("x+1")
        assert rep.l_hat == parse("3x^2+1")
        assert code_size(rep.dual) == 4 ** 8

    def test_not_free(self):
        c = validate(3, 3, f1=parse("x^3+3"), g1=(1,), f2=(1,), g2=(1,))
        with pytest.raises(NotFree):
            dual.dual_free(c)

    def test_trivial_left_full(self):
        # left part trivially full: dual left-only subcode collapses
        c = validate(3, 9, f1=(1,), g1=(1,), l=(),
                     f2=parse("x^6+x^3+1"), g2=parse("x^6+x^3+1"))
        rep = dual.dual_free(c)
        K, _ = dual.dual_brute_force(c)
        assert la.span_equal(generator_matrix(rep.dual), K)
        assert not rep.dual.left_present

    def test_pure_right_code_with_zero_mixing(self):
        # absent left generator and l = 0: the corrected closed form
        # yields F2_hat* = (x^s-1)/f2 and a full dual left part
        c = validate(3, 9, l=(), f2=parse("x^6+x^3+1"), g2=parse("x^6+x^3+1"))
        rep = dual.dual_free(c)
        K, _ = dual.dual_brute_force(c)
        assert la.span_equal(generator_matrix(rep.dual), K)
        assert rep.dual.f1 == (1,)  # dual left part is everything
        assert rep.l_hat == ()

    def test_two_torsion_mixing_falls_back(self):
        c = validate(3, 3, f1=parse("x+3"), g1=parse("x+3"), l=(2,),
                     f2=parse("x^2+x+1"), g2=parse("x^2+x+1"))
        with pytest.raises((NotFree, NotInvertible)):
            dual.dual_free(c)
        dual.dual_brute_force(c)  # the oracle path still works

    def test_population_closed_form_or_sanctioned_fallback(self, rng):
        successes = fallbacks = 0
        pairs = [(3, 3), (3, 9), (9, 3), (3, 7), (7, 3), (3, 15), (15, 3)]
        for r, s in pairs:
            from z4dc.search import divisor_lattice

            for f1 in divisor_lattice(r):
                for f2 in divisor_lattice(s):
                    ls = {(), (1,)}
                    ls.add(tuple(rng.randrange(4) for _ in
                                 range(max(zp.degree(f1), 1))))
                    for l in sorted(zp.canon(x) for x in ls):
                        try:
                            c = validate(r, s, f1=f1, g1=f1, l=l,
                                         f2=f2, g2=f2)
                        except Exception:
                            continue
                        try:
                            rep = dual.dual_free(c)
                        except (NotFree, NotInvertible):
                            fallbacks += 1
                            K, brep = dual.dual_brute_force(c)
                            assert code_size(brep.dual) * code_size(c) == \
                                4 ** (r + s)
                            continue
                        K, _ = dual.dual_brute_force(c)
                        assert la.span_equal(generator_matrix(rep.dual), K)
                        successes += 1
        assert successes >= 200
        assert successes > 3 * fallbacks  # closed form covers the bulk


def test_closed_form_kernel_rows_equal_the_kernel(rng):
    """The closed form reads kernel_rows off the dual's Howell form; over
    a seeded free population they equal the kernel of the primal
    generator matrix, computed independently."""
    checked = 0
    for _ in range(150):
        c = random_code(rng, r_choices=(1, 3, 5, 7, 9),
                        s_choices=(1, 3, 5, 7, 9), free_only=True)
        try:
            rep = dual.dual_free(c)
        except (NotFree, NotInvertible):
            continue
        assert rep.kernel.rows == la.kernel(generator_matrix(c)).rows
        checked += 1
    assert checked >= 100, checked


class TestDualReportDispatch:
    def test_auto_prefers_free(self):
        rep = dual.dual_report(pair_3_9(), method="auto")
        assert rep.method == "free-closed-form"

    def test_auto_falls_back(self):
        c = validate(3, 3, f1=parse("x^3+3"), g1=(1,), f2=(1,), g2=(1,))
        rep = dual.dual_report(c, method="auto")
        assert rep.method == "brute-kernel"

    def test_methods_agree(self, rng):
        for _ in range(40):
            c = random_code(rng, free_only=True, max_size=2 ** 16)
            try:
                free = dual.dual_free(c)
            except (NotFree, NotInvertible):
                continue
            brute = dual.dual_report(c, method="brute")
            assert la.span_equal(generator_matrix(free.dual),
                                 generator_matrix(brute.dual))


class TestResidueDualCheck:
    def test_reference_pair(self):
        c = pair_3_9()
        K, brep = dual.dual_brute_force(c)
        chk = dual.residue_dual_check(c, K, dual_code=brep.dual)
        assert chk.all_ok(), chk.checks
        assert chk.nubar == (1, 1)
        assert chk.F1bar_hat == fp.xn_plus_1(3)  # dual left part vanishes
        assert fp.canon(reversed(chk.F2bar_hat)) == (1, 1)

    def test_kerdock_structure(self):
        c = from_spec_dict({"r": 1, "s": 7, "l": "1",
                            "f2": "x^3+2x^2+x+3", "g2": "x^3+2x^2+x+3"})
        K, brep = dual.dual_brute_force(c)
        chk = dual.residue_dual_check(c, K, dual_code=brep.dual)
        assert chk.all_ok(), chk.checks

    def test_random_free_population(self, rng):
        for _ in range(60):
            c = random_code(rng, free_only=True, max_size=2 ** 16,
                            r_choices=(1, 3), s_choices=(3, 5, 7))
            K, brep = dual.dual_brute_force(c)
            chk = dual.residue_dual_check(c, K, dual_code=brep.dual)
            assert chk.all_ok(), (spec_dict(c), chk.checks)

    def test_two_torsion_mixing_reported_not_raised(self):
        # the Z4 closed form is blind to a residue-invisible mixing
        # polynomial, but the residue-level relations still hold and the
        # check reports findings rather than raising
        c = validate(3, 3, f1=parse("x+3"), g1=parse("x+3"), l=(2,),
                     f2=parse("x^2+x+1"), g2=parse("x^2+x+1"))
        K, brep = dual.dual_brute_force(c)
        chk = dual.residue_dual_check(c, K, dual_code=brep.dual)
        assert chk.all_ok()

    def test_non_free_failures_are_findings(self):
        # non-free duals can collapse mod 2; the reciprocal formulas then
        # fail and must surface as False findings, never exceptions
        c = validate(1, 3, f1=(1,), g1=(1,), f2=parse("x+3"), g2=(1,))
        K, brep = dual.dual_brute_force(c)
        chk = dual.residue_dual_check(c, K, dual_code=brep.dual)
        assert not chk.checks["F2_hat_reciprocal_formula"]
        assert not chk.checks["F2_hat_degree"]


    def test_residue_generators_match_the_elimination_oracle(self, rng):
        """The residue generators read off the certified dual equal those
        that F2 elimination extracts from the kernel rows mod 2, over a
        seeded population of all three cases, non-free codes and
        2-torsion mixing polynomials (primal and dual) included; the
        closed-form dual, where it applies, gives the same ones."""
        seen = {"i": 0, "ii": 0, "iii": 0, "non-free": 0, "closed-form": 0,
                "2-torsion l": 0, "2-torsion l_hat": 0}
        for _ in range(300):
            c = random_code(rng, max_size=2 ** 16)
            K, brep = dual.dual_brute_force(c)
            expected = residue_generators_by_elimination(K, c.r, c.s)
            duals = [brep.dual]
            if c.is_free:
                try:
                    duals.append(dual.dual_free(c).dual)
                    seen["closed-form"] += 1
                except (NotFree, NotInvertible):
                    pass
            for d in duals:
                chk = dual.residue_dual_check(c, K, d)
                assert (chk.F1bar_hat, chk.lbar_hat, chk.F2bar_hat) == expected, \
                    spec_dict(c)
                assert chk.checks["right_projection_generated"]
            seen[c.case] += 1
            seen["non-free"] += not c.is_free
            for name, l in (("2-torsion l", c.l), ("2-torsion l_hat", brep.dual.l)):
                seen[name] += l != () and zp.reduce_mod2(l) == ()
        assert min(seen.values()) >= 20, seen

    def test_right_projection_disagreement_is_a_finding(self):
        # the kernel of the full space is zero, so its right blocks
        # generate x^9+1, while the (3,9) pair's dual has f2_hat = x+3
        c = pair_3_9()
        _, brep = dual.dual_brute_force(c)
        K, _ = dual.dual_brute_force(
            validate(3, 9, f1=(1,), g1=(1,), f2=(1,), g2=(1,)))
        chk = dual.residue_dual_check(c, K, brep.dual)
        assert chk.F2bar_hat == fp.xn_plus_1(9)
        assert not chk.checks["right_projection_generated"]
        assert not chk.all_ok()


class TestProjections:
    def test_reference_projection_sizes(self):
        c = pair_3_9()
        assert epsilon(c) == 2
        G = generator_matrix(c)
        assert projection_size(G, range(3)) == 4 ** 3
        assert projection_size(G, range(3, 12)) == 4 ** 3
        K, _ = dual.dual_brute_force(c)
        assert projection_size(K, range(3)) == 4 ** 2
        assert projection_size(K, range(3, 12)) == 4 ** 8

    def test_zero_mixing_decouples(self):
        c = validate(3, 9, f1=parse("x^2+x+1"), g1=parse("x^2+x+1"), l=(),
                     f2=parse("x^6+x^3+1"), g2=parse("x^6+x^3+1"))
        assert epsilon(c) == 0
        assert projection_size(generator_matrix(c), range(3)) == 4 ** (3 - 2)

    def test_size_and_degree_identities_free_population(self, rng):
        checked = 0
        while checked < 50:
            c = random_code(rng, free_only=True, max_size=2 ** 16,
                            r_choices=(1, 3), s_choices=(3, 5, 7))
            if not gcd_convention_faithful(c):
                continue
            checked += 1
            eps = epsilon(c)
            G = generator_matrix(c)
            left, right = range(c.r), range(c.r, c.r + c.s)
            assert projection_size(G, left) == 4 ** (c.r - c.t1 + eps)
            assert projection_size(G, right) == 4 ** (c.s - c.r1)
            K, brep = dual.dual_brute_force(c)
            assert projection_size(K, left) == 4 ** c.t1
            assert projection_size(K, right) == 4 ** (c.r1 + eps)
            # degree identities for the dual generators
            d = brep.dual
            dbar = fp.gcd(zp.reduce_mod2(c.F1), zp.reduce_mod2(c.l)) \
                if (zp.reduce_mod2(c.F1) or zp.reduce_mod2(c.l)) \
                else fp.xn_plus_1(c.r)
            assert zp.degree(d.f1) == c.r - fp.degree(dbar)
            F2bar_hat_deg = c.s - zp.degree(c.f2) - zp.degree(c.f1) \
                + fp.degree(dbar)
            assert zp.degree(d.f2) == F2bar_hat_deg
