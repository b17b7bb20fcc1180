"""Duality: the pairing, the theorem dual against the kernel oracle, the
free closed form, residue relations, and projections."""

import math
import time
from collections import Counter

import pytest

from conftest import (
    divisor_lattice_of,
    epsilon,
    gcd_convention_faithful,
    projection_size,
    random_code,
    random_poly,
    residue_generators_by_elimination,
    shaped_code,
    span_size,
)
from z4dc import dual, linalg as la, z4poly as zp, f2poly as fp
from z4dc.code import (
    CodeVector,
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
    DimensionMismatch,
    InvalidInput,
    Z4DCError,
)
from z4dc.polytext import parse


def quintuple(c):
    return c.f1, c.g1, c.l, c.f2, c.g2


def refuse(*args, **kwargs):
    raise AssertionError("the dual reached the kernel route")


def theorem_dual(c, monkeypatch):
    """dual_report(c, "auto") with linalg.kernel and dual_brute_force
    refusing, so the report cannot come from the kernel."""
    with monkeypatch.context() as m:
        m.setattr(la, "kernel", refuse)
        m.setattr(dual, "dual_brute_force", refuse)
        return dual.dual_report(c, method="auto")


def assert_oracle_dual(c, rep):
    """rep is the kernel oracle's dual of c, with its Howell form as the
    kernel rows and nu * h1 = reciprocal(l_hat) exactly."""
    K, brep = dual.dual_brute_force(c, cap=c.r + c.s)
    assert quintuple(rep.dual) == quintuple(brep.dual), spec_dict(c)
    assert rep.kernel.rows == K.rows
    assert zp.mul(rep.nu, c.h1) == (zp.reciprocal(rep.l_hat) if rep.l_hat else ())


def pair_3_9():
    return validate(3, 9, f1=parse("x^2+x+1"), g1=parse("x^2+x+1"),
                    l=parse("x+1"), f2=parse("x^6+x^3+1"),
                    g2=parse("x^6+x^3+1"))


# block lengths for the pairing tests; the last four have lcm(r, s)
# well past r + s
PAIRING_LENGTHS = [(1, 3), (3, 3), (1, 7), (3, 9), (3, 5),
                   (5, 7), (7, 9), (15, 7), (9, 15)]


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

    @pytest.mark.parametrize("r, s", [(3, 2), (2, 3)])
    def test_dimension_mismatch(self, r, s):
        with pytest.raises(DimensionMismatch):
            dual.inner_product(CodeVector((1, 2), (3, 0)),
                               CodeVector((1,) * r, (1,) * s))


class TestPhiMap:
    def test_zero_first_argument(self):
        assert dual.phi_map(((), ()), ((1, 1), (1,)), 3, 3) == ()

    def test_shift_sum_identity(self, rng):
        # With S_i = <c1, T^i c2>, the pairing as defined evaluates to
        # sum_i S_i x^((i-1) mod k): the x-exponents run opposite to the
        # shift index (up to the common x^-1), so it vanishes exactly
        # when every S_i does.  Checked by brute force over the shifts.
        for _ in range(200):
            r, s = rng.choice(PAIRING_LENGTHS)
            k = math.lcm(r, s)
            u, v = random_vector(rng, r, s), random_vector(rng, r, s)
            expected = [0] * k
            w = v
            for i in range(k):
                expected[(i - 1) % k] = \
                    (expected[(i - 1) % k] + dual.inner_product(u, w)) % 4
                w = shift_T(w)
            assert dual.phi_map(tau(u), tau(v), r, s) == zp.canon(expected)

    def test_unreduced_components_pair_as_their_reductions(self, rng):
        # a component of degree k or more pairs as its reduction mod x^n-1
        assert dual.phi_map(((1,), ()), ((0, 0, 0, 1), ()), 3, 3) == (0, 0, 1)
        for _ in range(100):
            r, s = rng.choice(PAIRING_LENGTHS)
            k = math.lcm(r, s)
            c1, c2 = ((tuple(rng.randrange(4) for _ in range(rng.randrange(3 * k))),
                       tuple(rng.randrange(4) for _ in range(rng.randrange(3 * k))))
                      for _ in range(2))
            reduced = [(zp.mod_cyclic(p, r), zp.mod_cyclic(q, s)) for p, q in (c1, c2)]
            assert dual.phi_map(c1, c2, r, s) == dual.phi_map(*reduced, r, s)

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

    @pytest.mark.parametrize("r,s", PAIRING_LENGTHS)
    def test_equivalence_with_phi(self, rng, r, s):
        for i in range(220):
            u, v = random_vector(rng, r, s), random_vector(rng, r, s)
            if i % 2:  # vectors of even entries are orthogonal throughout
                u, v = (CodeVector(tuple(2 * a % 4 for a in w.left),
                                   tuple(2 * a % 4 for a in w.right)) for w in (u, v))
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
            assert la.howell(generator_matrix(rep.dual)).matrix.rows == K.rows
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
        # a non-free code takes the residue factors, as the oracle says
        c = validate(3, 3, f1=parse("x^3+3"), g1=(1,), f2=(1,), g2=(1,))
        rep = dual.dual_free(c)
        assert rep.method == "residue-factors"
        assert_oracle_dual(c, rep)

    def test_reference_kernel_rows_equal_the_kernel(self):
        # the report's kernel is the dual's own Howell form; the kernel
        # of the primal generator matrix, computed afresh, is a Howell
        # form too, and both are canonical, so equal spans are equal rows
        c = pair_3_9()
        rep = dual.dual_report(c)
        assert rep.kernel == la.kernel(generator_matrix(c))

    def test_non_free_code_at_511_equals_the_kernel_dual(self):
        # a large non-free code: the theorem factors x^511-1 and forms
        # products of degree about 511
        c = from_spec_dict({"r": 511, "s": 511, "f1": "x+3", "g1": "1",
                            "f2": "x+3", "g2": "x+3"})
        rep = dual.dual_free(c)
        assert rep.method == "residue-factors"
        assert rep.dual == dual.dual_brute_force(c, cap=1022)[1].dual

    def test_kernel_is_built_on_first_read(self, monkeypatch):
        # the closed form builds no Howell form; the report's first read
        # of kernel builds the dual's, which is the kernel oracle's, and
        # a second read reuses it
        calls = []
        howell = la.howell

        def counted(m):
            calls.append(m)
            return howell(m)

        c = pair_3_9()
        monkeypatch.setattr(la, "howell", counted)
        rep = dual.dual_free(c)
        assert rep.method == "free-closed-form" and not calls
        first = rep.kernel
        assert len(calls) == 1
        assert rep.kernel is first and len(calls) == 1
        monkeypatch.undo()
        assert first == dual.dual_brute_force(c)[0]

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

    def test_two_torsion_mixing_gets_the_kernel_dual(self):
        # the residue-gcd convention cannot see a 2-torsion l, and the
        # dual is not free; the residue factors give it exactly
        c = validate(3, 3, f1=parse("x+3"), g1=parse("x+3"), l=(2,),
                     f2=parse("x^2+x+1"), g2=parse("x^2+x+1"))
        rep = dual.dual_free(c)
        K, brep = dual.dual_brute_force(c)
        assert rep.method == "free-residue-factors"
        assert quintuple(rep.dual) == quintuple(brep.dual)
        assert not rep.dual.is_free
        assert rep.kernel.rows == K.rows

    def test_population_matches_the_kernel_dual(self, rng):
        # every valid free code of these lattices gets the kernel route's
        # quintuple, most of them by the closed form
        from z4dc.search import divisor_lattice

        methods = Counter()
        pairs = [(3, 3), (3, 9), (9, 3), (3, 7), (7, 3), (3, 15), (15, 3)]
        for r, s in pairs:
            for f1 in divisor_lattice(r):
                for f2 in divisor_lattice(s):
                    ls = {(), (1,)}
                    ls.add(tuple(rng.randrange(4) for _ in
                                 range(max(zp.degree(f1), 1))))
                    for l in sorted(zp.canon(x) for x in ls):
                        try:
                            c = validate(r, s, f1=f1, g1=f1, l=l,
                                         f2=f2, g2=f2)
                        except Z4DCError:
                            continue
                        rep = dual.dual_free(c)
                        K, brep = dual.dual_brute_force(c)
                        assert quintuple(rep.dual) == quintuple(brep.dual), spec_dict(c)
                        assert rep.kernel.rows == K.rows
                        methods[rep.method] += 1
        assert methods["free-closed-form"] >= 200, methods
        assert methods["free-closed-form"] > 3 * methods["free-residue-factors"] > 0


def test_closed_form_divisions_are_exact_on_valid_free_codes(rng):
    """F2_hat* = (x^s-1)/(f2*m) and rho = iota(T)/(h1*d) divide exactly
    on every valid free code that the closed form takes (the dual_free
    docstring gives the reason), so dual_free raises no
    InternalCheckFailed; lengths with common residue factors
    (gcd(r, s) > 1) are the ones the argument needs."""
    lengths = (1, 3, 5, 7, 9, 15, 21)
    divided = shared = 0
    for _ in range(400):
        c = random_code(rng, r_choices=lengths, s_choices=lengths,
                        free_only=True)
        rep = dual.dual_free(c)
        reached = rep.method == "free-closed-form"
        assert reached == gcd_convention_faithful(c)
        divided += reached
        shared += reached and c.l != () and math.gcd(c.r, c.s) > 1
    assert divided >= 300 and shared >= 25, (divided, shared)


def test_closed_form_kernel_rows_equal_the_kernel(rng):
    """The closed form reads kernel_rows off the dual's Howell form; over
    a seeded free population they equal the kernel of the primal
    generator matrix, computed independently."""
    for _ in range(150):
        c = random_code(rng, r_choices=(1, 3, 5, 7, 9),
                        s_choices=(1, 3, 5, 7, 9), free_only=True)
        rep = dual.dual_free(c)
        assert rep.kernel.rows == la.kernel(generator_matrix(c)).rows


def test_auto_dual_of_every_free_shape_is_the_kernel_dual(rng, monkeypatch):
    """Over seeded free codes of the shapes the closed form once missed,
    dual_report(auto) computes no kernel and returns dual_brute_force's
    quintuple.  l is a random polynomial, twice one (2-torsion), or
    d*a + 2b for a divisor d of f1: a unit or twice one at each factor
    of f1, so it validates only when f1 divides (x^s-1)/f2, and often d
    divides it mod 2 but not over Z4."""
    lengths = (1, 3, 5, 7, 9, 15, 21)
    seen = Counter()
    while seen["codes"] < 400:
        r = rng.choice(lengths)
        f1 = rng.choice(divisor_lattice_of(r))
        a, b = random_poly(rng, r - 1), random_poly(rng, r - 1)
        kind = rng.randrange(3)
        if kind < 2:
            s = rng.choice(lengths)
            f2 = rng.choice(divisor_lattice_of(s))
            l = zp.scale(1 + kind, a)
        else:
            s = rng.choice([n for n in lengths if n % r == 0])
            f2 = rng.choice([q for q in divisor_lattice_of(s) if zp.divides(
                f1, zp.exact_div(zp.xn_minus_1(s), q))])
            d = rng.choice([q for q in divisor_lattice_of(r) if zp.divides(q, f1)])
            l = zp.add(zp.mul(d, a), zp.scale(2, b))
        try:
            c = validate(r, s, f1=f1, g1=f1, l=l, f2=f2, g2=f2)
        except Z4DCError:
            continue
        rep = theorem_dual(c, monkeypatch)
        assert_oracle_dual(c, rep)
        two_torsion = c.l != () and zp.reduce_mod2(c.l) == ()
        seen.update({"codes": 1, "g > 1": c.l != () and math.gcd(r, s) > 1,
                     "2-torsion l": two_torsion,
                     "d does not divide l": not two_torsion
                     and not gcd_convention_faithful(c),
                     "r != s": r != s, "r or s = 1": 1 in (r, s), rep.method: 1})
    assert min(seen.values()) >= 25 and len(seen) == 8, seen


def test_auto_dual_of_every_code_is_the_kernel_dual(rng, monkeypatch):
    """The oracle of the one dual route: over seeded shaped codes, each
    residue factor of each side full, 2-torsion or zero at random, so
    non-free codes of all three cases, dual_report(auto) computes no
    kernel and returns dual_brute_force's quintuple and kernel rows,
    with nu * h1 = reciprocal(l_hat) exactly."""
    lengths = (1, 3, 5, 7, 9, 15, 21)
    seen = Counter()
    for _ in range(800):
        r, s = rng.choice(lengths), rng.choice(lengths)
        c = shaped_code(rng, r, s, max_bits=2 * (r + s))
        rep = theorem_dual(c, monkeypatch)
        assert_oracle_dual(c, rep)
        seen.update({f"non-free {c.case}": not c.is_free,
                     "2-torsion l": c.l != () and zp.reduce_mod2(c.l) == (),
                     "g > 1": math.gcd(r, s) > 1, "r != s": r != s,
                     "r or s = 1": 1 in (r, s), rep.method: 1})
    assert min(seen.values()) >= 5 and len(seen) == 10, seen


class TestDualReportDispatch:
    def test_auto_prefers_free(self):
        rep = dual.dual_report(pair_3_9(), method="auto")
        assert rep.method == "free-closed-form"

    def test_coprime_lengths_past_the_kernel_cap(self):
        # k = lcm(255, 257) = 65535; the per-block pairing keeps the
        # closed form well inside the budget
        f2 = "x^16+2x^14+3x^12+3x^11+3x^8+3x^5+3x^4+2x^2+1"
        c = from_spec_dict({"r": 255, "s": 257, "f1": "x+3", "g1": "x+3",
                            "l": "1", "f2": f2, "g2": f2})
        t0 = time.perf_counter()
        rep = dual.dual_report(c)
        elapsed = time.perf_counter() - t0
        assert elapsed < 2.0, f"dual_report took {elapsed:.2f}s, budget 2s"
        assert rep.method == "free-closed-form"
        assert code_size(c) * code_size(rep.dual) == 4 ** (255 + 257)
        assert span_size(la.howell(rep.kernel)) == code_size(rep.dual)

    def test_kernel_rows_within_the_entry_bound(self):
        # the whole space's Howell form has r+s rows of r+s entries: built
        # up to r+s = 1024 and not past it, while a thin dual past it
        # still gets its rows
        for spec, rows in (({"r": 1023, "s": 1}, 1024), ({"r": 1025, "s": 1}, None),
                           ({"r": 1025, "s": 1, "f1": "x+3", "g1": "x+3",
                             "f2": "1", "g2": "1"}, 1)):
            rep = dual.dual_report(from_spec_dict(spec))
            got = None if rep.kernel is None else len(rep.kernel.rows)
            assert got == rows, spec
            assert ("kernel_rows" in rep.to_json()) == (rows is not None)

    def test_auto_falls_back(self, monkeypatch):
        # a non-free code once fell back to the kernel; now the theorem
        # gives its dual, and the kernel is only the oracle
        c = validate(3, 3, f1=parse("x^3+3"), g1=(1,), f2=(1,), g2=(1,))
        rep = theorem_dual(c, monkeypatch)
        assert rep.method == "residue-factors"
        assert_oracle_dual(c, rep)

    def test_unknown_method_is_invalid_input(self):
        with pytest.raises(InvalidInput, match="unknown dual method 'x'"):
            dual.dual_report(pair_3_9(), method="x")
        # the removed routes are unknown methods too
        for method in ("free", "brute"):
            with pytest.raises(InvalidInput):
                dual.dual_report(pair_3_9(), method=method)

    def test_methods_agree(self, rng, monkeypatch):
        # every code, free or not, gets the oracle's dual from auto
        free = 0
        for _ in range(40):
            c = random_code(rng, max_size=2 ** 16)
            assert_oracle_dual(c, theorem_dual(c, monkeypatch))
            free += c.is_free
        assert 5 <= free <= 35, free


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

    def test_dense_free_code_at_1023(self):
        # its witness products have degree about 2n; the dual is past
        # the kernel-row bound
        q = zp.exact_div(zp.xn_minus_1(1023), parse("x+3"))
        c = validate(1023, 1023, q, q, None, q, q)
        rep = dual.dual_report(c)
        assert rep.kernel is None
        assert dual.residue_dual_check(c, dual_code=rep.dual).all_ok()

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
                rep = dual.dual_free(c)
                duals.append(rep.dual)
                seen["closed-form"] += rep.method == "free-closed-form"
            for d in duals:
                chk = dual.residue_dual_check(c, K, dual_code=d)
                assert (chk.F1bar_hat, chk.lbar_hat, chk.F2bar_hat) == expected, \
                    spec_dict(c)
            seen[c.case] += 1
            seen["non-free"] += not c.is_free
            for name, l in (("2-torsion l", c.l), ("2-torsion l_hat", brep.dual.l)):
                seen[name] += l != () and zp.reduce_mod2(l) == ()
        assert min(seen.values()) >= 20, seen

    def test_dual_span_is_not_read(self, rng):
        # the rows passed second change no finding: neither the dual's
        # own kernel nor the full space's (zero) kernel, whose right
        # blocks would generate x^9+1 where the (3,9) pair's dual has
        # f2_hat = x+3
        full, _ = dual.dual_brute_force(
            validate(3, 9, f1=(1,), g1=(1,), f2=(1,), g2=(1,)))
        assert not any(any(row) for row in full.rows)
        c = pair_3_9()
        chk = dual.residue_dual_check(c, full, dual_code=dual.dual_free(c).dual)
        assert chk.all_ok() and fp.canon(reversed(chk.F2bar_hat)) == (1, 1)
        for c in [c] + [random_code(rng, max_size=2 ** 16) for _ in range(30)]:
            K, brep = dual.dual_brute_force(c)
            want = dual.residue_dual_check(c, dual_code=brep.dual)
            for span in (K, full):
                assert dual.residue_dual_check(c, span, dual_code=brep.dual) == want


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
