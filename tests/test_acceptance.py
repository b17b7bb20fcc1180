"""Acceptance gate: every criterion at its stated tolerance and budget.

Run with -s to see one PASS line per criterion.  All arithmetic is
exact; every tolerance here is zero and every time budget comes from
the criterion list.
"""

import random
import time
from itertools import product

from conftest import (
    all_polys,
    code_vector,
    codewords,
    epsilon,
    gcd_convention_faithful,
    gray_inverse,
    projection_size,
    random_code,
    span_size,
)
from z4dc import dual, f2poly, gray, linalg as la, z4poly as zp
from z4dc.code import (
    CodeVector,
    code_size,
    contains,
    from_spec_dict,
    generator_matrix,
    shift_T,
    tau,
    validate,
)
from z4dc.errors import NotFree, NotInvertible
from z4dc.reference import REFERENCE_CASES
from z4dc.search import divisor_lattice, search


def _case(i):
    return next(c for c in REFERENCE_CASES if c["id"] == i)


def _timed(budget, label):
    class Timer:
        def __enter__(self):
            self.t0 = time.perf_counter()
            return self

        def __exit__(self, *exc):
            if exc[0] is None:
                elapsed = time.perf_counter() - self.t0
                assert elapsed < budget, \
                    f"{label} took {elapsed:.2f}s, budget {budget}s"
                print(f"PASS {label} ({elapsed:.2f}s)")
            return False

    return Timer()


def test_criterion_1_kerdock_16_256_6():
    case = _case(1)
    with _timed(1.0, "criterion 1: (1,7) code -> (16, 2^8, 6), exact "
                     "enumerator, nonlinear with XOR witness"):
        c = from_spec_dict(case["spec"])
        assert code_size(c) == 256
        enum = gray.lee_enumerator(c)
        assert enum.counts == case["lee_counts"]
        assert enum.min_nonzero_weight() == 6
        params = gray.gray_image_params(c)
        assert (params.n, params.M, params.d) == (16, 256, 6)
        assert params.linear_image is False and params.witness is not None
        u, v = params.witness
        x = tuple(a ^ b for a, b in zip(u, v))
        assert not contains(c, code_vector(gray_inverse(x), 1))


def test_criterion_2_code_32_1024_12():
    case = _case(4)
    with _timed(1.0, "criterion 2: (1,15) code -> (32, 2^10, 12), exact "
                     "enumerator"):
        c = from_spec_dict(case["spec"])
        params = gray.gray_image_params(c)
        assert (params.n, params.M, params.d) == (32, 1024, 12)
        assert gray.lee_enumerator(c).counts == case["lee_counts"]


def test_criterion_3_code_132_2p14_56():
    case = _case(3)
    with _timed(5.0, "criterion 3: (3,63) code -> size 4^7, d = 56, full "
                     "11-term enumerator"):
        c = from_spec_dict(case["spec"])
        assert code_size(c) == 4 ** 7
        enum = gray.lee_enumerator(c)
        assert enum.counts == case["lee_counts"]
        assert sum(enum.counts.values()) == 16384
        assert enum.min_nonzero_weight() == 56


def test_criterion_4_code_48_2p24_12():
    case = _case(2)
    with _timed(300.0, "criterion 4: (1,23) code -> (48, 2^24, 12), full "
                       "enumerator, bit-identical under sharding"):
        c = from_spec_dict(case["spec"])
        assert code_size(c) == 2 ** 24
        enum = gray.lee_enumerator(c)
        assert enum.counts == case["lee_counts"]
        assert sum(enum.counts.values()) == 16777216
        assert enum.min_nonzero_weight() == 12
        sharded = gray.lee_enumerator(c, jobs=2)
        assert sharded.counts == enum.counts


def test_criterion_5_dual_closed_form():
    case = _case(5)
    with _timed(1.0, "criterion 5: (3,9) free dual: F1_hat = 0, "
                     "F2_hat* = x+3, nu = x+1, l_hat = 3x^2+1, "
                     "|dual| = 4^8, span = kernel"):
        c = from_spec_dict(case["spec"])
        rep = dual.dual_free(c)
        assert rep.F1_hat_star == ()  # vanishing dual left generator
        assert rep.F2_hat_star == (3, 1)  # x+3
        assert rep.nu == (1, 1)  # x+1
        assert rep.l_hat == (1, 0, 3)  # 3x^2+1
        assert code_size(rep.dual) == 4 ** 8
        K, _ = dual.dual_brute_force(c)
        assert la.span_equal(generator_matrix(rep.dual), K)


class TestCriterion6Properties:
    def test_sizes_three_ways(self):
        rng = random.Random(601)
        with _timed(120.0, "criterion 6a: size formula = enumeration "
                           "cardinality = Howell span size (220 trials)"):
            for _ in range(220):
                c = random_code(rng, max_size=2 ** 12)
                size = code_size(c)
                words = {v.concat() for v in codewords(c)}
                assert len(words) == size
                assert span_size(la.howell(generator_matrix(c))) == size

    def test_minimality(self):
        rng = random.Random(602)
        with _timed(120.0, "criterion 6b: generating-set minimality <=> "
                           "module type matches the degree data "
                           "(220 trials; see ledger for the documented "
                           "counterexample class)"):
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
                    span_size(la.howell(
                        la.MatZ4(G.rows[:i] + G.rows[i + 1:], G.ncols))) < full
                    for i in range(len(G.rows)))
                assert minimal == type_ok
                matched += type_ok
            assert matched >= 200

    def test_duality_cardinality_and_closure(self):
        rng = random.Random(603)
        with _timed(120.0, "criterion 6c: |C| * |C-dual| = 4^(r+s) and the "
                           "dual is shift-closed (200 trials)"):
            for _ in range(200):
                c = random_code(rng, r_choices=(1, 3, 5),
                                s_choices=(1, 3, 5, 7), max_size=2 ** 16)
                K, _ = dual.dual_brute_force(c)
                h = la.howell(K)
                assert code_size(c) * span_size(h) == 4 ** (c.r + c.s)
                for row in K.rows:
                    v = shift_T(CodeVector(row[:c.r], row[c.r:]))
                    assert la.membership(h, v.concat())

    def test_pairing_equivalence(self):
        rng = random.Random(604)
        with _timed(120.0, "criterion 6d: pairing = 0 <=> orthogonal under "
                           "all shifts, (r,s) in {(1,3),(3,3),(1,7),(3,9)}, "
                           "220 trials each"):
            for r, s in [(1, 3), (3, 3), (1, 7), (3, 9)]:
                for _ in range(220):
                    u = CodeVector(tuple(rng.randrange(4) for _ in range(r)),
                                   tuple(rng.randrange(4) for _ in range(s)))
                    v = CodeVector(tuple(rng.randrange(4) for _ in range(r)),
                                   tuple(rng.randrange(4) for _ in range(s)))
                    assert dual.orthogonal_all_shifts(u, v) == \
                        (dual.phi_map(tau(u), tau(v), r, s) == ())

    def test_gray_distance_preservation(self):
        rng = random.Random(605)
        with _timed(60.0, "criterion 6e: Lee distance = Hamming distance of "
                          "Gray images, exact, 250 trials"):
            for _ in range(250):
                n = rng.randrange(1, 65)
                u = tuple(rng.randrange(4) for _ in range(n))
                v = tuple(rng.randrange(4) for _ in range(n))
                hamming = sum(a != b for a, b in
                              zip(gray.gray_map(u), gray.gray_map(v)))
                assert gray.lee_weight([a - b for a, b in zip(u, v)]) == hamming

    def test_hensel_lift_properties(self):
        with _timed(60.0, "criterion 6f: Hensel lifts reduce correctly, "
                          "divide x^n-1, and are unique (n <= 9, all "
                          "divisors)"):
            trials = 0
            for n in (1, 3, 5, 7, 9):
                factors = sorted(f2poly.factor_cyclic(n))
                for bits in product((0, 1), repeat=len(factors)):
                    fbar = f2poly.ONE
                    for b, p in zip(bits, factors):
                        if b:
                            fbar = f2poly.mul(fbar, p)
                    h = zp.hensel_lift(fbar, n)
                    assert zp.reduce_mod2(h) == fbar
                    assert zp.divmod_monic(zp.xn_minus_1(n), h)[1] == ()
                    matches = set()
                    for e in all_polys(zp.degree(h), alphabet=2):
                        cand = zp.add(zp.lift_mod2(fbar), zp.scale(2, e))
                        if zp.is_monic(cand) and \
                                zp.divmod_monic(zp.xn_minus_1(n), cand)[1] == ():
                            matches.add(cand)
                    assert matches == {h}
                    trials += 1
            assert trials >= 2 + 4 + 4 + 8 + 8

    def test_free_dual_closed_form_population(self):
        rng = random.Random(606)
        budget = _timed(
            180.0, "criterion 6g+6h: free closed-form dual = kernel dual "
                   "over the n in {3,7,9,15} divisor lattices, plus the "
                   "projection size and degree identities")
        with budget:
            lengths = (3, 7, 9, 15)
            lattices = {n: divisor_lattice(n) for n in lengths}
            successes = fallbacks = identity_checks = 0
            for r in lengths:
                for s in lengths:
                    for f1 in lattices[r]:
                        for f2 in lattices[s]:
                            ls = [(), (1,)]
                            ls.append(zp.canon(
                                rng.randrange(4)
                                for _ in range(max(zp.degree(f1), 1))))
                            for l in ls:
                                try:
                                    c = validate(r, s, f1=f1, g1=f1, l=l,
                                                 f2=f2, g2=g2_of(f2))
                                except Exception:
                                    continue
                                try:
                                    rep = dual.dual_free(c)
                                except (NotFree, NotInvertible):
                                    fallbacks += 1
                                    K, brep = dual.dual_brute_force(c)
                                    assert code_size(brep.dual) * \
                                        code_size(c) == 4 ** (r + s)
                                    continue
                                successes += 1
                                # rep.kernel is the dual's own Howell
                                # form; the kernel is computed afresh
                                K = la.kernel(generator_matrix(c))
                                assert rep.kernel.rows == K.rows
                                assert la.span_equal(
                                    generator_matrix(rep.dual), K)
                                if gcd_convention_faithful(c):
                                    eps = epsilon(c)
                                    G = generator_matrix(c)
                                    left = range(c.r)
                                    right = range(c.r, c.r + c.s)
                                    assert projection_size(G, left) == \
                                        4 ** (c.r - c.t1 + eps)
                                    assert projection_size(G, right) == \
                                        4 ** (c.s - c.r1)
                                    assert projection_size(K, left) == \
                                        4 ** c.t1
                                    assert projection_size(K, right) == \
                                        4 ** (c.r1 + eps)
                                    d = rep.dual
                                    dbar = f2poly.gcd(
                                        zp.reduce_mod2(c.F1),
                                        zp.reduce_mod2(c.l)) \
                                        if (zp.reduce_mod2(c.F1)
                                            or zp.reduce_mod2(c.l)) \
                                        else f2poly.xn_plus_1(c.r)
                                    assert zp.degree(d.f1) == \
                                        c.r - f2poly.degree(dbar)
                                    assert zp.degree(d.f2) == \
                                        c.s - c.r1 - c.t1 + f2poly.degree(dbar)
                                    identity_checks += 1
            assert successes >= 200, successes
            assert identity_checks >= 200, identity_checks


def g2_of(f2):
    return f2


def test_criterion_7_search_rediscovery():
    with _timed(120.0, "criterion 7a: search(1,7) rediscovers (16, 256, 6) "
                       "with sound re-validation"):
        rep = search(1, 7, forms=("ii",))
        assert any((r.n, r.M, r.d) == (16, 256, 6) for r in rep.results)
        for res in rep.results:
            c = from_spec_dict(res.spec)
            assert code_size(c) == res.M
            assert gray.lee_enumerator(c).min_nonzero_weight() == res.d
    with _timed(120.0, "criterion 7b: search(1,15) rediscovers "
                       "(32, 1024, 12) with sound re-validation"):
        rep = search(1, 15, forms=("ii",))
        assert any((r.n, r.M, r.d) == (32, 1024, 12) for r in rep.results)
        for res in rep.results:
            c = from_spec_dict(res.spec)
            assert code_size(c) == res.M
