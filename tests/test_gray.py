"""Lee metric, Gray map, enumerators, and Gray-image parameters."""

import itertools
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    bits_to_int,
    code_vector,
    divisor_lattice_of,
    gray_image_is_linear,
    gray_image_words,
    gray_inverse,
    naive_mod_cyclic,
    naive_mul,
    random_code,
    shaped_code,
)
from z4dc import code, dual, gray, linalg, search as search_module, z4poly
from z4dc.code import code_size, contains, validate
from z4dc.dual import dual_report
from z4dc.errors import (
    EnumerationCapExceeded,
    InternalCheckFailed,
    Z4DCError,
    ZeroCode,
)
from z4dc.polytext import parse
from z4dc.reference import REFERENCE_CASES
from z4dc.search import search


def kerdock():
    return validate(1, 7, l=(1,), f2=parse("x^3+2x^2+x+3"),
                    g2=parse("x^3+2x^2+x+3"))


def code_32_1024_12():
    f2 = parse("x^10+x^9+3x^8+3x^6+3x^5+2x^3+x^2+2x+1")
    return validate(1, 15, l=(1,), f2=f2, g2=f2)


class TestSymbolTables:
    def test_lee_weights(self):
        assert [gray.lee_weight((a,)) for a in range(4)] == [0, 1, 2, 1]

    def test_gray_pairs(self):
        assert gray.gray_map((0,)) == (0, 0)
        assert gray.gray_map((1,)) == (0, 1)
        assert gray.gray_map((2,)) == (1, 1)
        assert gray.gray_map((3,)) == (1, 0)

    def test_gray_vectors(self):
        assert gray.gray_map((0, 0)) == (0, 0, 0, 0)
        assert gray.gray_map((1, 3)) == (0, 1, 1, 0)

    def test_gray_inverse_round_trip(self, rng):
        for _ in range(100):
            v = tuple(rng.randrange(4) for _ in range(rng.randrange(1, 20)))
            assert gray_inverse(gray.gray_map(v)) == v


class TestWeightsAndDistances:
    def test_zero_weight(self):
        assert gray.lee_weight((0,) * 9) == 0

    def test_generator_row_weight(self):
        # first row of the (1,7) reference generator matrix
        assert gray.lee_weight((1, 1, 3, 2, 3, 0, 0, 0)) == 6

    def test_distance_preservation_exact(self, rng):
        for _ in range(250):
            n = rng.randrange(1, 65)
            u = tuple(rng.randrange(4) for _ in range(n))
            v = tuple(rng.randrange(4) for _ in range(n))
            hamming = sum(a != b for a, b in
                          zip(gray.gray_map(u), gray.gray_map(v)))
            assert gray.lee_weight([a - b for a, b in zip(u, v)]) == hamming

    def test_negation_invariance(self, rng):
        for _ in range(200):
            v = tuple(rng.randrange(4) for _ in range(rng.randrange(1, 30)))
            assert gray.lee_weight(v) == gray.lee_weight(tuple((-x) % 4 for x in v))


class TestLeeEnumerator:
    def test_reference_1_15(self):
        enum = gray.lee_enumerator(code_32_1024_12())
        assert enum.counts == {0: 1, 12: 240, 16: 542, 20: 240, 32: 1}

    def test_zero_code(self):
        enum = gray.lee_enumerator(validate(3, 5))
        assert enum.counts == {0: 1}
        with pytest.raises(ZeroCode):
            enum.min_nonzero_weight()

    def test_mass_equals_size(self, rng):
        for _ in range(60):
            c = random_code(rng, max_size=2 ** 12)
            assert gray.lee_enumerator(c).total() == code_size(c)

    def test_cap(self):
        with pytest.raises(EnumerationCapExceeded):
            gray.lee_enumerator(kerdock(), cap=100)

    @pytest.mark.parametrize("entry", [
        gray.lee_enumerator,
        lambda c: next(gray.gray_words(c)),
    ], ids=["lee_enumerator", "gray_words"])
    def test_cap_names_a_huge_size_exactly(self, entry):
        # |C| = 4^7151 has 4306 digits, past Python's default int-to-string
        # limit; the message names it as the power of two it is
        c = code.from_spec_dict({"r": 7151, "s": 1, "f1": "1", "g1": "1"})
        with pytest.raises(EnumerationCapExceeded,
                           match=r"^code size 2\^14302 exceeds cap 67108864$"):
            entry(c)

    def test_jobs_bit_identical(self):
        c = code_32_1024_12()
        assert gray.lee_enumerator(c, jobs=1).counts == \
            gray.lee_enumerator(c, jobs=3).counts

    def test_min_distance_is_smallest_nonzero_key(self, rng):
        for _ in range(40):
            c = random_code(rng, max_size=2 ** 10)
            if code_size(c) == 1:
                continue
            enum = gray.lee_enumerator(c)
            assert enum.min_nonzero_weight() == \
                min(w for w in enum.counts if w > 0)


def histogram(c, jobs=1):
    """The Lee histogram of c by enumerating c itself."""
    return gray._lee_histogram(*code.enumeration_basis(c), c.r + c.s, jobs)


def direct_counts(c, jobs=1):
    """The Lee enumerator of c by enumerating c itself."""
    return {w: int(n) for w, n in enumerate(histogram(c, jobs)) if n}


def kernel_rows(c):
    return linalg.kernel(code.generator_matrix(c)).rows


def glue_bases(c):
    """The (rows, radices) of the glue route's left and right engines,
    from the Howell form of the rows (kappa(a) | b | a), kappa(a) =
    a * annihilator(F1) multiplied longhand row by row: the glue rows
    (pivot in kappa) first, then the C_L0 rows (pivot in a) on the
    left and the C_R0 rows (pivot in b) on the right."""
    r, s = c.r, c.s
    star = code.annihilator(c.f1, c.g1, r)
    rows = tuple(code.poly_to_vec(naive_mod_cyclic(naive_mul(row[:r], star), r), r)
                 + row[r:] + row[:r] for row in code.enumeration_basis(c)[0])
    h = linalg.howell(linalg.MatZ4(rows, 2 * r + s))
    glue, right, left = ([(row, 4 // p) for row, (j, p) in zip(h.matrix.rows, h.pivots)
                          if lo <= j < hi]
                         for lo, hi in ((0, r), (r, r + s), (r + s, 2 * r + s)))

    def basis(part, cols):
        return (tuple(row[cols] for row, _ in glue + part),
                tuple(radix for _, radix in glue + part))

    return basis(left, slice(r + s, None)), basis(right, slice(r, r + s))


def glue_class_count(c, engines):
    """|G| = |pi_L C| * |pi_R C| / |C| when lee_enumerator(c) built the
    two glue engines (the last two of engines), else None."""
    if len(engines) < 2 or [e[:2] for e in engines[-2:]] != list(glue_bases(c)):
        return None
    (*_, left), (*_, right) = engines[-2:]
    return (left.nblocks * left.block_size * right.nblocks * right.block_size
            // code_size(c))


@pytest.fixture
def engines(monkeypatch):
    """Every BlockEnumerator built while the test runs, as (rows,
    radices, engine)."""
    built = []
    init = code.BlockEnumerator.__init__

    def recording_init(self, rows, radices, *args, **kwargs):
        init(self, rows, radices, *args, **kwargs)
        built.append((rows, radices, self))

    monkeypatch.setattr(code.BlockEnumerator, "__init__", recording_init)
    return built


class TestMacWilliamsRoute:
    """Codes of more than DIRECT_MAX words whose dual is smaller are
    counted through the Howell rows of their kernel, C-perp; direct
    enumeration of the code is the oracle."""

    # (shapes, min_bits, max_bits, draws): r+s <= 16, so every code of
    # 2^17 words or more has the smaller dual; r+s <= 12, so every code
    # of 2^15 or 2^16 words has it too and exceeds DIRECT_MAX
    POPULATIONS = (
        (((1, 15), (15, 1), (3, 13), (13, 3), (7, 9), (9, 7), (5, 11),
          (11, 5), (3, 9), (9, 3)), 17, 20, 120),
        (((1, 7), (7, 1), (3, 9), (9, 3), (5, 7), (7, 5), (1, 9), (9, 1),
          (3, 7), (5, 5)), 15, 16, 60),
    )

    def test_population_matches_direct_enumeration(self):
        rnd = random.Random(2026)
        kinds = Counter()
        for shapes, min_bits, max_bits, draws in self.POPULATIONS:
            for _ in range(draws):
                c = shaped_code(rnd, *rnd.choice(shapes), max_bits=max_bits,
                                min_bits=min_bits)
                kinds[c.case, c.is_free] += 1
                assert gray.lee_enumerator(c).counts == direct_counts(c)
        assert set(kinds) == set(itertools.product(("i", "ii", "iii"),
                                                   (True, False)))

    def test_transform_of_the_dual_histogram_on_small_codes(self, rng):
        sides = Counter()
        for _ in range(150):
            c = random_code(rng, max_size=2 ** 12)
            size = code_size(c)
            sides[(size > 2 ** (c.r + c.s)) - (size < 2 ** (c.r + c.s))] += 1
            dual_hist = histogram(dual_report(c).dual)
            assert gray._macwilliams(dual_hist, size) == direct_counts(c)
        assert set(sides) == {-1, 0, 1}

    def test_krawtchouk_table_is_the_product_expansion(self):
        for N in (2, 8, 33):
            for L, row in enumerate(gray._krawtchouk(N)):
                poly = [1]
                for factor in [(1, 1)] * (N - L) + [(1, -1)] * L:
                    poly = [a + factor[1] * b for a, b in zip(poly + [0], [0] + poly)]
                assert list(row) == poly

    def test_sharded_dual_is_bit_identical(self, engines):
        # |C| = 2^22 with r+s = 20: the kernel has 2^18 words, four blocks
        c = shaped_code(random.Random(5), 5, 15, max_bits=22, min_bits=22)
        assert gray.lee_enumerator(c, jobs=2) == gray.lee_enumerator(c, jobs=1)
        assert gray.lee_enumerator(c).total() == 2 ** 22
        rows, _, be = engines[0]
        assert rows == kernel_rows(c)
        assert be.nblocks * be.block_size == 2 ** 18 and be.nblocks >= 4

    # route: True through the kernel, False direct, "glue" through the
    # two projections.  Glue takes the (3, 15) tie at 2^18 words (64 +
    # 4096 words), so the tie that stays direct is a case (ii) code.
    @pytest.mark.parametrize("shape, bits, route", [
        ((1, 15), 18, True),    # 2^18 words, dual of 2^14
        ((1, 17), 18, False),   # a tie: |C| = |C-perp| = 2^18
        ((1, 7), 14, False),    # dual of 2^2 words, but only DIRECT_MAX words
        ((3, 9), 15, True),     # 2^15 > DIRECT_MAX words, dual of 2^9
        ((3, 15), 18, "glue"),  # |G| = 1: 64 + 4096 words, not 2^18
        ((3, 63), 18, "glue"),  # |G| = 4: 4 * (16 + 4096) words
        ((15, 5), 20, "glue"),  # r > s: 2^18 + 4 words, not 2^20
    ])
    def test_routing(self, shape, bits, route, engines):
        c = shaped_code(random.Random(7), *shape, max_bits=bits, min_bits=bits)
        gray.lee_enumerator(c)
        expected = [code.enumeration_basis(c)]
        if route == "glue":
            expected = list(glue_bases(c))
        elif route:
            # the kernel is its own Howell form; a row of pivot p takes
            # 4 // p multiples
            h = linalg.howell(linalg.MatZ4(kernel_rows(c), c.r + c.s))
            assert h.matrix.rows == kernel_rows(c)
            expected = [(kernel_rows(c), tuple(4 // p for _, p in h.pivots))]
        assert [(rows, radices) for rows, radices, _ in engines] == expected

    def test_route_needs_no_dual_report(self, monkeypatch):
        def refuse(*args, **kwargs):
            calls.append(args)
            raise AssertionError("the Lee enumerator extracted a dual")

        calls = []
        monkeypatch.setattr(dual, "dual_report", refuse)
        monkeypatch.setattr(dual, "validate", refuse)
        c = shaped_code(random.Random(7), 1, 15, max_bits=18, min_bits=18)
        assert gray.lee_enumerator(c).counts == direct_counts(c)
        rep = search(1, 15, forms=("ii",))
        assert (32, 1024, 12) in {(res.n, res.M, res.d) for res in rep.results}
        assert calls == []

    def test_kernel_missing_a_row_fails_the_size_check(self, monkeypatch):
        kernel = linalg.kernel
        monkeypatch.setattr(linalg, "kernel",
                            lambda m: linalg.MatZ4(kernel(m).rows[1:], m.ncols))
        c = shaped_code(random.Random(7), 1, 15, max_bits=18, min_bits=18)
        with pytest.raises(InternalCheckFailed, match="A_0"):
            gray.lee_enumerator(c)

    def test_cap_is_checked_against_the_code(self):
        c = shaped_code(random.Random(7), 1, 15, max_bits=18, min_bits=18)
        with pytest.raises(EnumerationCapExceeded):
            gray.lee_enumerator(c, cap=2 ** 17)

    def test_post_check_rejects_a_wrong_dual_histogram(self):
        c = shaped_code(random.Random(7), 1, 15, max_bits=18, min_bits=18)
        dual_hist = histogram(dual_report(c).dual)
        dual_hist[2] += 1
        with pytest.raises(InternalCheckFailed):
            gray._macwilliams(dual_hist, code_size(c))


class TestGlueRoute:
    """C is the disjoint union, over G = pi_L C / C_L0, of a left coset
    times a right coset, so W = sum_g A_g * B_g; direct enumeration of C
    is the oracle."""

    SMALL_SHAPES = ((1, 7), (7, 1), (3, 9), (9, 3), (5, 5), (3, 7), (7, 3),
                    (7, 9), (3, 15), (15, 3))

    def test_forced_glue_matches_direct_enumeration(self):
        # glue on codes of up to 2^14 words, which lee_enumerator would
        # enumerate directly: every case, and blocks of many classes
        rnd = random.Random(2026)
        kinds = Counter()
        for _ in range(300):
            c = shaped_code(rnd, *rnd.choice(self.SMALL_SHAPES), max_bits=14)
            size = code_size(c)
            left, m_left, right, m_right = gray._glue_engines(c, size, 1 << 400)
            kinds["case " + c.case] += 1
            kinds["G > 1" if size > m_left * m_right else "G = 1"] += 1
            kinds["r < s" if c.r < c.s else "r > s"] += 1
            if right.block_size > m_right:
                kinds["classes per block"] += 1
            assert gray._glue_counts(left, m_left, right, m_right, size, 1) == \
                direct_counts(c)
        assert set(kinds) == {"case i", "case ii", "case iii", "G > 1", "G = 1",
                              "r < s", "r > s", "classes per block"}

    # (shapes, draws): codes of 2^15..2^20 words, past 64 symbols too
    POPULATIONS = (
        (((3, 15), (15, 3), (5, 15), (15, 5), (7, 9), (9, 7), (3, 21), (21, 3),
          (9, 9)), 60),
        (((3, 63), (63, 3)), 16),
    )

    def test_population_matches_direct_enumeration(self, engines):
        rnd = random.Random(2027)
        kinds = Counter()
        for shapes, draws in self.POPULATIONS:
            for _ in range(draws):
                c = shaped_code(rnd, *rnd.choice(shapes), max_bits=20, min_bits=15)
                engines.clear()
                assert gray.lee_enumerator(c).counts == direct_counts(c)
                n_glue = glue_class_count(c, engines[:-1])
                if n_glue is None:
                    assert len(engines) == 2
                    continue
                assert c.case == "iii"
                kinds["G > 1" if n_glue > 1 else "G = 1"] += 1
                kinds["r < s" if c.r < c.s else "r > s"] += 1
                kinds["r+s > 64" if c.r + c.s > 64 else "r+s <= 64"] += 1
        assert set(kinds) == {"G > 1", "G = 1", "r < s", "r > s", "r+s > 64",
                              "r+s <= 64"}

    def test_case_ii_builds_the_same_engines(self, engines, monkeypatch):
        # no glue work at all for |C_L0| = 1: reference case 2 and every
        # candidate of search 1 15 --forms ii enumerate what they did
        # before the glue route, C or its kernel
        def refuse(*args):
            raise AssertionError("glue work for a code with |C_L0| = 1")

        monkeypatch.setattr(gray, "annihilator", refuse)
        calls = []
        enumerate_code = gray.lee_enumerator

        def recording(c, *args, **kwargs):
            before = len(engines)
            out = enumerate_code(c, *args, **kwargs)
            calls.append((c, engines[before:]))
            return out

        monkeypatch.setattr(search_module, "lee_enumerator", recording)
        search(1, 15, forms=("ii",))
        recording(code.from_spec_dict(REFERENCE_CASES[1]["spec"]))
        assert len(calls) > 600
        for c, built in calls:
            size = code_size(c)
            expected = code.enumeration_basis(c)
            if size > gray.DIRECT_MAX and size > 2 ** (c.r + c.s):
                rows = kernel_rows(c)
                expected = (rows, tuple(4 // next(filter(None, row)) for row in rows))
            assert [e[:2] for e in built] == [expected]

    def test_sharded_glue_is_bit_identical(self, engines, monkeypatch):
        # |G| = 16 classes of 2^14 words on a mirrored right engine of 16
        # one-class blocks (2^15 words fit in a block at 63 columns), 10
        # of them representatives of their negation pair
        c = shaped_code(random.Random(2), 3, 63, max_bits=20, min_bits=20)
        shards = []
        histogram_range = gray._histogram_range

        def recording(be, pairs, m):
            shards.append((be, pairs))
            return histogram_range(be, pairs, m)

        monkeypatch.setattr(gray, "_histogram_range", recording)
        assert gray.lee_enumerator(c, jobs=2) == gray.lee_enumerator(c, jobs=1)
        assert glue_class_count(c, engines[:2]) == 16
        rights = engines[1][2], engines[3][2]
        assert rights[0].nblocks == 16 and rights[0].mirrored
        pairs = gray._block_pairs(rights[0])
        assert len(pairs) == 10
        assert [[p for be, p in shards if be is right] for right in rights] \
            == [[pairs[:5], pairs[5:]], [pairs]]
        assert gray.lee_enumerator(c).counts == direct_counts(c)

    def test_howell_form_missing_a_row_fails_the_size_check(self, monkeypatch):
        howell = linalg.howell

        def dropping(m):
            h = howell(m)
            return linalg.HowellForm(linalg.MatZ4(h.matrix.rows[1:], m.ncols),
                                     h.pivots[1:])

        monkeypatch.setattr(linalg, "howell", dropping)
        c = shaped_code(random.Random(7), 3, 63, max_bits=18, min_bits=18)
        with pytest.raises(InternalCheckFailed, match="glue basis spans"):
            gray.lee_enumerator(c)

    def test_class_histogram_moved_to_another_class_fails(self, monkeypatch):
        class_histograms = gray._class_histograms

        def moving(be, m, jobs=1):
            hist = class_histograms(be, m, jobs)
            hist[0] += hist[1]
            hist[1] = 0
            return hist

        monkeypatch.setattr(gray, "_class_histograms", moving)
        c = shaped_code(random.Random(7), 3, 63, max_bits=18, min_bits=18)
        with pytest.raises(InternalCheckFailed, match="class histograms"):
            gray.lee_enumerator(c)


def class_histograms_once(rows, radices, ncols, m):
    """The Lee histogram of each class of m consecutive words of the
    span, enumerated as one block, each word's weight summed from its
    unpacked symbols."""
    width = 2 * ncols + 1
    words = code.BlockEnumerator(rows, radices, ncols, max_block=1 << 20).block(0)
    weights = np.take(gray.LEE_WEIGHTS, code.unpack(words, ncols)).sum(axis=1)
    classes = np.arange(len(words)) // m
    return np.bincount(classes * width + weights,
                       minlength=len(words) // m * width).reshape(-1, width)


class TestNegationPairs:
    """C = -C and Lee weight is invariant under negation, so a mirrored
    engine enumerates one block (h, g) of each negation pair and counts
    it at both; enumerating every block once is the oracle."""

    SHAPES = ((1, 7), (7, 1), (3, 9), (9, 3), (5, 5), (3, 7), (7, 3), (1, 15),
              (3, 15), (15, 3))

    def test_mirrored_histograms_match_every_block_once(self):
        rnd = random.Random(2028)
        kinds = Counter()
        for _ in range(60):
            c = shaped_code(rnd, *rnd.choice(self.SHAPES), max_bits=11, min_bits=6)
            size, n = code_size(c), c.r + c.s
            engines = [("basis", *code.enumeration_basis(c), n, None)]
            if 4 ** n <= size << 12:  # a dual of at most 2^12 words
                kernel = kernel_rows(c)
                engines.append(("kernel", kernel,
                                tuple(4 // next(filter(None, row)) for row in kernel),
                                n, None))
            _, m_left, _, m_right = gray._glue_engines(c, size, 1 << 400)
            (left, right) = glue_bases(c)
            engines += [("glue", *left, c.r, m_left), ("glue", *right, c.s, m_right)]
            for kind, rows, radices, ncols, m in engines:
                for max_block in (4, 32):
                    be = code.BlockEnumerator(rows, radices, ncols, max_block=max_block)
                    classes = m or be.nblocks * be.block_size
                    assert (gray._class_histograms(be, classes) ==
                            class_histograms_once(rows, radices, ncols, classes)).all()
                    pairs = gray._block_pairs(be)
                    assert sorted({b for pair in pairs for b in pair}) == \
                        list(range(be.nblocks))
                    if not be.mirrored:
                        assert len(pairs) == be.nblocks
                        if be.nblocks > 1 and any(
                                rad == 2 and any(a % 2 for a in row)
                                for row, rad in zip(rows, radices)):
                            kinds["fallback, odd radix-2 row"] += 1
                        continue
                    if len(pairs) == be.nblocks:
                        continue  # every block its own mirror
                    kinds[kind] += 1
                    if kind == "glue" and be.block_size > classes:
                        kinds["glue, classes per block"] += 1
                    if kind == "glue" and be.block_size < classes < be.nblocks * be.block_size:
                        kinds["glue, class over blocks"] += 1
        assert set(kinds) == {"basis", "kernel", "glue", "glue, classes per block",
                              "glue, class over blocks", "fallback, odd radix-2 row"}

    def test_reference_case_2_counts_136_of_256_blocks(self):
        c = code.from_spec_dict(REFERENCE_CASES[1]["spec"])
        be = code.BlockEnumerator(*code.enumeration_basis(c), c.r + c.s)
        assert be.mirrored and be.nblocks == 256 and be.block_size == 2 ** 16
        # the 16 blocks whose four leading radix-4 digits are 0 or 2 are
        # their own mirrors; the other 240 pair up
        pairs = gray._block_pairs(be)
        assert len(pairs) == 136
        assert sum(h == g for h, g in pairs) == 16

    def test_sharded_direct_is_bit_identical(self, engines, monkeypatch):
        # a case (ii) code of 2^20 words, counted directly in 16 blocks,
        # 10 of them representatives
        c = shaped_code(random.Random(0), 5, 15, max_bits=20, min_bits=20)
        shards = []
        histogram_range = gray._histogram_range

        def recording(be, pairs, m):
            shards.append(pairs)
            return histogram_range(be, pairs, m)

        monkeypatch.setattr(gray, "_histogram_range", recording)
        assert gray.lee_enumerator(c, jobs=2) == gray.lee_enumerator(c, jobs=1)
        assert [e[:2] for e in engines] == [code.enumeration_basis(c)] * 2
        pairs = gray._block_pairs(engines[0][2])
        assert engines[0][2].mirrored and len(pairs) == 10
        assert shards == [pairs[:5], pairs[5:], pairs]

    def test_sharded_runs_differ_by_at_most_one_pair(self, monkeypatch):
        c = code.from_spec_dict(REFERENCE_CASES[1]["spec"])
        be = code.BlockEnumerator(*code.enumeration_basis(c), c.r + c.s)
        sizes = []
        monkeypatch.setattr(gray, "_histogram_range",
                            lambda be, pairs, m: sizes.append(len(pairs)) or 0)
        for jobs in (2, 3, 5):
            sizes.clear()
            gray._class_histograms(be, be.nblocks * be.block_size, jobs)
            assert sum(sizes) == 136 and len(sizes) == jobs
            assert max(sizes) - min(sizes) <= 1

    def direct_code(self):
        """A case (ii) code of 2^18 words that lee_enumerator counts
        directly, in four blocks: 0 and 2 their own mirrors, 1 and 3 a
        pair."""
        c = shaped_code(random.Random(7), 1, 17, max_bits=18, min_bits=18)
        be = code.BlockEnumerator(*code.enumeration_basis(c), c.r + c.s)
        assert gray._block_pairs(be) == [(0, 0), (1, 3), (2, 2)]
        return c, be.block_size

    def patch_mirror(self, monkeypatch, block, mirror, size):
        """negation sends the first word of `block` to that of `mirror`."""
        negation = code.BlockEnumerator.negation

        def patched(be, index):
            return mirror * size if index == block * size else negation(be, index)

        monkeypatch.setattr(code.BlockEnumerator, "negation", patched)

    def test_self_paired_block_counted_twice_fails(self, monkeypatch):
        c, size = self.direct_code()
        self.patch_mirror(monkeypatch, 0, 2, size)
        with pytest.raises(InternalCheckFailed,
                           match=f"direct enumeration gives A_0 = 2 and "
                                 f"{2 ** 18 + size} codewords"):
            gray.lee_enumerator(c)

    def test_pair_counted_once_fails(self, monkeypatch):
        c, size = self.direct_code()
        self.patch_mirror(monkeypatch, 1, 1, size)
        with pytest.raises(InternalCheckFailed,
                           match=f"direct enumeration gives A_0 = 1 and "
                                 f"{2 ** 18 - size} codewords"):
            gray.lee_enumerator(c)


class TestGrayImageParams:
    def test_kerdock_params_and_witness(self):
        p = gray.gray_image_params(kerdock())
        assert (p.n, p.M, p.d) == (16, 256, 6)
        assert p.linear_image is False and p.witness is not None
        u, v = p.witness
        x = tuple(a ^ b for a, b in zip(u, v))
        assert not contains(kerdock(),
                            code_vector(gray_inverse(x), 1))

    def test_linear_image_detected(self):
        # purely 2-torsion codes have additive Gray images: Phi(2a) has
        # the doubled pattern (b,b), and XOR of such words stays in the
        # image because 2Z4 is a group the Gray map embeds additively
        c = validate(3, 3, f1=parse("x^3+3"), g1=(1,), f2=parse("x^3+3"),
                     g2=(1,))
        p = gray.gray_image_params(c)
        assert p.linear_image is True and p.witness is None

    def test_large_two_torsion_code_is_certified_linear(self):
        # 2 * Z4^18: 2^18 words, certified from its generating rows
        # without enumerating the image
        c = validate(9, 9, f1=parse("x^9+3"), g1=(1,), f2=parse("x^9+3"),
                     g2=(1,))
        p = gray.gray_image_params(c)
        assert (p.M, p.d) == (2 ** 18, 2)
        assert p.linear_image is True and p.witness is None

    @staticmethod
    def assert_matches_closure(c):
        image = gray_image_words(c)
        p = gray.gray_image_params(c)
        assert p.linear_image == gray_image_is_linear(image)
        assert (p.witness is None) == p.linear_image
        if p.witness is not None:
            u, v = (bits_to_int(w) for w in p.witness)
            assert u in image and v in image and u ^ v not in image

    def test_radix_two_rows_with_odd_entries_count(self):
        # three S4 rows (h2*l | 2*h2*g2) with odd left parts and no row
        # of radix 4: 2(g0*g1) = (0,2,0|0,0,0) is not in C, because the
        # zero-right subcode is 2<x+1>, the doubled even-weight words
        c = validate(3, 3, f1=parse("x^3+3"), g1=parse("x+3"),
                     l=parse("x+1"), f2=parse("x^3+3"), g2=(1,))
        assert code_size(c) == 32
        assert not contains(c, code_vector((0, 2, 0, 0, 0, 0), 3))
        p = gray.gray_image_params(c)
        assert p.linear_image is False
        self.assert_matches_closure(c)

    def test_criterion_matches_closure_on_every_short_code(self):
        # every valid code with r, s in {1, 3}, all mixing polynomials
        def chains(n):
            lattice = divisor_lattice_of(n)
            return [(f, g) for f in lattice for g in lattice
                    if z4poly.divides(g, f)]

        seen = set()
        for r, s in itertools.product((1, 3), repeat=2):
            for (f1, g1), (f2, g2) in itertools.product(chains(r), chains(s)):
                for l in itertools.product(range(4), repeat=z4poly.degree(f1)):
                    try:
                        c = validate(r, s, f1=f1, g1=g1, l=l, f2=f2, g2=g2)
                    except Z4DCError:
                        continue
                    if c not in seen:
                        seen.add(c)
                        self.assert_matches_closure(c)
        assert len(seen) == 1368

    # st.randoms(use_true_random=False) draws every choice random_code
    # makes from hypothesis, so a failure shrinks to a small code
    @settings(max_examples=80)
    @given(st.randoms(use_true_random=False))
    def test_criterion_matches_exhaustive_closure(self, rnd):
        self.assert_matches_closure(random_code(rnd, max_size=2 ** 12))

    def test_zero_code_params(self):
        p = gray.gray_image_params(validate(1, 3))
        assert (p.n, p.M, p.d, p.linear_image) == (8, 1, None, True)

    def test_gray_words_stream(self):
        c = kerdock()
        words = list(gray.gray_words(c))
        assert len(words) == 256
        assert words[0] == "0" * 16
        assert all(len(w) == 16 and set(w) <= {"0", "1"} for w in words)
