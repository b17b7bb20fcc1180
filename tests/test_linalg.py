"""Howell form over Z4 against exhaustive span enumeration and against
the entry-by-entry column sweep."""

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (brute_span, coset_representative_by_sweep, howell_by_sweep,
                      kernel_by_sweep, mat, span_size)
from z4dc import linalg as la
from z4dc.code import generator_matrix, validate
from z4dc.dual import dual_brute_force
from z4dc.errors import DimensionMismatch


class TestHowell:
    def test_zero_matrix(self):
        h = la.howell(mat([(0, 0), (0, 0)], 2))
        assert h.matrix.rows == () and span_size(h) == 1

    def test_single_two(self):
        h = la.howell(mat([(2,)], 1))
        assert h.pivots == ((0, 2),)
        assert span_size(h) == 2
        assert la.membership(h, (2,)) and not la.membership(h, (1,))

    def test_mixed_rows_span_eight(self):
        rows = [(1, 1), (0, 2)]
        h = la.howell(mat(rows, 2))
        assert span_size(h) == len(brute_span(rows, 2)) == 8

    def test_howell_closure_row_appears(self):
        # span of (2,1) contains (0,2) = 2*(2,1); Howell must expose it
        h = la.howell(mat([(2, 1)], 2))
        assert h.matrix.rows == ((2, 1), (0, 2))

    def test_entries_are_taken_mod_4(self):
        def raw(*rows):  # a MatZ4 of the rows as given, not reduced by mat()
            return la.MatZ4(rows, len(rows[0]))

        assert la.howell(raw((4, 0))).matrix.rows == ()
        assert la.span_equal(raw((4, 0)), raw((0, 0)))
        for entry in (-1, 3):
            h = la.howell(raw((entry, 0)))
            assert (h.matrix.rows, h.pivots) == (((1, 0),), ((0, 1),))
        assert la.howell(raw((5, 2))) == la.howell(raw((1, 2))) == \
            la.howell(raw(np.array([5, 2]))) == la.howell(raw(np.array([1, 2], np.uint8)))
        assert la.kernel(raw((4, 0))) == la.kernel(raw((0, 0)))

    def test_idempotent_and_canonical(self, rng):
        for _ in range(200):
            n = rng.randrange(1, 6)
            rows = [tuple(rng.randrange(4) for _ in range(n))
                    for _ in range(rng.randrange(1, 4))]
            m = mat(rows, n)
            h = la.howell(m)
            assert la.howell(h.matrix) == h
            # invariance under span-preserving row operations
            permuted = list(rows)
            rng.shuffle(permuted)
            assert la.howell(mat(permuted, n)) == h
            scaled = [tuple((3 * c) % 4 for c in rows[0])] + rows[1:]
            assert la.howell(mat(scaled, n)) == h
            if len(rows) >= 2:
                added = [tuple((a + b) % 4 for a, b in zip(rows[0], rows[1]))]
                assert la.howell(mat(rows + added, n)) == h

    def test_span_preserved_and_sized(self, rng):
        for _ in range(200):
            n = rng.randrange(1, 7)
            rows = [tuple(rng.randrange(4) for _ in range(n))
                    for _ in range(rng.randrange(1, 4))]
            h = la.howell(mat(rows, n))
            sp = brute_span(rows, n)
            assert span_size(h) == len(sp)
            for row in rows:
                assert la.membership(h, row)


def raw_matrix(rng):
    """A MatZ4 with entries not reduced mod 4: widths 0..140 (so packed
    rows run past 64 and 128 columns), zero-row, tall (narrow widths
    only) and wide shapes, a third all-even and a third mostly even, and
    each entry lifted by a multiple of 4 that is often negative, lands
    in 4..255 or reaches 256 and beyond."""
    n = rng.choice((rng.randrange(9), rng.randrange(9, 41), rng.randrange(41, 141)))
    shape = rng.randrange(3)
    nr = 0 if shape == 0 or n == 0 else \
        rng.randrange(n + 1, n + 7) if shape == 1 and n <= 16 else rng.randrange(1, min(n, 9) + 1)
    kind = rng.randrange(3)
    odds = (1, 3) if kind == 0 else () if kind == 1 else (1, 3) + (0, 2) * 8
    classes = (0, 2) + odds
    lifts = (0,) * 6 + (-4, -8, 4, 252, 256, 1024)

    def entry():
        return rng.choice(classes) + rng.choice(lifts)

    return la.MatZ4(tuple(tuple(entry() for _ in range(n)) for _ in range(nr)), n)


def test_packed_howell_kernel_and_reduction_match_the_sweep(rng):
    """Rows and pivots equal the sweep's on 5000 raw matrices, and so do
    the coset representatives; kernels are compared up to 40 columns,
    where [m^T | I] is still up to 48 symbols (384 bits) wide and the
    sweep on it stays fast."""
    for _ in range(5000):
        m = raw_matrix(rng)
        h = la.howell(m)
        oracle = howell_by_sweep(m)
        assert (h.matrix.rows, h.pivots) == (oracle.matrix.rows, oracle.pivots)
        if m.ncols <= 40:
            assert la.kernel(m) == kernel_by_sweep(m)
        v = tuple(rng.randrange(-6, 300) for _ in range(m.ncols))
        assert la.coset_representative(h, v) == coset_representative_by_sweep(h, v)


def test_coset_representative_packs_each_form_once(rng, monkeypatch):
    """Reducing many vectors against one Howell form packs its rows on
    the first call only: each later call packs just its vector."""
    h = la.howell(raw_matrix(rng))
    packed = []
    pack = la._pack
    monkeypatch.setattr(la, "_pack", lambda row, *m: packed.append(row) or pack(row, *m))
    vs = [tuple(rng.randrange(4) for _ in range(h.matrix.ncols)) for _ in range(20)]
    reps = [la.coset_representative(h, v) for v in vs]
    assert len(packed) == len(h.matrix.rows) + len(vs)
    assert reps == [coset_representative_by_sweep(h, v) for v in vs]


def test_kernel_of_a_long_generator_matrix_is_exact():
    """The kernel dual of a non-free (127, 127) code: every kernel row
    is orthogonal to every generator row, and the kernel and the span
    together have 4^(r+s) words."""
    c = validate(127, 127, f1=(3, 1), g1=(1,), l=(), f2=(3, 1), g2=(3, 1))
    m = generator_matrix(c)
    k, _ = dual_brute_force(c, cap=c.r + c.s)
    assert all(sum(a * b for a, b in zip(row, kr)) % 4 == 0
               for row in m.rows for kr in k.rows)
    assert span_size(la.howell(k)) * span_size(la.howell(m)) == 4 ** (c.r + c.s)


@st.composite
def z4_matrices(draw):
    """Up to 6 rows of width 1..5, so tall matrices are common.  A third
    are all-even (every pivot is 2 and every annihilator row 2*p
    vanishes); the rest range over Z4, where a 2-pivot row with a later
    odd entry queues a nonzero 2*p."""
    ncols = draw(st.integers(1, 5))
    entries = st.sampled_from((0, 2)) if draw(st.integers(0, 2)) == 0 \
        else st.integers(0, 3)
    row = st.tuples(*[entries] * ncols)
    return draw(st.lists(row, max_size=6)), ncols


@settings(max_examples=150)
@given(z4_matrices(), st.data())
def test_howell_meets_its_definition_and_spans_the_rows(case, data):
    rows, n = case
    h = la.howell(mat(rows, n))
    out = h.matrix.rows
    # (a) nonzero rows, pivot = first nonzero entry, strictly increasing
    leads = [next(j for j, x in enumerate(row) if x) for row in out]
    assert leads == sorted(set(leads))
    assert h.pivots == tuple((j, row[j]) for j, row in zip(leads, out))
    for k, (j, val) in enumerate(h.pivots):
        assert val in (1, 2)  # (b)
        assert all(above[j] < val for above in out[:k])  # (c)
        if val == 2:  # (d) 2*row lies in the span of the later rows
            doubled = tuple((2 * x) % 4 for x in out[k])
            assert doubled in brute_span(out[k + 1:], n)
    span = brute_span(rows, n)
    assert brute_span(out, n) == span
    assert span_size(h) == len(span)
    # one coset representative for all of v + span, itself in that coset
    v = data.draw(st.tuples(*[st.integers(0, 3)] * n))
    rep = la.coset_representative(h, v)
    assert tuple((a - b) % 4 for a, b in zip(v, rep)) in span
    for u in span:
        assert la.coset_representative(
            h, tuple((a + b) % 4 for a, b in zip(v, u))) == rep


def test_a_row_of_the_wrong_length_is_rejected():
    with pytest.raises(DimensionMismatch, match="row length 1 != ncols 2"):
        la.MatZ4(((1, 0), (1,)), 2)


class TestMembership:
    def test_zero_vector(self, rng):
        h = la.howell(mat([(1, 2, 3)], 3))
        assert la.membership(h, (0, 0, 0))

    def test_outside_two_ideal(self):
        h = la.howell(mat([(2, 0)], 2))
        assert not la.membership(h, (1, 0))

    def test_dimension_mismatch(self):
        h = la.howell(mat([(1, 0)], 2))
        with pytest.raises(DimensionMismatch):
            la.membership(h, (1, 0, 0))

    def test_exhaustive_oracle(self, rng):
        for _ in range(40):
            rows = [tuple(rng.randrange(4) for _ in range(4)) for _ in range(2)]
            h = la.howell(mat(rows, 4))
            sp = brute_span(rows, 4)
            for v in product(range(4), repeat=4):
                assert la.membership(h, v) == (v in sp)


class TestCosetRepresentative:
    def test_odd_entry_at_a_two_pivot_column(self):
        # (1,0) and (3,3) differ by (2,3) = (2,1) + (0,2), in the span
        h = la.howell(mat([(2, 1)], 2))
        assert la.coset_representative(h, (1, 0)) == \
            la.coset_representative(h, (3, 3)) == (1, 0)


@settings(max_examples=150)
@given(z4_matrices())
def test_kernel_rows_are_the_howell_form_of_the_kernel(case):
    """kernel(m) spans exactly {v : m . v^T = 0} and is already in Howell
    form, so kernels compare by their rows (dual_brute_force relies on
    this)."""
    rows, n = case
    k = la.kernel(mat(rows, n))
    assert la.howell(k).matrix.rows == k.rows
    annihilated = {v for v in product(range(4), repeat=n)
                   if all(sum(a * b for a, b in zip(row, v)) % 4 == 0
                          for row in rows)}
    assert brute_span(k.rows, n) == annihilated


class TestKernel:
    def test_identity_kernel_trivial(self):
        k = la.kernel(mat([(1, 0), (0, 1)], 2))
        assert span_size(la.howell(k)) == 1

    def test_two_kernel(self):
        k = la.kernel(mat([(2,)], 1))
        assert span_size(la.howell(k)) == 2

    def test_empty_matrix_kernel_is_everything(self):
        k = la.kernel(la.MatZ4((), 3))
        assert span_size(la.howell(k)) == 4 ** 3

    def test_duality_and_double_kernel(self, rng):
        for _ in range(150):
            n = rng.randrange(1, 6)
            rows = [tuple(rng.randrange(4) for _ in range(n))
                    for _ in range(rng.randrange(1, 4))]
            m = mat(rows, n)
            k = la.kernel(m)
            assert span_size(la.howell(m)) * span_size(la.howell(k)) == 4 ** n
            for kr in k.rows:
                assert all(sum(a * b for a, b in zip(row, kr)) % 4 == 0
                           for row in rows)
            assert la.span_equal(la.kernel(k), m) or \
                span_size(la.howell(la.kernel(k))) == span_size(la.howell(m))
            assert la.span_equal(la.kernel(k), m)


class TestSpanEqual:
    def test_permutation_and_scaling(self):
        assert la.span_equal(mat([(1, 0)], 2), mat([(3, 0)], 2))
        assert not la.span_equal(mat([(2, 0)], 2), mat([(1, 0)], 2))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            la.span_equal(mat([(1,)], 1), mat([(1, 0)], 2))

    def test_column_slice_projects_span(self, rng):
        for _ in range(60):
            rows = [tuple(rng.randrange(4) for _ in range(4)) for _ in range(2)]
            m = mat(rows, 4)
            sliced = la.column_slice(m, [0, 2])
            proj = {(v[0], v[2]) for v in brute_span(rows, 4)}
            assert span_size(la.howell(sliced)) == len(proj)
