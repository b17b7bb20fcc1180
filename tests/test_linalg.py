"""Howell form over Z4 against exhaustive span enumeration."""

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from conftest import brute_span
from z4dc import linalg as la
from z4dc.errors import DimensionMismatch


class TestHowell:
    def test_zero_matrix(self):
        h = la.howell(la.mat([(0, 0), (0, 0)], 2))
        assert h.matrix.rows == () and la.span_size(h) == 1

    def test_single_two(self):
        h = la.howell(la.mat([(2,)], 1))
        assert h.pivots == ((0, 2),)
        assert la.span_size(h) == 2
        assert la.membership(h, (2,)) and not la.membership(h, (1,))

    def test_mixed_rows_span_eight(self):
        rows = [(1, 1), (0, 2)]
        h = la.howell(la.mat(rows, 2))
        assert la.span_size(h) == len(brute_span(rows, 2)) == 8

    def test_howell_closure_row_appears(self):
        # span of (2,1) contains (0,2) = 2*(2,1); Howell must expose it
        h = la.howell(la.mat([(2, 1)], 2))
        assert h.matrix.rows == ((2, 1), (0, 2))

    def test_idempotent_and_canonical(self, rng):
        for _ in range(200):
            n = rng.randrange(1, 6)
            rows = [tuple(rng.randrange(4) for _ in range(n))
                    for _ in range(rng.randrange(1, 4))]
            m = la.mat(rows, n)
            h = la.howell(m)
            assert la.howell(h.matrix) == h
            # invariance under span-preserving row operations
            permuted = list(rows)
            rng.shuffle(permuted)
            assert la.howell(la.mat(permuted, n)) == h
            scaled = [tuple((3 * c) % 4 for c in rows[0])] + rows[1:]
            assert la.howell(la.mat(scaled, n)) == h
            if len(rows) >= 2:
                added = [tuple((a + b) % 4 for a, b in zip(rows[0], rows[1]))]
                assert la.howell(la.mat(rows + added, n)) == h

    def test_span_preserved_and_sized(self, rng):
        for _ in range(200):
            n = rng.randrange(1, 7)
            rows = [tuple(rng.randrange(4) for _ in range(n))
                    for _ in range(rng.randrange(1, 4))]
            h = la.howell(la.mat(rows, n))
            sp = brute_span(rows, n)
            assert la.span_size(h) == len(sp)
            for row in rows:
                assert la.membership(h, row)


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


@settings(derandomize=True, max_examples=150, deadline=None)
@given(z4_matrices())
def test_howell_meets_its_definition_and_spans_the_rows(case):
    rows, n = case
    h = la.howell(la.mat(rows, n))
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
    assert la.span_size(h) == len(span)


class TestMembership:
    def test_zero_vector(self, rng):
        h = la.howell(la.mat([(1, 2, 3)], 3))
        assert la.membership(h, (0, 0, 0))

    def test_outside_two_ideal(self):
        h = la.howell(la.mat([(2, 0)], 2))
        assert not la.membership(h, (1, 0))

    def test_dimension_mismatch(self):
        h = la.howell(la.mat([(1, 0)], 2))
        with pytest.raises(DimensionMismatch):
            la.membership(h, (1, 0, 0))

    def test_exhaustive_oracle(self, rng):
        for _ in range(40):
            rows = [tuple(rng.randrange(4) for _ in range(4)) for _ in range(2)]
            h = la.howell(la.mat(rows, 4))
            sp = brute_span(rows, 4)
            for v in product(range(4), repeat=4):
                assert la.membership(h, v) == (v in sp)


class TestKernel:
    def test_identity_kernel_trivial(self):
        k = la.kernel(la.mat([(1, 0), (0, 1)], 2))
        assert la.span_size(la.howell(k)) == 1

    def test_two_kernel(self):
        k = la.kernel(la.mat([(2,)], 1))
        assert la.span_size(la.howell(k)) == 2

    def test_empty_matrix_kernel_is_everything(self):
        k = la.kernel(la.MatZ4((), 3))
        assert la.span_size(la.howell(k)) == 4 ** 3

    def test_duality_and_double_kernel(self, rng):
        for _ in range(150):
            n = rng.randrange(1, 6)
            rows = [tuple(rng.randrange(4) for _ in range(n))
                    for _ in range(rng.randrange(1, 4))]
            m = la.mat(rows, n)
            k = la.kernel(m)
            assert la.span_size(la.howell(m)) * la.span_size(la.howell(k)) == 4 ** n
            for kr in k.rows:
                assert all(sum(a * b for a, b in zip(row, kr)) % 4 == 0
                           for row in rows)
            assert la.span_equal(la.kernel(k), m) or \
                la.span_size(la.howell(la.kernel(k))) == la.span_size(la.howell(m))
            assert la.span_equal(la.kernel(k), m)


class TestSpanEqual:
    def test_permutation_and_scaling(self):
        assert la.span_equal(la.mat([(1, 0)], 2), la.mat([(3, 0)], 2))
        assert not la.span_equal(la.mat([(2, 0)], 2), la.mat([(1, 0)], 2))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            la.span_equal(la.mat([(1,)], 1), la.mat([(1, 0)], 2))

    def test_column_slice_projects_span(self, rng):
        for _ in range(60):
            rows = [tuple(rng.randrange(4) for _ in range(4)) for _ in range(2)]
            m = la.mat(rows, 4)
            sliced = la.column_slice(m, [0, 2])
            proj = {(v[0], v[2]) for v in brute_span(rows, 4)}
            assert la.span_size(la.howell(sliced)) == len(proj)
