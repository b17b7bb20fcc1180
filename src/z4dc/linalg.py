"""Exact linear algebra over Z4: Howell form, membership, kernel, spans.

Row echelon form does not canonically represent a row span over Z4
because of the zero divisor 2; the Howell form does.  Here a matrix is
in Howell form when (a) rows are nonzero with strictly increasing pivot
columns, (b) each pivot entry is 1 or 2, (c) entries above a pivot are
reduced modulo the pivot (so 0 above a 1, {0,1} above a 2), and (d) the
span is closed in the Howell sense: 2*row of each 2-pivot row reduces
to zero against the later rows.  Two matrices have equal row span iff
their Howell forms are identical, which makes span comparison a
structural equality test.

howell is the one Z4 row reduction (Howell, Spans in the module
(Z_m)^s, 1986; Storjohann, Algorithms for Matrix Canonical Forms,
2000).  A row is one int with entry j in byte j, converted by bytes()
in C, and the elimination x -= c*p is x = (x + (4-c)*p) & M3, with
0x03 in each byte of M3 (no lane exceeds 3 + 3*3, so no carry crosses
a byte).  Rows wait in buckets by leading column, and each column
touches only its bucket: it takes a pivot (a unit entry, scaled to 1,
else a 2), clears the column from the rest of the bucket and moves
each reduced row to the bucket of its new leading column.  A 2-pivot
row p also queues its annihilator 2*p, which vanishes through p's
column, so (a), (b) and (d) hold when the buckets are empty.  One
back-reduction from the last row up gives (c): a lane mask (0x03 at
unit pivots, 0x02 at 2-pivots) jumps to the columns where a row is
still reducible against the rows below it.  The form is canonical, so
the rows equal those of the entry-by-entry column sweep that the tests
keep as the oracle.  coset_representative reduces by the same masked
step, against rows that each form packs once, and kernel runs the
sweep on [m^T | I].

All values are immutable; every function is pure.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import DimensionMismatch


@dataclass(frozen=True)
class MatZ4:
    """A sequence of equal-length row vectors over Z4."""

    rows: tuple[tuple[int, ...], ...]
    ncols: int

    def __post_init__(self):
        for r in self.rows:
            if len(r) != self.ncols:
                raise DimensionMismatch(
                    f"row length {len(r)} != ncols {self.ncols}")


@dataclass(frozen=True)
class HowellForm:
    """Canonical row-span form; pivots are (column, value) pairs per row."""

    matrix: MatZ4
    pivots: tuple[tuple[int, int], ...]

    @functools.cached_property
    def _reducer(self) -> tuple[dict, int, int]:
        """What coset_representative reduces by, packed once per form: the
        rows {column: (row, pivot)}, their _eliminate lane mask and the
        _lanes mask."""
        m3 = _lanes(self.matrix.ncols)
        rows = {j: (_pack(row), piv)
                for (j, piv), row in zip(self.pivots, self.matrix.rows)}
        return rows, sum((4 - piv) << (j << 3) for j, piv in self.pivots), m3


_LANE_MOD = {m: bytes(b & m for b in range(256)) for m in (1, 3)}


def _lanes(n: int, m: int = 3) -> int:
    """m in each of n bytes: x & _lanes(n, m) is x mod m+1 in every lane."""
    return int.from_bytes(bytes((m,)) * n, "little")


def _pack(row, m: int = 3) -> int:
    """A row as one int, entry j mod m+1 in byte j (m = 3 or 1); tuple()
    keeps bytes() from copying an array's buffer."""
    try:
        return int.from_bytes(bytes(tuple(row)).translate(_LANE_MOD[m]), "little")
    except ValueError:  # bytes() takes entries 0..255 only
        return int.from_bytes(bytes(c & m for c in row), "little")


def _lead(x: int) -> int:
    """The column of the first nonzero byte of x > 0."""
    return ((x & -x).bit_length() - 1) >> 3


def _eliminate(x: int, rows: dict, mask: int, m3: int) -> int:
    """x reduced against Howell rows {column: (row, pivot)} left to right
    by x -= (x[j] // pivot) * row; mask holds 0x03 at the unit-pivot and
    0x02 at the 2-pivot lanes, so x & mask marks the reducible columns."""
    while y := x & mask:
        j = _lead(y)
        p, piv = rows[j]
        x = (x + (4 - (x >> (j << 3) & 3) // piv) * p) & m3
    return x


def _howell_rows(xs, n: int) -> tuple[list[int], list[tuple[int, int]]]:
    """Howell rows, as ints, and pivots of the span of the packed rows
    xs of width n: the sweep by buckets, then the back-reduction."""
    m3 = _lanes(n)
    buckets: list[list[int]] = [[] for _ in range(n)]
    for x in filter(None, xs):
        buckets[_lead(x)].append(x)
    out, pivots = [], []
    for j, rows in enumerate(buckets):
        if not rows:
            continue
        sh = j << 3
        p = rows.pop(next((i for i, x in enumerate(rows) if x >> sh & 1), 0)
                     if len(rows) > 1 else 0)
        piv = p >> sh & 3
        if piv == 3:
            p, piv = 3 * p & m3, 1
        if piv == 2:
            rows.append(2 * p & m3)  # 0 at column j, so the step keeps it
        for x in rows:
            x = (x + (4 - (x >> sh & 3) // piv) * p) & m3
            if x:
                buckets[_lead(x)].append(x)
        out.append(p)
        pivots.append((j, piv))
    below, mask = {}, 0
    for k in range(len(out) - 1, -1, -1):
        j, piv = pivots[k]
        out[k] = _eliminate(out[k], below, mask, m3)
        below[j] = (out[k], piv)
        mask |= (4 - piv) << (j << 3)
    return out, pivots


def howell(m: MatZ4) -> HowellForm:
    """Howell canonical form of the row span of m, entries taken mod 4."""
    n = m.ncols
    out, pivots = _howell_rows([_pack(r) for r in m.rows], n)
    return HowellForm(MatZ4(tuple(tuple(x.to_bytes(n, "little")) for x in out), n),
                      tuple(pivots))


def membership(h: HowellForm, v) -> bool:
    """True iff v lies in the row span."""
    return not any(coset_representative(h, tuple(v)))


def coset_representative(h: HowellForm, v) -> tuple[int, ...]:
    """Canonical representative of v modulo the row span: v (entries
    taken mod 4) reduced left to right over the pivots by
    v -= (v[j] // pivot) * row; zero iff v lies in the span."""
    n = h.matrix.ncols
    if len(v) != n:
        raise DimensionMismatch(f"vector length {len(v)} != ncols {n}")
    rows, mask, m3 = h._reducer
    return tuple(_eliminate(_pack(v), rows, mask, m3).to_bytes(n, "little"))


def kernel(m: MatZ4) -> MatZ4:
    """The Howell form of {v : m . v^T = 0 over Z4}, as a matrix.

    Computed by Howell reduction of [m^T | I]: rows whose left block
    vanishes carry exactly the kernel in their right block, because the
    Howell span property applies columnwise.  They are the last rows of
    that Howell form, so their right blocks keep properties (a)-(d) and
    are the kernel's own Howell rows: two kernels are equal iff their
    rows are, and howell(kernel(m)).matrix == kernel(m).
    """
    nr, n = len(m.rows), m.ncols
    m3, shift = _lanes(nr), nr << 3
    cols = zip(*m.rows) if nr else [()] * n
    aug = [_pack(col) | 1 << (shift + (i << 3)) for i, col in enumerate(cols)]
    out, _ = _howell_rows(aug, nr + n)
    return MatZ4(tuple(tuple((x >> shift).to_bytes(n, "little"))
                       for x in out if not x & m3), n)


def span_equal(a: MatZ4, b: MatZ4) -> bool:
    """True iff the row spans coincide (Howell forms identical)."""
    if a.ncols != b.ncols:
        raise DimensionMismatch(f"ncols {a.ncols} != {b.ncols}")
    return howell(a).matrix.rows == howell(b).matrix.rows


def column_slice(m: MatZ4, cols) -> MatZ4:
    """Select columns (projection of the span onto those coordinates)."""
    cols = list(cols)
    return MatZ4(tuple(tuple(r[c] for c in cols) for r in m.rows), len(cols))

