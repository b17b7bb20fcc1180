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

howell is the one Z4 row reduction: a single left-to-right column
sweep (Howell, Spans in the module (Z_m)^s, 1986; Storjohann,
Algorithms for Matrix Canonical Forms, 2000).  (a)-(c) hold because each column is cleared
below and reduced above its pivot once, and later pivot rows vanish in
earlier columns.  (d) holds because every 2-pivot row p queues its
annihilator row 2*p, which vanishes through p's pivot column, and the
sweep reduces it against the later rows like any other pending row.
membership, coset_representative, kernel and span_equal all read its
output.

All values are immutable; every function is pure.
"""

from __future__ import annotations

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


def mat(rows, ncols: int | None = None) -> MatZ4:
    """Build a MatZ4 from any iterable of rows, reducing entries mod 4."""
    tup = tuple(tuple(c % 4 for c in r) for r in rows)
    if ncols is None:
        if not tup:
            raise DimensionMismatch("ncols required for an empty matrix")
        ncols = len(tup[0])
    return MatZ4(tup, ncols)


@dataclass(frozen=True)
class HowellForm:
    """Canonical row-span form; pivots are (column, value) pairs per row."""

    matrix: MatZ4
    pivots: tuple[tuple[int, int], ...]


def _reduce(v: list[int], rows, pivots) -> list[int]:
    """Reduce v against pivot rows; the residue is the canonical coset
    representative (zero iff v lies in the span, given Howell form)."""
    for (j, val), row in zip(pivots, rows):
        c = v[j]
        if not c:
            continue
        if val == 1:
            mult = c
        else:
            if c % 2:
                continue  # odd entry cannot be cleared by a 2-pivot
            mult = c // 2
        for k in range(j, len(v)):
            v[k] = (v[k] - mult * row[k]) % 4
    return v


def howell(m: MatZ4) -> HowellForm:
    """Howell canonical form of the row span of m, in one column sweep.

    At column j the pivot is a pending row with a unit entry there
    (scaled by 3 if the entry is 3), else one with entry 2.  The same
    elimination x -= (x[j] // pivot) * p then clears column j from the
    pending rows and reduces the output rows above it modulo the pivot.
    A 2-pivot row p queues its annihilator row 2*p, which vanishes
    through column j, so the output is Howell-closed when the sweep ends.
    """
    n = m.ncols
    pending = [list(r) for r in m.rows if any(r)]
    out: list[list[int]] = []
    pivots: list[tuple[int, int]] = []
    for j in range(n):
        if not pending:
            break
        i = next((i for i, r in enumerate(pending) if r[j] % 2), None)
        if i is None:
            i = next((i for i, r in enumerate(pending) if r[j]), None)
            if i is None:
                continue
        p = pending.pop(i)
        if p[j] == 3:
            p = [(3 * c) % 4 for c in p]
        piv = p[j]
        for x in pending + out:
            c = x[j] // piv
            if c:
                for k in range(j, n):
                    x[k] = (x[k] - c * p[k]) % 4
        out.append(p)
        pivots.append((j, piv))
        if piv == 2:
            pending.append([(2 * c) % 4 for c in p])
        pending = [r for r in pending if any(r)]
    return HowellForm(MatZ4(tuple(map(tuple, out)), n), tuple(pivots))


def span_size(h: HowellForm) -> int:
    """Number of vectors in the row span: 4 per unit pivot, 2 per 2-pivot."""
    size = 1
    for _, val in h.pivots:
        size *= 4 if val == 1 else 2
    return size


def membership(h: HowellForm, v) -> bool:
    """True iff v lies in the row span."""
    return not any(coset_representative(h, tuple(v)))


def coset_representative(h: HowellForm, v) -> tuple[int, ...]:
    """Canonical representative of v modulo the row span."""
    if len(v) != h.matrix.ncols:
        raise DimensionMismatch(
            f"vector length {len(v)} != ncols {h.matrix.ncols}")
    return tuple(_reduce([c % 4 for c in v], h.matrix.rows, h.pivots))


def kernel(m: MatZ4) -> MatZ4:
    """Rows generating {v : m . v^T = 0 over Z4}.

    Computed by Howell reduction of [m^T | I]: rows whose left block
    vanishes carry exactly the kernel in their right block, because the
    Howell span property applies columnwise.
    """
    nr = len(m.rows)
    aug = []
    for i in range(m.ncols):
        row = [m.rows[k][i] for k in range(nr)]
        row += [1 if t == i else 0 for t in range(m.ncols)]
        aug.append(row)
    h = howell(MatZ4(tuple(tuple(r) for r in aug), nr + m.ncols))
    out = tuple(r[nr:] for r in h.matrix.rows if not any(r[:nr]))
    return MatZ4(out, m.ncols)


def span_equal(a: MatZ4, b: MatZ4) -> bool:
    """True iff the row spans coincide (Howell forms identical)."""
    if a.ncols != b.ncols:
        raise DimensionMismatch(f"ncols {a.ncols} != {b.ncols}")
    return howell(a).matrix.rows == howell(b).matrix.rows


def column_slice(m: MatZ4, cols) -> MatZ4:
    """Select columns (projection of the span onto those coordinates)."""
    cols = list(cols)
    return MatZ4(tuple(tuple(r[c] for c in cols) for r in m.rows), len(cols))

