"""Exact linear algebra over Z4: Howell form, membership, kernel, spans.

Row echelon form does not canonically represent a row span over Z4
because of the zero divisor 2; the Howell form does.  Here a matrix is
in Howell form when (a) rows are nonzero with strictly increasing pivot
columns, (b) each pivot entry is 1 or 2, (c) entries above a pivot are
reduced modulo the pivot (so 0 above a 1, {0,1} above a 2), and (d) the
span is closed in the Howell sense: 2*row reduces to zero against the
later rows.  Two matrices have equal row span iff their Howell forms
are identical, which makes span comparison a structural equality test.

All values are immutable; every function is pure.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionMismatch, InternalCheckFailed


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


def _echelon(rows: list[list[int]], ncols: int):
    """Normalized echelon pass: unit pivots preferred, full reduction
    above and below, above-pivot entries reduced mod the pivot value."""
    pending = [r for r in rows if any(r)]
    out: list[list[int]] = []
    pivots: list[tuple[int, int]] = []
    for j in range(ncols):
        if not pending:
            break
        unit_i = next((i for i, r in enumerate(pending) if r[j] % 2 == 1), None)
        if unit_i is not None:
            p = pending.pop(unit_i)
            if p[j] == 3:
                p = [(3 * c) % 4 for c in p]
            for r in pending:
                c = r[j]
                if c:
                    for k in range(j, ncols):
                        r[k] = (r[k] - c * p[k]) % 4
            for q in out:
                c = q[j]
                if c:
                    for k in range(j, ncols):
                        q[k] = (q[k] - c * p[k]) % 4
            out.append(p)
            pivots.append((j, 1))
        else:
            two_i = next((i for i, r in enumerate(pending) if r[j] == 2), None)
            if two_i is None:
                continue
            p = pending.pop(two_i)
            for r in pending:
                if r[j]:
                    for k in range(j, ncols):
                        r[k] = (r[k] - p[k]) % 4
            for q in out:
                c = q[j] // 2
                if c:
                    for k in range(j, ncols):
                        q[k] = (q[k] - c * p[k]) % 4
            out.append(p)
            pivots.append((j, 2))
        pending = [r for r in pending if any(r)]
    return out, pivots


def _reduce(v: list[int], rows: list[list[int]],
            pivots: list[tuple[int, int]]) -> list[int]:
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
    """Howell canonical form of the row span of m.

    Echelon passes alternate with span closure (appending 2*row whenever
    it fails to reduce to zero) until a fixpoint; the result is verified
    closed before returning.
    """
    cur, pivots = _echelon([list(r) for r in m.rows], m.ncols)
    for _ in range(2 * m.ncols + 4):
        extras = []
        for r in cur:
            t = [(2 * c) % 4 for c in r]
            if any(_reduce(t, cur, pivots)):
                extras.append(t)
        if not extras:
            return HowellForm(
                MatZ4(tuple(tuple(r) for r in cur), m.ncols), tuple(pivots))
        cur, pivots = _echelon(cur + extras, m.ncols)
    raise InternalCheckFailed("Howell closure did not stabilize")


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
    rows = [list(r) for r in h.matrix.rows]
    return tuple(_reduce([c % 4 for c in v], rows, list(h.pivots)))


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

