"""Lee metric and Gray map analytics.

Symbol Lee weights over Z4 are 0, 1, 2, 1 for 0, 1, 2, 3; the Gray map
sends 0, 1, 2, 3 to 00, 01, 11, 10 and is distance-preserving from Lee
to Hamming (but not additive).  Minimum Lee distance equals minimum
nonzero Lee weight because codes are Z4-linear.  The Lee enumerator is
exact and takes the one of three routes that enumerates the fewest
words, except that a code of at most DIRECT_MAX = 2^14 words goes
direct and glue must save more than GLUE_MIN_SAVED = 2^15 words (its
set-up costs about that much):

- direct, |C| words: exhaustive enumeration of codewords packed in
  2-bit lanes (code.pack), the Lee weight of a codeword being the
  popcount of its Gray image words (gray_lanes);
- through the dual, |C-perp| words, when C-perp is smaller (|C| >
  2^(r+s), since |C| * |C-perp| = 4^(r+s)): the Howell rows of the
  exact kernel of the generator matrix, C-perp, are enumerated with
  radix 4 // pivot each (Howell 1986; Storjohann 2000), and the binary
  MacWilliams transform of their Lee histogram, on exact and checked
  integers, gives that of C, the Gray images of C and C-perp being
  formally dual;
- glue, |pi_L C| + |pi_R C| words: C_L0 = {a : (a|0) in C} is (F1)
  (validate's mixing conditions) and C_R0 = {b : (0|b) in C}, so C is
  the disjoint union, over the classes g of G = pi_L C / C_L0 (which
  is isomorphic to pi_R C / C_R0), of (a_g + C_L0) x (b_g + C_R0).
  Lee weight adds over the blocks, so W = sum_g A_g * B_g for the Lee
  histograms A_g, B_g of the two cosets: the split weight enumerator
  (MacWilliams and Sloane, *The Theory of Error-Correcting Codes*,
  1977, ch. 5), glued as in Conway and Sloane, *Sphere Packings,
  Lattices and Groups*, ch. 4.  kappa(a) = a * annihilator(F1) mod
  x^r-1 has kernel exactly (F1), the ring being quasi-Frobenius, so
  the Howell form of the rows (kappa(a) | b | a) of the generator
  rows (a | b) splits by pivot column into glue rows (pivot in kappa;
  their digits run over G), C_R0 rows (in b) and C_L0 rows (in a).
  One engine enumerates the glue left blocks and then C_L0, another
  the glue right blocks and then C_R0, glue digits most significant,
  so the class of an index is index // |C_L0| on the left and
  index // |C_R0| on the right.

Weight histograms are computed blockwise with 64-bit counters and merge
associatively, so sharded runs reproduce the sequential histogram bit
for bit.  A span equals its negation, which keeps Lee weight (Hammons,
Kumar, Calderbank, Sloane and Sole, IEEE-IT 40(2), 1994).  So when
every radix-2 row r has 2r = 0 (a mirrored BlockEnumerator), only the
block h <= g of each negation pair (h, g) is enumerated, its class
rows counting at the classes of both; else every block counts once.
Each contiguous run of those blocks (one per thread of jobs) owns two
block-sized buffers, allocated once: the engine writes each block into
the first, and the Gray image, its popcounts and their sum over word
columns are formed in the second, so the loop over blocks allocates
nothing block-sized but the block's rows of the class histograms.
Linearity of the Gray image is decided exactly, without enumeration,
by the Z4-linearity criterion on pairs of generating rows.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import linalg
from .code import (
    BlockEnumerator,
    DEFAULT_ENUM_CAP,
    LO,
    DoubleCyclicCode,
    annihilator,
    check_enum_cap,
    code_size,
    enumeration_basis,
    generator_families,
    generator_matrix,
    rotations,
    unpack,
)
from .errors import InternalCheckFailed, ZeroCode
from .z4poly import mod_cyclic, mul

LEE_WEIGHTS = (0, 1, 2, 1)
DIRECT_MAX = 1 << 14  # larger codes with a smaller dual go through it
GLUE_MIN_SAVED = 1 << 15  # glue's set-up costs about as much as this many words
_GRAY_PAIRS = ((0, 0), (0, 1), (1, 1), (1, 0))


def lee_weight(v) -> int:
    return sum(LEE_WEIGHTS[c % 4] for c in v)


def gray_map(v) -> tuple[int, ...]:
    """Symbolwise substitution, each symbol contributing its pair in order."""
    out = []
    for c in v:
        out.extend(_GRAY_PAIRS[c % 4])
    return tuple(out)


@dataclass(frozen=True)
class LeeEnumerator:
    """Exact map from Lee weight to codeword count."""

    counts: dict[int, int]

    def total(self) -> int:
        return sum(self.counts.values())

    def min_nonzero_weight(self) -> int:
        keys = [w for w in self.counts if w > 0]
        if not keys:
            raise ZeroCode("the zero code has no nonzero codeword")
        return min(keys)


def gray_lanes(words: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The Gray image of packed codewords, lane by lane: a symbol with
    bits (a1, a0) becomes (a1, a0 ^ a1), whose value in binary is its
    Gray pair."""
    out = np.right_shift(words, 1, out=out)
    out &= LO
    out ^= words
    return out


def _lee_weights(words: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """Lee weight of each packed codeword: the popcount of its Gray image,
    the Gray map being an isometry.  The Gray image, its popcounts and
    their sum over word columns are all formed in buf (shaped like
    words), and the result is an intp view of its first column."""
    counts = buf.view(np.intp)
    np.bitwise_count(gray_lanes(words, buf), out=counts)
    for k in range(1, counts.shape[1]):
        counts[:, 0] += counts[:, k]
    return counts[:, 0]


def _block_pairs(be: BlockEnumerator) -> list[tuple[int, int]]:
    """(h, g) for each block h <= g, block g being -(block h); (h, h)
    for every block unless mirrored."""
    if not be.mirrored:
        return [(h, h) for h in range(be.nblocks)]
    size = be.block_size
    return [(h, g) for h in range(be.nblocks)
            if h <= (g := be.negation(h * size) // size)]


def _histogram_range(be: BlockEnumerator, pairs, m: int) -> np.ndarray:
    """Lee weight counts 0..2*ncols of each class of m consecutive words
    (m a product of trailing radices) over the block pairs (h, g) of
    _block_pairs, as a (classes, 2*ncols+1) array.  A block of k > 1
    classes shifts the weights of its class i by i*(2*ncols+1), in
    place, before one bincount.  When g != h they count again at the
    classes of block g that negate them, class digits being leading."""
    width = 2 * be.ncols + 1
    acc = np.zeros((be.nblocks * be.block_size // m, width), dtype=np.int64)
    k = max(be.block_size // m, 1)
    shift = np.arange(0, k * width, width)[:, None]
    # negation sends class i of a block to class mirror[i] of block g, and back
    mirror = be.negation(np.arange(k) * m) // m if be.mirrored and k > 1 else slice(None)
    # one block buffer and one Gray buffer per range, so threads do not
    # share them: fresh block-sized arrays per block cost page faults
    words = np.empty((be.block_size, be.nwords), dtype=np.uint64, order="F")
    buf = np.empty_like(words)
    for h, g in pairs:
        weights = _lee_weights(be.block(h, words), buf)
        if k > 1:
            by_class = weights.reshape(k, m)  # a view: buf is column-major
            by_class += shift
        rows = np.bincount(weights, minlength=k * width).reshape(k, width)
        first = h * be.block_size // m
        acc[first:first + k] += rows
        if g != h:
            first = g * be.block_size // m
            acc[first:first + k] += rows[mirror]
    return acc


def _class_histograms(be: BlockEnumerator, m: int, jobs: int = 1) -> np.ndarray:
    """The Lee histogram of each class of m consecutive words of the
    engine, by enumeration; with jobs > 1 and at least 2*jobs block
    pairs, contiguous runs of them run on jobs threads."""
    pairs = _block_pairs(be)
    if jobs <= 1 or len(pairs) < 2 * jobs:
        return _histogram_range(be, pairs, m)
    bounds = [len(pairs) * i // jobs for i in range(jobs + 1)]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return sum(pool.map(lambda ab: _histogram_range(be, pairs[ab[0]:ab[1]], m),
                            zip(bounds, bounds[1:])))


def _lee_histogram(rows, radices, ncols: int, jobs: int = 1) -> np.ndarray:
    """Lee weight counts 0..2*ncols over the span of a BlockEnumerator
    basis: its words as one class."""
    be = BlockEnumerator(rows, radices, ncols)
    return _class_histograms(be, be.nblocks * be.block_size, jobs)[0]


@functools.lru_cache(maxsize=8)
def _krawtchouk(N: int) -> tuple[tuple[int, ...], ...]:
    """K[L][j] = [z^j] (1+z)^(N-L) (1-z)^L, row by row from K_0 = 1 and
    K_1 = N - 2L by the three-term recurrence (j+1) K_(j+1) =
    (N-2L) K_j - (N-j+1) K_(j-1) (MacWilliams and Sloane, *The Theory
    of Error-Correcting Codes*, 1977, ch. 5), which divides exactly."""
    rows = []
    for L in range(N + 1):
        row = [1, N - 2 * L]
        for j in range(1, N):
            row.append(((N - 2 * L) * row[j] - (N - j + 1) * row[j - 1]) // (j + 1))
        rows.append(tuple(row))
    return tuple(rows)


def _macwilliams(dual_hist, size: int) -> dict[int, int]:
    """The Lee enumerator of a code of the given size from the Lee
    histogram (weights 0..N) of its dual: A_j = |C-perp|^-1 *
    sum_L B_L K[L][j], with |C-perp| = 2^N / size.  A sum that does not
    divide exactly or is negative, A_0 != 1 or a total other than size
    raises InternalCheckFailed."""
    N = len(dual_hist) - 1
    dual_size = (1 << N) // size
    table = _krawtchouk(N)
    terms = [(int(b), table[L]) for L, b in enumerate(dual_hist) if b]
    counts = {}
    for j in range(N + 1):
        a, rem = divmod(sum(b * row[j] for b, row in terms), dual_size)
        if rem or a < 0:
            raise InternalCheckFailed(
                f"MacWilliams transform gives A_{j} = {a} rem {rem} "
                f"over |C-perp| = {dual_size}")
        if a:
            counts[j] = a
    return _certified(counts, size, "MacWilliams transform")


def _certified(counts: dict[int, int], size: int, route: str) -> dict[int, int]:
    """counts; InternalCheckFailed unless A_0 = 1 and they total size."""
    if counts.get(0) != 1 or sum(counts.values()) != size:
        raise InternalCheckFailed(
            f"{route} gives A_0 = {counts.get(0, 0)} and "
            f"{sum(counts.values())} codewords, not 1 and {size}")
    return counts


def _glue_engines(c: DoubleCyclicCode, size: int, words: int):
    """The left and right engines of the glue route with their class
    sizes |C_L0| and |C_R0| (module docstring); None unless the route
    costs more than GLUE_MIN_SAVED words less than `words`.  Its cost is
    |G| * (|C_L0| + |C_R0|) words plus (2r+1)(2s+1) multiply-adds per
    class in A^T B.  |pi_R C| = |(F2)| = |C| / |C_L0| and |G| >= 1
    bound it from below in closed form, before any Howell form: case
    (ii) (|C_L0| = 1) and case (i) (|pi_R C| = 1) stop there.  A basis
    that spans other than C_L0 = (F1) and |C| words, or a C_R0 row with
    a left block, raises InternalCheckFailed."""
    r, s = c.r, c.s
    m_left = 4 ** (r - c.t1) * 2 ** (c.t1 - c.t2)
    pairs = (2 * r + 1) * (2 * s + 1)
    if m_left + size // m_left + pairs + GLUE_MIN_SAVED >= words:
        return None
    star = annihilator(c.f1, c.g1, r)
    # x commutes with kappa, so each family's rows are rotations of
    # (kappa(a) | b), beside the left blocks a of enumeration_basis
    kb = [row for (a, b), count, _ in generator_families(c)
          for row in rotations((mod_cyclic(mul(a, star), r), b), r, s, count)]
    h = linalg.howell(linalg.MatZ4(
        tuple(x + row[:r] for x, row in zip(kb, enumeration_basis(c)[0])), 2 * r + s))
    glue, right, left = [], [], []
    for row, (j, piv) in zip(h.matrix.rows, h.pivots):
        (glue if j < r else right if j < r + s else left).append((row, 4 // piv))
    n_glue, m_right, m_found = (math.prod(rad for _, rad in part)
                                for part in (glue, right, left))
    if m_found != m_left or any(any(row[r + s:]) for row, _ in right) \
            or n_glue * m_left * m_right != size:
        raise InternalCheckFailed(
            f"glue basis spans |G| = {n_glue}, |C_L0| = {m_found} and "
            f"|C_R0| = {m_right}, not |C_L0| = {m_left} and |C| = {size} "
            f"with C_R0 on the right block alone")
    if n_glue * (m_left + m_right + pairs) + GLUE_MIN_SAVED >= words:
        return None

    def engine(part, start, ncols):
        return BlockEnumerator(tuple(row[start:start + ncols] for row, _ in glue + part),
                               tuple(rad for _, rad in glue + part), ncols)

    return engine(left, r + s, r), m_left, engine(right, r, s), m_right


def _glue_counts(left: BlockEnumerator, m_left: int, right: BlockEnumerator,
                 m_right: int, size: int, jobs: int) -> dict[int, int]:
    """W = sum over classes g of A_g * B_g (polynomial product), from
    the class histograms of the two engines: the anti-diagonal sums of
    A^T B.  A class histogram that does not sum to its coset's size, or
    W_0 != 1, raises InternalCheckFailed."""
    A = _class_histograms(left, m_left, jobs)
    B = _class_histograms(right, m_right, jobs)
    if (A.sum(axis=1) != m_left).any() or (B.sum(axis=1) != m_right).any():
        raise InternalCheckFailed(
            f"glue class histograms do not sum to |C_L0| = {m_left} and "
            f"|C_R0| = {m_right} in each class")
    dtype = np.int64 if size < 1 << 63 else object  # exact past int64
    M = A.T.astype(dtype) @ B.astype(dtype)
    W = np.zeros(M.shape[0] + M.shape[1] - 1, dtype=dtype)
    for i, row in enumerate(M):
        W[i:i + len(row)] += row
    if W[0] != 1:
        raise InternalCheckFailed(f"glue gives A_0 = {W[0]}, not 1")
    return {w: int(k) for w, k in enumerate(W) if k}


def lee_enumerator(c: DoubleCyclicCode, cap: int = DEFAULT_ENUM_CAP,
                   jobs: int = 1) -> LeeEnumerator:
    """Exact Lee weight histogram over all codewords (module docstring).

    A code of more than DIRECT_MAX words with |C| > 2^(r+s) goes
    through its kernel, C-perp (|C-perp| words), any other directly
    (|C| words), unless glue (|pi_L C| + |pi_R C| words, _glue_engines)
    costs more than GLUE_MIN_SAVED words less.  cap bounds |C| on every
    route, and every route checks A_0 = 1 and the total |C|.
    """
    size = check_enum_cap(c, cap)
    n = c.r + c.s
    through_dual = size > DIRECT_MAX and size > 1 << n
    glue = _glue_engines(c, size, (1 << 2 * n) // size if through_dual else size)
    if glue:
        return LeeEnumerator(_glue_counts(*glue, size, jobs))
    if through_dual:
        kernel = linalg.kernel(generator_matrix(c)).rows
        radices = tuple(4 // next(filter(None, row)) for row in kernel)
        dual_hist = _lee_histogram(kernel, radices, n, jobs)
        return LeeEnumerator(_macwilliams(dual_hist, size))
    hist = _lee_histogram(*enumeration_basis(c), n, jobs)
    return LeeEnumerator(_certified({w: int(k) for w, k in enumerate(hist) if k},
                                    size, "direct enumeration"))


@dataclass(frozen=True)
class GrayImageParams:
    """Binary parameters (n, M, d) of the Gray image, plus linearity.

    linear_image is always certified (see image_params).  For a
    nonlinear image, witness holds two image words whose XOR is not an
    image word.
    """

    n: int
    M: int
    d: int | None
    linear_image: bool
    witness: tuple[tuple[int, ...], tuple[int, ...]] | None


def image_params(c: DoubleCyclicCode, enum: LeeEnumerator) -> GrayImageParams:
    """Gray image parameters from an already computed Lee enumerator.

    phi(C) is linear iff 2(u*v) lies in C for all u, v in C (Hammons,
    Kumar, Calderbank, Sloane, Sole 1994; * is the componentwise
    product).  2(u*v) depends only on the residues of u and v and is
    bilinear over F2, so pairs of generating rows suffice, and only rows
    with an odd entry matter (an all-even row has zero residue).  The
    order label of a row is no substitute: a row labelled 2 can have an
    odd entry.  A failing pair (g, h) is the witness: phi(g) XOR phi(h)
    = phi(g + h + 2(g*h)), which is outside the image exactly when
    2(g*h) is outside C: one Howell form of C decides every pair.
    """
    M = code_size(c)
    d = enum.min_nonzero_weight() if M > 1 else None
    rows = [w for w in enumeration_basis(c)[0] if any(a & 1 for a in w)]
    span = linalg.howell(generator_matrix(c))
    for i, g in enumerate(rows):
        for h in rows[:i]:
            if not linalg.membership(span, [2 * (a & b & 1) for a, b in zip(g, h)]):
                return GrayImageParams(2 * (c.r + c.s), M, d, False,
                                       (gray_map(g), gray_map(h)))
    return GrayImageParams(2 * (c.r + c.s), M, d, True, None)


def gray_image_params(c: DoubleCyclicCode, cap: int = DEFAULT_ENUM_CAP,
                      jobs: int = 1) -> GrayImageParams:
    """Report (2(r+s), |C|, min Lee distance, linearity) of the Gray image."""
    return image_params(c, lee_enumerator(c, cap=cap, jobs=jobs))


def gray_words(c: DoubleCyclicCode, cap: int = DEFAULT_ENUM_CAP):
    """Stream the Gray image, one 0/1 string per codeword, in
    enumeration order.  The cap is checked on the call, before the
    stream starts, so that a refused code leaves no output behind."""
    check_enum_cap(c, cap)
    return _gray_lines(BlockEnumerator(*enumeration_basis(c), c.r + c.s))


def _gray_lines(be: BlockEnumerator):
    words = image = None
    for h in range(be.nblocks):
        words = be.block(h, words)
        image = gray_lanes(words, image)
        pairs = unpack(image, be.ncols)
        chars = np.stack((pairs >> 1, pairs & 1), axis=2) + ord("0")
        for row in chars.reshape(be.block_size, -1):
            yield row.tobytes().decode()
