"""Lee metric and Gray map analytics.

Symbol Lee weights over Z4 are 0, 1, 2, 1 for 0, 1, 2, 3; the Gray map
sends 0, 1, 2, 3 to 00, 01, 11, 10 and is distance-preserving from Lee
to Hamming (but not additive).  Minimum Lee distance equals minimum
nonzero Lee weight because codes are Z4-linear.  The Lee enumerator is
exact and takes one of two routes:

- direct: exhaustive enumeration of codewords packed in 2-bit lanes
  (code.pack), the Lee weight of a codeword being the popcount of its
  Gray image words (gray_lanes);
- through the dual, when C-perp is smaller (|C| > 2^(r+s), since
  |C| * |C-perp| = 4^(r+s)) and C has more than DIRECT_MAX = 2^14
  words: the Howell rows of the exact kernel of the generator matrix,
  C-perp, are enumerated with radix 4 // pivot each (Howell 1986;
  Storjohann 2000), and the binary MacWilliams transform of their Lee
  histogram, on exact and checked integers, gives that of C, the Gray
  images of C and C-perp being formally dual.

Weight histograms are computed blockwise with 64-bit counters and merge
associatively, so sharded runs reproduce the sequential histogram bit
for bit.  Each contiguous range of blocks (one per thread of jobs) owns
two block-sized buffers, allocated once: the engine writes each block
into the first, and the Gray image, its popcounts and their sum over
word columns are formed in the second, so the loop over blocks
allocates nothing block-sized.  Linearity of the Gray image is decided
exactly, without enumeration, by the Z4-linearity criterion on pairs of
generating rows.
"""

from __future__ import annotations

import functools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import linalg
from .code import (
    BlockEnumerator,
    DEFAULT_ENUM_CAP,
    LO,
    DoubleCyclicCode,
    check_enum_cap,
    code_size,
    enumeration_basis,
    generator_matrix,
    unpack,
)
from .errors import InternalCheckFailed, ZeroCode

LEE_WEIGHTS = (0, 1, 2, 1)
DIRECT_MAX = 1 << 14  # larger codes with a smaller dual go through it
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

    def sorted_items(self) -> list[tuple[int, int]]:
        return sorted(self.counts.items())


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


def _histogram_range(be: BlockEnumerator, lo: int, hi: int) -> np.ndarray:
    acc = np.zeros(2 * be.ncols + 1, dtype=np.int64)
    # one block buffer and one Gray buffer per range, so threads do not
    # share them: fresh block-sized arrays per block cost page faults
    words = np.empty((be.block_size, be.nwords), dtype=np.uint64, order="F")
    buf = np.empty_like(words)
    for h in range(lo, hi):
        acc += np.bincount(_lee_weights(be.block(h, words), buf), minlength=acc.size)
    return acc


def _lee_histogram(rows, radices, ncols: int, jobs: int = 1) -> np.ndarray:
    """Lee weight counts 0..2*ncols over the span of a BlockEnumerator
    basis, by enumeration; with jobs > 1 and at least 2*jobs blocks,
    contiguous block ranges run on jobs threads."""
    be = BlockEnumerator(rows, radices, ncols)
    if jobs <= 1 or be.nblocks < 2 * jobs:
        return _histogram_range(be, 0, be.nblocks)
    bounds = [be.nblocks * i // jobs for i in range(jobs + 1)]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return sum(pool.map(lambda ab: _histogram_range(be, *ab),
                            zip(bounds, bounds[1:])))


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
    if counts.get(0) != 1 or sum(counts.values()) != size:
        raise InternalCheckFailed(
            f"MacWilliams transform gives A_0 = {counts.get(0, 0)} and "
            f"{sum(counts.values())} codewords, not 1 and {size}")
    return counts


def lee_enumerator(c: DoubleCyclicCode, cap: int = DEFAULT_ENUM_CAP,
                   jobs: int = 1) -> LeeEnumerator:
    """Exact Lee weight histogram over all codewords.

    cap bounds |C| on either route.  A code of more than DIRECT_MAX
    words with |C| > 2^(r+s) enumerates its kernel, C-perp, and
    transforms (module docstring); every other code is enumerated directly.
    """
    size = check_enum_cap(c, cap)
    n = c.r + c.s
    if size > DIRECT_MAX and size > 1 << n:
        kernel = linalg.kernel(generator_matrix(c)).rows
        radices = tuple(4 // next(filter(None, row)) for row in kernel)
        dual_hist = _lee_histogram(kernel, radices, n, jobs)
        return LeeEnumerator(_macwilliams(dual_hist, size))
    hist = _lee_histogram(*enumeration_basis(c), n, jobs)
    return LeeEnumerator({w: int(k) for w, k in enumerate(hist) if k})


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
