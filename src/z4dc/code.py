"""Double cyclic codes of length (r, s) over Z4.

A code is stored as the canonical generator quintuple (f1, g1, l, f2,
g2): the code is generated by (F1|0) and (l|F2) with F1 = f1 + 2*g1 and
F2 = f2 + 2*g2, subject to g1 | f1 | x^r-1 and g2 | f2 | x^s-1.  Absent
generators are encoded by sentinels that make every degree formula
specialize correctly:

  * no left-only generator:  f1 = g1 = x^r - 1   (so F1 = 0 in the ring)
  * no mixed generator:      l = 0, f2 = g2 = x^s - 1

The f/g parts are stored monic; the combined F may carry a unit factor
3 (for example F = 3*f when f = g), which never matters because ideals
are compared by span, not by coefficients.

Codes are immutable after validation; enumeration is a deterministic
mixed-radix counter (S1 digits most significant, then S2, S3, S4, each
coefficient block ascending) whose index space partitions into
contiguous sub-ranges for parallel consumers.  One engine,
BlockEnumerator, produces it, on codewords packed in 2-bit lanes of
uint64 words (pack) that add mod 4 lane by lane (lane_add).
"""

from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import f2poly, linalg, polytext
from .errors import (
    BrokenDivisibilityChain,
    DegenerateGenerators,
    DegreeOverflow,
    DimensionMismatch,
    EnumerationCapExceeded,
    EvenLength,
    InternalCheckFailed,
    InvalidInput,
    MixingConstraintViolation,
    NotMonic,
)
from .z4poly import (
    Poly,
    ZERO,
    add,
    canon,
    degree,
    divides,
    divmod_monic,
    exact_div,
    hensel_lift,
    is_monic,
    mod_cyclic,
    mul,
    mul_mod_cyclic,
    reduce_mod2,
    scale,
    xn_minus_1,
)

DEFAULT_ENUM_CAP = 1 << 26
LO = np.uint64(0x5555555555555555)  # the low bit of every 2-bit lane


@dataclass(frozen=True)
class CodeVector:
    """A codeword split into its left (length r) and right (length s) blocks."""

    left: tuple[int, ...]
    right: tuple[int, ...]

    def concat(self) -> tuple[int, ...]:
        return self.left + self.right


def from_concat(v, r: int, s: int) -> CodeVector:
    v = tuple(c % 4 for c in v)
    if len(v) != r + s:
        raise DimensionMismatch(f"vector length {len(v)} != r+s = {r + s}")
    return CodeVector(v[:r], v[r:])


def shift_T(v: CodeVector) -> CodeVector:
    """Simultaneous right rotation of both blocks by one position."""
    return CodeVector(v.left[-1:] + v.left[:-1], v.right[-1:] + v.right[:-1])


def tau(v: CodeVector) -> tuple[Poly, Poly]:
    """Coordinates-to-coefficients correspondence."""
    return canon(v.left), canon(v.right)


def tau_inv(pair: tuple[Poly, Poly], r: int, s: int) -> CodeVector:
    p, q = canon(pair[0]), canon(pair[1])
    if degree(p) >= r or degree(q) >= s:
        raise DegreeOverflow(
            f"degrees ({degree(p)}, {degree(q)}) do not fit lengths ({r}, {s})")
    return CodeVector(p + (0,) * (r - len(p)), q + (0,) * (s - len(q)))


def xstar_mul(p: Poly, pair: tuple[Poly, Poly], r: int, s: int) -> tuple[Poly, Poly]:
    """Componentwise polynomial action, reduced mod x^r-1 and x^s-1."""
    return mul_mod_cyclic(p, pair[0], r), mul_mod_cyclic(p, pair[1], s)


@dataclass(frozen=True)
class DoubleCyclicCode:
    r: int
    s: int
    f1: Poly
    g1: Poly
    l: Poly
    f2: Poly
    g2: Poly
    case: str  # "i", "ii" or "iii"

    # -- derived generator data ------------------------------------------

    @property
    def F1(self) -> Poly:
        """f1 + 2*g1 as a plain polynomial (not yet reduced mod x^r-1)."""
        return add(self.f1, scale(2, self.g1))

    @property
    def F2(self) -> Poly:
        return add(self.f2, scale(2, self.g2))

    @property
    def F1_mod(self) -> Poly:
        return mod_cyclic(self.F1, self.r)

    @property
    def F2_mod(self) -> Poly:
        return mod_cyclic(self.F2, self.s)

    @property
    def left_present(self) -> bool:
        return self.F1_mod != ZERO

    @property
    def right_present(self) -> bool:
        return self.F2_mod != ZERO

    @property
    def t1(self) -> int:
        return degree(self.f1)

    @property
    def t2(self) -> int:
        return degree(self.g1)

    @property
    def r1(self) -> int:
        return degree(self.f2)

    @property
    def r2(self) -> int:
        return degree(self.g2)

    @property
    def h1(self) -> Poly:
        return exact_div(xn_minus_1(self.r), self.f1)

    @property
    def h2(self) -> Poly:
        return exact_div(xn_minus_1(self.s), self.f2)

    @property
    def is_free(self) -> bool:
        """Free module test: f = g on both sides of the quintuple."""
        return self.f1 == self.g1 and self.f2 == self.g2


def rotations(pair: tuple[Poly, Poly], r: int, s: int,
              count: int) -> list[tuple[int, ...]]:
    """The concatenated vectors of x^i * pair for i < count: tau_inv(pair)
    and its next count-1 shift_T images."""
    v = tau_inv(pair, r, s)
    left, right = deque(v.left), deque(v.right)
    out = []
    for _ in range(count):
        out.append((*left, *right))
        left.rotate()
        right.rotate()
    return out


def _ideal_rows(p: Poly, n: int) -> list[tuple[int, ...]]:
    """Coefficient rows of x^i * p mod x^n-1 for i < n (the module span
    of the ideal generated by p in Z4[x]/(x^n-1)): the rotations of the
    pair (p, 0) with an empty right block."""
    pm = mod_cyclic(p, n)
    if pm == ZERO:
        return []
    return rotations((pm, ZERO), n, 0, n)


@functools.lru_cache(maxsize=256)
def _ideal_howell(p: Poly, n: int) -> linalg.HowellForm:
    rows = _ideal_rows(p, n)
    return linalg.howell(linalg.MatZ4(tuple(rows), n))


def poly_to_vec(p: Poly, n: int) -> tuple[int, ...]:
    p = mod_cyclic(p, n)
    return p + (0,) * (n - len(p))


def ideal_contains(gen: Poly, n: int, w: Poly) -> bool:
    """Membership of w in the ideal (gen) of Z4[x]/(x^n-1)."""
    wm = mod_cyclic(w, n)
    if wm == ZERO:
        return True
    if mod_cyclic(gen, n) == ZERO:
        return False
    return linalg.membership(_ideal_howell(mod_cyclic(gen, n), n), poly_to_vec(wm, n))


def _check_chain(gsmall: Poly, gbig: Poly, modulus: Poly, names: str):
    small, big, mod = names.split(" | ")
    for a, b, na, nb in ((gsmall, gbig, small, big), (gbig, modulus, big, mod)):
        if not divides(a, b):
            raise BrokenDivisibilityChain(f"chain broken: {na} does not divide {nb}")


def validate(r: int, s: int, f1: Poly | None = None, g1: Poly | None = None,
             l: Poly | None = None, f2: Poly | None = None,
             g2: Poly | None = None) -> DoubleCyclicCode:
    """Check every generator invariant and return the immutable code.

    Absent generators are passed as None (both of f1/g1, or any of
    l/f2/g2); sentinels are substituted internally.  The mixing
    polynomial is degree-normalized against F1 before the constraints
    are checked; an incompatible mixing polynomial is an error rather
    than a silent recanonicalization (canonicalize_ideal is the
    recovery path for non-canonical generating sets).
    """
    for name, n in (("r", r), ("s", s)):
        if not isinstance(n, int) or n < 1 or n % 2 == 0:
            raise EvenLength(f"{name} must be a positive odd integer, got {n!r}")

    if (f1 is None) != (g1 is None):
        raise DegenerateGenerators("f1 and g1 must be supplied together")
    if f1 is None:
        f1 = g1 = xn_minus_1(r)
    if (f2 is None) != (g2 is None):
        raise DegenerateGenerators("f2 and g2 must be supplied together")
    if f2 is None:
        if l is not None and canon(l) != ZERO:
            raise DegenerateGenerators(
                "a mixing polynomial requires a right-block generator")
        f2 = g2 = xn_minus_1(s)
    l = ZERO if l is None else canon(l)
    f1, g1, f2, g2 = canon(f1), canon(g1), canon(f2), canon(g2)

    for name, p in (("f1", f1), ("g1", g1), ("f2", f2), ("g2", g2)):
        if not is_monic(p):
            raise NotMonic(f"{name} must be monic, got {polytext.render(p)!r}")
    _check_chain(g1, f1, xn_minus_1(r), "g1 | f1 | x^r-1")
    _check_chain(g2, f2, xn_minus_1(s), "g2 | f2 | x^s-1")

    F1 = add(f1, scale(2, g1))
    l = divmod_monic(mod_cyclic(l, r), F1)[1]

    F2_mod = mod_cyclic(add(f2, scale(2, g2)), s)
    if F2_mod == ZERO and l != ZERO:
        raise DegenerateGenerators(
            "mixing polynomial with a vanishing right generator: the pair "
            "(l|0) is not canonical; fold it into the left ideal instead")

    # compatibility of the mixing polynomial: ((x^s-1)/g2) * l must lie
    # in the ideal generated by F1 (for an absent left generator this
    # ideal is zero, forcing (x^r-1) | ((x^s-1)/g2) * l)
    w = mod_cyclic(mul(exact_div(xn_minus_1(s), g2), l), r)
    if not ideal_contains(F1, r, w):
        raise MixingConstraintViolation(
            f"((x^s-1)/g2)*l = {polytext.render(w)} mod x^{r}-1 is outside "
            f"the ideal generated by f1+2g1", witness=w)
    # second compatibility condition: 2 * ((x^s-1)/f2) * l must lie in the
    # same ideal.  Together with the first this makes the kernel of the
    # right projection exactly the (F1|0)-generated submodule, which the
    # generating-set size count relies on; it is implied by the first
    # condition when f2 = g2 but independent otherwise.
    w2 = mod_cyclic(scale(2, mul(exact_div(xn_minus_1(s), f2), l)), r)
    if not ideal_contains(F1, r, w2):
        raise MixingConstraintViolation(
            f"2*((x^s-1)/f2)*l = {polytext.render(w2)} mod x^{r}-1 is "
            f"outside the ideal generated by f1+2g1", witness=w2)

    right_present = F2_mod != ZERO
    left_present = mod_cyclic(F1, r) != ZERO
    if left_present and right_present:
        case = "iii"
    elif left_present or not right_present:
        case = "i"
    else:
        case = "ii"
    c = DoubleCyclicCode(r, s, f1, g1, l, f2, g2, case)

    # With both mixing conditions in force the kernel of the right
    # projection is exactly the (F1|0)-submodule, which makes the size
    # formula a theorem; a mismatch here is a bug, not a user error.
    if linalg.span_size(_generator_howell(c)) != code_size(c):
        raise InternalCheckFailed(
            "validated generators span a module of the wrong size")
    return c


def from_spec_dict(d: dict) -> DoubleCyclicCode:
    """Build a code from the JSON spec form (strings or coefficient arrays)."""
    poly_keys = ("f1", "g1", "l", "f2", "g2")
    if not isinstance(d, dict) or not {"r", "s"} <= d.keys() <= {"r", "s", *poly_keys}:
        raise InvalidInput(f"spec must be an object with keys r, s and optionally "
                           f"f1, g1, l, f2, g2, got {d!r:.80}")
    for key in ("r", "s"):
        if type(d[key]) is not int:  # bool is an int subclass
            raise InvalidInput(f"{key} must be an integer, got {d[key]!r:.40}")
    kwargs = {k: polytext.from_json(d[k]) for k in poly_keys if d.get(k) is not None}
    return validate(d["r"], d["s"], **kwargs)


def spec_dict(c: DoubleCyclicCode) -> dict:
    """Canonical JSON echo; absent generators are omitted."""
    out: dict = {"r": c.r, "s": c.s}
    if c.left_present:
        out["f1"] = polytext.render(c.f1)
        out["g1"] = polytext.render(c.g1)
    if c.right_present:
        if c.l != ZERO:
            out["l"] = polytext.render(c.l)
        out["f2"] = polytext.render(c.f2)
        out["g2"] = polytext.render(c.g2)
    return out


def minimal_generating_set(c: DoubleCyclicCode) -> list[tuple[CodeVector, int]]:
    """The S1, S2, S3, S4 rows with their radices (4 or 2), in that order.

    The radix is the number of multiples of the row that the enumeration
    counts through, not its additive order: an S4 row can have odd
    entries and still has radix 2.

    Each family is the rotations of one generator pair, r-t1, t1-t2,
    s-r1 and r1-r2 of them; the sentinel encodings make the ranges of
    absent families empty.
    """
    r, s = c.r, c.s
    families = (
        ((c.F1_mod, ZERO), r - c.t1, 4),
        ((mod_cyclic(scale(2, mul(c.h1, c.g1)), r), ZERO), c.t1 - c.t2, 2),
        ((c.l, c.F2_mod), s - c.r1, 4),
        ((mod_cyclic(mul(c.h2, c.l), r), mod_cyclic(scale(2, mul(c.h2, c.g2)), s)),
         c.r1 - c.r2, 2),
    )
    return [(CodeVector(row[:r], row[r:]), radix) for pair, count, radix in families
            for row in rotations(pair, r, s, count)]


def generator_matrix(c: DoubleCyclicCode) -> linalg.MatZ4:
    rows = tuple(v.concat() for v, _ in minimal_generating_set(c))
    return linalg.MatZ4(rows, c.r + c.s)


def code_size(c: DoubleCyclicCode) -> int:
    """4^(r+s-t1-r1) * 2^(t1+r1-t2-r2), exact."""
    return 4 ** (c.r + c.s - c.t1 - c.r1) * 2 ** (c.t1 + c.r1 - c.t2 - c.r2)


@functools.lru_cache(maxsize=64)
def _generator_howell(c: DoubleCyclicCode) -> linalg.HowellForm:
    return linalg.howell(generator_matrix(c))


def contains(c: DoubleCyclicCode, v: CodeVector) -> bool:
    """Membership via the cached Howell form of the generator matrix."""
    if len(v.left) != c.r or len(v.right) != c.s:
        raise DimensionMismatch(
            f"vector blocks ({len(v.left)}, {len(v.right)}) != ({c.r}, {c.s})")
    return linalg.membership(_generator_howell(c), v.concat())


# -- codeword enumeration -----------------------------------------------


@functools.lru_cache(maxsize=64)
def enumeration_basis(c: DoubleCyclicCode):
    """Generating rows with their digit radices, in counter order."""
    gens = minimal_generating_set(c)
    rows = tuple(v.concat() for v, _ in gens)
    radices = tuple(order for _, order in gens)
    return rows, radices


def pack(vectors, n: int) -> np.ndarray:
    """(m, ceil(n/32)) uint64 words of m length-n vectors, symbol j in
    the 2-bit lane at bits 2j and 2j+1 of word j // 32."""
    m, nwords = len(vectors), -(-n // 32)
    sym = np.zeros((m, nwords * 32), dtype=np.uint64)
    sym[:, :n] = np.array(vectors, dtype=np.uint64).reshape(m, n) % 4
    lanes = sym.reshape(m, nwords, 32) << (2 * np.arange(32, dtype=np.uint64))
    return np.bitwise_or.reduce(lanes, axis=2)


def unpack(words: np.ndarray, n: int) -> np.ndarray:
    """(m, n) uint8 symbols of m packed vectors, the inverse of pack."""
    j = np.arange(n)
    return ((words[:, j // 32] >> (2 * (j % 32)).astype(np.uint64)) & 3).astype(np.uint8)


def lane_add(x: np.ndarray, o: np.ndarray) -> np.ndarray:
    """Lane-wise sum mod 4: the low bits add by XOR and their carry goes
    into the high bit of the same lane, never into the next lane."""
    return x ^ o ^ ((x & o & LO) << 1)


def enumerate_codewords(c: DoubleCyclicCode, cap: int = DEFAULT_ENUM_CAP,
                        start: int = 0, stop: int | None = None) -> Iterator[CodeVector]:
    """Stream the codewords for indices [start, stop) in counter order,
    decoded from the blocks of BlockEnumerator.

    Yields exactly code_size(c) distinct vectors over the full range;
    disjoint sub-ranges may be consumed by parallel workers.
    """
    size = code_size(c)
    if size > cap:
        raise EnumerationCapExceeded(f"code size {size} exceeds cap {cap}")
    if stop is None:
        stop = size
    be = BlockEnumerator(c)
    for h in range(start // be.block_size, -(-stop // be.block_size)):
        lo = h * be.block_size
        for v in unpack(be.block(h), be.ncols)[max(start - lo, 0):stop - lo].tolist():
            yield CodeVector(tuple(v[:c.r]), tuple(v[c.r:]))


class BlockEnumerator:
    """The enumeration order in contiguous blocks of packed codewords.

    Block h holds the codewords with indices [h*block_size,
    (h+1)*block_size) as one (block_size, nwords) uint64 array in the
    lanes of pack, nwords = ceil((r+s)/32).  The trailing digits are a
    table built once by lane-wise addition; the leading digits of h
    become one offset word vector that each block adds to the table.
    """

    def __init__(self, c: DoubleCyclicCode, max_block: int = 1 << 16):
        rows, radices = enumeration_basis(c)
        n = c.r + c.s
        split = len(radices)
        width = 1
        while split > 0 and width * radices[split - 1] <= max_block:
            width *= radices[split - 1]
            split -= 1
        self.ncols = n
        self.nwords = -(-n // 32)
        self.block_size = width
        self.nblocks = math.prod(radices[:split])
        # multiples[i][d] is d times row i, packed
        multiples = [pack([[d * x for x in row] for d in range(rad)], n)
                     for row, rad in zip(rows, radices)]
        self._high = multiples[:split]
        table = np.zeros((1, self.nwords), dtype=np.uint64)
        for mult in multiples[split:]:
            table = lane_add(table[:, None, :], mult[None, :, :]).reshape(-1, self.nwords)
        # column-major, so each word column is one contiguous run
        self._table = np.asfortranarray(table)

    def block(self, h: int) -> np.ndarray:
        """(block_size, nwords) packed codewords of block h, column-major."""
        offset = np.zeros(self.nwords, dtype=np.uint64)
        for mult in reversed(self._high):
            h, d = divmod(h, len(mult))
            if d:
                offset = lane_add(offset, mult[d])
        # lane_add(table, offset), in place on one new array
        out = self._table & (offset & LO)
        out <<= 1
        out ^= self._table
        out ^= offset
        return out


# -- ideal canonicalization and residue code ----------------------------


def canonicalize_ideal(spanning, n: int) -> tuple[Poly, Poly]:
    """Canonical (f, g) with g | f | x^n-1 generating the same ideal.

    The ideal of Z4[x]/(x^n-1) spanned by the given polynomials is
    probed per irreducible residue factor p of x^n-1: the lifted
    cofactor (x^n-1)/p acts as a unit in the p-component and zero
    elsewhere, so two Howell membership tests classify the component as
    full, 2-torsion or zero.  f collects the non-full components, g the
    zero ones; both are Hensel lifts so the chain g | f | x^n-1 holds.
    The zero ideal comes out as the sentinel f = g = x^n-1 and the full
    ring as f = g = 1.
    """
    rows = []
    for w in spanning:
        rows.extend(_ideal_rows(canon(w), n))
    h = linalg.howell(linalg.MatZ4(tuple(rows), n))
    fbar: f2poly.Poly = f2poly.ONE
    gbar: f2poly.Poly = f2poly.ONE
    for p in sorted(f2poly.factor_cyclic(n)):
        cof = hensel_lift(f2poly.polydivmod(f2poly.xn_plus_1(n), p)[0], n)
        vec = poly_to_vec(cof, n)
        if linalg.membership(h, vec):
            continue
        fbar = f2poly.mul(fbar, p)
        if not linalg.membership(h, tuple((2 * x) % 4 for x in vec)):
            gbar = f2poly.mul(gbar, p)
    f = hensel_lift(fbar, n)
    g = hensel_lift(gbar, n)
    rebuilt = _ideal_rows(mod_cyclic(add(f, scale(2, g)), n), n)
    if linalg.howell(linalg.MatZ4(tuple(rebuilt), n)).matrix.rows != h.matrix.rows:
        raise InternalCheckFailed("canonicalized ideal does not reproduce the span")
    return f, g


@dataclass(frozen=True)
class ResidueCode:
    """The mod-2 image: a binary double cyclic code of the same lengths.

    Stored as residue generators; membership and size are computed over
    F2 from the {0,1} generator rows.
    """

    r: int
    s: int
    F1bar: f2poly.Poly
    lbar: f2poly.Poly
    F2bar: f2poly.Poly

    def generator_rows(self) -> list[tuple[int, ...]]:
        families = (((self.F1bar, ZERO), self.r), ((self.lbar, self.F2bar), self.s))
        return [row for pair, count in families
                for row in rotations(pair, self.r, self.s, count) if any(row)]

    def _rref(self) -> tuple[list[int], list[int]]:
        return f2poly.rref(f2poly.to_bits(row) for row in self.generator_rows())

    def size(self) -> int:
        return 2 ** len(self._rref()[0])

    def contains(self, v) -> bool:
        if len(v) != self.r + self.s:
            raise DimensionMismatch(f"vector length {len(v)} != {self.r + self.s}")
        return not f2poly.reduce_row(f2poly.to_bits(v), *self._rref())


def residue_code(c: DoubleCyclicCode) -> ResidueCode:
    """The binary double cyclic code of codewords reduced mod 2."""
    F1bar = f2poly.polymod(reduce_mod2(c.F1), f2poly.xn_plus_1(c.r))
    lbar = f2poly.polymod(reduce_mod2(c.l), f2poly.xn_plus_1(c.r))
    F2bar = f2poly.polymod(reduce_mod2(c.F2), f2poly.xn_plus_1(c.s))
    return ResidueCode(c.r, c.s, F1bar, lbar, F2bar)
