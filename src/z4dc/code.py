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

Cyclic ideals are handled by their residue factors, with no span
computed: for odd n the ideal (f + 2g) of Z4[x]/(x^n-1) with
g | f | x^n-1 holds w iff g divides w and f divides w mod 2
(in_ideal), and canonicalize_ideal reads (f, g) off the residue
factors of x^n-1 that divide the spanning polynomials.

Codes are immutable after validation; enumeration is a deterministic
mixed-radix counter (S1 digits most significant, then S2, S3, S4, each
coefficient block ascending) whose index space partitions into
contiguous sub-ranges for parallel consumers.  One engine,
BlockEnumerator, produces it, as the Gray images (gray_lanes) of
codewords packed in 2-bit lanes of uint64 words (pack) that add mod 4
lane by lane (lane_add).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import f2poly, linalg, polytext
from .errors import (
    BrokenDivisibilityChain,
    DegenerateGenerators,
    DegreeOverflow,
    DimensionMismatch,
    EnumerationCapExceeded,
    EvenLength,
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


@dataclass(frozen=True)
class DoubleCyclicCode:
    r: int
    s: int
    f1: Poly
    g1: Poly
    l: Poly
    f2: Poly
    g2: Poly

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
    def case(self) -> str:
        """Case "iii" with both generators, "ii" with only (l|F2), else "i"."""
        if self.right_present:
            return "iii" if self.left_present else "ii"
        return "i"

    @property
    def is_free(self) -> bool:
        """Free module test: f = g on both sides of the quintuple."""
        return self.f1 == self.g1 and self.f2 == self.g2


def rotations(pair: tuple[Poly, Poly], r: int, s: int,
              count: int) -> list[tuple[int, ...]]:
    """The concatenated vectors of x^i * pair for i < count: tau_inv(pair)
    and its next count-1 shift_T images."""
    v = tau_inv(pair, r, s)
    left, right = v.left * 2, v.right * 2  # x^i * block is a slice of it doubled
    return [left[r - i % r:2 * r - i % r] + right[s - i % s:2 * s - i % s]
            for i in range(count)]


def poly_to_vec(p: Poly, n: int) -> tuple[int, ...]:
    p = mod_cyclic(p, n)
    return p + (0,) * (n - len(p))


def in_ideal(f: Poly, g: Poly, w: Poly) -> bool:
    """Membership of w in the ideal (f + 2g) = (f, 2g) of Z4[x]/(x^n-1),
    for monic g | f | x^n-1: g divides w over Z4 and the residue of f
    divides the residue of w over F2.  w need not be reduced mod x^n-1,
    because f and g divide it."""
    return (not divmod_monic(w, g)[1]
            and not f2poly.polymod(reduce_mod2(w), reduce_mod2(f)))


def annihilator(f: Poly, g: Poly, n: int) -> Poly:
    """A generator of the annihilator of the ideal (f + 2g) of
    Z4[x]/(x^n-1), g | f | x^n-1, reduced: (x^n-1)/g plus 2(x^n-1)/f,
    or the first alone when f = g (Pless and Qian, IEEE-IT 42(5),
    1996).  The ring is quasi-Frobenius, so the annihilator of this
    annihilator is (f + 2g) again."""
    a, b = exact_div(xn_minus_1(n), g), exact_div(xn_minus_1(n), f)
    return mod_cyclic(a if a == b else add(a, scale(2, b)), n)


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
    recovery path for non-canonical generating sets).  Both mixing
    conditions are divisibility tests (in_ideal); together they make
    code_size a theorem for the validated generators, so no span is
    computed here.  r and s are integers (not bools) of at most
    polytext.MAX_LENGTH.
    """
    for name, n in (("r", r), ("s", s)):
        if type(n) is not int:  # bool is an int subclass
            raise InvalidInput(f"{name} must be an integer, got {n!r:.40}")
        if n > polytext.MAX_LENGTH:
            raise InvalidInput(f"{name} must be at most {polytext.MAX_LENGTH}")
        if n < 1 or n % 2 == 0:
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
    if not in_ideal(f1, g1, w):
        raise MixingConstraintViolation(
            f"((x^s-1)/g2)*l = {polytext.render(w)} mod x^{r}-1 is outside "
            f"the ideal generated by f1+2g1", witness=w)
    # second compatibility condition: 2 * ((x^s-1)/f2) * l must lie in the
    # same ideal.  Together with the first this makes the kernel of the
    # right projection exactly the (F1|0)-generated submodule, which makes
    # the size formula code_size a theorem (the tests certify it against
    # the Howell span and enumeration); it is implied by the first
    # condition when f2 = g2 but independent otherwise.
    w2 = mod_cyclic(scale(2, mul(exact_div(xn_minus_1(s), f2), l)), r)
    if not in_ideal(f1, g1, w2):
        raise MixingConstraintViolation(
            f"2*((x^s-1)/f2)*l = {polytext.render(w2)} mod x^{r}-1 is "
            f"outside the ideal generated by f1+2g1", witness=w2)
    return DoubleCyclicCode(r, s, f1, g1, l, f2, g2)


def from_spec_dict(d: dict) -> DoubleCyclicCode:
    """Build a code from the JSON spec form (strings or coefficient arrays)."""
    poly_keys = ("f1", "g1", "l", "f2", "g2")
    if not isinstance(d, dict) or not {"r", "s"} <= d.keys() <= {"r", "s", *poly_keys}:
        raise InvalidInput(f"spec must be an object with keys r, s and optionally "
                           f"f1, g1, l, f2, g2, got {d!r:.80}")
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
    """The rows of enumeration_basis(c) as CodeVectors, with their radices."""
    rows, radices = enumeration_basis(c)
    return [(CodeVector(row[:c.r], row[c.r:]), radix)
            for row, radix in zip(rows, radices)]


def generator_matrix(c: DoubleCyclicCode) -> linalg.MatZ4:
    return linalg.MatZ4(enumeration_basis(c)[0], c.r + c.s)


def code_size(c: DoubleCyclicCode) -> int:
    """4^(r+s-t1-r1) * 2^(t1+r1-t2-r2), exact."""
    return 4 ** (c.r + c.s - c.t1 - c.r1) * 2 ** (c.t1 + c.r1 - c.t2 - c.r2)


def check_enum_cap(c: DoubleCyclicCode, cap: int) -> int:
    """code_size(c), or EnumerationCapExceeded when it exceeds cap.  The
    message names the size as the power of two that every code size is
    (4^a * 2^b), so no size is too large to print."""
    size = code_size(c)
    if size > cap:
        raise EnumerationCapExceeded(
            f"code size 2^{size.bit_length() - 1} exceeds cap {cap}")
    return size


def contains(c: DoubleCyclicCode, v: CodeVector) -> bool:
    """Membership via the generator matrix's Howell form, computed on
    each call; for many vectors, hold linalg.howell(generator_matrix(c))."""
    if len(v.left) != c.r or len(v.right) != c.s:
        raise DimensionMismatch(
            f"vector blocks ({len(v.left)}, {len(v.right)}) != ({c.r}, {c.s})")
    return linalg.membership(linalg.howell(generator_matrix(c)), v.concat())


# -- codeword enumeration -----------------------------------------------


def generator_families(c: DoubleCyclicCode):
    """The S1, S2, S3, S4 families as (generator pair, count, radix):
    each family is the rotations of its pair, r-t1, t1-t2, s-r1 and
    r1-r2 of them; the sentinel encodings make the ranges of absent
    families empty."""
    r, s = c.r, c.s
    return (
        ((c.F1_mod, ZERO), r - c.t1, 4),
        ((mod_cyclic(scale(2, mul(c.h1, c.g1)), r), ZERO), c.t1 - c.t2, 2),
        ((c.l, c.F2_mod), s - c.r1, 4),
        ((mod_cyclic(mul(c.h2, c.l), r), mod_cyclic(scale(2, mul(c.h2, c.g2)), s)),
         c.r1 - c.r2, 2),
    )


@functools.lru_cache(maxsize=64)
def enumeration_basis(c: DoubleCyclicCode):
    """The rows of generator_families, concatenated, with their radices
    (4 or 2), in that order, which is the enumeration's counter order.

    The radix is the number of multiples of the row that the enumeration
    counts through, not its additive order: an S4 row can have odd
    entries and still has radix 2.
    """
    families = generator_families(c)
    return (tuple(row for pair, count, _ in families
                  for row in rotations(pair, c.r, c.s, count)),
            tuple(radix for _, count, radix in families for _ in range(count)))


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
    out = np.empty(np.broadcast_shapes(x.shape, o.shape), dtype=np.uint64)
    return _lane_add_into(out, x, o)


def _lane_add_into(out: np.ndarray, x: np.ndarray, o: np.ndarray) -> np.ndarray:
    """lane_add(x, o) written into out, which must overlap neither."""
    np.bitwise_and(x, o & LO, out=out)
    out <<= 1
    out ^= x
    out ^= o
    return out


def gray_lanes(words: np.ndarray) -> np.ndarray:
    """The Gray image of packed codewords, lane by lane: a symbol with
    bits (a1, a0) becomes (a1, a0 ^ a1), whose value in binary is its
    Gray pair.  It is an involution, so it also decodes Gray images."""
    out = words >> 1
    out &= LO
    out ^= words
    return out


def _span_table(multiples: np.ndarray, radices) -> np.ndarray:
    """The words sum d_i * row_i, 0 <= d_i < radices[i], in counter
    order, column-major, from multiples[i, d] = d * row_i packed; filled
    in place, least significant digit first: with `filled` entries done,
    entry d*filled + k is entry k plus d times the next row, for all
    d > 0 by one broadcast lane addition into a view of the table."""
    table = np.zeros((math.prod(radices), multiples.shape[2]), dtype=np.uint64,
                     order="F")
    filled = 1
    for mult, rad in zip(multiples[::-1], reversed(radices)):
        _lane_add_into(table[filled:rad * filled].reshape(rad - 1, filled, -1),
                       table[:filled], mult[1:rad, None])
        filled *= rad
    return table


class BlockEnumerator:
    """The Gray images of the words sum d_i * rows[i], 0 <= d_i <
    radices[i], in counter order (last digit least significant), in
    contiguous blocks: block h holds indices [h*block_size,
    (h+1)*block_size) as one column-major (block_size, nwords) uint64
    array in the lanes of pack, nwords = ceil(ncols/32).  The basis is
    enumeration_basis of a code, or Howell rows with radix 4 // pivot.
    The trailing digits span a table T of block_size words and the
    leading digits one offset O[h] per block (_span_table), both kept
    as G = phi(.) and L = 3*(. & LO), the odd lanes.  Lane by lane,
    phi(t + o) = phi(t) ^ phi(o) ^ 3*(t0 & o0) for the low bits t0, o0
    (phi(u + v) = phi(u) ^ phi(v) ^ phi(2(u*v)), Hammons et al.), so
    block h is (L_T & L_O[h]) ^ G_T ^ G_O[h]: three passes, into a
    caller's buffer when it passes one, reading only the engine (threads
    share it).  A one-block engine keeps G_T alone and copies it.  A
    block holds at most max_block words, by default 2^16 uint64 in all.
    Blocks are mirrored when there are several and every radix-2 row r
    has 2r = 0 (not so for an S4 row or pivot-2 Howell row with an odd
    entry): the digits then map Z4^a x Z2^b onto the span additively,
    so the blocks, cosets of the trailing digits' subgroup, negate to
    whole blocks.
    """

    def __init__(self, rows, radices, ncols: int, max_block: int | None = None):
        self.ncols = ncols
        self.nwords = -(-ncols // 32)
        if max_block is None:
            max_block = (1 << 16) // self.nwords
        split = len(radices)
        width = 1
        while split > 0 and width * radices[split - 1] <= max_block:
            width *= radices[split - 1]
            split -= 1
        self.radices = tuple(radices)
        self.block_size = width
        self.nblocks = math.prod(radices[:split])
        # multiples[i, d] is d times row i, packed
        once = pack(rows, ncols)
        twice = lane_add(once, once)
        self.mirrored = self.nblocks > 1 and not any(
            twice[i].any() for i, rad in enumerate(radices) if rad == 2)
        multiples = np.stack((np.zeros_like(once), once, twice, lane_add(twice, once)),
                             axis=1)
        table = _span_table(multiples[split:], self.radices[split:])
        self._gray, self._odd = gray_lanes(table), None
        if self.nblocks > 1:
            offsets = _span_table(multiples[:split], self.radices[:split])
            self._gray_offsets = gray_lanes(offsets)
            for x in (table, offsets):  # the odd lanes as 0b11, in place
                x &= LO
                x *= 3
            self._odd, self._odd_offsets = table, offsets

    def negation(self, index):
        """The index of the negated word, for an int or an int array,
        when mirrored: each radix-4 digit d becomes (4 - d) % 4."""
        out, place = 0, 1
        for rad in reversed(self.radices):
            index, d = divmod(index, rad)
            out += place * (-d % rad)
            place *= rad
        return out

    def block(self, h: int, out: np.ndarray | None = None) -> np.ndarray:
        """(block_size, nwords) packed Gray images of block h, column-major,
        written into out (shaped like a block) when it is given."""
        if out is None:
            out = np.empty_like(self._gray)
        if self._odd is None:
            np.copyto(out, self._gray)
            return out
        np.bitwise_and(self._odd, self._odd_offsets[h], out=out)
        out ^= self._gray
        out ^= self._gray_offsets[h]
        return out


# -- ideal canonicalization ---------------------------------------------


def canonicalize_ideal(spanning, n: int) -> tuple[Poly, Poly]:
    """Canonical (f, g) with g | f | x^n-1 generating the same ideal.

    For odd n every ideal of Z4[x]/(x^n-1) is (f + 2g) = (f, 2g) with
    g | f | x^n-1 (Pless and Qian, IEEE-IT 42(5), 1996; Calderbank and
    Sloane, DCC 6, 1995), so it is fixed by what it is at each
    irreducible residue factor p of x^n-1: full, 2-torsion or zero.
    The p-component of the ideal spanned by the given polynomials is
    not full iff p divides every residue w mod 2, so f is the Hensel
    lift of gcd(x^n+1, w1 mod 2, ...); it is zero iff the lift of p
    divides every w over Z4, and g is the Hensel lift of the product of
    those p.  The zero ideal comes out as the sentinel f = g = x^n-1
    and the full ring as f = g = 1.  No span is computed: callers
    certify the result against the span they hold.
    """
    spanning = [canon(w) for w in spanning]
    fbar = f2poly.cyclic_gcd((reduce_mod2(w) for w in spanning), n)
    gbar = f2poly.ONE
    for p in f2poly.factor_cyclic(n):
        lift = hensel_lift(p, n)
        if not any(divmod_monic(w, lift)[1] for w in spanning):
            gbar = f2poly.mul(gbar, p)
    return hensel_lift(fbar, n), hensel_lift(gbar, n)
