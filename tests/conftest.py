"""Shared fixtures and independent oracles.

The oracles here are deliberately naive re-implementations (the
schoolbook polynomial loops, longhand convolution and the polynomial
action on pairs, exhaustive span enumeration, exhaustive Gray-image
closure, shift-by-shift inner products, the entry-by-entry Z4 column
sweep, F2 row reduction) kept separate from the library paths they
check, plus a decoder of the enumeration engine's blocks and
quantities that only the tests evaluate: the size of a Howell span,
the inverse Gray map, and those of the projection-size lemma.
"""

from __future__ import annotations

import random
from itertools import product

import numpy as np
import pytest
from hypothesis import settings

from z4dc import f2poly, linalg, z4poly
from z4dc.code import validate
from z4dc.dual import residue_gcd
from z4dc.errors import InternalCheckFailed, Z4DCError

# Every property test replays the same examples on every run; each keeps
# its own max_examples.
settings.register_profile("z4dc", derandomize=True, deadline=None)
settings.load_profile("z4dc")


@pytest.fixture
def rng():
    return random.Random(0xC0DE)


# -- naive polynomial oracles --------------------------------------------


def naive_mul(a, b):
    """Longhand convolution over Z4, independent of z4poly.mul."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % 4
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def naive_mod_cyclic(a, n):
    out = [0] * n
    for i, c in enumerate(a):
        out[i % n] = (out[i % n] + c) % 4
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _stripped(out, q):
    """out mod q without trailing zeros, as a tuple."""
    out = [c % q for c in out]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


# The schoolbook tuple loops that z4poly and f2poly ran before they
# computed on packed ints, kept as the packed kernels' oracles; like
# those, they take Z4 entries of any size, F2 ones too in add and mul.


def naive_add(a, b):
    """Coefficientwise sum over Z4."""
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % 4
    return _stripped(out, 4)


def naive_divmod_monic(a, d):
    """(q, rem) over Z4 by schoolbook division, for d with lead 1 or 3."""
    inv_lead = 1 if d[-1] == 1 else 3
    rem = list(a)
    dd = len(d) - 1
    q = [0] * max(len(a) - dd, 0)
    for i in range(len(rem) - 1, dd - 1, -1):
        c = rem[i]
        if c:
            factor = (c * inv_lead) % 4
            q[i - dd] = factor
            for j, dc in enumerate(d):
                rem[i - dd + j] = (rem[i - dd + j] - factor * dc) % 4
    return _stripped(q, 4), _stripped(rem, 4)


def naive_add_f2(a, b):
    """Coefficientwise sum over F2."""
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] ^= c
    return _stripped(out, 2)


def naive_mul_f2(a, b):
    """Longhand convolution over F2."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] ^= x & y
    return _stripped(out, 2)


def naive_divmod_f2(a, b):
    """(q, rem) over F2 by schoolbook division, for bit tuples a and b
    with lead 1."""
    rem = list(a)
    db = len(b) - 1
    q = [0] * max(len(a) - db, 0)
    for i in range(len(rem) - 1, db - 1, -1):
        if rem[i]:
            q[i - db] = 1
            for j, c in enumerate(b):
                rem[i - db + j] ^= c
    return _stripped(q, 2), _stripped(rem, 2)


def xstar_mul(p, pair, r, s):
    """The componentwise action of p on a pair of blocks, by longhand
    convolution reduced mod x^r-1 and x^s-1."""
    return (naive_mod_cyclic(naive_mul(p, pair[0]), r),
            naive_mod_cyclic(naive_mul(p, pair[1]), s))


def all_polys(max_len, alphabet=4):
    """Every coefficient tuple with fewer than max_len entries."""
    for length in range(max_len + 1):
        for coeffs in product(range(alphabet), repeat=length):
            yield tuple(coeffs)


def random_poly(rng, max_deg, alphabet=4):
    return z4poly.canon(rng.randrange(alphabet) for _ in range(max_deg + 1))


# -- memoized kernels ------------------------------------------------------


def memoized_names(module) -> set[str]:
    """The functions of a module that carry an lru_cache."""
    return {name for name, obj in vars(module).items()
            if callable(obj) and hasattr(obj, "cache_info")}


def check_memoized(fn, args):
    """The lru_cache wrapper fn agrees with its uncached body on args, on
    a cold cache (one miss) and again from the cache (one hit)."""
    expected = fn.__wrapped__(*args)
    fn.cache_clear()
    first = fn(*args)
    again = fn(*args)
    assert first == again == expected
    assert type(first) is type(expected)
    assert fn.cache_info()[:2] == (1, 1)  # (hits, misses)


def check_rejected_again(fn, args, exc):
    """A rejected call is not cached: it raises on every repetition and
    leaves no entry behind."""
    fn.cache_clear()
    for _ in range(2):
        with pytest.raises(exc):
            fn(*args)
    assert fn.cache_info().currsize == 0


# -- matrices, the Z4 sweep oracle and F2 row reduction ---------------------


def mat(rows, ncols):
    """A MatZ4 of the rows, entries reduced mod 4."""
    return linalg.MatZ4(tuple(tuple(c % 4 for c in r) for r in rows), ncols)


def howell_by_sweep(m):
    """Howell form of m by the tuple column sweep: at each column the
    pivot is the first pending row with a unit entry there (scaled by 3
    if it is 3), else the first with entry 2; x -= (x[j] // pivot) * p
    clears the column from every pending row and reduces every output
    row above it, and a 2-pivot row queues its annihilator row 2*p.
    Entries are taken mod 4 first.  The oracle for linalg.howell, whose
    output must be identical because the Howell form is canonical."""
    n = m.ncols
    pending = [[c % 4 for c in r] for r in m.rows]
    pending = [r for r in pending if any(r)]
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
    return linalg.HowellForm(linalg.MatZ4(tuple(map(tuple, out)), n), tuple(pivots))


def coset_representative_by_sweep(h, v):
    """v reduced mod 4 against the Howell rows of h left to right by the
    sweep's elimination v -= (v[j] // pivot) * row, entry by entry."""
    v = [c % 4 for c in v]
    for (j, val), row in zip(h.pivots, h.matrix.rows):
        c = v[j] // val
        if c:
            for k in range(j, len(v)):
                v[k] = (v[k] - c * row[k]) % 4
    return tuple(v)


def kernel_by_sweep(m):
    """The kernel of m by the sweep on [m^T | I]: the right blocks of the
    rows whose left block vanishes."""
    nr, n = len(m.rows), m.ncols
    aug = [tuple(m.rows[k][i] for k in range(nr)) + tuple(int(t == i) for t in range(n))
           for i in range(n)]
    h = howell_by_sweep(linalg.MatZ4(tuple(aug), nr + n))
    return linalg.MatZ4(tuple(r[nr:] for r in h.matrix.rows if not any(r[:nr])), n)


def to_bits(v) -> int:
    """Bitmask of a 0/1 vector (or bit polynomial): bit i is entry i mod 2."""
    return sum((b & 1) << i for i, b in enumerate(v))


def from_bits(x: int):
    """The polynomial whose coefficient i is bit i of x."""
    return tuple((x >> i) & 1 for i in range(x.bit_length()))


def reduce_row(v: int, basis: list[int], pivots: list[int]) -> int:
    """Reduce a bitmask row against a reduced echelon basis; the result
    is zero iff v lies in the span."""
    for p, b in zip(pivots, basis):
        if v >> p & 1:
            v ^= b
    return v


def rref(rows) -> tuple[list[int], list[int]]:
    """Reduced row echelon form over F2 of bitmask rows.

    Returns (basis, pivots) sorted by pivot column, where a row's pivot
    is its lowest set bit and every pivot column is clear in all other
    rows; the basis is therefore canonical for the span.
    """
    basis: list[int] = []
    pivots: list[int] = []
    for row in rows:
        row = reduce_row(row, basis, pivots)
        if row:
            p = (row & -row).bit_length() - 1
            basis = [b ^ row if b >> p & 1 else b for b in basis]
            basis.append(row)
            pivots.append(p)
    order = sorted(range(len(pivots)), key=pivots.__getitem__)
    return [basis[i] for i in order], [pivots[i] for i in order]


def residue_generators_by_elimination(span, r, s):
    """(F1bar_hat, lbar_hat, F2bar_hat) of the binary double cyclic code
    that the rows of span reduce to mod 2, by F2 elimination: the right
    generator is the gcd of the right blocks, the left one that of the
    rows with a vanishing right block in the echelon basis (right block
    in the low bits), and lbar_hat the left block left over when the
    word (0|F2bar_hat) is reduced against the basis, taken mod
    F1bar_hat."""
    F2bar_hat = f2poly.cyclic_gcd([f2poly.canon(row[r:]) for row in span.rows], s)
    right = (1 << s) - 1
    basis, pivots = rref(to_bits(row[r:] + row[:r]) for row in span.rows)
    F1bar_hat = f2poly.cyclic_gcd(
        [from_bits(b >> s) for b in basis if not b & right], r)
    # the sentinel x^s+1 reduces to the zero word
    target = to_bits(f2poly.polymod(F2bar_hat, f2poly.xn_plus_1(s)))
    resid = reduce_row(target, basis, pivots)
    assert not resid & right, "the span does not hold (lbar_hat|F2bar_hat)"
    return F1bar_hat, f2poly.polymod(from_bits(resid >> s), F1bar_hat), F2bar_hat


# -- exhaustive span oracle ----------------------------------------------


def brute_span(rows, ncols):
    """All Z4-combinations of the rows, as a set of tuples."""
    out = set()
    for coeffs in product(range(4), repeat=len(rows)):
        v = tuple(sum(c * row[k] for c, row in zip(coeffs, rows)) % 4
                  for k in range(ncols))
        out.add(v)
    return out


def span_size(h):
    """Number of vectors in the row span of a Howell form: 4 per unit
    pivot, 2 per 2-pivot."""
    size = 1
    for _, val in h.pivots:
        size *= 4 if val == 1 else 2
    return size


def ideal_rows(p, n):
    """The n cyclic shifts of p's coefficient vector mod x^n-1: rows
    whose span is the ideal (p) of Z4[x]/(x^n-1)."""
    v = [0] * n
    for i, c in enumerate(p):
        v[i % n] = (v[i % n] + c) % 4
    return [tuple(v[(k - i) % n] for k in range(n)) for i in range(n)]


# -- exhaustive Gray-image oracle -----------------------------------------


_GRAY_INV = {(0, 0): 0, (0, 1): 1, (1, 1): 2, (1, 0): 3}


def gray_inverse(bits):
    """The Gray map is a bijection per symbol, so any even-length binary
    word decodes uniquely."""
    assert len(bits) % 2 == 0, "binary word length must be even"
    return tuple(_GRAY_INV[(bits[2 * i] & 1, bits[2 * i + 1] & 1)]
                 for i in range(len(bits) // 2))


def bits_to_int(bits):
    """A 0/1 word as an integer, first bit most significant."""
    return int("".join(str(b) for b in bits) or "0", 2)


def gray_image_words(c):
    """The Gray image of c as a set of integers, by full enumeration."""
    from z4dc.gray import gray_map

    return {bits_to_int(gray_map(w)) for w in counter_words(c)}


# -- enumeration order oracle -----------------------------------------------


def counter_words(c):
    """Every codeword of c as a tuple, in the library's enumeration order,
    by a scalar mixed-radix digit counter over the generating rows (the
    last row is the least significant digit; a digit that wraps
    subtracts radix-1 copies of its row and carries)."""
    from z4dc.code import code_size, enumeration_basis

    rows, radices = enumeration_basis(c)
    digits = [0] * len(radices)
    acc = [0] * (c.r + c.s)
    for _ in range(code_size(c)):
        yield tuple(acc)
        pos = len(digits) - 1
        while pos >= 0:
            digits[pos] += 1
            if digits[pos] < radices[pos]:
                acc = [(a + b) % 4 for a, b in zip(acc, rows[pos])]
                break
            digits[pos] = 0
            acc = [(a - (radices[pos] - 1) * b) % 4 for a, b in zip(acc, rows[pos])]
            pos -= 1


def code_engine(c, **kwargs):
    """The BlockEnumerator over the enumeration basis of c."""
    from z4dc.code import BlockEnumerator, enumeration_basis

    return BlockEnumerator(*enumeration_basis(c), c.r + c.s, **kwargs)


def codewords(c):
    """Every codeword of c as a CodeVector, in enumeration order,
    decoded from the Gray image blocks of its BlockEnumerator."""
    from z4dc.code import CodeVector, gray_lanes, unpack

    be = code_engine(c)
    for h in range(be.nblocks):
        for v in unpack(gray_lanes(be.block(h)), be.ncols).tolist():
            yield CodeVector(tuple(v[:c.r]), tuple(v[c.r:]))


def code_vector(v, r):
    """A length-(r+s) vector as a CodeVector with a left block of r."""
    from z4dc.code import CodeVector

    return CodeVector(tuple(v[:r]), tuple(v[r:]))


def broadcast_table(rows, radices, ncols, max_block=1 << 16):
    """The trailing-digit table of a BlockEnumerator (its block 0), built
    the broadcast way: each trailing row's multiples packed from Python
    lists, then one broadcast lane-wise sum per row, most significant
    digit first."""
    from z4dc.code import LO, pack

    split, width = len(radices), 1
    while split > 0 and width * radices[split - 1] <= max_block:
        width *= radices[split - 1]
        split -= 1
    table = np.zeros((1, -(-ncols // 32)), dtype=np.uint64)
    for row, rad in zip(rows[split:], radices[split:]):
        x = table[:, None, :]
        o = pack([[d * a for a in row] for d in range(rad)], ncols)[None, :, :]
        table = (x ^ o ^ ((x & o & LO) << 1)).reshape(-1, table.shape[1])
    return table


def gray_image_is_linear(words):
    """Exhaustive closure oracle: a set of binary words containing 0 is
    linear iff its F2 span has no more elements than the set."""
    lead = {}
    for w in words:
        while w:
            top = w.bit_length()
            if top not in lead:
                lead[top] = w
                break
            w ^= lead[top]
    return 2 ** len(lead) == len(words)


# -- random code factory ---------------------------------------------------


def divisor_lattice_of(n):
    from z4dc.search import divisor_lattice

    return divisor_lattice(n)


def random_code(rng, r_choices=(1, 3, 5, 7), s_choices=(1, 3, 5, 7),
                max_size=None, free_only=False, max_tries=200):
    """Rejection-sample a valid code from the divisor lattices."""
    for _ in range(max_tries):
        r = rng.choice(r_choices)
        s = rng.choice(s_choices)
        D_r = divisor_lattice_of(r)
        D_s = divisor_lattice_of(s)
        f1 = rng.choice(D_r)
        g1 = f1 if free_only else rng.choice([d for d in D_r
                                              if z4poly.divides(d, f1)])
        f2 = rng.choice(D_s)
        g2 = f2 if free_only else rng.choice([d for d in D_s
                                              if z4poly.divides(d, f2)])
        t1 = z4poly.degree(f1)
        l = random_poly(rng, max(t1 - 1, 0)) if rng.random() < 0.8 else ()
        try:
            c = validate(r, s, f1=f1, g1=g1, l=l, f2=f2, g2=g2)
        except InternalCheckFailed:
            raise
        except Z4DCError:
            continue
        if max_size is not None:
            from z4dc.code import code_size

            if code_size(c) > max_size:
                continue
        return c
    raise AssertionError("random_code failed to produce a valid code")


def shaped_code(rnd, r, s, max_bits, min_bits=0, max_tries=200):
    """A valid code of lengths (r, s) with 2^min_bits <= |C| <= 2^max_bits.

    Each residue factor p of x^r-1 (then x^s-1) becomes a full (4^deg p),
    2-torsion (2^deg p) or zero component of that side's generator, at
    random among the kinds the remaining size budget allows; a random
    mixing polynomial is kept when it validates, else l = 0.
    """
    from z4dc.code import code_size

    for _ in range(max_tries):
        budget = max_bits
        chains = []
        for n in (r, s):
            fbar = gbar = f2poly.ONE
            factors = sorted(f2poly.factor_cyclic(n))
            rnd.shuffle(factors)
            for p in factors:
                deg = f2poly.degree(p)
                kind = rnd.choice([k for k, cost in enumerate((2 * deg, deg, 0))
                                   if cost <= budget])
                budget -= (2 * deg, deg, 0)[kind]
                if kind:
                    fbar = f2poly.mul(fbar, p)
                if kind == 2:
                    gbar = f2poly.mul(gbar, p)
            chains.append((z4poly.hensel_lift(fbar, n), z4poly.hensel_lift(gbar, n)))
        (f1, g1), (f2, g2) = chains
        for l in (random_poly(rnd, max(z4poly.degree(f1) - 1, 0)), ()):
            try:
                c = validate(r, s, f1=f1, g1=g1, l=l, f2=f2, g2=g2)
            except InternalCheckFailed:
                raise
            except Z4DCError:
                continue
            if code_size(c) >= 2 ** min_bits:
                return c
            break
    raise AssertionError("shaped_code failed to produce a code of that size")


# -- projection oracles --------------------------------------------------


def projection_size(m, cols):
    """The number of words in the projection of the span of m onto cols,
    from the Howell form of those columns."""
    return span_size(linalg.howell(linalg.column_slice(m, cols)))


def epsilon(c):
    """deg F1 - deg gcd(F1, l), with the residue gcd convention."""
    return z4poly.degree(c.f1) - f2poly.degree(residue_gcd(c))


def gcd_convention_faithful(c):
    """Whether the residue-gcd convention measures the mixing polynomial
    exactly: l = 0, or l survives reduction mod 2 and is an exact
    multiple of its residue gcd with F1.  The closed-form projection
    size and dual degree identities are theorems only on this
    population."""
    if c.l == z4poly.ZERO:
        return True
    if z4poly.reduce_mod2(c.l) == f2poly.ZERO:
        return False
    d = z4poly.hensel_lift(residue_gcd(c), c.r)
    return z4poly.divmod_monic(c.l, d)[1] == z4poly.ZERO


def gcd_f2_oracle(a, b):
    """Euclid over F2, independent of f2poly.gcd."""
    a, b = tuple(a), tuple(b)

    def mod(x, y):
        x = list(x)
        while len(x) >= len(y) and any(x):
            while x and x[-1] == 0:
                x.pop()
            if len(x) < len(y):
                break
            shift = len(x) - len(y)
            for i, c in enumerate(y):
                x[shift + i] ^= c
        while x and x[-1] == 0:
            x.pop()
        return tuple(x)

    while b:
        a, b = b, mod(a, b)
    return a


def _f2_mod(a: int, p: int) -> int:
    """a mod p over F2, both as bitmasks (bit i the coefficient of x^i)."""
    while a.bit_length() >= p.bit_length():
        a ^= p << (a.bit_length() - p.bit_length())
    return a


def is_irreducible_rabin(poly) -> bool:
    """Rabin's test over F2, on bitmask arithmetic independent of f2poly:
    p of degree d >= 1 is irreducible iff x^(2^d) = x mod p and
    gcd(x^(2^(d/q)) - x, p) = 1 for every prime q dividing d."""
    p = sum(c << i for i, c in enumerate(poly))
    d = p.bit_length() - 1
    if d < 1:
        return False
    x = _f2_mod(0b10, p)

    def frobenius(k):  # x^(2^k) mod p, by k squarings
        a = x
        for _ in range(k):
            sq = 0
            for i in range(a.bit_length()):
                if a >> i & 1:
                    sq ^= a << i
            a = _f2_mod(sq, p)
        return a

    def coprime(a, b):
        while b:
            a, b = b, _f2_mod(a, b)
        return a == 1

    primes = [q for q in range(2, d + 1)
              if d % q == 0 and all(q % e for e in range(2, q))]
    return frobenius(d) == x and all(coprime(p, frobenius(d // q) ^ x)
                                     for q in primes)
