"""Binary polynomial arithmetic and factorization of x^n - 1 over F2.

Same representation convention as z4poly: tuples of bits, ascending
degree, no trailing zeros, () for the zero polynomial.  Only what the
Z4 layer needs lives here: ring ops, gcd/xgcd, and Berlekamp
factorization of the squarefree polynomial x^n - 1 (n odd).

Every function is pure.  The ring ops, division, gcd and x^n + 1 are
memoized with bounded caches of CACHE_SIZE entries each (z4poly shares
the bound), because the codes of a search or a dual population are
built from the same few divisors of x^n - 1 and repeat the same
products and divisions; so callers pass tuples, which are hashable.
An exception is never cached: a rejected call raises again.
"""

from __future__ import annotations

import functools

from .errors import BothZero, EvenLength, InternalCheckFailed

Poly = tuple[int, ...]

CACHE_SIZE = 512  # entries per memoized function, here and in z4poly
memoize = functools.lru_cache(maxsize=CACHE_SIZE)

ZERO: Poly = ()
ONE: Poly = (1,)


def canon(coeffs) -> Poly:
    out = [c % 2 for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def degree(a: Poly) -> int:
    return len(a) - 1


@memoize
def add(a: Poly, b: Poly) -> Poly:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] ^= c
    return canon(out)


@memoize
def mul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return ZERO
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] ^= x & y
    return canon(out)


@memoize
def xn_plus_1(n: int) -> Poly:
    """x^n + 1, which equals x^n - 1 over F2."""
    return canon([1] + [0] * (n - 1) + [1])


@memoize
def polydivmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    rem = list(a)
    db = len(b) - 1
    q = [0] * max(len(a) - db, 0)
    for i in range(len(rem) - 1, db - 1, -1):
        if rem[i]:
            q[i - db] = 1
            for j, c in enumerate(b):
                rem[i - db + j] ^= c
    return canon(q), canon(rem)


def polymod(a: Poly, b: Poly) -> Poly:
    return polydivmod(a, b)[1]


@memoize
def gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor; not both arguments may be zero."""
    if not a and not b:
        raise BothZero("gcd(0, 0) is undefined")
    while b:
        a, b = b, polymod(a, b)
    return a  # nonzero over F2 is automatically monic


def cyclic_gcd(parts, n: int) -> Poly:
    """gcd(x^n+1, *parts): the generator polynomial of the binary cyclic
    code of length n that the parts span (x^n+1 when they are all zero)."""
    return functools.reduce(gcd, parts, xn_plus_1(n))


def xgcd(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """(g, u, v) with u*a + v*b = g = gcd(a, b)."""
    if not a and not b:
        raise BothZero("gcd(0, 0) is undefined")
    r0, r1 = a, b
    s0, s1 = ONE, ZERO
    t0, t1 = ZERO, ONE
    while r1:
        q, r = polydivmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, add(s0, mul(q, s1))
        t0, t1 = t1, add(t0, mul(q, t1))
    return r0, s0, t0


def to_bits(v) -> int:
    """Bitmask of a 0/1 vector (or bit polynomial): bit i is entry i mod 2."""
    return sum((b & 1) << i for i, b in enumerate(v))


def from_bits(x: int) -> Poly:
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


def _left_nullspace(rows: list[Poly], d: int) -> list[Poly]:
    """Basis of {v : sum_i v_i * rows[i] = 0} with rows padded to length d.

    One linear constraint per column, reduced by rref; each free
    variable set to 1 in turn determines the pivot variables.
    """
    constraints = [to_bits([row[j] if j < len(row) else 0 for row in rows])
                   for j in range(d)]
    basis, pivots = rref(constraints)
    out = []
    for free in sorted(set(range(d)) - set(pivots)):
        v = 1 << free
        for p, b in zip(pivots, basis):
            v |= (b >> free & 1) << p
        out.append(from_bits(v))
    return out


@functools.lru_cache(maxsize=64)
def factor_cyclic(n: int) -> frozenset[Poly]:
    """Distinct monic irreducible factors of x^n - 1 over F2 (cached: the
    frozenset is immutable and callers ask again for the same few n).

    n odd makes x^n - 1 squarefree, so plain Berlekamp splitting applies:
    the nullity of the Frobenius-minus-identity map counts the factors,
    and gcds against Berlekamp subalgebra elements separate them.
    """
    if n < 1 or n % 2 == 0:
        raise EvenLength(f"n must be a positive odd integer, got {n!r}")
    f = xn_plus_1(n)
    if n == 1:
        return frozenset({f})
    d = n
    # rows[i] = x^(2i) mod f
    rows: list[Poly] = []
    cur: Poly = ONE
    xsq = polymod((0, 0, 1), f)
    for _ in range(d):
        rows.append(cur)
        cur = polymod(mul(cur, xsq), f)
    # Q - I, acting on coefficient row vectors
    qmi = []
    for i in range(d):
        row = list(rows[i]) + [0] * (d - len(rows[i]))
        row[i] ^= 1
        qmi.append(canon(row))
    basis = _left_nullspace(qmi, d)
    k = len(basis)
    factors: list[Poly] = [f]
    for v in basis:
        if len(factors) == k:
            break
        out: list[Poly] = []
        for u in factors:
            if degree(u) <= 1:
                out.append(u)
                continue
            vu = polymod(v, u)
            g0 = gcd(u, vu) if vu else u
            pieces = []
            if g0 != ONE and g0 != u:
                pieces = [g0, polydivmod(u, g0)[0]]
            else:
                g1 = gcd(u, add(vu, ONE))
                if g1 != ONE and g1 != u:
                    pieces = [g1, polydivmod(u, g1)[0]]
            out.extend(pieces if pieces else [u])
        factors = out
    if len(factors) != k:
        raise InternalCheckFailed(f"Berlekamp split of x^{n}-1 found "
                                  f"{len(factors)} of {k} factors")
    prod = ONE
    for u in factors:
        prod = mul(prod, u)
    if prod != f:
        raise InternalCheckFailed(f"factor product mismatch for x^{n}-1")
    return frozenset(factors)
