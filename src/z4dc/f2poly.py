"""Binary polynomial arithmetic and factorization of x^n - 1 over F2.

Same representation convention as z4poly: tuples of bits, ascending
degree, no trailing zeros, () for the zero polynomial.  Only what the
Z4 layer needs lives here: ring ops, gcd/xgcd, and the factorization
of the squarefree polynomial x^n - 1 (n odd), split by gcds with the
idempotents of its 2-cyclotomic cosets.  Binary codes are handled by
their generator polynomials (cyclic_gcd), so no F2 row reduction runs.

Tuples are the API; inside, a polynomial is one int with coefficient
i in byte i, linalg's row layout (linalg._pack, to_poly).  int_mul and
int_divmod serve both rings, by lane mask: m = 1 here, 3 in z4poly
(reduction mod 2 is a ring map).  Euclid's loops stay on ints.

Every function is pure.  The ring ops, division, gcd and x^n + 1 are
memoized with bounded caches of CACHE_SIZE entries each (z4poly shares
the bound), because the codes of a search or a dual population are
built from the same few divisors of x^n - 1 and repeat the same
products and divisions; so callers pass tuples, which are hashable.
An exception is never cached: a rejected call raises again.  gcd
caches its result only; its Euclid steps bypass the division cache.
"""

from __future__ import annotations

import functools

from .errors import BothZero, EvenLength, InternalCheckFailed
from .linalg import _lanes, _pack

Poly = tuple[int, ...]

CACHE_SIZE = 512  # entries per memoized function, here and in z4poly
memoize = functools.lru_cache(maxsize=CACHE_SIZE)

ZERO: Poly = ()
ONE: Poly = (1,)


def canon(coeffs) -> Poly:
    """Reduce coefficients mod 2 and strip trailing zeros."""
    return to_poly(_pack(tuple(coeffs), 1))


def degree(a: Poly) -> int:
    return len(a) - 1


def to_poly(x: int) -> Poly:
    """The tuple of a packed polynomial, without trailing zeros."""
    return tuple(x.to_bytes((x.bit_length() + 7) >> 3, "little"))


def int_mul(x: int, y: int, m: int = 1) -> int:
    """x * y over Z/(m+1), x and y packed with lanes at most m: one product
    per chunk of (255 - m) // m^2 lanes of the shorter (28 over Z4, 254
    over F2), so no lane of the masked running sum carries."""
    if x.bit_length() > y.bit_length():
        x, y = y, x
    mask = _lanes((x.bit_length() + y.bit_length() + 7) >> 3, m)
    step = (255 - m) // (m * m) << 3
    out = sh = 0
    while x:
        out = out + ((x & (1 << step) - 1) * y << sh) & mask
        x, sh = x >> step, sh + step
    return out


def int_divmod(x: int, d: int, m: int = 1) -> tuple[int, int]:
    """(q, r), x = q*d + r with deg r < deg d over Z/(m+1), for packed x, d
    (lanes <= m; d's lead a unit, so its own inverse): a masked add per
    quotient digit, an XOR over F2."""
    dd = (d.bit_length() - 1) >> 3
    lead, top = d >> (dd << 3), (x.bit_length() - 1) >> 3
    mask = _lanes(top + 1, m) if m > 1 else 0
    q = bytearray(max(top - dd + 1, 0))
    while top >= dd:
        sh = (top - dd) << 3
        c = q[top - dd] = (x >> (top << 3)) * lead & m
        x = x ^ d << sh if m == 1 else x + ((m + 1 - c) * d << sh) & mask
        top = (x.bit_length() - 1) >> 3
    return int.from_bytes(q, "little"), x


@memoize
def add(a: Poly, b: Poly) -> Poly:
    return to_poly(_pack(a, 1) ^ _pack(b, 1))


@memoize
def mul(a: Poly, b: Poly) -> Poly:
    return to_poly(int_mul(_pack(a, 1), _pack(b, 1)))


@memoize
def xn_plus_1(n: int) -> Poly:
    """x^n + 1, which equals x^n - 1 over F2."""
    return canon([1] + [0] * (n - 1) + [1])


@memoize
def polydivmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    if not (d := _pack(b, 1)):
        raise ZeroDivisionError("division by the zero polynomial")
    q, rem = int_divmod(_pack(a, 1), d)
    return to_poly(q), to_poly(rem)


def polymod(a: Poly, b: Poly) -> Poly:
    return polydivmod(a, b)[1]


def _gcd(x: int, y: int) -> int:
    """Euclid on packed polynomials; monic, since nonzero over F2 is."""
    while y:
        x, y = y, int_divmod(x, y)[1]
    return x


@memoize
def gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor; not both arguments may be zero."""
    x, y = _pack(a, 1), _pack(b, 1)
    if not x and not y:
        raise BothZero("gcd(0, 0) is undefined")
    return to_poly(_gcd(x, y))


def cyclic_gcd(parts, n: int) -> Poly:
    """gcd(x^n+1, *parts): the generator polynomial of the binary cyclic
    code of length n that the parts span (x^n+1 when they are all zero)."""
    return functools.reduce(gcd, parts, xn_plus_1(n))


def xgcd(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """(g, u, v) with u*a + v*b = g = gcd(a, b)."""
    r0, r1 = _pack(a, 1), _pack(b, 1)
    if not r0 and not r1:
        raise BothZero("gcd(0, 0) is undefined")
    s0, s1, t0, t1 = 1, 0, 0, 1
    while r1:
        q, r = int_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 ^ int_mul(q, s1)
        t0, t1 = t1, t0 ^ int_mul(q, t1)
    return to_poly(r0), to_poly(s0), to_poly(t0)


def cyclotomic_cosets(n: int) -> list[list[int]]:
    """The 2-cyclotomic cosets mod n, the orbits of i -> 2i mod n on
    range(n), each listed from its least element and ordered by it.

    There is one coset per irreducible factor of x^n - 1 over F2, of the
    factor's degree, so the count is known before anything is factored.
    """
    if n < 1 or n % 2 == 0:
        raise EvenLength(f"n must be a positive odd integer, got {n!r}")
    seen = bytearray(n)
    cosets = []
    for i in range(n):
        coset = []
        while not seen[i]:
            seen[i] = 1
            coset.append(i)
            i = 2 * i % n
        if coset:
            cosets.append(coset)
    return cosets


@functools.lru_cache(maxsize=64)
def factor_cyclic(n: int) -> frozenset[Poly]:
    """Distinct monic irreducible factors of x^n - 1 over F2 (cached: the
    frozenset is immutable and callers ask again for the same few n).

    n odd makes x^n - 1 squarefree, and the coset sums v = sum_{i in C}
    x^i, the idempotents of the binary cyclic codes of length n, span
    its Berlekamp subalgebra: squaring doubles each exponent, so v is 0
    or 1 modulo every irreducible factor, and the supports are disjoint
    with one coset per factor.  So for a current factor u, either
    g = gcd(u, v) is 1 or u and u stays, or u splits into g and u/g;
    after every coset each pair of factors has been separated.  Small
    cosets go first: their sums split off the small factors cheaply.
    """
    cosets = cyclotomic_cosets(n)
    f = _pack(xn_plus_1(n), 1)
    factors = [f]
    for coset in sorted(cosets, key=len):
        if len(factors) == len(cosets):
            break
        bits = bytearray(max(coset) + 1)
        for i in coset:
            bits[i] = 1
        v = int.from_bytes(bits, "little")
        out: list[int] = []
        for u in factors:
            g = _gcd(u, v)
            out += [u] if g in (1, u) else [g, int_divmod(u, g)[0]]
        factors = out
    if len(factors) != len(cosets):
        raise InternalCheckFailed(f"coset split of x^{n}-1 found "
                                  f"{len(factors)} of {len(cosets)} factors")
    prod = 1
    for u in factors:
        prod = int_mul(prod, u)
    if prod != f:
        raise InternalCheckFailed(f"factor product mismatch for x^{n}-1")
    return frozenset(map(to_poly, factors))
