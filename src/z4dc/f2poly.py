"""Binary polynomial arithmetic and factorization of x^n - 1 over F2.

Same representation convention as z4poly: tuples of bits, ascending
degree, no trailing zeros, () for the zero polynomial.  Only what the
Z4 layer needs lives here: ring ops, gcd/xgcd, and the factorization
of the squarefree polynomial x^n - 1 (n odd), split by gcds with the
idempotents of its 2-cyclotomic cosets.  Binary codes are handled by
their generator polynomials (cyclic_gcd), so no F2 row reduction runs.

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

Poly = tuple[int, ...]

CACHE_SIZE = 512  # entries per memoized function, here and in z4poly
memoize = functools.lru_cache(maxsize=CACHE_SIZE)

ZERO: Poly = ()
ONE: Poly = (1,)


def canon(coeffs) -> Poly:
    """Reduce coefficients mod 2 and strip trailing zeros, all of them
    in one step (as bytes)."""
    out = [c % 2 for c in coeffs]
    if not out or out[-1]:
        return tuple(out)
    return tuple(bytes(out).rstrip(b"\0"))


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
    # the undecorated division: the remainders of one Euclid run recur
    # in no other call, and would only crowd polydivmod's cache
    while b:
        a, b = b, polydivmod.__wrapped__(a, b)[1]
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
    f = xn_plus_1(n)
    factors: list[Poly] = [f]
    for coset in sorted(cosets, key=len):
        if len(factors) == len(cosets):
            break
        bits = [0] * (max(coset) + 1)
        for i in coset:
            bits[i] = 1
        v = tuple(bits)
        out: list[Poly] = []
        for u in factors:
            g = gcd(u, v)
            out += [u] if g in (ONE, u) else [g, polydivmod(u, g)[0]]
        factors = out
    if len(factors) != len(cosets):
        raise InternalCheckFailed(f"coset split of x^{n}-1 found "
                                  f"{len(factors)} of {len(cosets)} factors")
    prod = ONE
    for u in factors:
        prod = mul(prod, u)
    if prod != f:
        raise InternalCheckFailed(f"factor product mismatch for x^{n}-1")
    return frozenset(factors)
