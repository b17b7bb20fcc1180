"""Exact polynomial arithmetic over Z4 = Z/4Z.

Polynomials are tuples of coefficients in {0,1,2,3}, ascending degree,
with no trailing zeros; the zero polynomial is the empty tuple.  All
functions return canonical tuples, so results compare with ==, and
take entries outside 0..3 mod 4.  Inside, they compute on one int per
polynomial, coefficient i in byte i, by f2poly's int_mul and int_divmod
with lane mask 3; fold reduces mod x^n - 1.  Values are immutable and
every operation is pure, so the ring ops, reduction, division,
reciprocal and the constructors of monomials and x^n - 1 are memoized
with bounded caches (f2poly.CACHE_SIZE entries each): codes and their
duals are built from a few divisors of x^n - 1, so the same products
and divisions recur, and a cache hit beats a conversion plus an
operation.  Callers pass tuples, which are hashable; canon takes any
iterable and is not cached.  An exception is never cached: a rejected
call raises again.

degree() returns -1 for the zero polynomial as a sentinel; callers that
feed a degree into a formula must reject the zero polynomial first.
"""

from __future__ import annotations

import functools

from .errors import (
    InternalCheckFailed,
    InvalidInput,
    NonUnitLeadingCoefficient,
    NotADivisor,
    NotInvertible,
    ZeroPolynomial,
)
from . import f2poly
from .f2poly import int_divmod, int_mul, memoize, to_poly
from .linalg import _lanes, _pack

Poly = tuple[int, ...]

ZERO: Poly = ()
ONE: Poly = (1,)
X: Poly = (0, 1)


def canon(coeffs) -> Poly:
    """Reduce coefficients mod 4 and strip trailing zeros."""
    return to_poly(_pack(tuple(coeffs)))


def degree(a: Poly) -> int:
    """Degree of a, with -1 standing in for deg(0) = -infinity."""
    return len(a) - 1


def is_monic(a: Poly) -> bool:
    return bool(a) and a[-1] == 1


@memoize
def add(a: Poly, b: Poly) -> Poly:
    return to_poly(_pack(a) + _pack(b) & _lanes(max(len(a), len(b))))


def sub(a: Poly, b: Poly) -> Poly:
    return add(a, scale(3, b))


@memoize
def scale(c: int, a: Poly) -> Poly:
    return to_poly(_pack(a) * (c % 4) & _lanes(len(a)))


@memoize
def mul(a: Poly, b: Poly) -> Poly:
    return to_poly(int_mul(_pack(a), _pack(b), 3))


@memoize
def monomial(k: int, c: int = 1) -> Poly:
    """c * x^k, for k >= 0."""
    if k < 0:
        raise InvalidInput(f"monomial exponent must be >= 0, got {k}")
    return canon([0] * k + [c])


@memoize
def xn_minus_1(n: int) -> Poly:
    """x^n - 1 over Z4 (constant term 3)."""
    return canon([3] + [0] * (n - 1) + [1])


def fold(x: int, n: int) -> int:
    """Packed x (lanes below 253) reduced mod x^n - 1 and mod 4: the sum
    of its slices of n lanes, masked as it goes."""
    b, m3, out = x.to_bytes((x.bit_length() + 7) >> 3, "little"), _lanes(n), 0
    for i in range(0, len(b), n):
        out = out + int.from_bytes(b[i:i + n], "little") & m3
    return out


@memoize
def mod_cyclic(a: Poly, n: int) -> Poly:
    """Reduce a modulo x^n - 1 by folding exponents mod n."""
    return to_poly(fold(_pack(a), n))


@memoize
def divmod_monic(a: Poly, d: Poly) -> tuple[Poly, Poly]:
    """Exact division with remainder by a unit-lead divisor.

    Returns (q, rem) with a = q*d + rem and deg(rem) < deg(d); unique
    because the leading coefficient of d is invertible.
    """
    if not d or d[-1] % 2 == 0:
        raise NonUnitLeadingCoefficient(f"divisor lead must be 1 or 3, got {d!r}")
    q, rem = int_divmod(_pack(a), _pack(d), 3)
    return to_poly(q), to_poly(rem)


def divides(d: Poly, a: Poly) -> bool:
    """True iff a = q*d for some q over Z4, for unit-lead d."""
    return not divmod_monic(a, d)[1]


def exact_div(a: Poly, d: Poly) -> Poly:
    """a / d for unit-lead d; raises if the division is not exact."""
    q, rem = divmod_monic(a, d)
    if rem:
        raise InternalCheckFailed(f"expected exact division, remainder {rem!r}")
    return q


@memoize
def reciprocal(f: Poly) -> Poly:
    """Coefficient reversal x^t * f(1/x) with t the actual degree of f."""
    if not f:
        raise ZeroPolynomial("reciprocal of the zero polynomial is undefined")
    return canon(reversed(f))


def make_monic(a: Poly) -> Poly:
    """Scale by the inverse of a unit leading coefficient."""
    if not a or a[-1] % 2 == 0:
        raise NonUnitLeadingCoefficient(f"cannot normalize {a!r} to monic")
    return a if a[-1] == 1 else scale(3, a)


@memoize
def reduce_mod2(f: Poly) -> f2poly.Poly:
    """Coefficientwise reduction to F2, re-canonicalized."""
    return to_poly(_pack(f, 1))


def lift_mod2(fbar: f2poly.Poly) -> Poly:
    """Interpret {0,1} coefficients as Z4 elements."""
    return tuple(fbar)


@functools.lru_cache(maxsize=64)
def hensel_lift(fbar: f2poly.Poly, n: int) -> Poly:
    """The unique monic divisor of x^n - 1 over Z4 reducing to fbar mod 2
    (cached: the result is an immutable tuple, and callers lift the same
    few divisors of x^n - 1 again and again).

    Graeffe construction: with the naive lift split as a(x^2) + x*b(x^2),
    the lift is +-(a(y)^2 - y*b(y)^2), sign chosen to make it monic.
    Requires n odd (x^n - 1 squarefree mod 2) and fbar | x^n - 1 over F2;
    a failed divisibility post-check signals a bug, not a user error.
    """
    if not fbar:
        raise ZeroPolynomial("cannot lift the zero polynomial")
    if f2poly.polymod(f2poly.xn_plus_1(n), fbar):
        raise NotADivisor(f"{fbar!r} does not divide x^{n}-1 over F2")
    a = lift_mod2(fbar[0::2])
    b = lift_mod2(fbar[1::2])
    h = sub(mul(a, a), mul(X, mul(b, b)))
    if len(fbar) % 2 == 0:  # odd degree: leading term comes from -y*b(y)^2
        h = scale(3, h)
    if reduce_mod2(h) != f2poly.canon(fbar):
        raise InternalCheckFailed(f"lift of {fbar!r} has wrong residue: {h!r}")
    if not is_monic(h) or divmod_monic(xn_minus_1(n), h)[1]:
        raise InternalCheckFailed(f"lift of {fbar!r} does not divide x^{n}-1: {h!r}")
    return h


def inverse_mod_monic(a: Poly, m: Poly) -> Poly:
    """b with a*b = 1 (mod m), for m monic of degree >= 1.

    A single Newton step lifts the F2 inverse to Z4: the ideal (2)
    squares to zero, so b = b0*(2 - a*b0) mod m is exact.
    """
    if not is_monic(m) or degree(m) < 1:
        raise NonUnitLeadingCoefficient(f"modulus must be monic of degree >= 1, got {m!r}")
    abar = reduce_mod2(a)
    mbar = reduce_mod2(m)
    g, u, _ = f2poly.xgcd(abar, mbar)
    if g != f2poly.ONE:
        raise NotInvertible(f"gcd of residues is {g!r}, not 1")
    b0 = lift_mod2(u)
    b = divmod_monic(mul(b0, sub((2,), divmod_monic(mul(a, b0), m)[1])), m)[1]
    if divmod_monic(mul(a, b), m)[1] != ONE:
        raise InternalCheckFailed("Newton lift of modular inverse failed")
    return b

