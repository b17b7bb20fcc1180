"""Duality of double cyclic codes: inner products, the bilinear pairing,
every code's dual by theorem, and residue checks.

Every dual comes by theorem (dual_free), at any (r, s), free or not:
the dual's left and right ideals are the cyclic duals of C's left
projection and of C_R0 = {v : (0|v) in C}, and its mixing polynomial
solves the pairing's one congruence.  It carries one certificate
(_is_dual): the pairing phi_map vanishes on every dual-by-primal
generator pair, so the candidate lies in C-perp, and |C| * |candidate|
= 4^(r+s), so it is all of C-perp.  No kernel is computed; the
report's kernel rows are the certified dual's Howell form, built on
first read, which is canonical and so equals the kernel's.  All
arithmetic is per block: no polynomial of degree lcm(r, s) is formed.
The Z4-level gcd of F1 and l is the Hensel lift of their residue gcd
(residue_gcd; the residue divides x^r-1 with r odd, so the lift exists
and is unique); when C is free and it divides l over Z4 the dual is
free and comes in closed form.  The residue checks read the residue
generators of C-perp off the certified dual's generators mod 2 alone.
dual_brute_force, the dual as the Z4 kernel of the generator matrix,
is the tests' independent oracle and is not called at run time.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

from . import f2poly, linalg, polytext
from .code import (
    CodeVector,
    DoubleCyclicCode,
    annihilator,
    canonicalize_ideal,
    code_size,
    generator_matrix,
    poly_to_vec,
    rotations,
    shift_T,
    spec_dict,
    validate,
)
from .errors import (
    DimensionCapExceeded,
    DimensionMismatch,
    InternalCheckFailed,
    InvalidInput,
)
from .f2poly import int_mul, to_poly
from .z4poly import (
    Poly,
    ZERO,
    add,
    canon,
    degree,
    divides,
    divmod_monic,
    exact_div,
    fold,
    hensel_lift,
    inverse_mod_monic,
    make_monic,
    mod_cyclic,
    monomial,
    mul,
    reciprocal,
    reduce_mod2,
    scale,
    xn_minus_1,
)

DEFAULT_KERNEL_CAP = 64  # dual_brute_force's bound on r+s
# A dual report's kernel holds at most log2|C-perp| rows of r+s entries;
# it is built, on first read, when that product is at most this many
# (every code with r+s <= 1024, and thinner duals past it), which keeps
# a printed report below about 20 MB
MAX_KERNEL_ENTRIES = 1 << 21


def inner_product(u: CodeVector, v: CodeVector) -> int:
    if len(u.left) != len(v.left) or len(u.right) != len(v.right):
        raise DimensionMismatch("inner product needs matching (r, s)")
    return (sum(a * b for a, b in zip(u.left, v.left))
            + sum(a * b for a, b in zip(u.right, v.right))) % 4


def phi_map(c1: tuple[Poly, Poly], c2: tuple[Poly, Poly], r: int, s: int) -> Poly:
    """The bilinear pairing into Z4[x]/(x^k-1), k = lcm(r, s).

    A block of length n contributes its cyclic correlation c1-part *
    x^((n-1-deg c2-part) mod n) * reciprocal(c2-part) mod x^n-1 repeated
    with period n (a product with sum_j x^(n*j)), the paper's
    theta_(k/n)(x^n) * x^(k-1-deg) form; a zero c2 component adds
    nothing.  Vanishes exactly on pairs orthogonal under all shifts T^i.
    """
    k = math.lcm(r, s)
    out = 0
    for ci, cj, n in ((canon(c1[0]), canon(c2[0]), r),
                      (canon(c1[1]), canon(c2[1]), s)):
        if ci == ZERO or cj == ZERO:
            continue
        term = int_mul(linalg._pack(ci), linalg._pack(reciprocal(cj)), 3)
        term = fold(term << (((n - 1 - degree(cj)) % n) << 3), n)
        out += term * int.from_bytes((b"\1" + bytes(n - 1)) * (k // n), "little")
    return to_poly(fold(out, k))


def first_nonorthogonal_shift(u: CodeVector, v: CodeVector) -> int | None:
    """Smallest i with <u, T^i(v)> != 0, or None if orthogonal throughout."""
    k = math.lcm(len(u.left), len(u.right))
    cur = v
    for i in range(k):
        if inner_product(u, cur):
            return i
        cur = shift_T(cur)
    return None


def orthogonal_all_shifts(u: CodeVector, v: CodeVector) -> bool:
    return first_nonorthogonal_shift(u, v) is None


def residue_gcd(c: DoubleCyclicCode) -> f2poly.Poly:
    """gcd(x^r+1, F1 mod 2, l mod 2) over F2: the residue gcd of F1 and
    l, since F1 mod 2 is the residue of the monic divisor f1 of x^r-1.
    Its Hensel lift is the Z4-level gcd convention of dual_free."""
    return f2poly.cyclic_gcd((reduce_mod2(c.F1), reduce_mod2(c.l)), c.r)


@dataclass(frozen=True)
class DualReport:
    """The dual code and the route that found it, with dual_free's
    F1_hat_star, F2_hat_star and nu (None on the tests' kernel oracle,
    dual_brute_force, whose method is "brute-kernel").

    Every other view reads the dual: l_hat is its mixing polynomial,
    and kernel its Howell form, built on first read, or None past
    MAX_KERNEL_ENTRIES."""

    method: str  # "free-closed-form" | "free-residue-factors" | "residue-factors"
    dual: DoubleCyclicCode
    F1_hat_star: Poly | None = None
    F2_hat_star: Poly | None = None
    nu: Poly | None = None

    @property
    def l_hat(self) -> Poly:
        return self.dual.l

    @functools.cached_property
    def kernel(self) -> linalg.MatZ4 | None:
        d = self.dual
        if (code_size(d).bit_length() - 1) * (d.r + d.s) > MAX_KERNEL_ENTRIES:
            return None
        return linalg.howell(generator_matrix(d)).matrix

    def to_json(self) -> dict:
        def p(x):
            return None if x is None else polytext.render(x)

        out = {"method": self.method, "dual": spec_dict(self.dual),
               "dual_size": code_size(self.dual),
               "F1_hat_star": p(self.F1_hat_star),
               "F2_hat_star": p(self.F2_hat_star),
               "l_hat": p(self.l_hat), "nu": p(self.nu)}
        if self.kernel is not None:
            out["kernel_rows"] = [list(row) for row in self.kernel.rows]
        return out


def _left_only_parts(kernel: linalg.MatZ4, r: int, s: int):
    """Howell the kernel with right-block columns first; rows with a
    vanishing right block generate exactly the (c|0) subcode."""
    perm = list(range(r, r + s)) + list(range(r))
    h = linalg.howell(linalg.column_slice(kernel, perm))
    left = [canon(row[s:]) for row in h.matrix.rows if not any(row[:s])]
    return h, left


def dual_brute_force(c: DoubleCyclicCode,
                     cap: int = DEFAULT_KERNEL_CAP) -> tuple[linalg.MatZ4, DualReport]:
    """Dual as the exact kernel of the generator matrix, with canonical
    polynomial generators extracted from its rows and certified by
    _is_dual: the tests' independent oracle for dual_free."""
    if c.r + c.s > cap:
        raise DimensionCapExceeded(f"r+s = {c.r + c.s} exceeds kernel cap {cap}")
    K = linalg.kernel(generator_matrix(c))
    r, s = c.r, c.s
    f2h, g2h = canonicalize_ideal([canon(row[r:]) for row in K.rows], s)
    hperm, left_parts = _left_only_parts(K, r, s)
    f1h, g1h = canonicalize_ideal(left_parts, r)
    # complete (l_hat | F2_hat): solve the right block, read off the left
    F2h_vec = poly_to_vec(add(f2h, scale(2, g2h)), s)
    resid = linalg.coset_representative(hperm, tuple(F2h_vec) + (0,) * r)
    if any(resid[:s]):
        raise InternalCheckFailed("dual right projection lost its generator")
    # l_hat is minus the left residue, taken as the canonical coset
    # representative modulo the dual left ideal, whose Howell form is
    # the rows of hperm with a zero right block
    l_vec = linalg.coset_representative(
        hperm, (0,) * s + tuple(-x for x in resid[s:]))[s:]
    dual_code = validate(r, s, f1h, g1h, canon(l_vec), f2h, g2h)
    if not _is_dual(c, dual_code):
        raise InternalCheckFailed(
            f"extracted dual generators fail the pairing certificate; "
            f"the kernel rows are {[list(row) for row in K.rows]}")
    return K, DualReport(method="brute-kernel", dual=dual_code)


def _iota(p: Poly, n: int) -> Poly:
    """p(x^-1) mod x^n-1: coefficient i moves to -i mod n, so it is
    x^(-deg p mod n) times the reversal of p, folded."""
    return to_poly(fold(linalg._pack(p[::-1]) << ((-degree(p) % n) << 3), n))


def _pairing_target(c: DoubleCyclicCode, F2h: Poly) -> Poly:
    """T with phi_map((l_hat, F2h), (l, F2)) = 0 iff l_hat * iota(l) = T
    mod x^r-1: the right block's correlation F2h * iota(F2) has period
    g = gcd(r, s) on the dual's candidates, so the left block must
    cancel it, -(s/g) times its reduction mod x^g-1 extended with
    period g.  Both factors are reduced mod x^g-1 before the product."""
    r, s = c.r, c.s
    g = math.gcd(r, s)
    b = mod_cyclic(mul(mod_cyclic(F2h, g), _iota(mod_cyclic(c.F2_mod, g), g)), g)
    return scale(-(s // g), canon((b + (0,) * (g - len(b))) * (r // g)))


def _dual_ideal(f: Poly, g: Poly, n: int) -> tuple[Poly, Poly, Poly]:
    """The cyclic dual (f', g') of the ideal (f + 2g) of Z4[x]/(x^n-1),
    and a generator of its annihilator, reduced.  Residue and torsion
    factors swap: the annihilator is generated by a = (x^n-1)/g plus
    2b, b = (x^n-1)/f (code.annihilator), and f', g' are the
    reciprocals of a and b (Pless and Qian, IEEE-IT 42(5), 1996); the
    sentinel x^n-1 and the full ring 1 map to each other."""
    a, b = exact_div(xn_minus_1(n), g), exact_div(xn_minus_1(n), f)
    return make_monic(reciprocal(a)), make_monic(reciprocal(b)), annihilator(f, g, n)


def _torsion_exponent(p: f2poly.Poly, f: Poly, g: Poly) -> int:
    """e with the component of the ideal (f + 2g) at the residue factor
    p equal to 2^e times the Galois ring (e = 2: zero): one for each of
    f and g that p divides."""
    return sum(not f2poly.polymod(reduce_mod2(q), p) for q in (f, g))


def _projection_ideals(c: DoubleCyclicCode):
    """The ideals (f, g) of the left projection of C, (F1, l), and of
    C_R0 = {v : (0|v) in C} = J * F2 with J = ((F1) : l), read off the
    residue factors.  C_R0 is full at a factor of x^s-1 that does not
    divide x^g-1, g = gcd(r, s), because J contains x^r-1 and x^s-1;
    elsewhere its exponent is F2's plus J's, max(e(F1) - e(l), 0), with
    e(l) 0, 1 or 2 as l is a unit there, twice one, or zero."""
    r, s = c.r, c.s
    shared = f2poly.xn_plus_1(math.gcd(r, s))
    fR = gR = f2poly.ONE
    for p in f2poly.factor_cyclic(s):
        e = _torsion_exponent(p, c.f2, c.g2)
        if e < 2 and not f2poly.polymod(shared, p):
            e_l = (0 if f2poly.polymod(reduce_mod2(c.l), p)
                   else 1 if divmod_monic(c.l, hensel_lift(p, r))[1] else 2)
            e += max(_torsion_exponent(p, c.f1, c.g1) - e_l, 0)
        if e >= 1:
            fR = f2poly.mul(fR, p)
        if e >= 2:
            gR = f2poly.mul(gR, p)
    return (canonicalize_ideal([c.F1_mod, c.l], r),
            (hensel_lift(fR, s), hensel_lift(gR, s)))


def _solve_l_hat(c: DoubleCyclicCode, T: Poly) -> Poly:
    """The canonical l_hat with l_hat * iota(F1) = 0 and l_hat * iota(l)
    = T mod x^r-1, by one Howell solve: the rows x^j (iota(F1) |
    iota(l) | 1) span the pairs' images beside their left blocks, so
    (0 | T | 0) reduces to (0 | 0 | -l_hat), and the rows with a zero
    image are the Howell form of the dual's left-only part, modulo
    which l_hat is then reduced (dual_brute_force's rule)."""
    r = c.r
    eye = [(0,) * j + (1,) + (0,) * (r - 1 - j) for j in range(r)]
    rows = rotations((_iota(c.F1_mod, r), _iota(c.l, r)), r, r, r)
    h = linalg.howell(linalg.MatZ4(tuple(a + e for a, e in zip(rows, eye)), 3 * r))
    resid = linalg.coset_representative(h, (0,) * r + poly_to_vec(T, r) + (0,) * r)
    if any(resid[:2 * r]):
        raise InternalCheckFailed("no left block pairs the dual's right generator to zero")
    return canon(linalg.coset_representative(
        h, (0,) * (2 * r) + tuple(-x for x in resid[2 * r:]))[2 * r:])


def dual_free(c: DoubleCyclicCode) -> DualReport:
    """The dual of any valid code, by theorem.

    The dual's left ideal is the cyclic dual of the left projection of
    C, (F1, l), and its right ideal that of C_R0 = {v : (0|v) in C}
    (Borges, Fernandez-Cordoba and Ten-Valls, IEEE-IT 62(11), 2016);
    F1_hat_star and F2_hat_star generate the annihilators of those
    projections, whose reciprocals generate the dual's ideals
    (_dual_ideal).  With C free and d the Hensel lift of residue_gcd(c)
    dividing l over Z4 (the closed form, "free-closed-form"), both
    projections are free: F1_hat* = (x^r-1)/d and F2_hat* =
    (x^s-1)/(f2*m), m = f1/d, which divides exactly on valid codes
    (m | h2 mod 2, and a residue factor of x^r-1 and x^s-1 has one
    lift).  With iota(p) = p(x^-1), the pairing vanishes on
    (l_hat | F2_hat) iff l_hat * iota(F1) = 0 and l_hat * iota(l) = T
    (_pairing_target), which fixes l_hat = iota(h1 * t),
    h1 = (x^r-1)/f1, t = rho * (l/d)^-1 mod m and
    rho = iota(T) / (h1 * d).  Otherwise the dual is not free: a
    free code with a 2-torsion l, or with d not dividing l over Z4
    ("free-residue-factors"), and every non-free code
    ("residue-factors").  Both ideals then come from the residue factors
    (_projection_ideals) and l_hat from one Howell solve in r unknowns
    (_solve_l_hat).  nu is reciprocal(l_hat) / h1, the paper's
    l_hat* * F1 = nu * (x^r-1).  The certificate is _is_dual; its
    failure is InternalCheckFailed.  No kernel is computed, and no
    Howell form of the dual: the report builds that on first read.
    """
    r, s = c.r, c.s
    d1 = hensel_lift(residue_gcd(c), r)
    closed = c.is_free and divides(d1, c.l)
    if closed:
        m = exact_div(c.f1, d1)
        left, right = (d1, d1), (mul(c.f2, m),) * 2
    else:
        left, right = _projection_ideals(c)
    f1h, g1h, F1_hat_star = _dual_ideal(*left, r)
    f2h, g2h, F2_hat_star = _dual_ideal(*right, s)
    h1 = c.h1
    if not closed:
        l_hat = _solve_l_hat(c, _pairing_target(c, add(f2h, scale(2, g2h))))
    elif degree(m) == 0:
        l_hat = ZERO
    else:
        T = _pairing_target(c, add(f2h, scale(2, g2h)))
        rho = exact_div(_iota(T, r), mul(h1, d1))
        t = divmod_monic(mul(rho, inverse_mod_monic(exact_div(c.l, d1), m)), m)[1]
        l_hat = _iota(mul(h1, t), r)

    dual_code = validate(r, s, f1h, g1h, l_hat, f2h, g2h)
    if not _is_dual(c, dual_code):
        raise InternalCheckFailed(
            f"the dual of the code {spec_dict(c)} fails the pairing certificate")
    nu = ZERO if dual_code.l == ZERO else exact_div(reciprocal(dual_code.l), h1)
    method = ("free-closed-form" if closed else
              "free-residue-factors" if c.is_free else "residue-factors")
    return DualReport(method=method, dual=dual_code, F1_hat_star=F1_hat_star,
                      F2_hat_star=F2_hat_star, nu=nu)


def _generators(c: DoubleCyclicCode) -> list[tuple[Poly, Poly]]:
    """The generator pairs (F1|0) and (l|F2), reduced."""
    return [(c.F1_mod, ZERO), (c.l, c.F2_mod)]


def _is_dual(c: DoubleCyclicCode, d: DoubleCyclicCode) -> bool:
    """The duality certificate: d is orthogonal to c (phi_map vanishes
    on every pair of a d generator and a c generator, so on all shifts
    of both) and |c| * |d| = 4^(r+s), so d is all of C-perp."""
    return (all(phi_map(p, g, c.r, c.s) == ZERO
                for p in _generators(d) for g in _generators(c))
            and code_size(c) * code_size(d) == 4 ** (c.r + c.s))


def dual_report(c: DoubleCyclicCode, method: str = "auto") -> DualReport:
    """The dual of c by theorem (dual_free); "auto" is the only method."""
    if method != "auto":
        raise InvalidInput(f"unknown dual method {method!r}")
    return dual_free(c)


# -- residue-level verification ------------------------------------------


@dataclass(frozen=True)
class ResidueDualCheck:
    """The residue dual generators and the verified relations.

    Pure verification: failed relations are reported as False findings,
    never raised.
    """

    F1bar_hat: f2poly.Poly
    lbar_hat: f2poly.Poly
    F2bar_hat: f2poly.Poly
    nubar: f2poly.Poly | None
    lambda_z4: Poly | None
    mu_z4: Poly | None
    nu_z4: Poly | None
    checks: dict[str, bool] = field(default_factory=dict)

    def all_ok(self) -> bool:
        return all(self.checks.values())

    def to_json(self) -> dict:
        def fp(x):
            return None if x is None else polytext.render(tuple(x))

        return {"F1bar_hat": fp(self.F1bar_hat), "lbar_hat": fp(self.lbar_hat),
                "F2bar_hat": fp(self.F2bar_hat), "nubar": fp(self.nubar),
                "lambda": fp(self.lambda_z4), "mu": fp(self.mu_z4), "nu": fp(self.nu_z4),
                "checks": dict(self.checks), "all_ok": self.all_ok()}


def residue_dual_check(c: DoubleCyclicCode, dual_span: linalg.MatZ4 | None = None,
                       *, dual_code: DoubleCyclicCode) -> ResidueDualCheck:
    """Verify everything the residue-level duality theory states.

    Reads the binary generators of Res(C-perp) off the certified dual
    dual_code = <(F1_hat|0), (l_hat|F2_hat)> and nothing else; dual_span
    is not read, and stays only for callers that pass the dual's rows
    positionally.  Reduction mod 2 sends module generators to module
    generators, so Res(C-perp) is generated by (f1_hat mod 2|0) and
    (l_hat mod 2|f2_hat mod 2), and (a|0) lies in it iff a is in the
    ideal of f1_hat and h2_hat * l_hat mod 2, h2_hat = (x^s+1)/f2_hat
    (Pless and Qian, IEEE-IT 42(5), 1996).  Then checks the reciprocal
    formulas for the residue generators, the degree identities, the
    nubar congruence, and the Z4-lifted divisibility relations with
    their lambda/mu/nu witnesses.

    The F2_hat formula uses gcd(F1bar, lbar) in the numerator: the
    stated relation is exactly what the witness derivation produces and
    what the degree identities force.
    """
    r, s = c.r, c.s
    checks: dict[str, bool] = {}

    # residue generators of the dual, by the theorem above, from its
    # generators mod 2; the sentinels need no special case (an absent
    # left generator reduces to x^r+1, an absent right one gives
    # h2_hat = 1 with l_hat = 0)
    f1d, ld, F2bar_hat = (reduce_mod2(p)
                          for p in (dual_code.f1, dual_code.l, dual_code.f2))
    h2d = f2poly.polydivmod(f2poly.xn_plus_1(s), F2bar_hat)[0]
    F1bar_hat = f2poly.cyclic_gcd((f1d, f2poly.mul(h2d, ld)), r)
    lbar_hat = f2poly.polymod(ld, F1bar_hat)

    F1bar = reduce_mod2(c.F1)
    F2bar = reduce_mod2(c.F2)
    lbar = reduce_mod2(c.l)
    dbar = residue_gcd(c)

    # reciprocal formulas for the residue dual generators
    rhs1 = f2poly.polydivmod(f2poly.xn_plus_1(r), dbar)[0]
    checks["F1_hat_reciprocal_formula"] = reciprocal(F1bar_hat) == rhs1
    q2, rem2 = f2poly.polydivmod(
        f2poly.mul(f2poly.xn_plus_1(s), dbar), f2poly.mul(F1bar, F2bar))
    checks["F2_hat_formula_exact_division"] = rem2 == f2poly.ZERO
    checks["F2_hat_reciprocal_formula"] = (
        rem2 == f2poly.ZERO and reciprocal(F2bar_hat) == q2)

    # degree identities
    checks["F1_hat_degree"] = (
        f2poly.degree(F1bar_hat) == r - f2poly.degree(dbar))
    checks["F2_hat_degree"] = (
        f2poly.degree(F2bar_hat)
        == s - f2poly.degree(F2bar) - f2poly.degree(F1bar) + f2poly.degree(dbar))

    # nubar congruence; mbar divides x^r+1, so exponents are taken mod r
    nubar = None
    mbar = f2poly.polydivmod(reciprocal(F1bar), reciprocal(dbar))[0]
    if f2poly.degree(mbar) == 0 or not lbar:
        nubar = f2poly.ZERO
        checks["nubar_congruence"] = True
    else:
        abar = f2poly.polydivmod(lbar, dbar)[0]
        astar = reciprocal(abar)
        g, u, _ = f2poly.xgcd(astar, mbar)
        if g != f2poly.ONE:
            checks["nubar_congruence"] = False
        else:
            dl, dF2 = f2poly.degree(lbar), f2poly.degree(F2bar)
            nubar = f2poly.polymod(f2poly.mul(monomial((dl - dF2) % r), u), mbar)
            lhs = f2poly.add(
                f2poly.mul(f2poly.mul(nubar, monomial((-dl - 1) % r)), astar),
                monomial((-dF2 - 1) % r))
            checks["nubar_congruence"] = f2poly.polymod(lhs, mbar) == f2poly.ZERO

    # Z4-lifted divisibility relations of the generator theory
    def quotient(a: Poly, b: Poly) -> Poly | None:
        """a / b over Z4 when b divides a exactly, else None."""
        q, rem = divmod_monic(a, b)
        return None if rem else q

    d1 = hensel_lift(dbar, r)
    lambda_z4 = quotient(mul(reciprocal(dual_code.f1), d1), xn_minus_1(r))
    checks["F1_hat_star_annihilates_gcd"] = lambda_z4 is not None
    mu_z4 = quotient(mul(reciprocal(dual_code.f2), mul(c.f1, c.f2)),
                     mul(xn_minus_1(s), d1))
    checks["F2_hat_star_multiple_relation"] = mu_z4 is not None
    nu_z4 = ZERO if dual_code.l == ZERO else quotient(
        mul(reciprocal(dual_code.l), c.f1), xn_minus_1(r))
    checks["l_hat_star_annihilates_F1"] = nu_z4 is not None

    return ResidueDualCheck(F1bar_hat, lbar_hat, F2bar_hat, nubar,
                            lambda_z4, mu_z4, nu_z4, checks)
