"""Duality of double cyclic codes: inner products, the bilinear pairing,
dual generator extraction, closed-form free duals, and residue checks.

Every dual, closed-form or extracted from the Z4 kernel of the
generator matrix (module linalg), carries one certificate (_is_dual):
the pairing phi_map vanishes on every dual-by-primal generator pair,
so the candidate lies in C-perp, and |C| * |candidate| = 4^(r+s), so
it is all of C-perp.  The closed form computes no kernel; its report
reads the kernel rows off the certified dual's Howell form, which is
canonical and so equals the kernel's.  The Z4-level gcd of F1 and l is
the Hensel lift of their residue gcd (residue_gcd; the residue divides
x^r-1 with r odd, so the lift exists and is unique); that convention is
what makes the closed-form dual arithmetic come out exactly.  The
residue checks read the residue generators of C-perp off the certified
dual's generators mod 2, with no F2 row reduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import f2poly, linalg, polytext
from .code import (
    CodeVector,
    DoubleCyclicCode,
    _generator_howell,
    canonicalize_ideal,
    code_size,
    generator_matrix,
    poly_to_vec,
    shift_T,
    spec_dict,
    validate,
)
from .errors import (
    DimensionCapExceeded,
    DimensionMismatch,
    InternalCheckFailed,
    NotFree,
    NotInvertible,
)
from .z4poly import (
    Poly,
    ZERO,
    add,
    canon,
    degree,
    divmod_monic,
    exact_div,
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

DEFAULT_KERNEL_CAP = 64


def inner_product(u: CodeVector, v: CodeVector) -> int:
    if len(u.left) != len(v.left) or len(u.right) != len(v.right):
        raise DimensionMismatch("inner product needs matching (r, s)")
    return (sum(a * b for a, b in zip(u.left, v.left))
            + sum(a * b for a, b in zip(u.right, v.right))) % 4


def _theta_step(m: int, step: int) -> Poly:
    """1 + x^step + ... + x^(step*(m-1))."""
    out = [0] * (step * (m - 1) + 1)
    out[::step] = [1] * m
    return tuple(out)


def phi_map(c1: tuple[Poly, Poly], c2: tuple[Poly, Poly], r: int, s: int) -> Poly:
    """The bilinear pairing into Z4[x]/(x^k-1), k = lcm(r, s).

    Each block contributes c1-part * theta_(k/len)(x^len) *
    x^(k-1-deg c2-part) * reciprocal(c2-part); a zero c2 component
    contributes nothing (its inner-product sum is empty).  Vanishes
    exactly on pairs orthogonal under all simultaneous shifts.
    """
    k = math.lcm(r, s)
    total = ZERO
    for ci, cj, length in ((canon(c1[0]), canon(c2[0]), r),
                           (canon(c1[1]), canon(c2[1]), s)):
        if ci == ZERO or cj == ZERO:
            continue
        term = mul(ci, _theta_step(k // length, length))
        term = mul(monomial(k - 1 - degree(cj)), term)
        term = mul(term, reciprocal(cj))
        total = add(total, mod_cyclic(term, k))
    return mod_cyclic(total, k)


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
    Its Hensel lift is the Z4-level gcd convention of the closed form."""
    return f2poly.cyclic_gcd((reduce_mod2(c.F1), reduce_mod2(c.l)), c.r)


@dataclass(frozen=True)
class DualReport:
    """The dual code and the route that found it, with the closed form's
    F1_hat_star, F2_hat_star and nu (None on the kernel route).

    kernel is the Howell form of C-perp, or None past the kernel cap."""

    method: str  # "free-closed-form" | "brute-kernel"
    dual: DoubleCyclicCode | None
    kernel: linalg.MatZ4 | None
    F1_hat_star: Poly | None = None
    F2_hat_star: Poly | None = None
    l_hat: Poly | None = None
    nu: Poly | None = None

    def to_json(self) -> dict:
        def p(x):
            return None if x is None else polytext.render(x)

        out = {"method": self.method}
        if self.dual is not None:
            out["dual"] = spec_dict(self.dual)
            out["dual_size"] = code_size(self.dual)
        out.update({"F1_hat_star": p(self.F1_hat_star),
                    "F2_hat_star": p(self.F2_hat_star),
                    "l_hat": p(self.l_hat), "nu": p(self.nu)})
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
    _is_dual."""
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
    report = DualReport(method="brute-kernel", dual=dual_code, kernel=K,
                        l_hat=dual_code.l)
    return K, report


def dual_free(c: DoubleCyclicCode, kernel_cap: int = DEFAULT_KERNEL_CAP) -> DualReport:
    """Closed-form dual of a free code.

    With d the Hensel lift of residue_gcd(c) the dual generators are
    F1_hat* = (x^r-1)/d,  F2_hat* = (x^s-1)*d/(F1*F2),  and l_hat from
    l_hat* * F1 = nu * (x^r-1) where nu = x^(k - deg F2 + deg l) *
    (A*)^-1 modulo (F1/d)* with A = l/d.  Inputs the closed form cannot
    express (failed exact divisions, residues sharing factors with the
    modulus) raise NotFree / NotInvertible so callers can fall back to
    the kernel oracle, as does a dual that fails _is_dual.  No kernel
    is computed: when r+s fits the cap, the report's kernel is the
    certified dual's Howell form, the one Howell reduction of the
    closed-form route.
    """
    if not c.is_free:
        raise NotFree("closed form requires f1 = g1 and f2 = g2")
    r, s = c.r, c.s
    k = math.lcm(r, s)
    F1m, F2m = c.f1, c.f2  # monic representatives of the combined generators
    if c.l != ZERO and reduce_mod2(c.l) == f2poly.ZERO:
        raise NotInvertible(
            "the residue-gcd convention cannot see a 2-torsion mixing "
            "polynomial; use the kernel oracle")
    d1 = hensel_lift(residue_gcd(c), r)

    F1hs = exact_div(xn_minus_1(r), d1)
    if mod_cyclic(F1hs, r) == ZERO:
        f1h = g1h = xn_minus_1(r)  # dual left generator vanishes
    else:
        f1h = g1h = make_monic(reciprocal(F1hs))

    num = mul(xn_minus_1(s), d1)
    q, rem = divmod_monic(num, mul(F1m, F2m))
    if rem:
        raise NotFree("closed form inapplicable: F1*F2 does not divide "
                      "(x^s-1)*gcd(F1,l)")
    F2hs = q
    if mod_cyclic(F2hs, s) == ZERO:
        f2h = g2h = xn_minus_1(s)
    else:
        f2h = g2h = make_monic(reciprocal(F2hs))

    modulus = make_monic(reciprocal(exact_div(F1m, d1)))
    if degree(modulus) == 0:
        nu = ZERO
        l_hat = ZERO
    else:
        qa, rema = divmod_monic(c.l, d1)
        if rema:
            raise NotInvertible("gcd(F1, l) does not divide l over Z4")
        a_star_inv = inverse_mod_monic(reciprocal(qa), modulus)
        nu = divmod_monic(
            mul(monomial(k - c.r1 + degree(c.l)), a_star_inv), modulus)[1]
        l_hat_star = mod_cyclic(mul(nu, exact_div(xn_minus_1(r), F1m)), r)
        l_hat = reciprocal(l_hat_star) if l_hat_star != ZERO else ZERO
        # The congruence determines nu only modulo the ideal (2), i.e. up
        # to a unit; pick the representative whose mixed generator pairs
        # to zero with the primal code.
        if l_hat != ZERO:
            F2h = mod_cyclic(add(f2h, scale(2, g2h)), s)
            unit = next((u for u in (1, 3) if _pairs_to_zero(
                c, [(mod_cyclic(scale(u, l_hat), r), F2h)])), None)
            if unit is None:
                raise NotFree("closed form did not produce a dual generator pair")
            nu = scale(unit, nu)
            l_hat = scale(unit, l_hat)

    dual_code = validate(r, s, f1h, g1h, l_hat, f2h, g2h)
    if not _is_dual(c, dual_code):
        raise NotFree("closed-form dual fails the pairing certificate")
    K = _generator_howell(dual_code).matrix if r + s <= kernel_cap else None
    return DualReport(method="free-closed-form", dual=dual_code, kernel=K,
                      F1_hat_star=mod_cyclic(F1hs, r),
                      F2_hat_star=mod_cyclic(F2hs, s),
                      l_hat=dual_code.l, nu=nu)


def _generators(c: DoubleCyclicCode) -> list[tuple[Poly, Poly]]:
    """The generator pairs (F1|0) and (l|F2), reduced."""
    return [(c.F1_mod, ZERO), (c.l, c.F2_mod)]


def _pairs_to_zero(c: DoubleCyclicCode, pairs) -> bool:
    """Whether every pair is orthogonal to the code under all shifts,
    i.e. phi_map vanishes against both generators of c."""
    return all(phi_map(p, g, c.r, c.s) == ZERO
               for p in pairs for g in _generators(c))


def _is_dual(c: DoubleCyclicCode, d: DoubleCyclicCode) -> bool:
    """The duality certificate: d is orthogonal to c (phi_map vanishes
    on every pair of a d generator and a c generator) and |c| * |d| =
    4^(r+s), so d is all of C-perp."""
    return (_pairs_to_zero(c, _generators(d))
            and code_size(c) * code_size(d) == 4 ** (c.r + c.s))


def dual_report(c: DoubleCyclicCode, method: str = "auto",
                kernel_cap: int = DEFAULT_KERNEL_CAP) -> DualReport:
    """Dispatch: closed form when applicable, kernel otherwise."""
    if method == "free":
        return dual_free(c, kernel_cap=kernel_cap)
    if method == "brute":
        return dual_brute_force(c, cap=kernel_cap)[1]
    if method != "auto":
        raise ValueError(f"unknown dual method {method!r}")
    if c.is_free:
        try:
            return dual_free(c, kernel_cap=kernel_cap)
        except (NotFree, NotInvertible):
            pass
    if c.r + c.s <= kernel_cap:
        return dual_brute_force(c, cap=kernel_cap)[1]
    raise DimensionCapExceeded(
        f"r+s = {c.r + c.s} exceeds kernel cap {kernel_cap} and the code "
        f"is not free; only residue-level duality is available")


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


def residue_dual_check(c: DoubleCyclicCode, dual_span: linalg.MatZ4,
                       dual_code: DoubleCyclicCode) -> ResidueDualCheck:
    """Verify everything the residue-level duality theory states.

    Reads the binary generators of Res(C-perp) off the certified dual
    dual_code = <(F1_hat|0), (l_hat|F2_hat)>.  Reduction mod 2 sends
    module generators to module generators, so Res(C-perp) is generated
    by (f1_hat mod 2|0) and (l_hat mod 2|f2_hat mod 2), and (a|0) lies
    in it iff a is in the ideal of f1_hat and h2_hat * l_hat mod 2,
    h2_hat = (x^s+1)/f2_hat (Pless and Qian, IEEE-IT 42(5), 1996).  The
    right generator is also read off the rows of dual_span mod 2 and
    must agree with the dual's (right_projection_generated).  Then
    checks the reciprocal formulas for the residue generators, the
    degree identities, the nubar congruence, and the Z4-lifted
    divisibility relations with their lambda/mu/nu witnesses.

    The F2_hat formula uses gcd(F1bar, lbar) in the numerator: the
    stated relation is exactly what the witness derivation produces and
    what the degree identities force.
    """
    r, s = c.r, c.s
    k = math.lcm(r, s)
    checks: dict[str, bool] = {}

    # residue generators of the dual, by the theorem above, from its
    # generators mod 2; the sentinels need no special case (an absent
    # left generator reduces to x^r+1, an absent right one gives
    # h2_hat = 1 with l_hat = 0)
    f1d, ld, f2d = (reduce_mod2(p) for p in (dual_code.f1, dual_code.l, dual_code.f2))
    h2d = f2poly.polydivmod(f2poly.xn_plus_1(s), f2d)[0]
    F1bar_hat = f2poly.cyclic_gcd((f1d, f2poly.mul(h2d, ld)), r)
    lbar_hat = f2poly.polymod(ld, F1bar_hat)
    # right projection ideal of the span's rows over F2
    F2bar_hat = f2poly.cyclic_gcd(
        [f2poly.canon(row[r:]) for row in dual_span.rows], s)
    checks["right_projection_generated"] = F2bar_hat == f2d

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

    # nubar congruence
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
            nubar = f2poly.polymod(
                f2poly.mul(monomial(k - f2poly.degree(F2bar) + f2poly.degree(lbar)), u),
                mbar)
            lhs = f2poly.add(
                f2poly.mul(f2poly.mul(nubar, monomial(k - f2poly.degree(lbar) - 1)), astar),
                monomial(k - f2poly.degree(F2bar) - 1))
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
