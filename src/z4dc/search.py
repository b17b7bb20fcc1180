"""Exhaustive generator-space search for good Gray images.

Candidates are built from the divisor lattice of x^n - 1 over Z4 (all
Hensel lifts of residue factor subsets), filtered by the generator
constraints, and scored by their binary Gray parameters (n, M, d).
Iteration order is fixed and the scorer is exact, so identical options
produce identical reports; candidate evaluation is embarrassingly
parallel over the candidate list.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from . import f2poly, polytext
from .code import (
    code_size,
    from_spec_dict,
    spec_dict,
    validate,
)
from .errors import InternalCheckFailed, InvalidInput, LatticeTooLarge, Z4DCError
from .gray import lee_enumerator
from .z4poly import Poly, ZERO, canon, degree, divides, hensel_lift, mul, xn_minus_1

DEFAULT_SEARCH_ENUM_CAP = 1 << 20
LATTICE_BOUND = 4096
FORMS = ("i", "ii", "iii")


def divisor_lattice(n: int) -> list[Poly]:
    """All monic divisors of x^n - 1 over Z4, sorted by (degree, coeffs).

    Each divisor is the Hensel lift of a product of irreducible residue
    factors; there are exactly 2^(number of factors) of them.  n is a
    positive odd integer (not a bool) of at most polytext.MAX_LENGTH,
    and LATTICE_BOUND is checked on the count of cyclotomic cosets, one
    per factor, before anything is factored.
    """
    if type(n) is not int:  # bool is an int subclass
        raise InvalidInput(f"n must be an integer, got {n!r:.40}")
    if n > polytext.MAX_LENGTH:
        raise InvalidInput(f"n must be at most {polytext.MAX_LENGTH}")
    k = len(f2poly.cyclotomic_cosets(n))
    if 2 ** k > LATTICE_BOUND:
        raise LatticeTooLarge(
            f"x^{n}-1 has {k} residue factors; lattice of size "
            f"2^{k} exceeds bound {LATTICE_BOUND}")
    factors = sorted(f2poly.factor_cyclic(n))
    lifts = [hensel_lift(p, n) for p in factors]
    divisors = []
    for bits in product((0, 1), repeat=len(lifts)):
        d: Poly = (1,)
        for b, lift in zip(bits, lifts):
            if b:
                d = mul(d, lift)
        divisors.append(d)
    return sorted(set(divisors), key=lambda p: (degree(p), p))


@dataclass(frozen=True)
class SearchResult:
    spec: dict
    n: int
    M: int
    d: int
    rank: int = 0

    def log2_M(self) -> int:
        return self.M.bit_length() - 1

    def to_json(self) -> dict:
        return {"spec": self.spec, "n": self.n, "M": self.M,
                "log2M": self.log2_M(), "d": self.d, "rank": self.rank}


@dataclass(frozen=True)
class SearchReport:
    results: list[SearchResult]
    candidates_evaluated: int
    candidates_skipped: int
    notices: list[str]


def _divisor_pairs(lattice: list[Poly]):
    """(small, big) pairs with small | big; divisibility in the lattice
    is decided by residue factor subsets, here by direct division."""
    pairs = []
    for big in lattice:
        for small in lattice:
            if degree(small) <= degree(big) and divides(small, big):
                pairs.append((small, big))
    return pairs


def _l_candidates(max_degree: int):
    """All polynomials over Z4 with degree < max_degree, ascending order."""
    if max_degree <= 0:
        yield ZERO
        return
    for coeffs in product(range(4), repeat=max_degree):
        yield canon(coeffs)


def iter_candidates(r: int, s: int, forms=FORMS,
                    max_l_degree: int | None = None):
    """Deterministic stream of candidate generator quintuples.

    Case (iii) mixing polynomials range over degree < deg F1 (larger l
    is redundant by the degree normalization); case (ii) uses the
    configurable bound, by default all residues mod x^r-1.  forms must
    be a nonempty collection of "i", "ii" and "iii", and max_l_degree
    None or at least 0.
    """
    if isinstance(forms, str) or not forms or not set(forms) <= set(FORMS):
        raise InvalidInput(f"forms must be a nonempty subset of "
                           f"{', '.join(FORMS)}, got {forms!r}")
    if max_l_degree is not None and max_l_degree < 0:
        raise InvalidInput(f"max_l_degree must be at least 0, got {max_l_degree}")
    D_r = divisor_lattice(r)
    D_s = divisor_lattice(s)
    # (g, f) pairs without the sentinel f = g = x^n-1 of an absent block,
    # so every candidate that validates has at least 2 words
    pairs_r = [(g, f) for g, f in _divisor_pairs(D_r) if not f == g == xn_minus_1(r)]
    pairs_s = [(g, f) for g, f in _divisor_pairs(D_s) if not f == g == xn_minus_1(s)]
    if "i" in forms:
        for g1, f1 in pairs_r:
            yield {"r": r, "s": s, "f1": f1, "g1": g1}
    if "ii" in forms:
        bound = r if max_l_degree is None else min(max_l_degree, r)
        for g2, f2 in pairs_s:
            for l in _l_candidates(bound):
                yield {"r": r, "s": s, "l": l, "f2": f2, "g2": g2}
    if "iii" in forms:
        for g1, f1 in pairs_r:
            for g2, f2 in pairs_s:
                for l in _l_candidates(degree(f1)):
                    yield {"r": r, "s": s, "f1": f1, "g1": g1, "l": l,
                           "f2": f2, "g2": g2}


def search(r: int, s: int, forms=FORMS,
           max_l_degree: int | None = None, distance_floor: int = 0,
           enum_cap: int = DEFAULT_SEARCH_ENUM_CAP,
           pareto: bool = True, jobs: int = 1) -> SearchReport:
    """Evaluate every valid candidate and report the Pareto-best codes.

    Results are sorted by (descending d, descending M, spec) and, when
    pareto is set, pruned to the best d per M class and best M per d
    class.  Candidates whose size exceeds enum_cap are skipped with a
    notice.  Every stored result re-validates from its serialized spec
    and reproduces its recorded parameters, or InternalCheckFailed is
    raised.
    """
    if enum_cap < 1:
        raise InvalidInput(f"enum_cap must be at least 1, got {enum_cap}")
    evaluated = skipped = 0
    notices: list[str] = []
    scored: list[tuple[int, int, str, dict]] = []
    for cand in iter_candidates(r, s, forms=forms, max_l_degree=max_l_degree):
        try:
            c = validate(**cand)
        except InternalCheckFailed:
            raise
        except Z4DCError:
            continue
        size = code_size(c)
        if size > enum_cap:
            skipped += 1
            notices.append(f"skipped candidate of size {size} > cap "
                           f"{enum_cap}: {spec_dict(c)}")
            continue
        d = lee_enumerator(c, cap=enum_cap, jobs=jobs).min_nonzero_weight()
        evaluated += 1
        if d < distance_floor:
            continue
        scored.append((d, size, _spec_key(spec_dict(c)), spec_dict(c)))

    scored.sort(key=lambda t: (-t[0], -t[1], t[2]))
    if pareto:
        best_d_for_m: dict[int, int] = {}
        best_m_for_d: dict[int, int] = {}
        for d, m, _, _ in scored:
            best_d_for_m[m] = max(best_d_for_m.get(m, 0), d)
            best_m_for_d[d] = max(best_m_for_d.get(d, 0), m)
        scored = [t for t in scored
                  if t[0] == best_d_for_m[t[1]] or t[1] == best_m_for_d[t[0]]]
    results = []
    for rank, (d, m, _, sd) in enumerate(scored):
        res = SearchResult(spec=sd, n=2 * (r + s), M=m, d=d, rank=rank)
        check = from_spec_dict(sd)
        redo = lee_enumerator(check, cap=enum_cap).min_nonzero_weight()
        if (code_size(check), redo) != (m, d):
            raise InternalCheckFailed(f"result {sd} does not re-evaluate "
                                      f"to ({m}, {d})")
        results.append(res)
    return SearchReport(results=results, candidates_evaluated=evaluated,
                        candidates_skipped=skipped, notices=notices)


def _spec_key(sd: dict) -> str:
    return "|".join(f"{k}={sd[k]}" for k in sorted(sd))


def report_csv(report: SearchReport) -> str:
    lines = ["r,s,f1,g1,l,f2,g2,n,log2M,d"]
    for res in report.results:
        sd = res.spec
        lines.append(",".join([
            str(sd["r"]), str(sd["s"]),
            sd.get("f1", ""), sd.get("g1", ""), sd.get("l", ""),
            sd.get("f2", ""), sd.get("g2", ""),
            str(res.n), str(res.log2_M()), str(res.d)]))
    return "\n".join(lines) + "\n"
