"""The benchmark's workloads: seeded inputs, one operation, output checks.

Each workload makes its inputs from the seed during set-up, runs one
operation per input in a closed loop (the next call starts only after
the previous one returns, ``jobs=1``), and checks every output with
benchmark-side arithmetic, outside the operation's timing.  Expected
values are pinned here rather than read from ``z4dc.reference``, so a
change to the program's reference table cannot make its own outputs
pass.

Why each workload is in the benchmark:

* ``analyze-ref2``: one huge code (reference case 2, 2^24 words,
  n = 24), so per-word enumeration throughput and the Gray step
  dominate, with almost no Howell, validate or dual work.
* ``search-1-15``: the same enumeration layer over many codes of at
  most 2^20 words; per-code ``BlockEnumerator`` set-up, the second
  enumeration of every kept result and the divisor lattice show here.
* ``dual-population``: the seeded free-code population of acceptance
  test 6g (n in {3, 7, 9, 15}); no enumeration at all, so Howell
  forms, kernels, ``validate`` (with its rejections), the closed form
  and the kernel fallbacks dominate.  Its millisecond ops are timed at
  the reference speed of ``speed.py``.
* ``analyze-wide``: codes with r + s = 66 > 64 symbols, the other side
  of any width choice a packed codeword engine must make: reference
  case 3 and a seeded population of codes of 2^17 to 2^20 words, whose
  time is mostly enumeration at 66 columns.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Callable

import numpy as np

from z4dc import cli, code, dual, f2poly, gray, search, z4poly
from z4dc.errors import Z4DCError

# -- pinned reference data ------------------------------------------------

REF2_SPEC = {"r": 1, "s": 23, "l": "1",
             "f2": "x^11+3x^10+2x^7+x^6+x^5+x^4+x^2+2x+3",
             "g2": "x^11+3x^10+2x^7+x^6+x^5+x^4+x^2+2x+3"}
REF2_COUNTS = {0: 1, 12: 12144, 14: 61824, 16: 195063, 18: 1133440,
               20: 1445136, 22: 4080384, 24: 2921232, 26: 4080384,
               28: 1445136, 30: 1133440, 32: 195063, 34: 61824,
               36: 12144, 48: 1}
REF2_GRAY = (48, 2 ** 24, 12)

_REF3_F2 = ("x^56+2x^55+3x^54+2x^53+3x^52+2x^51+2x^50+3x^49+x^48+x^45"
            "+2x^43+x^41+2x^40+2x^39+x^38+x^36+3x^35+2x^34+3x^33+x^32"
            "+2x^31+3x^28+x^27+x^26+2x^25+x^24+2x^22+3x^19+3x^18+x^16"
            "+x^14+x^13+3x^12+2x^11+3x^9+3x^8+3x^7+3x^6+3x^4+3x^3+x^2"
            "+x+1")
REF3_SPEC = {"r": 3, "s": 63, "l": "x^2+x+1", "f2": _REF3_F2, "g2": _REF3_F2}
REF3_COUNTS = {0: 1, 56: 1260, 58: 2016, 60: 756, 64: 2079, 66: 4160,
               68: 2079, 72: 756, 74: 2016, 76: 1260, 132: 1}
REF3_GRAY = (132, 2 ** 14, 56)

SEARCH_TARGET = (32, 1024, 12)

DUAL_LENGTHS = (3, 7, 9, 15)

# analyze-wide's seeded codes, by log2|C|, at most 2^20 words each.
# Sizes start at 2^17 because up to 2^16 words
# gray_image_params certifies the image by an all-pairs witness scan
# whose cost is set by where the first witness lies (0.39 s of scan
# against 0.02 s of enumeration on a 2^13-word code), not by the
# enumeration this workload is for.  The count halves as the size
# doubles, so each size class costs about the same and no single code
# sets the total.
WIDE_BITS = (17,) * 4 + (18,) * 3 + (19,) * 2 + (20,)
WIDE_L_SHARE = 0.15  # share of l-present specs; the rest have l absent
WIDE_SHAPE_SEED = 4  # draws the shapes of analyze-wide's seeded codes
ENUM_BLOCK = 1 << 12  # words per block of the benchmark's own enumeration

# The Gray map of the paper: 0, 1, 2, 3 -> 00, 01, 11, 10, symbol by
# symbol, each pair in order.
GRAY_INVERSE = {(0, 0): 0, (0, 1): 1, (1, 1): 2, (1, 0): 3}
LEE = np.array((0, 1, 2, 1), dtype=np.int64)


@dataclass(frozen=True)
class Workload:
    """``make_inputs(seed)`` runs in set-up; ``op(input)`` is one timed
    operation; ``extract(input, raw)`` turns its result into plain data
    (untimed, untraced); ``check(input, data)`` returns None or the
    reason the output is wrong.  An output whose data has ``rejected``
    set is a correct rejection of its input: it is counted, not timed.
    A ``scaled`` workload's op times are scaled to the reference speed
    of ``speed.py``."""

    name: str
    make_inputs: Callable
    op: Callable
    extract: Callable
    check: Callable
    scaled: bool = False


# -- benchmark-side linear algebra over Z4 ------------------------------------


def z4_echelon(rows) -> list[tuple[int, list[int], int]]:
    """Echelon basis of the Z4 row span as (column, row, pivot) triples,
    pivot 1 for a row of order 4 and 2 for a row of order 2, in column
    order.  Every word of the span is sum(a_i * row_i) for exactly one
    choice of a_i in range(4 // pivot_i)."""
    rest = [[x % 4 for x in row] for row in rows]
    basis = []
    for j in range(len(rest[0]) if rest else 0):
        at = next((i for i, row in enumerate(rest) if row[j] % 2), None)
        if at is None:
            at = next((i for i, row in enumerate(rest) if row[j]), None)
        if at is None:
            continue
        piv = rest.pop(at)
        if piv[j] == 3:
            piv = [3 * x % 4 for x in piv]
        for row in rest:
            q = row[j] // piv[j]  # a 2-pivot leaves only entries 0 or 2
            if q:
                row[:] = [(a - q * b) % 4 for a, b in zip(row, piv)]
        if piv[j] == 2:  # twice the pivot row still spans columns > j
            rest.append([2 * x % 4 for x in piv])
        rest = [row for row in rest if any(row)]
        basis.append((j, piv, piv[j]))
    return basis


def span_size(basis) -> int:
    out = 1
    for _, _, p in basis:
        out *= 4 // p
    return out


def in_span(basis, word) -> bool:
    x = [v % 4 for v in word]
    for j, row, p in basis:
        if x[j] % p:
            return False
        q = x[j] // p
        if q:
            x = [(a - q * b) % 4 for a, b in zip(x, row)]
    return not any(x)


def span_lee_histogram(rows) -> dict[int, int]:
    """Lee weight histogram of the Z4 row span, enumerated from the
    benchmark's own echelon basis in blocks of at most ENUM_BLOCK words:
    an enumeration independent of the program's."""
    basis = [(np.array(row, dtype=np.int64), 4 // p)
             for _, row, p in z4_echelon(rows)]
    n = len(rows[0])
    low = np.zeros((1, n), dtype=np.int64)
    while basis and low.shape[0] * basis[-1][1] <= ENUM_BLOCK:
        row, order = basis.pop()
        low = np.concatenate([(low + a * row) % 4 for a in range(order)])
    hist = np.zeros(2 * n + 1, dtype=np.int64)
    for coeffs in product(*(range(order) for _, order in basis)):
        offset = sum((a * row for a, (row, _) in zip(coeffs, basis)),
                     np.zeros(n, dtype=np.int64))
        weights = LEE[(low + offset) % 4].sum(axis=1)
        hist += np.bincount(weights, minlength=hist.size)
    return {w: int(k) for w, k in enumerate(hist) if k}


def gray_inverse(bits) -> list[int]:
    return [GRAY_INVERSE[bits[i], bits[i + 1]] for i in range(0, len(bits), 2)]


def witness_error(basis, witness, nbits: int) -> str | None:
    """None if ``witness`` is two Gray-image words whose XOR is not one."""
    if not witness or len(witness) != 2 or any(
            len(w) != nbits or set(w) - {0, 1} for w in witness):
        return "nonlinear Gray image without a well-formed witness"
    u, v = witness
    if not (in_span(basis, gray_inverse(u)) and in_span(basis, gray_inverse(v))):
        return "a witness word is not in the Gray image"
    if in_span(basis, gray_inverse([a ^ b for a, b in zip(u, v)])):
        return "the witness words' XOR is in the Gray image"
    return None


# -- analyze ------------------------------------------------------------------


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """``z4dc.cli.main`` in process, with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _cli_extract(_inp, raw) -> dict:
    rc, out, err = raw
    if rc != 0:
        return {"rc": rc, "stderr": err}
    data = json.loads(out)
    data["rc"] = rc
    return data


def _nonzero_min(counts: dict) -> int | None:
    keys = [int(w) for w in counts if int(w) > 0]
    return min(keys) if keys else None


def _check_analyze(data: dict, size: int, gray_n: int, counts=None,
                   nonlinear: bool = False) -> str | None:
    """An analyze report against the code's expected size, the span of
    its own generator matrix and, when given, pinned counts."""
    if data.get("rc") != 0:
        return f"exit code {data.get('rc')}: {data.get('stderr', '')[:200]}"
    if data["size"] != size:
        return f"size {data['size']} != {size}"
    basis = z4_echelon(data["generator_matrix"])
    if span_size(basis) != size:
        return f"generator matrix spans {span_size(basis)} words, not {size}"
    enum = {int(w): n for w, n in data["lee_enumerator"].items()}
    want = counts if counts is not None else \
        span_lee_histogram(data["generator_matrix"])
    if enum != want:
        return "Lee enumerator differs from the benchmark's counts"
    d = _nonzero_min(enum)
    if data["min_lee_distance"] != d:
        return f"min_lee_distance {data['min_lee_distance']} != {d}"
    g = data["gray"]
    if (g["n"], g["M"], g["d"]) != (gray_n, size, d):
        return f"Gray parameters {(g['n'], g['M'], g['d'])} != {(gray_n, size, d)}"
    lin, wit = g["linear_image"], g["witness"]
    if nonlinear and lin is not False:
        return "Gray image not certified nonlinear"
    if lin is False:
        return witness_error(basis, wit, gray_n)
    if wit is not None:
        return "witness reported for an image not certified nonlinear"
    return None


def write_spec(workdir: Path, spec: dict) -> str:
    path = workdir / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    return str(path)


def _ref2_inputs(_seed: int, workdir: Path) -> list[dict]:
    return [{"path": write_spec(workdir, REF2_SPEC)}]


def _ref2_op(inp: dict):
    return run_cli(["analyze", inp["path"], "--no-timing"])


def _ref2_check(_inp, data) -> str | None:
    return _check_analyze(data, REF2_GRAY[1], REF2_GRAY[0], REF2_COUNTS,
                          nonlinear=True)


# -- search-1-15 ------------------------------------------------------------------


def _search_inputs(_seed: int, _workdir: Path) -> list[dict]:
    return [{"argv": ["search", "1", "15", "--forms", "ii"]}]


def _search_op(inp: dict):
    return run_cli(inp["argv"])


def _search_check(_inp, data) -> str | None:
    if data.get("rc") != 0:
        return f"exit code {data.get('rc')}"
    found = [(r["n"], r["M"], r["d"]) for r in data["results"]]
    if SEARCH_TARGET not in found:
        return f"{SEARCH_TARGET} is not among the results"
    for n, m, d in found:
        if n != 32 or m < 2 or m & (m - 1) or d < 1:
            return f"malformed result {(n, m, d)}"
    return None


# -- dual-population --------------------------------------------------------------


def dual_population(seed: int) -> list[dict]:
    """Acceptance test 6g's free-code population: every (r, s) over
    DUAL_LENGTHS, every f1 | x^r-1 and f2 | x^s-1 (f = g), with l in
    {0, 1, a seeded random polynomial}.  The ops run in a seeded
    shuffled order, so a stretch of slow machine time is not spent on
    one kind of code, which would move the latency percentiles more
    than the total."""
    rng = random.Random(seed)
    lattices = {n: search.divisor_lattice(n) for n in DUAL_LENGTHS}
    specs = []
    for r, s in product(DUAL_LENGTHS, repeat=2):
        for f1 in lattices[r]:
            for f2 in lattices[s]:
                rand_l = z4poly.canon(rng.randrange(4) for _ in
                                      range(max(z4poly.degree(f1), 1)))
                for l in ((), (1,), rand_l):
                    specs.append({"r": r, "s": s, "f1": list(f1),
                                  "g1": list(f1), "l": list(l),
                                  "f2": list(f2), "g2": list(f2)})
    rng.shuffle(specs)
    return specs


def _pmul(a, b) -> list[int]:
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % 4
    return out


def _pdivmod(a, m) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by m over Z4, m with a unit leading
    coefficient (1 and 3 are their own inverses mod 4)."""
    a, dm = [x % 4 for x in a], len(m) - 1
    q = [0] * max(len(a) - dm, 0)
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i] * m[-1] % 4
        if c:
            q[i - dm] = c
            for j, b in enumerate(m):
                a[i - dm + j] = (a[i - dm + j] - c * b) % 4
    return q, a[:dm]


def expected_rejection(spec: dict) -> str | None:
    """The error class validation must raise for a free population spec
    (f1 = g1, f2 = g2, both monic divisors of x^n-1), or None if the
    spec is valid.  Reduced modulo f1, l must vanish, or else the right
    generator must be present (f2 != x^s-1, DegenerateGenerators) and
    ((x^s-1)/f2)*l must lie in the ideal of f1, which for a monic
    divisor of x^r-1 means f1 divides it (MixingConstraintViolation)."""
    r, s, f1, l, f2 = spec["r"], spec["s"], spec["f1"], spec["l"], spec["f2"]
    if not any(_pdivmod(l, f1)[1]):
        return None
    xs = [3] + [0] * (s - 1) + [1]
    if list(f2) == xs:
        return "DegenerateGenerators"
    h2 = _pdivmod(xs, f2)[0]
    if any(_pdivmod(_pmul(h2, l), f1)[1]):
        return "MixingConstraintViolation"
    return None


def _dual_inputs(seed: int, _workdir: Path) -> list[dict]:
    return dual_population(seed)


def _dual_op(spec: dict):
    """The library calls ``z4dc dual --method auto`` makes, without
    argparse (whose per-call cost would swamp the library).  Only
    validation may reject a spec: an error from a later step fails."""
    try:
        c = code.from_spec_dict(spec)
    except Z4DCError as exc:
        return exc
    rep = dual.dual_report(c, method="auto")
    chk = None
    if rep.kernel is not None:
        chk = dual.residue_dual_check(c, rep.kernel, dual_code=rep.dual)
    return c, rep, chk


def _dual_extract(_spec, raw) -> dict:
    if isinstance(raw, Z4DCError):
        return {"rejected": type(raw).__name__}
    c, rep, chk = raw
    return {"rejected": None, "r": c.r, "s": c.s,
            "G": [list(row) for row in code.generator_matrix(c).rows],
            "H": [list(row) for row in code.generator_matrix(rep.dual).rows],
            "K": None if rep.kernel is None else [list(r) for r in rep.kernel.rows],
            "size": code.code_size(c), "dual_size": code.code_size(rep.dual),
            "residue_ok": None if chk is None else chk.all_ok()}


def _dual_check(spec, data) -> str | None:
    want = expected_rejection(spec)
    if data["rejected"] != want:
        return (f"validation raised {data['rejected']}, expected {want}"
                f" for {spec}")
    if want is not None:
        return None
    n = data["r"] + data["s"]
    if data["size"] * data["dual_size"] != 4 ** n:
        return "|C| * |C_dual| != 4^(r+s)"
    G = np.array(data["G"], dtype=np.int64).reshape(-1, n)
    for name in ("H", "K"):
        if data[name] is None:
            continue
        M = np.array(data[name], dtype=np.int64)
        if M.size and M.shape[1] != n:
            return f"{name} rows of length {M.shape[1]} != {n}"
        if ((G @ M.reshape(-1, n).T) % 4).any():
            return f"{name} row not orthogonal to the code"
    if data["residue_ok"] is False:
        return "residue-level dual relations failed"
    return None


# -- analyze-wide ----------------------------------------------------------------


def _greedy_subset(rng, pool: list[int], degs: list[int], budget: int) -> list[int]:
    """Random subset of pool, its degrees summing to at most budget."""
    order = pool[:]
    rng.shuffle(order)
    chosen, total = [], 0
    for i in order:
        if total + degs[i] <= budget:
            chosen.append(i)
            total += degs[i]
    return chosen


class WideFactors:
    """Codes at (r, s) = (3, 63) built from residue factor subsets.

    Every spec is valid by construction: with l = 0 the mixing
    conditions hold trivially, and l-present specs take f1 = g1 = x-1
    with x-1 missing from f2, so x-1 divides both (x^s-1)/g2 and
    (x^s-1)/f2.  |C| = 4^(deg h1 + deg h2) * 2^(deg f1 - deg g1 +
    deg f2 - deg g2), with h = (x^n-1)/f.
    """

    r, s = 3, 63

    def __init__(self):
        self.fac_r = sorted(f2poly.factor_cyclic(self.r))
        self.fac_s = sorted(f2poly.factor_cyclic(self.s))
        self.lift_r = [z4poly.hensel_lift(p, self.r) for p in self.fac_r]
        self.lift_s = [z4poly.hensel_lift(p, self.s) for p in self.fac_s]
        self.deg_r = [len(p) - 1 for p in self.fac_r]
        self.deg_s = [len(p) - 1 for p in self.fac_s]

    def bits(self, F, G, H, T) -> int:
        """log2|C| for f1 = prod F, g1 = prod G, h2 = prod H, t2 = prod T."""
        dr, ds = self.deg_r, self.deg_s
        return (2 * (self.r - sum(dr[i] for i in F)) + sum(dr[i] for i in F)
                - sum(dr[i] for i in G) + 2 * sum(ds[i] for i in H)
                + sum(ds[i] for i in T))

    def spec(self, F, G, H, T, l=None) -> dict:
        out = {"r": self.r, "s": self.s}
        if len(G) < len(self.fac_r):  # f1 = g1 = x^r-1 is the absent sentinel
            out["f1"] = list(_product(self.lift_r, F))
            out["g1"] = list(_product(self.lift_r, G))
        f2 = [i for i in range(len(self.fac_s)) if i not in H]
        out["f2"] = list(_product(self.lift_s, f2))
        out["g2"] = list(_product(self.lift_s, [i for i in f2 if i not in T]))
        if l is not None:
            out["l"] = l
        return out


def _product(lifts: list, idx) -> tuple:
    out = (1,)
    for i in idx:
        out = z4poly.mul(out, lifts[i])
    return out


def wide_population(seed: int, wf: WideFactors) -> list[tuple[dict, int]]:
    """Seeded distinct (spec, log2|C|) pairs, one per entry of WIDE_BITS,
    in a seeded order.

    An op's cost is set by its code's shape (size, left generators, the
    degrees of the residue factors in h2 and in f2 but not g2, and l),
    not by which factors of x^63-1 those are: codes of one size differ
    in cost by up to 2x with their shape.  So the shapes are drawn once,
    from WIDE_SHAPE_SEED, and the seed relabels the residue factors of
    x^63-1 among those of equal degree (nine of degree 6, two of degree
    3) and shuffles the order: every seed runs other codes of the same
    costs.  The relabelling is a bijection, so the codes stay distinct.
    """
    rng = random.Random(seed)
    relabel = list(range(len(wf.fac_s)))
    for d in sorted(set(wf.deg_s)):
        same = [i for i, e in enumerate(wf.deg_s) if e == d]
        moved = same[:]
        rng.shuffle(moved)
        for i, j in zip(same, moved):
            relabel[i] = j
    out = [(wf.spec(F, G, [relabel[i] for i in H], [relabel[i] for i in T], l), k)
           for F, G, H, T, l, k in wide_shapes(wf)]
    rng.shuffle(out)
    return out


def wide_shapes(wf: WideFactors) -> list[tuple]:
    """(F, G, H, T, l, log2|C|) for distinct codes, one per entry of
    WIDE_BITS, drawn from WIDE_SHAPE_SEED.  A residue factor left out of
    g2 but kept in f2 adds 2-torsion."""
    rng = random.Random(WIDE_SHAPE_SEED)
    n_r, n_s = len(wf.fac_r), len(wf.fac_s)
    linear_r, linear_s = wf.deg_r.index(1), wf.deg_s.index(1)
    # left generators as (factors of f1, factors of g1), g1 | f1
    lefts = [(F, G) for F in _subsets(n_r) for G in _subsets(n_r)
             if set(G) <= set(F)]
    out, seen = [], set()
    for k in WIDE_BITS:
        for _ in range(100000):
            with_l = rng.random() < WIDE_L_SHARE
            F, G = ((linear_r,), (linear_r,)) if with_l else rng.choice(lefts)
            need = k - wf.bits(F, G, (), ())
            if need < (2 if with_l else 0):
                continue
            pool = [i for i in range(n_s) if i != linear_s]
            H = [linear_s] if with_l else []
            H += _greedy_subset(rng, pool, wf.deg_s,
                                rng.randint(0, need // 2) - len(H))
            rest = [i for i in range(n_s) if i not in H]
            T = _greedy_subset(rng, rest, wf.deg_s,
                               need - 2 * sum(wf.deg_s[i] for i in H))
            if wf.bits(F, G, H, T) != k:
                continue
            l = [rng.randrange(1, 4)] if with_l else None
            key = (F, G, tuple(sorted(H)), tuple(sorted(T)), str(l))
            if key not in seen:
                seen.add(key)
                break
        else:
            raise RuntimeError(f"no new analyze-wide spec of 2^{k} words")
        out.append((F, G, H, T, l, k))
    return out


def _subsets(n: int) -> list[tuple[int, ...]]:
    return [tuple(i for i in range(n) if mask >> i & 1) for mask in range(1 << n)]


def _wide_inputs(seed: int, _workdir: Path) -> list[dict]:
    """Case 3 first, then the seeded codes in their seeded order."""
    inputs = [{"spec": REF3_SPEC, "ref3": True}]
    inputs += [{"spec": spec, "bits": k}
               for spec, k in wide_population(seed, WideFactors())]
    return inputs


def _wide_op(inp: dict):
    """The library calls ``z4dc analyze`` makes, without argparse, JSON
    or file I/O, so the operation's time is the library's."""
    c = code.from_spec_dict(inp["spec"])
    enum = gray.lee_enumerator(c)
    size = code.code_size(c)
    d = enum.min_nonzero_weight()
    params = gray.gray_image_params(c)
    rows = code.generator_matrix(c).rows
    return size, d, enum, params, rows


def _wide_extract(_inp, raw) -> dict:
    size, d, enum, params, rows = raw
    return {"rc": 0, "size": size, "min_lee_distance": d,
            "generator_matrix": [list(row) for row in rows],
            "lee_enumerator": {str(w): n for w, n in enum.counts.items()},
            "gray": {"n": params.n, "M": params.M, "d": params.d,
                     "linear_image": params.linear_image,
                     "witness": [list(w) for w in params.witness]
                     if params.witness else None}}


def _wide_check(inp, data) -> str | None:
    if inp.get("ref3"):
        return _check_analyze(data, REF3_GRAY[1], REF3_GRAY[0], REF3_COUNTS,
                              nonlinear=True)
    return _check_analyze(data, 2 ** inp["bits"], 132)


WORKLOADS = {w.name: w for w in (
    Workload("analyze-ref2", _ref2_inputs, _ref2_op, _cli_extract,
             _ref2_check),
    Workload("search-1-15", _search_inputs, _search_op, _cli_extract,
             _search_check),
    Workload("dual-population", _dual_inputs, _dual_op, _dual_extract,
             _dual_check, scaled=True),
    Workload("analyze-wide", _wide_inputs, _wide_op, _wide_extract,
             _wide_check),
)}
