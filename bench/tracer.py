"""Benchmark-side tracer: spans around calls into z4dc's public functions.

The program itself carries no instrumentation, so the tracer replaces a
function with a timing wrapper at every binding site: several modules
import by name (``search`` binds ``validate`` and ``lee_enumerator``,
``dual`` binds ``validate``, ``generator_matrix`` and
``canonicalize_ideal``), so patching only the defining module would
miss their calls.  ``BlockEnumerator`` is patched on the class, which
every binding shares.

Spans are kept in memory as ``[name, start, end, parent]`` records and
aggregated once, after the traced repetition ends.  A span's self time
is its duration minus the durations of its direct children; the
program is single-threaded here (``jobs=1``), so children never
overlap.  Functions called on the order of 10^5 times per run
(``dual.inner_product``, ``z4poly.mul``, ``canon``) are deliberately
left unwrapped: their wrapper cost would swamp what they measure.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter

# Classes named in code.validate.rejected.<class>; any other Z4DCError
# counts under code.validate.rejected.other.
VALIDATE_ERRORS = ("BrokenDivisibilityChain", "DegenerateGenerators",
                   "EvenLength", "MixingConstraintViolation", "NotMonic")
HOWELL_BUCKETS = ("w16", "w32", "w66")


def aggregate(records) -> dict[str, list]:
    """Per span name: [calls, total seconds, self seconds].

    ``records`` are ``(name, start, end, parent_index)`` with parent -1
    for a root span.
    """
    child = [0.0] * len(records)
    for name, start, end, parent in records:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, list] = {}
    for i, (name, start, end, _) in enumerate(records):
        row = out.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += end - start
        row[2] += (end - start) - child[i]
    return out


class Tracer:
    """Records spans and counters for the functions it wraps."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.records: list[list] = []
        self.counts: Counter = Counter()
        self.codes: dict = {}  # distinct enumerated code -> |C|
        self.enabled = True
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.records.append([name, self.clock(), 0.0, parent])
        idx = len(self.records) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int):
        self.records[idx][2] = self.clock()
        self._stack.pop()

    @contextlib.contextmanager
    def paused(self):
        """Wrapped functions run untraced inside this block."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def parent_name(self) -> str | None:
        """Name of the innermost open span."""
        return self.records[self._stack[-1]][0] if self._stack else None

    def wrap(self, fn, name, on_error=None, on_return=None):
        """Timing wrapper; ``name`` is a string or a function of the
        call's arguments.  Hooks run after the span is closed."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span = name if isinstance(name, str) else name(*args, **kwargs)
            idx = tracer.open(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.close(idx)
                tracer.counts[span + ".raised"] += 1
                if on_error is not None:
                    on_error(exc)
                raise
            tracer.close(idx)
            if on_return is not None:
                on_return(result, *args, **kwargs)
            return result

        return wrapper

    # -- patching ------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch_everywhere(self, original, wrapper):
        """Replace ``original`` by ``wrapper`` in every loaded z4dc module."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "z4dc"
                                   or modname.startswith("z4dc.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def patch_method(self, cls, attr: str, wrapper):
        self._set(cls, attr, wrapper)

    def uninstall(self):
        while self._patched:
            owner, attr, value = self._patched.pop()
            setattr(owner, attr, value)

    def spans(self) -> dict[str, list]:
        return aggregate([tuple(r) for r in self.records])


def howell_bucket(m) -> str:
    """Width bucket of a Howell call: w16 (<= 16 columns), w32 (<= 32)
    and w66 (wider: case 3's 66 columns and kernel augmentations)."""
    n = m.ncols
    return "w16" if n <= 16 else "w32" if n <= 32 else "w66"


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer the benchmark reports."""
    from z4dc import cli, code, dual, f2poly, gray, linalg, search, z4poly
    from z4dc.errors import Z4DCError

    def on_validate_error(exc):
        if isinstance(exc, Z4DCError):
            cls = type(exc).__name__
            if cls not in VALIDATE_ERRORS:
                cls = "other"
            tracer.counts["code.validate.rejected." + cls] += 1
            if tracer.parent_name() == "search.search":
                tracer.counts["search.rejected"] += 1

    def on_enum_setup(_result, be, c, *args, **kwargs):
        tracer.codes[c] = be.nblocks * be.block_size

    def on_block(result, *args, **kwargs):
        tracer.counts["code.enum.words"] += result.shape[0]

    def on_lee(_result, *args, **kwargs):
        if tracer.parent_name() == "search.search":
            tracer.counts["search.lee_enumerator"] += 1

    orig_iter = search.iter_candidates

    def candidates(*args, **kwargs):
        for cand in orig_iter(*args, **kwargs):
            tracer.counts["search.candidates"] += 1
            yield cand

    functions = [
        (code.validate, "code.validate", on_validate_error, None),
        (code.generator_matrix, "code.generator_matrix", None, None),
        (code.canonicalize_ideal, "code.canonicalize_ideal", None, None),
        (gray.lee_enumerator, "gray.lee_enumerator", None, on_lee),
        (gray.gray_image_params, "gray.gray_image_params", None, None),
        (linalg.howell, lambda m: "linalg.howell." + howell_bucket(m),
         None, None),
        (linalg.kernel, "linalg.kernel", None, None),
        (linalg.span_equal, "linalg.span_equal", None, None),
        (linalg.membership, "linalg.membership", None, None),
        (dual.dual_free, "dual.dual_free", None, None),
        (dual.dual_brute_force, "dual.dual_brute_force", None, None),
        (dual.orthogonal_all_shifts, "dual.orthogonal_all_shifts", None, None),
        (dual.residue_dual_check, "dual.residue_dual_check", None, None),
        (f2poly.factor_cyclic, "f2poly.factor_cyclic", None, None),
        (z4poly.hensel_lift, "z4poly.hensel_lift", None, None),
        (z4poly.inverse_mod_monic, "z4poly.inverse_mod_monic", None, None),
        (search.search, "search.search", None, None),
        (cli.main, "cli", None, None),
    ]
    for fn, name, on_error, on_return in functions:
        wrapper = tracer.wrap(fn, name, on_error, on_return)
        tracer.patch_everywhere(fn, wrapper)
    tracer.patch_everywhere(orig_iter, candidates)
    be = code.BlockEnumerator
    tracer.patch_method(be, "__init__", tracer.wrap(
        be.__init__, "code.enum_setup", None, on_enum_setup))
    tracer.patch_method(be, "block", tracer.wrap(
        be.block, "code.enum", None, on_block))


def span_cost(calls: int = 20000) -> float:
    """Seconds one span adds to the call it wraps: a wrapped no-op call
    minus a bare one, each the best of five timings of ``calls`` calls."""
    tr = Tracer()

    def noop():
        return None

    def per_call(fn) -> float:
        best = float("inf")
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            best = min(best, time.perf_counter() - t0)
            tr.records.clear()
        return best / calls

    return max(per_call(tr.wrap(noop, "noop")) - per_call(noop), 0.0)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, evaluated: int, skipped: int) -> dict:
    """The per-layer metrics of one traced repetition, by name.

    ``.calls`` counts spans and ``.s`` is their summed self time.
    ``evaluated`` and ``skipped`` are the search report's own counts of
    scored candidates and candidates over the enumeration cap; they
    cannot be seen from the calls the search makes.
    """
    spans = tracer.spans()
    counts = tracer.counts
    out: dict[str, float] = {}

    def span(metric: str):
        calls, _, self_s = spans.get(metric, (0, 0.0, 0.0))
        out[metric + ".calls"] = calls
        out[metric + ".s"] = self_s

    span("code.validate")
    for cls in VALIDATE_ERRORS + ("other",):
        out["code.validate.rejected." + cls] = counts["code.validate.rejected." + cls]
    out["code.validate.rejected"] = sum(
        out["code.validate.rejected." + cls] for cls in VALIDATE_ERRORS + ("other",))
    blocks, _, enum_s = spans.get("code.enum", (0, 0.0, 0.0))
    words = counts["code.enum.words"]
    out.update({"code.enum.words": words, "code.enum.blocks": blocks,
                "code.enum.s": enum_s,
                "code.enum.words_per_s": _ratio(words, enum_s),
                "code.enum.words_per_codeword":
                    _ratio(words, sum(tracer.codes.values()))})
    span("code.enum_setup")
    span("code.generator_matrix")
    span("code.canonicalize_ideal")
    span("gray.lee_enumerator")
    out["gray.gray_image_params.s"] = spans.get(
        "gray.gray_image_params", (0, 0.0, 0.0))[2]
    for bucket in HOWELL_BUCKETS:
        calls, _, self_s = spans.get("linalg.howell." + bucket, (0, 0.0, 0.0))
        out["linalg.howell.calls." + bucket] = calls
        out["linalg.howell.s." + bucket] = self_s
    out["linalg.howell.calls"] = sum(
        out["linalg.howell.calls." + b] for b in HOWELL_BUCKETS)
    out["linalg.howell.s"] = sum(out["linalg.howell.s." + b] for b in HOWELL_BUCKETS)
    for name in ("linalg.kernel", "linalg.span_equal", "linalg.membership",
                 "dual.dual_free", "dual.dual_brute_force",
                 "dual.orthogonal_all_shifts", "dual.residue_dual_check",
                 "f2poly.factor_cyclic", "z4poly.hensel_lift",
                 "z4poly.inverse_mod_monic"):
        span(name)
    free_calls = out["dual.dual_free.calls"]
    out["dual.closed_form_ratio"] = _ratio(
        free_calls - counts["dual.dual_free.raised"], free_calls)
    candidates = counts["search.candidates"]
    out.update({
        "search.candidates": candidates,
        "search.valid": candidates - counts["search.rejected"],
        "search.evaluated": evaluated,
        "search.skipped_over_cap": skipped,
        "search.useful_ratio": _ratio(evaluated, candidates),
        "search.reenumerations": counts["search.lee_enumerator"] - evaluated
        if candidates else 0,
    })
    out["cli.s"] = spans.get("cli", (0, 0.0, 0.0))[2]
    return out
