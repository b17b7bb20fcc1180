"""Command-line front end.

Subcommands: analyze, dual, verify-examples, search, gray-export, each
taking only the flags its handler reads.  Output is JSON first (with
--format csv for enumerators and search reports); identical inputs and
flags produce byte-identical output, once analyze's timing is excluded
with --no-timing.

Exit codes: 0 success, 1 I/O failure, 2 validation failure or a
malformed command line (with a machine-readable error object naming
the violated invariant), 3
enumeration or dimension cap exceeded (--force lifts the caps), 4 a
failed internal check, i.e. a bug in z4dc (same error object).

Sizes are printed exact.  A code of length r+s, with r and s up to
polytext.MAX_LENGTH, has up to 4^(r+s) words, more digits than Python
prints by default, so main lifts the interpreter's int-to-string digit
limit while it runs.  That limit guards against quadratic conversions
of unbounded input, so the command line is parsed before it is lifted
and the spec's own integer literals are held to the default limit
(_spec_int).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time

from . import gray, linalg, polytext, search as search_mod
from .code import (
    DEFAULT_ENUM_CAP,
    code_size,
    from_spec_dict,
    generator_matrix,
    spec_dict,
)
from .dual import (
    DEFAULT_KERNEL_CAP,
    dual_free,
    dual_report,
    residue_dual_check,
)
from .errors import (
    DimensionCapExceeded,
    EnumerationCapExceeded,
    InternalCheckFailed,
    InvalidInput,
    PolyParseError,
    Z4DCError,
)
from .reference import REFERENCE_CASES

ENV_MAX_ENUM = "Z4DC_MAX_ENUM"
UNCAPPED = 1 << 62


def _enum_cap(max_enum: int | None, force: bool) -> int:
    """--max-enum, else $Z4DC_MAX_ENUM, else DEFAULT_ENUM_CAP; --force
    lifts the cap, but the variable is checked all the same."""
    if max_enum is None:
        env = os.environ.get(ENV_MAX_ENUM)
        try:
            max_enum = int(env) if env else DEFAULT_ENUM_CAP
        except ValueError:
            raise InvalidInput(
                f"${ENV_MAX_ENUM} must be an integer, got {env!r}") from None
        if max_enum < 1:
            raise InvalidInput(f"${ENV_MAX_ENUM} must be at least 1, got {max_enum}")
    return UNCAPPED if force else max_enum


def _spec_int(digits: str) -> int:
    """A JSON integer literal of the spec, held to the default digit limit."""
    if len(digits.lstrip("-")) > sys.int_info.default_max_str_digits:
        raise InvalidInput(f"spec integer of more than "
                           f"{sys.int_info.default_max_str_digits} digits")
    return int(digits)


def _load_spec(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_int=_spec_int)
        except UnicodeDecodeError as exc:
            raise InvalidInput(f"spec file is not UTF-8: {exc}") from None
        except RecursionError:
            raise InvalidInput("spec file nests too deeply to parse") from None


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _error_exit(exc: Z4DCError, exit_code: int) -> int:
    obj = {"error": {"type": type(exc).__name__, "message": str(exc),
                     "invariant": getattr(exc, "invariant", None)}}
    if isinstance(exc, PolyParseError):
        obj["error"]["rule"] = exc.rule
    sys.stderr.write(json.dumps(obj, indent=2) + "\n")
    return exit_code


def _enumerator_csv(counts: dict[int, int]) -> str:
    lines = ["lee_weight,count"]
    lines += [f"{w},{n}" for w, n in sorted(counts.items())]
    return "\n".join(lines) + "\n"


def cmd_analyze(args) -> int:
    cap = _enum_cap(args.max_enum, args.force)
    t0 = time.perf_counter()
    c = from_spec_dict(_load_spec(args.spec))
    enum = gray.lee_enumerator(c, cap=cap, jobs=args.jobs)
    params = gray.image_params(c, enum)
    report = {
        "spec": spec_dict(c),
        "case": c.case,
        "size": params.M,
        "generator_matrix": [list(row) for row in generator_matrix(c).rows],
        "min_lee_distance": params.d,
        "lee_enumerator": {str(w): n for w, n in sorted(enum.counts.items())},
        "gray": {"n": params.n, "M": params.M, "d": params.d,
                 "linear_image": params.linear_image,
                 "witness": [list(w) for w in params.witness]
                 if params.witness else None},
    }
    if params.d is None:
        report["note"] = "ZeroCode: the zero code has no nonzero codeword"
    if not args.no_timing:
        report["timing"] = {"seconds": round(time.perf_counter() - t0, 6)}
    if args.format == "csv":
        _emit(_enumerator_csv(enum.counts), args.out)
    else:
        _emit(json.dumps(report, indent=2), args.out)
    return 0


def cmd_dual(args) -> int:
    c = from_spec_dict(_load_spec(args.spec))
    cap = UNCAPPED if args.force else DEFAULT_KERNEL_CAP
    report = dual_report(c, method=args.method, kernel_cap=cap)
    out = report.to_json()
    if report.kernel is not None:
        chk = residue_dual_check(c, report.kernel, dual_code=report.dual)
        out["residue_check"] = chk.to_json()
    _emit(json.dumps(out, indent=2), args.out)
    return 0


def _claims_for_case(case: dict, cap: int, jobs: int):
    """Recompute every pinned value; yield (claim, expected, got) rows."""
    c = from_spec_dict(case["spec"])
    yield ("size", case["size"], code_size(c))
    if "min_lee_distance" in case:
        enum = gray.lee_enumerator(c, cap=cap, jobs=jobs)
        yield ("min_lee_distance", case["min_lee_distance"],
               enum.min_nonzero_weight())
        yield ("lee_enumerator", case["lee_counts"], enum.counts)
        params = gray.image_params(c, enum)
        yield ("gray_params", case["gray"], (params.n, params.M, params.d))
        if case.get("nonlinear"):
            certified = (params.linear_image is False
                         and params.witness is not None)
            yield ("gray_image_nonlinear_with_witness", True, certified)
    if "dual" in case:
        pinned = case["dual"]
        rep = dual_free(c)
        yield ("dual_F1_hat_star", pinned["F1_hat_star"],
               polytext.render(rep.F1_hat_star))
        yield ("dual_F2_hat_star", pinned["F2_hat_star"],
               polytext.render(rep.F2_hat_star))
        yield ("dual_nu", pinned["nu"], polytext.render(rep.nu))
        yield ("dual_l_hat", pinned["l_hat"], polytext.render(rep.l_hat))
        yield ("dual_size", pinned["size"], code_size(rep.dual))
        # the report's kernel is the dual's own Howell form, so the
        # cross-check computes the kernel afresh; both sides are Howell
        # forms, which are canonical, so equal spans means equal rows
        yield ("dual_span_equals_kernel", True,
               rep.kernel == linalg.kernel(generator_matrix(c)))
        chk = residue_dual_check(c, rep.kernel, dual_code=rep.dual)
        yield ("residue_dual_relations", True, chk.all_ok())


def cmd_verify_examples(args) -> int:
    cap = _enum_cap(args.max_enum, args.force)
    failures = 0
    rows = []
    cases = [case for case in REFERENCE_CASES if args.only in (None, case["id"])]
    if not cases:
        raise InvalidInput(f"--only {args.only} names no reference case; the ids "
                           f"are {[case['id'] for case in REFERENCE_CASES]}")
    for case in cases:
        for claim, expected, got in _claims_for_case(case, cap, args.jobs):
            ok = expected == got
            failures += not ok
            status = "PASS" if ok else "FAIL"
            line = f"{status}  case {case['id']} ({case['label']}): {claim}"
            if not ok:
                line += f" expected {expected!r} got {got!r}"
            print(line)
            row = {"case": case["id"], "label": case["label"],
                   "claim": claim, "pass": ok}
            if case.get("enumerator_reading") and claim == "lee_enumerator":
                row["enumerator_reading"] = case["enumerator_reading"]
            rows.append(row)
    if args.out:
        _emit(json.dumps({"rows": rows, "all_pass": failures == 0},
                         indent=2), args.out)
    return 0 if failures == 0 else 1


def cmd_search(args) -> int:
    forms = tuple(f.strip() for f in args.forms.split(",") if f.strip())
    cap = UNCAPPED if args.force else \
        args.max_enum or search_mod.DEFAULT_SEARCH_ENUM_CAP
    report = search_mod.search(
        args.r, args.s, forms=forms, max_l_degree=args.max_l_degree,
        distance_floor=args.distance_floor, enum_cap=cap,
        pareto=not args.keep_all, jobs=args.jobs)
    if args.format == "csv":
        _emit(search_mod.report_csv(report), args.out)
    else:
        out = {"results": [res.to_json() for res in report.results],
               "candidates_evaluated": report.candidates_evaluated,
               "candidates_skipped": report.candidates_skipped,
               "notices": report.notices}
        _emit(json.dumps(out, indent=2), args.out)
    return 0


def cmd_gray_export(args) -> int:
    cap = _enum_cap(args.max_enum, args.force)
    c = from_spec_dict(_load_spec(args.spec))
    with (open(args.out, "w", encoding="utf-8") if args.out
          else contextlib.nullcontext(sys.stdout)) as fh:
        for line in gray.gray_words(c, cap=cap):
            fh.write(line + "\n")
    return 0


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors raise InvalidInput, so that
    main reports them with the error object; --help still exits 0."""

    def error(self, message):
        raise InvalidInput(f"{self.prog}: {message}")


def _positive(flag: str):
    """The argparse type of an integer flag of at least 1."""
    def positive_int(text: str) -> int:
        value = int(text)
        if value < 1:
            raise InvalidInput(f"{flag} must be at least 1, got {value}")
        return value
    return positive_int


def _build_parser() -> argparse.ArgumentParser:
    def parent(*names, **kwargs) -> argparse.ArgumentParser:
        p = _Parser(add_help=False)
        p.add_argument(*names, **kwargs)
        return p

    out = parent("--out", metavar="PATH", help="write output here")
    fmt = parent("--format", choices=("json", "csv"), default="json")
    cap = parent("--max-enum", type=_positive("--max-enum"), default=None,
                 help="enumeration cap (default 2^26, or "
                      f"${ENV_MAX_ENUM}; search: 2^20 per candidate)")
    force = parent("--force", action="store_true",
                   help="lift enumeration and dimension caps")
    jobs = parent("--jobs", type=_positive("--jobs"), default=1,
                  help="worker threads for sharded enumeration")

    ap = _Parser(prog="z4dc",
                 description="Double cyclic codes of length (r,s) over Z4")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[out, fmt, cap, force, jobs],
                       help="full analysis of a code spec file")
    p.add_argument("spec", help="JSON code spec file")
    p.add_argument("--no-timing", action="store_true",
                   help="omit timing fields for reproducible output")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("dual", parents=[out, force],
                       help="dual code of a spec file")
    p.add_argument("spec")
    p.add_argument("--method", choices=("auto", "free", "brute"),
                   default="auto")
    p.set_defaults(fn=cmd_dual)

    p = sub.add_parser("verify-examples", parents=[out, cap, force, jobs],
                       help="re-derive the built-in reference parameters")
    p.add_argument("--only", type=int, default=None, metavar="N",
                   help="run only reference case N (1-5)")
    p.set_defaults(fn=cmd_verify_examples)

    p = sub.add_parser("search", parents=[out, fmt, cap, force, jobs],
                       help="exhaustive generator-space search")
    p.add_argument("r", type=int)
    p.add_argument("s", type=int)
    p.add_argument("--forms", default="i,ii,iii",
                   help="comma-separated subset of i,ii,iii")
    p.add_argument("--max-l-degree", type=int, default=None)
    p.add_argument("--distance-floor", type=int, default=0)
    p.add_argument("--keep-all", action="store_true",
                   help="skip Pareto pruning of the result list")
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("gray-export", parents=[out, cap, force],
                       help="emit the Gray image, one 0/1 word per line")
    p.add_argument("spec")
    p.set_defaults(fn=cmd_gray_export)
    return ap


def main(argv=None) -> int:
    digit_limit = sys.get_int_max_str_digits()
    try:
        args = _build_parser().parse_args(argv)
        sys.set_int_max_str_digits(0)
        return args.fn(args)
    except (EnumerationCapExceeded, DimensionCapExceeded) as exc:
        return _error_exit(exc, 3)
    except InternalCheckFailed as exc:
        return _error_exit(exc, 4)
    except Z4DCError as exc:
        return _error_exit(exc, 2)
    except json.JSONDecodeError as exc:
        err = Z4DCError(f"spec file is not valid JSON: {exc}")
        return _error_exit(err, 2)
    except OSError as exc:
        sys.stderr.write(json.dumps(
            {"error": {"type": "IOError", "message": str(exc)}}) + "\n")
        return 1
    finally:
        sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    sys.exit(main())
