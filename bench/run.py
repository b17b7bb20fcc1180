"""z4dc benchmark: runs the workloads and reports their metrics.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace {0,1}
    python3 bench/run.py --workload all     # every workload, one after another

Runs repetitions of one workload, each in a fresh interpreter
(bench/worker.py), one at a time, until the next repetition would end
after ``--seconds``; a run makes at least one.  Each op's time is its
median over the repetitions; wall time is the sum of those, the per-op
latency percentiles are taken over them, and peak RSS is the largest.
Set-up (import plus input generation) is timed in every repetition and
in extra set-up-only interpreters before and after the repetitions,
each time scaled to the reference speed of ``bench/speed.py`` by probes
taken just before and after it, and reported as the median.

With ``--trace 0`` the last line of standard output is the JSON result
with every end-to-end metric of BENCHMARK.json; with ``--trace 1`` it
carries every per-layer metric instead, from repetitions run with the
benchmark's tracer; ``trace.overhead`` is the tracer's own cost (spans
recorded times the measured cost of one span) over the untraced wall
time.  On a workload marked ``scaled`` (``dual-population``) the wall
time and latencies are scaled to the same reference speed.  The
metadata line gives the unscaled figures (``wall_raw_s``,
``setup_raw_s``) and the median probes (``probe_ms``, taken between the
operations of every workload, and ``setup_probe_ms``).  The lines before
it give each metric by name and unit, ``ops_failed_ratio``, the
percentile each latency figure actually is, and the run's metadata.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SETUP_SAMPLES = 11
RUN_LIMIT_S = 170.0  # a run must end within 180 s
MIN_BEYOND = 10  # samples a reported percentile must have above it

# Which end-to-end metric each layer metric should move, per workload.
MOVES = {
    "code.validate": {"dual-population": ["op_p50_ms", "wall_s"]},
    "code.enum": {"analyze-ref2": ["wall_s"], "search-1-15": ["wall_s"],
                  "analyze-wide": ["wall_s"]},
    "code.enum_setup": {"search-1-15": ["wall_s"]},
    "code.generator_matrix": {"dual-population": ["op_p50_ms"]},
    "code.canonicalize_ideal": {"dual-population": ["op_p99_ms"]},
    "gray.lee_enumerator": {"analyze-ref2": ["wall_s"],
                            "search-1-15": ["wall_s"]},
    "gray.gray_image_params": {"analyze-ref2": ["wall_s"],
                               "analyze-wide": ["wall_s"]},
    "linalg": {"dual-population": ["op_p50_ms"]},
    "linalg.howell.calls.w66": {"analyze-wide": ["op_p50_ms", "wall_s"]},
    "linalg.howell.s.w66": {"analyze-wide": ["op_p50_ms", "wall_s"]},
    "dual": {"dual-population": ["op_p50_ms", "wall_s"]},
    "dual.dual_brute_force": {"dual-population": ["op_p99_ms"]},
    "f2poly": {"search-1-15": ["wall_s"], "dual-population": ["op_p99_ms"]},
    "z4poly": {"search-1-15": ["wall_s"], "dual-population": ["op_p99_ms"]},
    "search": {"search-1-15": ["wall_s"]},
    "cli": {"analyze-ref2": ["wall_s"], "search-1-15": ["wall_s"]},
}


class BenchError(Exception):
    pass


def moves_for(metric: str, workload: str) -> list[str]:
    """End-to-end metrics a change in ``metric`` should move on
    ``workload``: the entry of its longest dotted prefix in MOVES."""
    parts = metric.split(".")
    for i in range(len(parts), 0, -1):
        entry = MOVES.get(".".join(parts[:i]))
        if entry is not None:
            return entry.get(workload, [])
    return []


def spawn(name: str, seed: int, mode: str, deadline: float) -> dict:
    """One worker interpreter; its last output line is the result."""
    env = dict(os.environ)
    env.pop("Z4DC_MAX_ENUM", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    timeout = max(deadline - time.monotonic(), 1.0)
    try:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "bench" / "worker.py"), name,
             str(seed), mode],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{name} {mode} repetition exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{name} {mode} repetition exited {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values: list[float], q: float) -> tuple[float, str]:
    """Nearest-rank percentile at q, or the highest whole percentile
    below it with MIN_BEYOND samples above it; with too few samples for
    any, the median.  Returns the value and what it is."""
    n = len(values)
    ordered = sorted(values)
    q_eff = min(q, math.floor(100 * (n - MIN_BEYOND) / n) / 100) if n else 0
    if q_eff < 0.5:
        return statistics.median(ordered), \
            f"median of {n} ops (no percentile has {MIN_BEYOND} beyond it)"
    rank = max(1, math.ceil(q_eff * n))
    return ordered[rank - 1], f"p{round(q_eff * 100)} of {n} ops"


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def git_rev() -> str | None:
    """HEAD of the repository rooted here, if this is one; git is kept
    from searching the directories above."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT:
        return None
    return lines[1]


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 spec: dict) -> tuple[dict, dict]:
    """Repetitions until the budget is spent; returns (result, meta)."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    # Set-up samples are taken before and after the repetitions, so
    # their median is not left to one stretch of machine time.
    setups = [spawn(name, seed, "setup", deadline)
              for _ in range(SETUP_SAMPLES // 2)]
    plain, traced = [], []
    while True:
        t0 = time.monotonic()
        plain.append(spawn(name, seed, "run", deadline))
        if trace:
            traced.append(spawn(name, seed, "trace", deadline))
        now = time.monotonic()
        if now - start + (now - t0) > seconds:
            break
    setups += plain + traced
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(name, seed, "setup", deadline))

    reps = plain + traced
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    rejected: dict[str, int] = {}
    for r in reps:
        for cls, k in r["rejected"].items():
            rejected[cls] = rejected.get(cls, 0) + k
    # Every repetition runs the same ops in the same order, so each op's
    # time is its median over the repetitions, wall time is their sum,
    # and the latency percentiles are over the ops: their sample does
    # not grow with the repetitions, and a slow stretch of machine time
    # in one repetition moves no op's median.
    op_s = [statistics.median(ts) for ts in zip(*(r["times_s"] for r in plain))]
    op_ms = [t * 1e3 for t, k in zip(op_s, plain[0]["kept"]) if k]
    p50, p50_is = percentile(op_ms, 0.50)
    p99, p99_is = percentile(op_ms, 0.99)
    wall = sum(op_s)
    wall_raw = statistics.median(r["wall_raw_s"] for r in plain)
    meta = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "git_rev": git_rev(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": plain[0]["numpy"],
        "src_lines": src_lines(), "repetitions": len(plain),
        "wall_raw_s": wall_raw,
        "probe_ms": statistics.median(r["probe_ms"] for r in plain),
        "setup_raw_s": statistics.median(r["setup_raw_s"] for r in setups),
        "setup_probe_ms": statistics.median(r["setup_probe_ms"] for r in setups),
        "traced_repetitions": len(traced), "setup_samples": len(setups),
        "percentiles": {"op_p50_ms": p50_is, "op_p99_ms": p99_is},
        "rejected": rejected, "ops_failed_ratio": failed / attempted,
        "failure_reasons": [w for r in reps for w in r["reasons"]][:5],
    }
    if trace:
        layers = {}
        for metric in traced[0]["layers"]:
            layers[metric] = statistics.median(r["layers"][metric] for r in traced)
        layers["trace.overhead"] = statistics.median(
            r["span_s"] for r in traced) / wall_raw
        values = layers
        wanted = spec["per_layer"]
        meta["moves"] = {m["name"]: moves for m in wanted
                         if (moves := moves_for(m["name"], name))}
    else:
        values = {"setup_s": statistics.median(r["setup_s"] for r in setups),
                  "wall_s": wall,
                  "op_p50_ms": p50, "op_p99_ms": p99,
                  "peak_rss_mb": max(r["peak_rss_mb"] for r in plain)}
        wanted = spec["end_to_end"]
    names = {m["name"] for m in wanted}
    if set(values) != names:
        raise BenchError(f"metrics {sorted(set(values) ^ names)} do not match "
                         "BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, meta


def report(result: dict, meta: dict):
    print(f"# {meta['workload']}: {meta['repetitions']} repetitions"
          f" (+{meta['traced_repetitions']} traced), seed {meta['seed']}")
    for name, m in result["metrics"].items():
        note = meta["percentiles"].get(name)
        print(f"{name} = {m['value']:.6g} {m['unit']}"
              + (f"  ({note})" if note else ""))
    print(f"ops_failed_ratio = {meta['ops_failed_ratio']:.6g} "
          f"({result['failed']}/{result['attempted']})")
    print(json.dumps({"meta": meta}))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=606)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "z4dc" / "__init__.py").is_file():
        print(f"no z4dc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    chosen = names if args.workload == "all" else [args.workload]
    if not set(chosen) <= set(names):
        ap.error(f"unknown workload {args.workload!r}; choose from {names} or all")
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    correct = True
    try:
        for name in chosen:
            result, meta = run_workload(name, args.seed, seconds,
                                        bool(args.trace), spec)
            report(result, meta)
            print(json.dumps(result), flush=True)
            correct &= result["correct"]
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 1
    return 0 if correct or args.workload != "all" else 1


if __name__ == "__main__":
    sys.exit(main())
