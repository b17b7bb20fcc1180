"""One repetition of one workload, in a fresh interpreter.

Usage: python3 bench/worker.py WORKLOAD SEED {setup,run,trace}

A fresh interpreter per repetition keeps the program's module-level
caches (``code._generator_howell``, ``code.enumeration_basis``,
``code._ideal_howell``) cold, as they are for a command-line user.
Set-up time is scaled to the reference speed of ``speed.py`` by the
probes taken just before the imports and just after the inputs are
made.  ``setup`` only imports the program and makes the inputs;
``run`` also runs every operation with tracing off; ``trace`` runs them
with the benchmark's tracer installed.  The last line of standard
output is one JSON object with the measurements.
"""

from __future__ import annotations

import time

import speed

SETUP_PROBE = speed.probe()  # the machine's speed as set-up starts
T_START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
MAX_REASONS = 5

sys.path.insert(0, str(SRC))
import numpy  # noqa: E402
import z4dc  # noqa: E402

import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(argv: list[str]) -> int:
    name, seed, mode = argv[0], int(argv[1]), argv[2]
    if SRC not in Path(z4dc.__file__).resolve().parents:
        raise SystemExit(f"z4dc imported from {z4dc.__file__}, not from {SRC}")
    wl = WORKLOADS[name]
    workdir = ROOT / "bench" / ".work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        inputs = wl.make_inputs(seed, workdir)
        setup_raw_s = time.perf_counter() - T_START
        probes = [(0, SETUP_PROBE), (1, speed.probe())]
        result = {"setup_s": speed.scale([setup_raw_s], probes)[0],
                  "setup_raw_s": setup_raw_s,
                  "setup_probe_ms": (probes[0][1] + probes[1][1]) / 2 * 1e3,
                  "python": platform.python_version(),
                  "numpy": numpy.__version__}
        if mode != "setup":
            result.update(_run(wl, inputs, mode == "trace"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


def _run(wl, inputs, traced: bool) -> dict:
    """Closed loop over the inputs.  Each output is checked right after
    its op returns, outside the op's timing and with tracing paused, so
    no output is held longer than one op.  Rejected inputs count in
    ``wall_s`` but not in the per-op latencies.  A speed probe runs
    between chunks of ops on every workload; on a workload marked
    ``scaled`` the op times are scaled by it to the reference speed of
    ``speed.py``, and ``wall_raw_s`` is the unscaled total."""
    tr = tracing.Tracer()
    if traced:
        tracing.install(tr)
    times, kept = [], []  # every op's seconds; whether it is a latency sample
    probes = [(0, speed.probe())]  # recorded on every workload
    since_probe = 0.0
    failed, rejected, reasons = 0, {}, []
    evaluated = skipped = 0
    try:
        for inp in inputs:
            t0 = time.perf_counter()
            try:
                raw = wl.op(inp)
            except Exception as exc:  # every op is recorded, none stops the loop
                dt = time.perf_counter() - t0
                why, sample = f"raised {exc!r}", False
            else:
                dt = time.perf_counter() - t0
                with tr.paused():
                    try:
                        data = wl.extract(inp, raw)
                        why = wl.check(inp, data)
                    except Exception as exc:  # a malformed output fails its check
                        data, why = {}, f"unreadable output: {exc!r}"
                del raw
                cls = data.get("rejected")
                if cls:
                    rejected[cls] = rejected.get(cls, 0) + 1
                sample = not cls
                evaluated += data.get("candidates_evaluated", 0)
                skipped += data.get("candidates_skipped", 0)
            times.append(dt)
            kept.append(sample)
            if why is not None:
                failed += 1
                if len(reasons) < MAX_REASONS:
                    reasons.append(why)
            since_probe += dt
            if since_probe >= speed.CHUNK_S:
                with tr.paused():
                    probes.append((len(times), speed.probe()))
                since_probe = 0.0
    finally:
        tr.uninstall()
    wall_raw_s = sum(times)
    if probes[-1][0] != len(times):
        probes.append((len(times), speed.probe()))
    if wl.scaled:
        times = speed.scale(times, probes)
    out = {"wall_s": sum(times), "wall_raw_s": wall_raw_s,
           "times_s": times, "kept": kept,
           "attempted": len(inputs), "failed": failed, "rejected": rejected,
           "reasons": reasons,
           "probe_ms": statistics.median(p for _, p in probes) * 1e3}
    if traced:
        out["layers"] = tracing.layer_metrics(tr, evaluated, skipped)
        out["span_s"] = tracing.span_cost() * len(tr.records)
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
