"""Machine-speed probe: scales short operations to a reference speed.

The benchmark machine is a share of a host whose speed moves in steps:
a fixed pure-Python loop takes either its usual time or about 1.7
times as long, and switches between the two within seconds.  Over a
run of tens of seconds that moves a workload of interpreter-bound
millisecond operations (``dual-population``) by tens of percent from
one run to the next, while the program does the same work.

For such a workload the worker groups the operations into chunks of at
least ``CHUNK_S`` seconds of operation time and runs ``probe()``
between chunks, outside the operations' timing.  Each operation's time
is scaled by ``PROBE_REF_S`` over the mean of the probes before and
after its chunk, so a reported time reads as seconds on a machine on
which the probe takes ``PROBE_REF_S``: the same when the host is busy
as when it is idle.  The probe is the benchmark's own code (small Z4
polynomial products, the kind of list arithmetic the program does), so
a change to the program does not move it.

Set-up time (imports and input generation, as interpreter-bound as
the probe) is scaled the same way on every workload, by probes taken
just before and after it in the same interpreter.

The scaling needs the probe to run close in time to the operations it
scales and to slow down as they do.  Workloads of long, numpy-heavy
operations meet neither, and their operations are reported unscaled.
"""

from __future__ import annotations

import time

PROBE_REF_S = 0.5e-3  # the probe's time on the reference machine, idle
CHUNK_S = 0.05  # operation time between two probes
PROBE_PRODUCTS = 30  # polynomial products in one probe

_A = (1, 3, 2, 0, 1, 1, 3, 2, 1, 0, 2, 3, 1, 1)
_B = (3, 1, 0, 2, 2, 1, 3, 1, 0, 1, 2)


def _product(a, b) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % 4
    return out


def probe() -> float:
    """Seconds for PROBE_PRODUCTS products of two fixed Z4 polynomials.

    One timing, not the best of several: on a busy host the slowdown
    comes in bursts shorter than a probe, and the best of several
    timings would pick the gaps between them."""
    t0 = time.perf_counter()
    for _ in range(PROBE_PRODUCTS):
        _product(_A, _B)
    return time.perf_counter() - t0


def scale(times: list[float], probes: list[tuple[int, float]]) -> list[float]:
    """``times`` scaled to the reference speed.

    ``probes`` are ``(index, seconds)`` pairs in index order: a probe
    taken before operation ``index``, the first at 0 and the last at
    ``len(times)``.  The operations between two probes are scaled by
    PROBE_REF_S over the mean of the two.
    """
    out = []
    for (lo, before), (hi, after) in zip(probes, probes[1:]):
        factor = PROBE_REF_S / ((before + after) / 2)
        out += [t * factor for t in times[lo:hi]]
    if len(out) != len(times):
        raise ValueError("probes do not bracket every operation")
    return out
