"""Host-speed calibration kernels.

Wall throughput of the *same* simulator code drifts by 10-40 % between
back-to-back processes on a small shared box, while the ratio
"simulator work / calibration loop" holds to a few percent — provided
the loop is bound by the same machine resource as the work.  Two
kernels cover the workloads: ``interpreter`` is shaped like the
simulator's hot path (a generator feeding a ``heapq``), ``copy`` like
its bulk path (1 MiB ``bytearray`` copies); on the reference box their
speeds drift independently, so each workload names the one it is
bound by (the README has the numbers).  Nothing here imports
``repro``: a simulator optimisation can never move the yardstick it
is measured with.
"""

from __future__ import annotations

import heapq
import time

#: the calibration rates (kernel iterations per host second) every
#: host metric is scaled to, per kernel.  Measured on the 2-core
#: reference box at the commit that introduced the benchmark; they are
#: units, not targets — changing one rescales every ``host_*`` number
#: measured with it, so it moves only with a re-measured baseline.
CAL_REF = {"interpreter": 2.0e6, "copy": 8.5e3}

#: host seconds one calibration slice runs for
SLICE_S = 0.07

_CHUNK = 10_000
_HEAP_DEPTH = 64
_MIB = 1 << 20
_COPY_SLOTS = 4


def _ticks(n: int):
    for i in range(n):
        yield (i * 2654435761) & 0xFFFF


def interpreter_kernel(n: int) -> int:
    """*n* iterations of push/pop over a small heap fed by a generator."""
    heap: list = []
    push, pop = heapq.heappush, heapq.heappop
    acc = 0
    for tick in _ticks(n):
        push(heap, (tick, n))
        if len(heap) > _HEAP_DEPTH:
            acc += pop(heap)[0]
    return acc


def copy_kernel(source: bytearray, sink: bytearray) -> int:
    """One pass of 1 MiB copies in and out of *sink*; returns copies."""
    for slot in range(_COPY_SLOTS):
        sink[slot * _MIB:(slot + 1) * _MIB] = source
        bytes(sink[slot * _MIB:(slot + 1) * _MIB])
    return 2 * _COPY_SLOTS


def calibrate(kind: str = "interpreter", seconds: float = SLICE_S) -> float:
    """Kernel iterations per host second over at least *seconds*."""
    if kind == "interpreter":
        def step():
            interpreter_kernel(_CHUNK)
            return _CHUNK
    elif kind == "copy":
        source = bytearray(_MIB)
        sink = bytearray(_COPY_SLOTS * _MIB)

        def step():
            return copy_kernel(source, sink)
    else:
        raise ValueError(f"unknown calibration kernel {kind!r}")
    done = 0
    start = time.perf_counter()
    while True:
        done += step()
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return done / elapsed
