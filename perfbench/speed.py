"""Machine-speed probes, and the reference seconds the benchmark reports.

The benchmark runs on shared hosts whose speed swings by tens of percent
within seconds and drifts by more over minutes.  The swings slow pure
Python and numpy code alike, so they move every wall time of a run
together.  To take them out, the worker interleaves short probes with the
instances.  A probe times a fixed kernel of the benchmark's own code, so
a change to the program cannot change it.  The kernel does an O(m^3) pure
Python orientation count and a numpy orientation tensor, like the two
kinds of work the program does.  Every time the benchmark reports is

    wall seconds * REF_PROBE_S / probe seconds,

with the probe taken around that stretch of wall time.  That is the time
the same work would take at the speed the probe reads REF_PROBE_S.
``REF_PROBE_S`` is the probe's usual median on the machine the baseline
was taken on (2-vCPU x86 VM, Python 3.11, numpy 2.4), so there the
reported times stay close to wall times.  Raw wall times are kept in the
run summaries next to them.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter

import numpy as np

REF_PROBE_S = 0.0006     # seconds; scales reported times to wall seconds
PROBE_REPEATS = 5        # kernel runs per probe; the probe is their median
PROBE_EVERY_S = 0.25     # instance time between two probes in the loop

_rng = random.Random("perfbench-speed-probe")
_PTS = [(_rng.randint(0, 1000), _rng.randint(0, 1000)) for _ in range(24)]
_M = 32
_X = np.array([p[0] for p in _PTS[:16]] * 2, dtype=np.int64)
_Y = np.array([p[1] for p in _PTS[:16]] * 2, dtype=np.int64)
# Preallocated, so the kernel allocates nothing: a fresh allocation of
# this size can cost a page fault per page, which depends on the process's
# allocator state rather than on the machine's speed.
_DX = np.empty((_M, _M), dtype=np.int64)
_DY = np.empty((_M, _M), dtype=np.int64)
_T = np.empty((_M, _M, _M), dtype=np.int64)
_U = np.empty((_M, _M, _M), dtype=np.int64)
_B = np.empty((_M, _M, _M), dtype=bool)


def kernel() -> int:
    """Count counterclockwise triples twice: in pure Python over 24 points,
    then as one numpy tensor over 32, in buffers allocated once."""
    count = 0
    pts = _PTS
    for i, (ax, ay) in enumerate(pts):
        for j in range(i + 1, len(pts)):
            bx, by = pts[j]
            for cx, cy in pts[j + 1:]:
                if (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) > 0:
                    count += 1
    np.subtract(_X[None, :], _X[:, None], out=_DX)
    np.subtract(_Y[None, :], _Y[:, None], out=_DY)
    np.multiply(_DX[:, :, None], _DY[:, None, :], out=_T)
    np.multiply(_DY[:, :, None], _DX[:, None, :], out=_U)
    np.subtract(_T, _U, out=_T)
    np.greater(_T, 0, out=_B)
    return count + int(np.count_nonzero(_B))


def probe() -> float:
    """Median wall seconds of ``PROBE_REPEATS`` kernel runs, after one
    untimed run."""
    kernel()
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = perf_counter()
        kernel()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def factor(probe_s: float) -> float:
    """Multiplier from wall seconds to reference seconds."""
    return REF_PROBE_S / probe_s


class Speed:
    """Probes interleaved with a closed loop.  Each instance is tagged with
    the index of the next probe (``epoch``); its time is scaled by the mean
    of the probes just before and just after it.  A probe is taken once at
    least ``PROBE_EVERY_S`` of instance time has passed since the last, so
    long instances get one each and short ones share one."""

    def __init__(self) -> None:
        self.probes = [probe()]
        self._since = 0.0

    def epoch(self) -> int:
        return len(self.probes)

    def tick(self, elapsed: float) -> None:
        self._since += elapsed
        if self._since >= PROBE_EVERY_S:
            self.finish()

    def finish(self) -> None:
        """Close the open stretch with a probe (at the end of the loop)."""
        if self._since > 0:
            self.probes.append(probe())
            self._since = 0.0

    def factor_at(self, epoch: int) -> float:
        return factor((self.probes[epoch - 1] + self.probes[epoch]) / 2)

    def run_factor(self) -> float:
        """One multiplier for the whole loop, from the median probe."""
        return factor(statistics.median(self.probes))
