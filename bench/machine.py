"""How fast the shared machine runs while the benchmark measures.

Other tenants of the machine the benchmark was built on slow its CPUs by
up to 2x, for fractions of a second up to minutes, and the best speed
within one 30 s run differed by up to 1.7x between runs. To tell that
apart from a slowdown the program causes itself, a fixed calibration loop
that never calls pensionsim (the probe) is timed between batches and,
driven by an interval timer, every TICK seconds in the middle of the
measured work; the time it takes inside an operation is left out of that
operation (`clock`). The load of a stretch of work is the mean probe time
over it.

Operation times track the load closely, so the harness keeps the
stretches whose load is within UNDISTURBED of the run's best (or among the
least loaded MIN_KEPT_SHARE of them), and scales their times by
REFERENCE_PROBE_S / load: the time the operation takes on a machine where
one probe takes REFERENCE_PROBE_S. Neither step looks at
the program's own timings, so any slowdown the program causes, in some
operations or in all, shows in full.
"""

from __future__ import annotations

import bisect
import signal
import time
from dataclasses import dataclass

import numpy

TICK = 0.05  # seconds between probes during measured work
UNDISTURBED = 1.5  # up to here operation times grew about in proportion to the load
MIN_KEPT_SHARE = 0.25
REFERENCE_PROBE_S = 1e-3


@dataclass(frozen=True)
class _Row:
    year: int
    corpus: float
    support: float


def kernel() -> float:
    """Fixed work in the program's mix: Philox setup, normal draws, numpy
    recursions and small per-year Python objects. Must never change."""
    total = 0.0
    for key in range(16):
        draws = numpy.random.Generator(numpy.random.Philox(key=key)).standard_normal(50)
        growth = numpy.cumprod(1.0 + 0.01 * draws)
        corpus = 1.0
        rows = []
        for year, g in enumerate(growth.tolist()):
            corpus = corpus * 1.05 + g
            rows.append(_Row(year, corpus, g * 0.5))
        total += sum(row.corpus for row in rows)
    return total


class Machine:
    """A timeline of probe times; `with machine:` probes every TICK seconds."""

    def __init__(self) -> None:
        self.ends: list[float] = []  # perf_counter at the end of each probe
        self.took: list[float] = []  # seconds each probe took
        self.spent = 0.0
        self.sampling = False
        self.sample()

    def _tick(self, signum, frame) -> None:
        if not self.sampling:  # the timer fired inside a probe between batches
            self.sample()

    def sample(self) -> None:
        self.sampling = True
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.ends.append(t1)
        self.took.append(t1 - t0)
        self.spent += t1 - t0
        self.sampling = False

    def clock(self) -> float:
        """perf_counter minus the time the probes took so far."""
        return time.perf_counter() - self.spent

    def __enter__(self) -> Machine:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK, TICK)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def load(self, start: float, end: float) -> float:
        """Mean probe time over [start, end], from the last probe before it to the first after."""
        lo = max(bisect.bisect_left(self.ends, start) - 1, 0)
        window = self.took[lo:bisect.bisect_right(self.ends, end) + 1]
        return sum(window) / len(window)


def undisturbed(loads: list[float]) -> list[int]:
    """Indices of the stretches whose load is within UNDISTURBED of the best
    one, and at least the least loaded MIN_KEPT_SHARE of all stretches, so
    that one short quiet moment cannot carry a whole run."""
    order = sorted(range(len(loads)), key=loads.__getitem__)
    limit = UNDISTURBED * loads[order[0]]
    need = MIN_KEPT_SHARE * len(loads)
    return sorted(i for rank, i in enumerate(order) if loads[i] <= limit or rank < need)
