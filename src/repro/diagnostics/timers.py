"""Wall-clock timers with per-kernel breakdown.

The paper reports time-to-solution measured with timers around the PIC
kernels; :class:`Timers` provides the same bookkeeping (plus call counts)
and is cheap enough to stay always-on.  One clock owns the step:
:class:`~repro.core.simulation.StepDriver` opens the lap before a
driver's step body and closes it after the sanitizers, so
``step_times`` holds whole steps (the Fig. 6 curve), and every phase a
driver times fits inside its step's lap.  The per-box
:meth:`Timers.stopwatch` feeds the dynamic load balancer's measured-cost
mode; :class:`~repro.observability.report.RunReport` renders the table.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, List


def now() -> float:
    """The monotonic clock every timing consumer shares.

    Lint rule PIC004 bans direct ``time`` reads outside this module; the
    tracer (:mod:`repro.observability.tracer`) and anything else that
    needs raw timestamps routes through this function so all recorded
    times live on one comparable axis.
    """
    return time.perf_counter()


class Stopwatch:
    """Holder for one measured duration (filled by :meth:`Timers.stopwatch`)."""

    __slots__ = ("elapsed",)

    def __init__(self) -> None:
        self.elapsed: float = 0.0


class Timers:
    """Named accumulating wall-clock timers."""

    def __init__(self) -> None:
        self.totals: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}
        #: per-step wall-clock history appended by :meth:`lap`
        self.step_times: List[float] = []
        self._lap_start: float = time.perf_counter()

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Context manager accumulating into timer ``name``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.totals[name] = self.totals.get(name, 0.0) + elapsed
            self.counts[name] = self.counts.get(name, 0) + 1

    @contextmanager
    def stopwatch(self) -> Iterator["Stopwatch"]:
        """Time a block and hand the caller the measured duration.

        Unlike :meth:`timer`, nothing is accumulated: the elapsed time is
        returned (via the yielded :class:`Stopwatch`) so callers that feed
        measurements onward — e.g. the load balancer's per-box cost
        model — never touch the clock directly.
        """
        sw = Stopwatch()
        start = time.perf_counter()
        try:
            yield sw
        finally:
            sw.elapsed = time.perf_counter() - start

    def lap(self) -> float:
        """Close the current per-step lap and append it to the history."""
        now = time.perf_counter()
        elapsed = now - self._lap_start
        self._lap_start = now
        self.step_times.append(elapsed)
        return elapsed

    def reset_lap(self) -> None:
        self._lap_start = time.perf_counter()

    def total(self) -> float:
        """Sum over all named timers."""
        return sum(self.totals.values())
