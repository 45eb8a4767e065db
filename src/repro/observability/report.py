"""Run/step reports: the text dashboard over timers, metrics and comm.

Renders a run's :class:`Timers` as the quantities the paper actually
tabulates: the per-phase breakdown, per-step percentiles (the step-time
distribution behind Fig. 6), per-rank load and imbalance ratios (the
Sec. V.C load-balancing metric), and the rank-pair communication matrix
(SimComm's byte accounting rendered as the heatmap the performance model
consumes).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.diagnostics.timers import Timers

#: the percentiles every report quotes (median, tail, far tail)
REPORT_PERCENTILES = (50.0, 90.0, 99.0)


def percentiles(
    samples: Sequence[float], qs: Sequence[float] = REPORT_PERCENTILES
) -> Dict[str, float]:
    """``{"p50": ..., "p90": ..., ...}`` over ``samples`` (empty -> zeros)."""
    if len(samples) == 0:
        return {f"p{q:g}": 0.0 for q in qs}
    arr = np.asarray(samples, dtype=np.float64)
    values = np.percentile(arr, list(qs))
    return {f"p{q:g}": float(v) for q, v in zip(qs, values)}


def measured_imbalance(sim) -> Optional[float]:
    """Max/mean measured load over a ``DistributedSimulation``'s alive
    ranks (a dead rank's zero load is not imbalance); ``None`` until a
    box has been timed.  What the ``lb.imbalance`` metric and
    :meth:`RunReport.from_distributed` both read."""
    costs = sim.cost_model.measured(range(len(sim.boxes)), default=0.0)
    if not np.any(costs > 0):
        return None
    return float(sim.dm.imbalance(costs, exclude_ranks=sim.dead_ranks))


def _human_bytes(n: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(n) < 1024.0 or unit == "GiB":
            return f"{n:.1f}{unit}" if unit != "B" else f"{int(n)}B"
        n /= 1024.0
    return f"{n:.1f}GiB"  # pragma: no cover - unreachable


class StepReport:
    """One step's wall time plus its rank in the run's distribution."""

    __slots__ = ("index", "wall", "share_of_p50")

    def __init__(self, index: int, wall: float, p50: float) -> None:
        self.index = index
        self.wall = wall
        #: this step relative to the median (>1 = slower than typical)
        self.share_of_p50 = wall / p50 if p50 > 0 else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StepReport(step={self.index}, wall={self.wall:.3e}s)"


class RunReport:
    """Aggregated view of a finished (or in-flight) run.

    Build with :meth:`from_timers` for a single simulation or
    :meth:`from_distributed` to also fold in the communicator matrix and
    the load-balance gauges of a
    :class:`~repro.parallel.distributed.DistributedSimulation`.
    """

    def __init__(
        self,
        timers: Timers,
        comm_matrix: Optional[np.ndarray] = None,
        rank_loads: Optional[np.ndarray] = None,
        imbalance: Optional[float] = None,
        lb_events: Optional[List[int]] = None,
    ) -> None:
        self.timers = timers
        self.comm_matrix = comm_matrix
        self.rank_loads = rank_loads
        self.imbalance = imbalance
        self.lb_events = lb_events

    # -- constructors -------------------------------------------------------
    @classmethod
    def from_timers(cls, timers: Timers) -> "RunReport":
        return cls(timers)

    @classmethod
    def from_distributed(cls, sim) -> "RunReport":
        """Report over a ``DistributedSimulation`` and its comm/LB state."""
        comm = sim.comm
        n = comm.n_ranks
        matrix = np.zeros((n, n), dtype=np.float64)
        for (src, dst), nbytes in comm.pair_bytes.items():
            matrix[src, dst] = nbytes
        costs = sim.cost_model.measured(range(len(sim.boxes)), default=0.0)
        loads = np.zeros(n, dtype=np.float64)
        for i, cost in enumerate(costs):
            loads[sim.dm.rank_of(i)] += cost
        imbalance = measured_imbalance(sim)
        return cls(
            sim.timers,
            comm_matrix=matrix,
            rank_loads=loads,
            imbalance=1.0 if imbalance is None else imbalance,
            lb_events=list(sim.lb_events),
        )

    # -- derived quantities --------------------------------------------------
    def steps(self) -> List[StepReport]:
        times = self.timers.step_times
        p50 = percentiles(times)["p50"]
        return [StepReport(i, t, p50) for i, t in enumerate(times)]

    def step_percentiles(self) -> Dict[str, float]:
        return percentiles(self.timers.step_times)

    def slowest_steps(self, n: int = 3) -> List[StepReport]:
        return sorted(self.steps(), key=lambda s: -s.wall)[:n]

    # -- rendering -----------------------------------------------------------
    def render(self, top: int = 12) -> str:
        """The text dashboard: steps, percentiles, timers, comm, balance."""
        t = self.timers
        lines: List[str] = ["== run report =="]
        n_steps = len(t.step_times)
        total = float(np.sum(t.step_times)) if n_steps else t.total()
        lines.append(f"steps: {n_steps}   wall: {total:.4f}s")
        if n_steps:
            pct = self.step_percentiles()
            avg = total / n_steps
            pct_txt = "  ".join(f"{k}={v * 1e3:.2f}ms" for k, v in pct.items())
            lines.append(f"step time: mean={avg * 1e3:.2f}ms  {pct_txt}")
            slow = self.slowest_steps(3)
            slow_txt = ", ".join(
                f"#{s.index} ({s.wall * 1e3:.2f}ms, {s.share_of_p50:.1f}x p50)"
                for s in slow
            )
            lines.append(f"slowest steps: {slow_txt}")
        lines.append("")
        lines.append(self._render_timer_table(top))
        if self.rank_loads is not None and self.rank_loads.size:
            lines.append("")
            lines.append(self._render_balance())
        if self.comm_matrix is not None and self.comm_matrix.size:
            lines.append("")
            lines.append(render_comm_matrix(self.comm_matrix))
        return "\n".join(lines)

    def _render_timer_table(self, top: int) -> str:
        t = self.timers
        lines = ["phase breakdown (top by total time):"]
        grand = t.total()
        items = sorted(t.totals.items(), key=lambda kv: -kv[1])[:top]
        width = max([len(n) for n, _ in items], default=10)
        for name, tot in items:
            share = 100.0 * tot / grand if grand > 0 else 0.0
            calls = t.counts[name]
            per_call = tot / calls if calls else 0.0
            lines.append(
                f"  {name:<{width}s} {tot:9.4f}s {share:5.1f}%  "
                f"{calls:6d} calls  {per_call * 1e6:9.1f}us/call"
            )
        return "\n".join(lines)

    def _render_balance(self) -> str:
        loads = self.rank_loads
        lines = ["rank balance (measured per-box cost):"]
        mean = loads.mean() if loads.size else 0.0
        peak = loads.max() if loads.size else 0.0
        bar_width = 32
        for r, load in enumerate(loads):
            frac = load / peak if peak > 0 else 0.0
            bar = "#" * max(int(round(frac * bar_width)), 1 if load > 0 else 0)
            lines.append(f"  rank {r:3d} {load:9.4f}s  |{bar:<{bar_width}s}|")
        if self.imbalance is not None:
            lines.append(
                f"  imbalance (max/mean): {self.imbalance:.3f}"
                f"   (mean load {mean:.4f}s)"
            )
        if self.lb_events:
            lines.append(
                f"  dynamic LB events: {len(self.lb_events)} "
                f"(boxes moved: {self.lb_events})"
            )
        return "\n".join(lines)


def render_comm_matrix(matrix, title: str = "comm bytes (src -> dst):") -> str:
    """Text heatmap of the rank-pair byte matrix."""
    matrix = np.asarray(matrix, dtype=np.float64)
    n = matrix.shape[0]
    lines = [title]
    header = "  src\\dst " + " ".join(f"{d:>10d}" for d in range(n))
    lines.append(header)
    for src in range(n):
        cells = " ".join(f"{_human_bytes(matrix[src, dst]):>10s}" for dst in range(n))
        lines.append(f"  {src:7d}  {cells}")
    total = matrix.sum()
    peak = matrix.max() if matrix.size else 0.0
    lines.append(
        f"  total {_human_bytes(float(total))}, "
        f"hottest pair {_human_bytes(float(peak))}"
    )
    return "\n".join(lines)
