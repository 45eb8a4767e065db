"""Wiring: attach a tracer and a metrics registry to a live simulation.

The simulations carry permanently-instrumented step code (span calls
against a :data:`~repro.observability.tracer.NULL_TRACER` by default);
this module swaps the real recorders in and adds the per-step metrics
observer that mirrors the communicator, load-balancer and resilience
internals into the :class:`~repro.observability.metrics.MetricsRegistry`.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.observability.metrics import MetricsRegistry
from repro.observability.tracer import Tracer


#: mirrored counters present from the first observation, moved or not
#: (the others appear with their first traffic)
_ALWAYS_PRESENT = frozenset({
    "comm.messages", "comm.collectives",
    "halo.guard_cells", "halo.bytes", "halo.messages",
})


class DistributedObserver:
    """Per-step mirror of a ``DistributedSimulation``'s internals.

    Called at the end of every step (after the step counter advanced).
    Counters advance by the *delta* since the previous observation, so
    their totals always equal the cumulative :class:`SimComm
    <repro.parallel.comm.SimComm>` accounting — the acceptance contract
    of the metrics snapshot — and :meth:`rebase` keeps that true across
    a checkpoint restore, which rolls the accounting back.
    """

    def __init__(self, sim, metrics: MetricsRegistry) -> None:
        self.sim = sim
        self.metrics = metrics
        self._prev = self._mirrored()
        self._prev_recovery = self._recovery_totals()

    def _recovery_totals(self) -> Tuple[int, int, int]:
        res = self.sim.resilience
        if res is None or res.policy is None:
            return (0, 0, 0)
        stats = res.policy.stats
        return (stats.retries, stats.redeliveries, stats.dedups)

    def _mirrored(self) -> Dict[Tuple[str, Optional[Tuple[int, int]]], int]:
        """Live totals of the accounting a checkpoint restores, keyed by
        the counter that mirrors each: ``(name, rank pair or None)``.

        Communication per pair and in total; the halo exchange's guard
        samples applied (local copies included), aggregated cross-rank
        payload bytes and message count — measured by the pairwise
        exchange, not estimated; rebalances and what they moved.
        """
        sim, comm = self.sim, self.sim.comm
        live = {
            ("comm.pair_bytes", pair): nbytes
            for pair, nbytes in comm.pair_bytes.items()
        }
        live.update({
            ("comm.messages", None): int(comm.messages_sent.sum()),
            ("comm.collectives", None): int(comm.collective_calls),
            ("halo.guard_cells", None): int(sim.halo_samples),
            ("halo.bytes", None): int(sim.halo_payload_bytes),
            ("halo.messages", None): int(sim.halo_messages),
            ("lb.rebalances", None): len(sim.lb_events),
            ("lb.boxes_moved", None): sum(sim.lb_events),
            ("lb.moved_bytes", None): int(sim.lb_moved_bytes),
        })
        return live

    def _follow(self, restored: bool = False) -> None:
        """Move every mirror by the change of its live total since the
        last look.  Only a restore lowers a total, and then the mirror
        drops with it (a counter reset, as a scrape sees after a process
        restart); anywhere else a drop is the error it always was."""
        live = self._mirrored()
        for key in live.keys() | self._prev.keys():
            delta = live.get(key, 0) - self._prev.get(key, 0)
            name, pair = key
            if delta == 0 and name not in _ALWAYS_PRESENT:
                continue
            labels = {} if pair is None else {"src": pair[0], "dst": pair[1]}
            counter = self.metrics.counter(name, **labels)
            if restored:
                counter.value += delta
            else:
                counter.add(delta)
        self._prev = live

    def rebase(self) -> None:
        """Follow a checkpoint restore (called by
        :func:`~repro.diagnostics.io.unpack_distributed_state`): the
        mirrors drop to the restored accounting and the next
        :meth:`observe` diffs against it."""
        self._follow(restored=True)

    def observe(self) -> None:
        sim = self.sim
        m = self.metrics

        # particles: pushed this step (counter) and currently live
        # (gauge); owned boxes only, so SPMD per-rank snapshots sum to
        # the global count
        live = sim.local_particles()
        m.counter("particles.pushed").add(live)
        m.gauge("particles.live").set(live)

        self._follow()
        m.gauge("comm.spilled_bytes").set(sim.comm.spilled_bytes)

        # load balance: the imbalance gauge matches DistributionMapping
        # over the alive ranks (a dead rank's zero load is not imbalance)
        costs = sim.cost_model.measured(range(len(sim.boxes)), default=0.0)
        if any(c > 0 for c in costs):
            imbalance = sim.dm.imbalance(costs, exclude_ranks=sim.dead_ranks)
            m.gauge("lb.imbalance").set(imbalance)
            m.histogram("lb.box_cost").observe(max(costs))

        # resilience: mirror the recovery-policy stats as counters
        retries, redeliveries, dedups = self._recovery_totals()
        p_retries, p_redeliveries, p_dedups = self._prev_recovery
        if retries > p_retries:
            m.counter("resilience.retransmissions").add(retries - p_retries)
        if redeliveries > p_redeliveries:
            m.counter("resilience.redeliveries").add(redeliveries - p_redeliveries)
        if dedups > p_dedups:
            m.counter("resilience.dedups").add(dedups - p_dedups)
        self._prev_recovery = (retries, redeliveries, dedups)
        if sim.dead_ranks:
            m.gauge("resilience.dead_ranks").set(len(sim.dead_ranks))


def attach_observability(
    sim,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
    snapshot_interval: int = 0,
) -> Tuple[Tracer, MetricsRegistry]:
    """Enable tracing and metrics on a simulation; returns both recorders.

    Works on any of the simulation classes; the distributed simulation
    additionally gets the :class:`DistributedObserver` (comm heatmap,
    imbalance gauge, resilience counters) and — with a positive
    ``snapshot_interval`` — periodic metrics snapshots interleaved into
    the trace stream (the imbalance *timeline* the CLI renders).
    """
    if tracer is None:
        tracer = Tracer(enabled=True)
    if metrics is None:
        metrics = MetricsRegistry()
    sim.tracer = tracer
    sim.metrics = metrics
    if hasattr(sim, "comm"):  # a DistributedSimulation
        sim._observer = DistributedObserver(sim, metrics)
        sim._snapshot_interval = int(snapshot_interval)
        if sim.resilience is not None:
            sim.resilience.metrics = metrics
    return tracer, metrics
