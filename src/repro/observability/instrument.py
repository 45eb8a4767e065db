"""Wiring: attach a tracer and a metrics registry to a live simulation.

The step code is permanently instrumented: span calls against a
:data:`~repro.observability.tracer.NULL_TRACER` by default, and the step
clock and particle count in :class:`~repro.core.simulation.StepDriver`.
This module swaps the real tracer in and registers the metrics *views*
over the books every run keeps — and, on a distributed run, over its
communicator, halo exchanges, load balancer and resilience layer.  A
metric is read from its book at every snapshot, never copied per step.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

from repro.observability.metrics import MetricsRegistry, ViewRow, summary
from repro.observability.report import measured_imbalance
from repro.observability.tracer import Tracer


def _step_books(sim) -> Iterator[ViewRow]:
    """Any driver's step books: the step clock's laps and the particles
    pushed over every step (replayed steps included)."""
    yield "histogram", "step.seconds", {}, summary(sim.timers.step_times)
    yield "counter", "particles.pushed", {}, sim.particles_pushed


def _accounting(sim) -> Iterator[ViewRow]:
    """A ``DistributedSimulation``'s own books, as metrics.

    Communication per rank pair and in total.  Then the halo exchange's
    guard samples applied (local copies included) and its cross-rank
    payload bytes and messages, as measured by the pairwise exchange.
    Then rebalances and what they moved, and this endpoint's live
    particles (per-rank values sum to the global count).  Last, the
    checkpoints taken and the recovery policy's totals.
    """
    comm = sim.comm
    for (src, dst), nbytes in comm.pair_bytes.items():
        yield "counter", "comm.pair_bytes", {"src": src, "dst": dst}, nbytes
    for name, value in (
        ("comm.messages", comm.messages_sent.sum()),
        ("comm.collectives", comm.collective_calls),
        ("halo.guard_cells", sim.halo_samples),
        ("halo.bytes", sim.halo_payload_bytes),
        ("halo.messages", sim.halo_messages),
        ("lb.rebalances", len(sim.lb_events)),
        ("lb.boxes_moved", sum(sim.lb_events)),
        ("lb.moved_bytes", sim.lb_moved_bytes),
    ):
        yield "counter", name, {}, value
    yield "gauge", "particles.live", {}, sim.local_particles()
    imbalance = measured_imbalance(sim)
    if imbalance is not None:
        yield "gauge", "lb.imbalance", {}, imbalance
    res = sim.resilience
    if res is not None:
        yield "counter", "checkpoint.saves", {}, res.checkpoint_saves
        yield "counter", "checkpoint.bytes", {}, res.checkpoint_bytes
        if res.policy is not None:
            stats = res.policy.stats
            yield "counter", "resilience.retransmissions", {}, stats.retries
            yield "counter", "resilience.redeliveries", {}, stats.redeliveries
            yield "counter", "resilience.dedups", {}, stats.dedups
            yield "counter", "resilience.restores", {}, stats.restores
            yield "counter", "resilience.restored_bytes", {}, stats.restored_bytes
    if sim.dead_ranks:
        yield "gauge", "resilience.dead_ranks", {}, len(sim.dead_ranks)


def attach_observability(
    sim,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
    snapshot_interval: int = 0,
) -> Tuple[Tracer, MetricsRegistry]:
    """Enable tracing and metrics on a simulation; returns both recorders.

    Works on any of the simulation classes.  With a positive
    ``snapshot_interval``, metrics snapshots are interleaved into the
    trace stream every that many steps (the imbalance *timeline* the CLI
    renders).  Every driver gets the view over its step books
    (``step.seconds``, ``particles.pushed``); the distributed simulation
    also the one over its accounting (comm heatmap, halo and
    load-balance totals, imbalance gauge, checkpoint and resilience
    counters).
    """
    if tracer is None:
        tracer = Tracer(enabled=True)
    if metrics is None:
        metrics = MetricsRegistry()
    sim.tracer = tracer
    sim.metrics = metrics
    sim._snapshot_interval = int(snapshot_interval)
    metrics.view(lambda: _step_books(sim))
    if hasattr(sim, "comm"):  # a DistributedSimulation
        metrics.view(lambda: _accounting(sim))
    return tracer, metrics
