"""Recovery policies: retry/backoff and checkpoint restore_and_redistribute.

Two recovery mechanisms, mirroring how exascale PIC campaigns actually
survive (paper context: multi-hour Frontier/Fugaku occupancy where rank
loss is routine):

* **retry with exponential backoff** for transient message faults —
  dropped, corrupted, duplicated or delayed messages are repaired inside
  the resilient transport (:meth:`SimComm.recv <repro.parallel.comm.
  SimComm.recv>`), with the :class:`RecoveryPolicy` bounding the retries
  and accounting the modelled backoff time;
* **restore_and_redistribute** for hard rank failure — the run rolls
  back to the last distributed checkpoint, the dead rank's boxes are
  evacuated to the survivors, and the lost steps are replayed (the
  deterministic step makes the replay bit-identical to a fault-free
  run).

Every recovery action is recorded in the communicator event log, so the
:mod:`repro.analysis.commcheck` replay can audit that no injected fault
went unrecovered (rules RES001/RES002).  The policy's
:class:`RecoveryStats` and the manager's checkpoint counts are the books
the ``resilience.*`` and ``checkpoint.*`` metrics read
(:mod:`repro.observability.instrument`); nothing here touches a registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.diagnostics.io import (
    load_distributed_checkpoint,
    pack_distributed_state,
    save_distributed_checkpoint,
    unpack_distributed_state,
)
from repro.exceptions import ResilienceError
from repro.resilience.faults import FaultInjector, FaultSchedule, FaultSpec


@dataclass
class RecoveryStats:
    """What the recovery layer did during a run (read by tests, reports
    and the ``resilience.*`` metrics)."""

    retries: int = 0
    redeliveries: int = 0
    dedups: int = 0
    restores: int = 0
    backoff_attempts: int = 0
    #: modelled seconds spent waiting in the exponential-backoff loop
    backoff_time: float = 0.0
    #: bytes re-read from checkpoints by restore_and_redistribute
    restored_bytes: int = 0

    def total_recoveries(self) -> int:
        return self.retries + self.redeliveries + self.dedups + self.restores


@dataclass
class RecoveryPolicy:
    """Bounds and bookkeeping of the transient-fault retry loop.

    ``max_retries`` caps the receive attempts spent waiting for a
    delayed message; ``backoff_base`` is the modelled first-attempt wait,
    doubled on every further attempt (classic exponential backoff).
    """

    max_retries: int = 8
    backoff_base: float = 1e-6
    stats: RecoveryStats = field(default_factory=RecoveryStats)

    # -- notes called by the resilient transport ---------------------------
    def note_retry(self, attempt: int) -> None:
        self.stats.retries += 1

    def note_redeliver(self) -> None:
        self.stats.redeliveries += 1

    def note_dedup(self) -> None:
        self.stats.dedups += 1

    def note_backoff(self, attempt: int) -> None:
        self.stats.backoff_attempts += 1
        self.stats.backoff_time += self.backoff_base * 2.0 ** (attempt - 1)

    def note_restore(self, nbytes: int) -> None:
        self.stats.restores += 1
        self.stats.restored_bytes += int(nbytes)


class ResilienceManager:
    """Wires fault injection, checkpointing and recovery into a
    :class:`~repro.parallel.distributed.DistributedSimulation`.

    The simulation calls :meth:`begin_step` before and :meth:`finish_step`
    after every step.  ``begin_step`` fires any scheduled rank failure
    (and recovers it), then takes a checkpoint whenever the interval is
    due; message-level faults fire inside the communicator against live
    traffic.  Checkpoints go to ``checkpoint_dir`` when given (the
    distributed per-box layout of :func:`~repro.diagnostics.io.
    save_distributed_checkpoint`), otherwise to an in-memory copy of the
    packed state — the fast path the fuzz tests use.
    """

    def __init__(
        self,
        schedule: Optional[FaultSchedule] = None,
        policy: Optional[RecoveryPolicy] = None,
        checkpoint_interval: int = 0,
        checkpoint_dir: Optional[str] = None,
    ) -> None:
        self.injector = FaultInjector(schedule) if schedule is not None else None
        self.policy = policy
        self.checkpoint_interval = int(checkpoint_interval)
        self.checkpoint_dir = checkpoint_dir
        #: checkpoints taken and the bytes of state they packed (the
        #: ``checkpoint.*`` metrics read them)
        self.checkpoint_saves = 0
        self.checkpoint_bytes = 0
        self._memory_checkpoint: Optional[Dict[str, np.ndarray]] = None
        self._checkpoint_step: Optional[int] = None
        # ranks that died this run: the checkpoint may predate a failure,
        # so the restored dead_ranks set must be re-unioned with these
        self._dead: set = set()

    # -- wiring ------------------------------------------------------------
    def attach(self, sim) -> None:
        """Hook the injector/policy into the simulation's communicator."""
        if self.injector is not None:
            sim.comm.attach_resilience(self.injector, self.policy)

    # -- per-step protocol -------------------------------------------------
    def begin_step(self, sim) -> None:
        if self.injector is not None:
            spec = self.injector.rank_failure_due(sim.step_count)
            if spec is not None:
                self._fail_and_recover(sim, spec)
            self.injector.begin_step(sim.step_count)
        if self._checkpoint_due(sim.step_count):
            self.save_checkpoint(sim)

    def finish_step(self, sim) -> None:
        sim.comm.finish_step()

    # -- checkpointing -----------------------------------------------------
    def _checkpoint_due(self, step: int) -> bool:
        if self._checkpoint_step is None:
            # always hold at least one restore point (taken before the
            # first step, i.e. right after setup)
            return True
        return (
            self.checkpoint_interval > 0
            and step % self.checkpoint_interval == 0
            and step != self._checkpoint_step
        )

    def save_checkpoint(self, sim) -> None:
        if self.checkpoint_dir is not None:
            nbytes = save_distributed_checkpoint(sim, self.checkpoint_dir)
        else:
            state = pack_distributed_state(sim)
            self._memory_checkpoint = {
                k: np.array(v, copy=True) for k, v in state.items()
            }
            nbytes = sum(arr.nbytes for arr in state.values())
        self.checkpoint_saves += 1
        self.checkpoint_bytes += nbytes
        sim.tracer.instant("checkpoint", step=sim.step_count)
        self._checkpoint_step = sim.step_count

    def _restore_checkpoint(self, sim) -> int:
        """Restore the last checkpoint into ``sim``; returns bytes read."""
        if self.checkpoint_dir is not None:
            return load_distributed_checkpoint(sim, self.checkpoint_dir)
        unpack_distributed_state(sim, self._memory_checkpoint)
        return sum(arr.nbytes for arr in self._memory_checkpoint.values())

    # -- restore_and_redistribute ------------------------------------------
    def _fail_and_recover(self, sim, spec: FaultSpec) -> None:
        """Kill ``spec.rank`` and recover via checkpoint restore.

        The rank's boxes lose their field and particle data (filled with
        NaN / emptied — the data is gone, not stale).  Recovery restores
        the whole decomposed state from the last checkpoint, marks the
        rank dead, evacuates its boxes to the survivors and lets the
        driver replay the rolled-back steps.
        """
        rank = int(spec.rank)
        spec.fired = True
        sim.comm.record_rank_failure(rank)
        for i in range(len(sim.boxes)):
            if sim.dm.rank_of(i) != rank:
                continue
            for arr in sim.box_grids[i].fields.values():
                arr.fill(np.nan)
            for dsp in sim.species.values():
                sp = dsp.per_box[i]
                if sp.n:
                    sp.remove(np.ones(sp.n, dtype=bool))
        if self.policy is None:
            raise ResilienceError(
                f"rank {rank} failed at step {sim.step_count} and no "
                "recovery policy is configured (restore_and_redistribute "
                "needs one)"
            )
        if self._checkpoint_step is None:
            raise ResilienceError(
                f"rank {rank} failed at step {sim.step_count} but no "
                "checkpoint has been taken to restore from"
            )
        nbytes = self._restore_checkpoint(sim)
        self._dead.add(rank)
        sim.dead_ranks |= self._dead
        alive = [
            r for r in range(sim.comm.n_ranks) if r not in sim.dead_ranks
        ]
        if not alive:
            raise ResilienceError("every rank has failed; nothing to restore to")
        costs = [b.n_cells for b in sim.boxes]
        # the restored mapping may predate earlier failures: evacuate
        # every dead rank that still owns boxes, not just the newest one
        for dead in sorted(sim.dead_ranks):
            if np.any(sim.dm.assignment == dead):
                sim.dm.evacuate(dead, alive=alive, costs=costs)
        sim.comm.record_restore(rank, nbytes)
        self.policy.note_restore(nbytes)
        sim.tracer.instant(
            "rank_restore", rank=rank, step=sim.step_count, nbytes=nbytes
        )
