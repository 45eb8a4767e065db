"""Deterministic, seedable fault scenarios for distributed runs.

The paper's hero runs occupy an exascale machine for hours; at that
scale message loss, link glitches and node failures are routine events a
production campaign must survive, which is why WarpX inherits AMReX's
checkpoint/restart.  This module lets any :class:`~repro.parallel.
distributed.DistributedSimulation` be executed under a *scripted*
failure scenario: a :class:`FaultSchedule` lists exactly which faults
fire at which step, a :class:`FaultInjector` replays them against the
communicator's live traffic, and — because every schedule is either
hand-written or derived from a seed — any failing scenario is replayable
bit-for-bit.

Modelled faults:

==============  ========================================================
``drop``        a message is lost on the wire (sender keeps the original
                in its retransmission buffer)
``duplicate``   a message arrives twice (filtered receiver-side by
                message id)
``corrupt``     a payload is mangled in transit (detected by checksum,
                repaired by retransmission)
``delay``       a message arrives late — after ``delay`` receive
                attempts (absorbed by the retry/backoff loop)
``rank_failure``  a rank dies at the start of step N, losing all of its
                boxes' field and particle data (recovered by
                ``restore_and_redistribute``)
==============  ========================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.parallel.wire import Message, as_message, payload_nbytes

#: every fault kind a schedule may contain
FAULT_KINDS = ("drop", "duplicate", "corrupt", "delay", "rank_failure")

#: the message-level subset (everything but ``rank_failure``)
MESSAGE_FAULT_KINDS = ("drop", "duplicate", "corrupt", "delay")


@dataclass
class FaultSpec:
    """One scheduled fault.

    Message faults fire on the first send *at or after* ``step`` that
    matches the ``src``/``dst``/``tag`` filters (``None`` matches
    anything); each spec fires at most once.  A ``corrupt`` spec
    additionally waits for a payload with actual bytes (there is nothing
    to mangle in a zero-byte marker message).  ``rank_failure`` ignores
    the message filters and kills ``rank`` at the start of ``step``.
    """

    kind: str
    step: int
    src: Optional[int] = None
    dst: Optional[int] = None
    tag: Optional[str] = None
    rank: Optional[int] = None
    #: receive attempts a delayed message takes to arrive
    delay: int = 2
    fired: bool = field(default=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; pick from {FAULT_KINDS}"
            )
        if self.kind == "rank_failure" and self.rank is None:
            raise ConfigurationError("rank_failure needs a target rank")
        if self.kind == "delay" and self.delay < 1:
            raise ConfigurationError("delay must be at least one attempt")

    def matches_send(
        self, step: int, src: int, dst: int, tag: str
    ) -> bool:
        """Does this (message) spec fire on the given send?"""
        if self.fired or self.kind == "rank_failure" or step < self.step:
            return False
        if self.src is not None and src != self.src:
            return False
        if self.dst is not None and dst != self.dst:
            return False
        if self.tag is not None and tag != self.tag:
            return False
        return True


class FaultSchedule:
    """An ordered list of :class:`FaultSpec` plus the scenario seed.

    The seed drives every random choice the injector makes (which byte a
    corruption flips), so a schedule value *is* the full scenario: same
    schedule, same run, same failure, every time.
    """

    def __init__(self, specs: Sequence[FaultSpec] = (), seed: int = 0) -> None:
        self.specs: List[FaultSpec] = list(specs)
        self.seed = int(seed)

    def add(self, spec: FaultSpec) -> "FaultSchedule":
        self.specs.append(spec)
        return self

    def rank_failures(self) -> List[FaultSpec]:
        return [s for s in self.specs if s.kind == "rank_failure"]

    def fired(self) -> List[FaultSpec]:
        return [s for s in self.specs if s.fired]

    def __len__(self) -> int:
        return len(self.specs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultSchedule(n={len(self.specs)}, seed={self.seed})"

    @classmethod
    def random(
        cls,
        seed: int,
        n_faults: int,
        max_step: int,
        n_ranks: Optional[int] = None,
        kinds: Sequence[str] = MESSAGE_FAULT_KINDS,
        tag: Optional[str] = None,
    ) -> "FaultSchedule":
        """A seeded random scenario of ``n_faults`` message faults.

        Used by the fuzz tests: steps are drawn uniformly from
        ``[0, max_step)``, kinds from ``kinds``, and src/dst filters are
        left open (match any traffic) unless ``n_ranks`` is given, in
        which case roughly half the specs pin a random src rank.
        """
        rng = np.random.default_rng(seed)
        specs = []
        for _ in range(int(n_faults)):
            kind = str(rng.choice(list(kinds)))
            src = None
            if n_ranks is not None and rng.random() < 0.5:
                src = int(rng.integers(0, n_ranks))
            specs.append(
                FaultSpec(
                    kind=kind,
                    step=int(rng.integers(0, max_step)),
                    src=src,
                    tag=tag,
                    delay=int(rng.integers(1, 4)),
                )
            )
        return cls(specs, seed=seed)


def corrupt_payload(payload: Any, rng: np.random.Generator) -> Message:
    """The same message with one byte of one buffer flipped.

    Only the randomly chosen (non-empty) buffer is copied before the
    XOR — the sender's retransmission buffer keeps the pristine original
    and the untouched buffers are shared — the smallest corruption a
    checksum must still catch.
    """
    msg = as_message(payload)
    targets = [k for k, b in enumerate(msg.buffers) if b.nbytes > 0]
    if not targets:
        raise ConfigurationError("cannot corrupt a payload with no bytes")
    k = targets[int(rng.integers(0, len(targets)))]
    mangled = np.array(msg.buffers[k], copy=True, order="C")
    flat = mangled.reshape(-1).view(np.uint8)
    flat[int(rng.integers(0, flat.size))] ^= np.uint8(0x40)
    return Message(
        msg.header, msg.buffers[:k] + (mangled,) + msg.buffers[k + 1:]
    )


class FaultInjector:
    """Replays a :class:`FaultSchedule` against live communicator traffic.

    Attached to a :class:`~repro.parallel.comm.SimComm` via
    ``attach_resilience``; the communicator calls :meth:`on_send` for
    every message and the simulation driver calls :meth:`begin_step` /
    :meth:`rank_failure_due` once per step.
    """

    def __init__(self, schedule: FaultSchedule) -> None:
        self.schedule = schedule
        self.rng = np.random.default_rng(schedule.seed)
        self.step = 0

    def begin_step(self, step: int) -> None:
        self.step = int(step)

    def on_send(
        self, src: int, dst: int, tag: str, payload: Any
    ) -> Optional[Tuple[str, Any]]:
        """The action for this send: ``None`` (deliver) or (kind, extra).

        ``extra`` is the corrupted message for ``corrupt`` and the
        arrival countdown for ``delay``; unused otherwise.
        """
        for spec in self.schedule.specs:
            if not spec.matches_send(self.step, src, dst, tag):
                continue
            if spec.kind == "corrupt" and payload_nbytes(payload) == 0:
                # nothing to mangle (e.g. a zero-byte halo marker): let
                # this send through and keep the spec armed
                continue
            spec.fired = True
            if spec.kind == "corrupt":
                return ("corrupt", corrupt_payload(payload, self.rng))
            if spec.kind == "delay":
                return ("delay", spec.delay)
            return (spec.kind, None)
        return None

    def rank_failure_due(self, step: int) -> Optional[FaultSpec]:
        """The unfired rank failure scheduled at or before ``step``, if any."""
        for spec in self.schedule.rank_failures():
            if not spec.fired and spec.step <= step:
                return spec
        return None
