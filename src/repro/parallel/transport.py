"""Transport abstraction under :class:`~repro.parallel.comm.SimComm`.

A transport decides *where messages physically live* between a ``send``
and its matching ``recv``; the communicator keeps everything else
(accounting, event log, fault injection, checksums, retransmission
buffers).  Two implementations exist:

* :class:`LoopbackTransport` (here) — the default/test transport: every
  rank lives in one Python process and messages sit in an in-process
  queue dictionary.  This is exactly the pre-transport behaviour of
  ``SimComm`` and stays bit-identical to it.
* :class:`~repro.parallel.mp_transport.MultiprocessingTransport` — one
  worker process per rank; messages cross real process boundaries
  through per-rank inboxes in the one-block layout of
  :mod:`repro.parallel.wire`, and the resilience layer's
  retransmissions travel as explicit control messages.

The cross-transport equivalence contract — same sends, same per-rank
counters, same physics — is what the differential test matrix in
``tests/test_transport_matrix.py`` enforces; the helpers at the bottom
(:func:`merge_comm_counters`, :func:`merge_rank_logs`) are how per-rank
state from a multi-process run is folded back into the single-view shape
the loopback transport produces natively.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import CommunicationError

#: (src, dst, tag) — the queue key of one ordered message channel
ChannelKey = Tuple[int, int, str]


class Transport:
    """Interface between :class:`SimComm` and the message substrate.

    ``blocking`` distinguishes the two recv disciplines: a non-blocking
    transport (loopback) either has the message already or never will,
    so a missing message is an immediate protocol error; a blocking
    transport (multiprocessing) waits for in-flight traffic up to a
    timeout before declaring the peer dead.
    """

    #: short name used in reports and test parametrization
    kind = "base"
    #: True when ranks run in separate processes (SPMD execution)
    blocking = False
    #: the rank this endpoint belongs to (None: all ranks are local)
    local_rank: Optional[int] = None

    def bind(self, comm) -> None:
        """Attach the owning communicator (for control-message service)."""
        self.comm = comm

    def deliver(self, key: ChannelKey, entry: Tuple) -> None:
        """Move one ``(message, seq, checksum)`` entry toward its
        destination rank."""
        raise NotImplementedError

    def drain(self) -> int:
        """Pull every arrived message into ``comm._queues``.

        Control messages (retransmit requests, barrier tokens) are
        serviced as a side effect.  Returns how many *data* messages
        were drained.
        """
        return 0

    def wait(self, key: ChannelKey) -> bool:
        """Block until new traffic may have arrived for ``key``.

        Returns False when the transport can rule out further arrivals
        (loopback: always) or the receive timeout expired.
        """
        return False

    def request_retransmit(self, key: ChannelKey, seq: Optional[int]) -> None:
        """Ask ``key``'s source rank to retransmit (no-op on loopback —
        the sender-side buffers are directly reachable)."""

    def pump(self) -> int:
        """Service the inbox briefly (one short blocking poll).

        Used by senders waiting for remote receivers to ask for their
        buffered retransmissions; returns how many data messages arrived.
        No-op on loopback (there is no remote side to wait for).
        """
        return 0

    def sync(self) -> None:
        """Infrastructure rendezvous between ranks (NOT an accounted
        barrier: the modelled ``SimComm.barrier`` is separate)."""

    def close(self) -> None:
        """Release transport resources (queues, shared memory)."""


class LoopbackTransport(Transport):
    """All ranks in one process; the queue dictionary IS the wire.

    ``SimComm`` aliases :attr:`queues` as its ``_queues``, so every code
    path that predates the transport abstraction (including the
    resilient receive loop, which reaches into the sender-side
    retransmission buffers directly) behaves exactly as before.
    """

    kind = "loopback"
    blocking = False

    def __init__(self) -> None:
        self.queues: Dict[ChannelKey, List[Any]] = defaultdict(list)

    def deliver(self, key: ChannelKey, entry: Tuple) -> None:
        self.queues[key].append(entry)


# -- cross-process aggregation helpers ----------------------------------------


@dataclass
class CommCounters:
    """The picklable counter state of one communicator endpoint.

    ``from_comm`` snapshots a live :class:`SimComm`;
    :func:`merge_comm_counters` folds the per-rank snapshots of an SPMD
    run into the single-communicator shape a loopback run produces —
    the object both sides of the differential test matrix compare.
    """

    n_ranks: int
    bytes_sent: np.ndarray
    messages_sent: np.ndarray
    pair_bytes: Dict[Tuple[int, int], int]
    collective_calls: int = 0
    barrier_calls: int = 0

    @classmethod
    def from_comm(cls, comm) -> "CommCounters":
        return cls(
            n_ranks=comm.n_ranks,
            bytes_sent=np.array(comm.bytes_sent, dtype=np.int64),
            messages_sent=np.array(comm.messages_sent, dtype=np.int64),
            pair_bytes=dict(comm.pair_bytes),
            collective_calls=comm.collective_calls,
            barrier_calls=comm.barrier_calls,
        )

    def total_bytes(self) -> int:
        return int(self.bytes_sent.sum())

    def total_messages(self) -> int:
        return int(self.messages_sent.sum())


def merge_comm_counters(states: Sequence[CommCounters]) -> CommCounters:
    """Fold per-rank counter snapshots into one communicator view.

    Send-side counters (bytes/messages/pair_bytes) are disjoint across
    ranks — rank ``r`` only ever increments its own row — so the merge
    is an elementwise sum.  Collective/barrier call counts are per-rank
    views of the *same* collective operations, so the merge takes the
    maximum (every rank that participated counted each operation once).
    """
    if not states:
        raise CommunicationError("nothing to merge: no counter states given")
    n_ranks = states[0].n_ranks
    for s in states:
        if s.n_ranks != n_ranks:
            raise CommunicationError(
                f"cannot merge counters over different rank counts "
                f"({s.n_ranks} vs {n_ranks})"
            )
    out = CommCounters(
        n_ranks=n_ranks,
        bytes_sent=np.zeros(n_ranks, dtype=np.int64),
        messages_sent=np.zeros(n_ranks, dtype=np.int64),
        pair_bytes=defaultdict(int),
    )
    for s in states:
        out.bytes_sent += s.bytes_sent
        out.messages_sent += s.messages_sent
        for pair, nbytes in s.pair_bytes.items():
            out.pair_bytes[pair] += nbytes
        out.collective_calls = max(out.collective_calls, s.collective_calls)
        out.barrier_calls = max(out.barrier_calls, s.barrier_calls)
    out.pair_bytes = dict(out.pair_bytes)
    return out


def pair_bytes_for_tag(log, prefix: str = "") -> Dict[Tuple[int, int], int]:
    """Per (src, dst) bytes of logged ``send`` events matching ``prefix``.

    The event-log replay of :meth:`SimComm.pair_bytes_for_tag`, usable
    on any event sequence (a merged multi-process log included).
    """
    out: Dict[Tuple[int, int], int] = defaultdict(int)
    for e in log:
        if e.kind == "send" and e.tag.startswith(prefix):
            out[(e.src, e.dst)] += e.nbytes
    return dict(out)


@dataclass
class _PhaseSegment:
    """One phase occurrence sliced out of a per-rank event log."""

    tag: str
    declared: int = 0
    sends: List = field(default_factory=list)
    recvs: List = field(default_factory=list)
    applies: List = field(default_factory=list)
    others: List = field(default_factory=list)


def _segment_rank_log(log) -> Tuple[List, List[_PhaseSegment]]:
    """Split one rank's log into (pre/interphase events, phase segments).

    Events outside any phase are returned per segment position: element
    ``k`` of the first list holds the loose events that preceded phase
    segment ``k`` (the final element holds the trailing events).
    """
    loose: List[List] = [[]]
    segments: List[_PhaseSegment] = []
    current: Optional[_PhaseSegment] = None
    for ev in log:
        if ev.kind == "phase_begin":
            current = _PhaseSegment(tag=ev.tag, declared=ev.detail)
        elif ev.kind == "phase_end":
            if current is not None:
                segments.append(current)
                loose.append([])
            current = None
        elif current is None:
            loose[-1].append(ev)
        elif ev.kind == "send":
            current.sends.append(ev)
        elif ev.kind == "recv":
            current.recvs.append(ev)
        elif ev.kind == "apply":
            current.applies.append(ev)
        else:
            current.others.append(ev)
    return loose, segments


def merge_rank_logs(logs: Sequence[Sequence], n_ranks: int) -> List:
    """Interleave per-rank event logs into one replayable global log.

    Ranks of a fault-free SPMD run traverse the *same* sequence of
    exchange phases, so the merge is structural: for each phase
    occurrence, emit one ``phase_begin`` (declared counts summed), every
    rank's sends, then every rank's recvs, then all applies in canonical
    order, then one ``phase_end``.  The result satisfies the FIFO
    send-before-recv discipline of the protocol checker, so
    ``check_all`` replays a clean multi-process run clean — the same
    audit the loopback transport gets natively.

    Only fault-free logs merge faithfully; logs carrying fault events
    are audited per rank instead (their recovery pairing is rank-local).
    """
    from repro.parallel.comm import CommEvent

    split = [_segment_rank_log(log) for log in logs]
    n_phases = {len(segments) for _loose, segments in split}
    if len(n_phases) != 1:
        raise CommunicationError(
            f"cannot merge rank logs with diverging phase counts "
            f"{sorted(n_phases)}: the ranks did not run the same schedule"
        )
    merged: List = []
    seq = 0

    def emit(kind, src, dst, tag, nbytes, detail=0):
        nonlocal seq
        merged.append(CommEvent(seq, kind, src, dst, tag, nbytes, detail))
        seq += 1

    for k in range(n_phases.pop() + 1):
        for loose, _segments in split:
            if k < len(loose):
                for ev in loose[k]:
                    emit(ev.kind, ev.src, ev.dst, ev.tag, ev.nbytes, ev.detail)
        segments = [s[1][k] for s in split if k < len(s[1])]
        if not segments:
            continue
        tags = {s.tag for s in segments}
        if len(tags) != 1:
            raise CommunicationError(
                f"cannot merge rank logs: phase {k} tags diverge "
                f"({sorted(tags)})"
            )
        tag = tags.pop()
        emit("phase_begin", -1, -1, tag, 0,
             detail=sum(s.declared for s in segments))
        for s in segments:
            for ev in s.sends:
                emit(ev.kind, ev.src, ev.dst, ev.tag, ev.nbytes, ev.detail)
        for s in segments:
            for ev in s.others:
                emit(ev.kind, ev.src, ev.dst, ev.tag, ev.nbytes, ev.detail)
        for s in segments:
            for ev in s.recvs:
                emit(ev.kind, ev.src, ev.dst, ev.tag, ev.nbytes, ev.detail)
        applies = sorted(
            (ev for s in segments for ev in s.applies),
            key=lambda ev: ev.detail,
        )
        for ev in applies:
            emit(ev.kind, ev.src, ev.dst, ev.tag, ev.nbytes, ev.detail)
        emit("phase_end", -1, -1, tag, 0)
    return merged
