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
from dataclasses import dataclass
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
        """Infrastructure rendezvous between ranks (not accounted, not
        logged; a no-op on loopback, where every rank is local)."""

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

    @classmethod
    def from_comm(cls, comm) -> "CommCounters":
        return cls(
            n_ranks=comm.n_ranks,
            bytes_sent=np.array(comm.bytes_sent, dtype=np.int64),
            messages_sent=np.array(comm.messages_sent, dtype=np.int64),
            pair_bytes=dict(comm.pair_bytes),
            collective_calls=comm.collective_calls,
        )

    def total_bytes(self) -> int:
        return int(self.bytes_sent.sum())

    def total_messages(self) -> int:
        return int(self.messages_sent.sum())


def merge_comm_counters(states: Sequence[CommCounters]) -> CommCounters:
    """Fold per-rank counter snapshots into one communicator view.

    Send-side counters (bytes/messages/pair_bytes) are disjoint across
    ranks — rank ``r`` only ever increments its own row — so the merge
    is an elementwise sum.  Collective call counts are per-rank views of
    the *same* collective operations, so the merge takes the maximum
    (every rank that participated counted each operation once).
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


def merge_rank_logs(logs: Sequence[Sequence]) -> List:
    """The per-rank event logs of an SPMD run as one replayable log: the
    ranks' logs one after another, renumbered.

    The replay pairs sends with receives, and faults with recoveries,
    per channel by count, not by position, so the order of the ranks'
    logs does not matter — fault-injected runs merge like any other.
    """
    from repro.parallel.comm import CommEvent

    events = [ev for log in logs for ev in log]
    return [CommEvent(seq, *ev[1:]) for seq, ev in enumerate(events)]
