"""Simulated communicator with full message accounting.

Stands in for MPI: ranks live in one process and messages move through
buffers, but every send is *recorded* — source, destination, byte count,
tag — so the performance model can run on the code's true communication
volumes rather than estimates.  The interface deliberately mirrors the
mpi4py buffer idiom (send counted in bytes, collectives as explicit calls).

Beyond the aggregate counters, every message appends a
:class:`CommEvent` to :attr:`SimComm.log`, and so do injected faults and
their recoveries; the post-hoc checker (:mod:`repro.analysis.commcheck`)
replays that log to find faults nobody recovered (RES001/RES002).  The
protocol itself is enforced where it runs: :meth:`SimComm.exchange`
refuses a bad phase before its first send, a receive that finds nothing
raises, and a collective a peer never joins times out on the process
transport.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from typing import (
    Any, Dict, Iterable, Iterator, List, Mapping, NamedTuple, Optional, Tuple,
)

import numpy as np

from repro.diagnostics.timers import now
from repro.exceptions import CommunicationError, ResilienceError
from repro.parallel.transport import (
    LoopbackTransport,
    Transport,
    pair_bytes_for_tag,
)
from repro.parallel.wire import Message, as_message
from repro.parallel.wire import payload_nbytes  # noqa: F401  (re-export)

#: fault events a :class:`FaultInjector <repro.resilience.faults.
#: FaultInjector>` can leave in the log
FAULT_EVENT_KINDS = (
    "fault_drop",
    "fault_duplicate",
    "fault_corrupt",
    "fault_delay",
    "rank_fail",
)

#: recovery-action events the resilient transport records
RECOVERY_EVENT_KINDS = (
    "recover_retry",
    "recover_redeliver",
    "recover_dedup",
    "recover_restore",
)

#: the tag of each exchange phase of a decomposed step — the only tags
#: :meth:`SimComm.exchange` accepts, and the only ones a fault can name
PHASE_TAGS = {
    "fold": "halo:fold",  # guard-cell J/rho summed into their owners
    "sources": "halo:sources",  # owners' J copied into the tiles' guards
    "fields": "halo:fields",  # guard E/B filled from their owners
    "particles": "particles",  # particles that left their box, per species
    "migrate": "lb:migrate",  # box state moved by a rebalance
}


class CommEvent(NamedTuple):
    """One recorded communicator operation (a tuple: the log holds two
    of these per message for the whole run, so no per-instance
    ``__dict__``).

    ``kind`` is ``"send"`` or ``"recv"`` for traffic.  A receive that
    finds nothing raises instead of logging, and collectives are counted
    (:attr:`SimComm.collective_calls`), not logged.

    Under fault injection (:mod:`repro.resilience`) the log additionally
    carries fault events (:data:`FAULT_EVENT_KINDS`: an injected drop,
    duplicate, corruption, delay, or rank failure) and the recovery
    actions that repaired them (:data:`RECOVERY_EVENT_KINDS`: a
    retransmit, a late delivery, a receiver-side dedup, a checkpoint
    restore).  The checker pairs the two streams to verify no fault
    went unrecovered (RES001/RES002); for the rank events ``src`` is the
    rank and ``dst`` is ``-1``.

    Nothing else is logged: the order of an exchange phase is enforced
    by :meth:`SimComm.exchange` itself, not recorded for a replay.
    """

    seq: int
    kind: str
    src: int
    dst: int
    tag: str
    nbytes: int


def _msg_context(op: str, src: int, dst: int, tag: str) -> str:
    """The one message-context format shared by runtime errors and commcheck."""
    return f"{op}: src={src} dst={dst} tag={tag!r}"


def _freeze(payloads: Iterable[Any], frozen: List[np.ndarray]) -> None:
    """Make every writable buffer of ``payloads`` read-only, appending it
    to ``frozen`` (a buffer met twice, or read-only already, is skipped)."""
    for payload in payloads:
        for buf in as_message(payload).buffers:
            if buf.flags.writeable:
                buf.flags.writeable = False
                frozen.append(buf)


class SimComm:
    """An in-process stand-in for an MPI communicator over ``n_ranks``."""

    def __init__(
        self,
        n_ranks: int,
        transport: Optional[Transport] = None,
    ) -> None:
        if n_ranks < 1:
            raise CommunicationError(f"need at least one rank, got {n_ranks}")
        self.n_ranks = int(n_ranks)
        #: where messages physically live between send and recv
        self.transport: Transport = (
            transport if transport is not None else LoopbackTransport()
        )
        self.transport.bind(self)
        #: rank this endpoint belongs to (None: every rank is local)
        self.local_rank = self.transport.local_rank
        # the local landing store: the loopback wire itself, or the
        # drained inbox of a multi-process endpoint; every entry is
        # (message, seq, checksum), seq numbering its channel's sends
        self._queues: Dict[Tuple[int, int, str], List[Any]] = (
            self.transport.queues
        )
        # accounting
        self.bytes_sent = np.zeros(self.n_ranks, dtype=np.int64)
        self.messages_sent = np.zeros(self.n_ranks, dtype=np.int64)
        self.pair_bytes: Dict[Tuple[int, int], int] = defaultdict(int)
        self.collective_calls = 0
        # event log replayed by repro.analysis.commcheck
        self.log: List[CommEvent] = []
        self._seq = 0
        # -- resilient transport (both None unless attach_resilience) ------
        #: duck-typed fault source: .on_send(src, dst, tag, message)
        self.fault_injector = None
        #: duck-typed recovery policy: .max_retries, .note_retry(), ...
        self.recovery = None
        # each channel delivers in send order: the number of the next
        # message to send, and to deliver, per (src, dst, tag)
        self._send_seq: Dict[Tuple[int, int, str], int] = defaultdict(int)
        self._recv_seq: Dict[Tuple[int, int, str], int] = defaultdict(int)
        #: tags of the exchange phases open on this endpoint
        self._open_phases: set = set()
        # sender-side retransmission buffer: (seq, original message) of
        # dropped/corrupted messages, keyed like the queues
        self._lost: Dict[Tuple[int, int, str], List[Tuple[int, Message]]] = (
            defaultdict(list)
        )
        # in-flight delayed messages: [countdown, seq, message]
        self._delayed: Dict[Tuple[int, int, str], List[List[Any]]] = (
            defaultdict(list)
        )

    def _check_rank(self, rank: int, role: str, op: str) -> None:
        if not (0 <= rank < self.n_ranks):
            noun = f"{role} rank" if role else "rank"
            raise CommunicationError(
                f"{op}: {noun} {rank} out of range [0, {self.n_ranks})"
            )

    def _record(
        self, kind: str, src: int, dst: int, tag: str, nbytes: int
    ) -> None:
        self.log.append(CommEvent(self._seq, kind, src, dst, tag, nbytes))
        self._seq += 1

    def _enqueue(
        self,
        key: Tuple[int, int, str],
        msg: Message,
        seq: int,
        checksum: Optional[int],
        event: str = "send",
    ) -> None:
        """Put ``msg`` on the wire: the one spelling of log record and
        delivery.  ``event`` names a recovery action when this is a
        retransmission; it is logged ahead of the ``send``."""
        src, dst, tag = key
        if event != "send":
            self._record(event, src, dst, tag, msg.nbytes)
        self._record("send", src, dst, tag, msg.nbytes)
        self.transport.deliver(key, (msg, seq, checksum))

    def send(self, src: int, dst: int, payload: Any, tag: str = "") -> None:
        """Enqueue ``payload`` from ``src`` to ``dst`` and account its size.

        ``payload`` is a :class:`~repro.parallel.wire.Message` or one bare
        ndarray; anything else raises :class:`CommunicationError`.  It
        travels numbered: the n-th send of a ``(src, dst, tag)`` channel
        is delivered n-th, whatever order the wire brings it in.

        When a fault injector is attached (:meth:`attach_resilience`) the
        message may instead be dropped, duplicated, corrupted in transit
        or delayed, exactly as the injector's schedule dictates; the sent
        bytes are accounted either way (the wire was used).
        """
        self._check_rank(src, "src", "send")
        self._check_rank(dst, "dst", "send")
        msg = as_message(payload)
        self.bytes_sent[src] += msg.nbytes
        self.messages_sent[src] += 1
        self.pair_bytes[(src, dst)] += msg.nbytes
        key = (src, dst, tag)
        seq = self._send_seq[key]
        self._send_seq[key] = seq + 1
        kind = extra = checksum = None
        # remote endpoints always checksum: the wire is a real process
        # boundary there, so integrity must not depend on fault injection
        if self.fault_injector is not None or self.transport.blocking:
            checksum = msg.crc
        if self.fault_injector is not None:
            kind, extra = self.fault_injector.on_send(src, dst, tag, msg) or (
                None, None,
            )
        if kind == "drop":
            # lost on the wire; original kept in the sender-side
            # retransmission buffer for a recovery retry
            self._record("fault_drop", src, dst, tag, msg.nbytes)
            self._lost[key].append((seq, msg))
        elif kind == "delay":
            self._record("fault_delay", src, dst, tag, msg.nbytes)
            self._delayed[key].append([int(extra), seq, msg])
        elif kind == "corrupt":
            # checksum of the *original* travels with the mangled copy
            # (the sender computed it before the bit flip)
            self._enqueue(key, extra, seq, checksum)
            self._record("fault_corrupt", src, dst, tag, msg.nbytes)
            self._lost[key].append((seq, msg))
        elif kind == "duplicate":
            self._enqueue(key, msg, seq, checksum)
            self._record("fault_duplicate", src, dst, tag, msg.nbytes)
            self.transport.deliver(key, (msg, seq, checksum))
        elif kind is None:
            self._enqueue(key, msg, seq, checksum)
        else:
            raise CommunicationError(
                f"fault injector returned unknown action {kind!r}"
            )

    def recv(self, src: int, dst: int, tag: str = "") -> Any:
        """Dequeue the channel's next message in send order.

        Returns what was sent: the :class:`~repro.parallel.wire.Message`,
        or the ndarray of a bare-array send.

        One loop serves every receive.  A copy numbered below the
        channel's next message is a duplicate and is discarded, a
        payload whose checksum does not match is retransmitted from the
        sender-side buffer under its number, and a gap (the next message
        dropped or delayed while later ones arrived) waits for the retry
        loop of the attached policy.  Without an injector none of that
        happens: the loop drains, takes the next number and checks its
        checksum where one travels.  A fault that cannot be recovered
        raises :class:`~repro.exceptions.ResilienceError` — never a
        silent wrong payload.
        """
        self._check_rank(src, "src", "recv")
        self._check_rank(dst, "dst", "recv")
        return self._recv_next((src, dst, tag)).unwrap()

    def _raise_no_message(self, src: int, dst: int, tag: str) -> None:
        """Nothing to receive: raised with full message context, never a
        silent hang.  On a blocking transport the recv ran out of
        patience, so the peer is likely dead (:class:`ResilienceError`);
        on loopback the message was never sent (:class:`CommunicationError`,
        naming the tags pending for the same pair)."""
        if self.transport.blocking:
            timeout = getattr(self.transport, "recv_timeout", None)
            raise ResilienceError(
                f"no message ({_msg_context('recv', src, dst, tag)}) after "
                f"{timeout}s on the {self.transport.kind} transport; the "
                f"worker process for rank {src} may have died mid-phase"
            )
        pending_tags = sorted(
            t for (s, d, t), q in self._queues.items()
            if s == src and d == dst and q
        )
        hint = (
            f" (pending tags for this pair: {pending_tags})"
            if pending_tags
            else ""
        )
        raise CommunicationError(
            f"no message {_msg_context('recv', src, dst, tag)}{hint}"
        )

    def _is_duplicate(
        self, key: Tuple[int, int, str], msg: Message, seq: int
    ) -> bool:
        """The receiver-side sequence filter: a copy of an already
        delivered message is discarded (and logged as ``recover_dedup``)."""
        if seq >= self._recv_seq[key]:
            return False
        self._record("recover_dedup", key[0], key[1], key[2], msg.nbytes)
        if self.recovery is not None:
            self.recovery.note_dedup()
        return True

    def _next_entry(self, key: Tuple[int, int, str]) -> Optional[Tuple]:
        """Pop ``key``'s entry numbered next in send order (None: it has
        not arrived; later ones stay queued), discarding duplicates."""
        queue = self._queues.get(key)
        if not queue:
            return None
        queue[:] = [e for e in queue if not self._is_duplicate(key, e[0], e[1])]
        seq = self._recv_seq[key]
        for i, entry in enumerate(queue):
            if entry[1] == seq:
                return queue.pop(i)
        return None

    def _recv_next(self, key: Tuple[int, int, str]) -> Message:
        """The receive loop: the channel's next message in send order."""
        src, dst, tag = key
        policy = self.recovery
        max_retries = policy.max_retries if policy is not None else 0
        attempts = 0
        while True:
            self.transport.drain()
            entry = self._next_entry(key)
            while entry is not None:
                msg, seq, checksum = entry
                self._record("recv", src, dst, tag, msg.nbytes)
                if checksum is None or msg.crc == checksum:
                    self._recv_seq[key] = seq + 1
                    return msg
                # corrupted in transit.  On a blocking transport the
                # original lives in the *sender's* process: NACK it and
                # wait for the retransmission (the sender records the
                # recover_retry, pairing the fault on its own log);
                # on loopback the sender-side buffer is right here
                if policy is None:
                    resent = False
                elif self.transport.blocking:
                    self.transport.request_retransmit(key, seq)
                    resent = True
                else:
                    resent = self.service_nack(key, seq, attempts)
                if not resent:
                    raise ResilienceError(
                        "corrupted message detected "
                        f"({_msg_context('recv', src, dst, tag)}) and no "
                        "recovery policy is attached to retransmit it"
                    )
                entry = self._next_entry(key)
            # nothing deliverable: service delayed messages (one backoff
            # tick per attempt) and retransmit anything known lost
            if self.service_probe(key, attempts, strict=True):
                continue
            if self.transport.blocking:
                # nothing recoverable receiver-side: the sender holds the
                # retransmission buffers, so wait (probing it) for more
                # traffic instead of giving up
                if self.transport.wait(key):
                    continue
                self._raise_no_message(src, dst, tag)
            delayed = self._delayed.get(key)
            if delayed and policy is not None and attempts < max_retries:
                attempts += 1
                policy.note_backoff(attempts)
                continue
            if delayed:
                raise ResilienceError(
                    f"delayed message ({_msg_context('recv', src, dst, tag)}) "
                    f"did not arrive within {max_retries} retries"
                )
            self._raise_no_message(src, dst, tag)

    # -- retransmission servicing (receiver-side on loopback, sender-side
    # -- for the probe/NACK control messages of a blocking transport) ------
    def service_nack(
        self, key: Tuple[int, int, str], seq: int, attempt: int = 0
    ) -> bool:
        """Retransmit the buffered original of a corrupted message.

        A receiver detected a checksum mismatch on message ``seq`` of
        ``key``; the original sits in the sender's retransmission buffer.
        It goes out again under the same number with its own checksum,
        and the ``recover_retry`` is recorded on the *sender's* log
        (where the ``fault_corrupt`` it pairs with also lives).  False
        when the buffer no longer holds that message.
        """
        for i, (lost_seq, msg) in enumerate(self._lost.get(key, ())):
            if lost_seq == seq:
                del self._lost[key][i]
                if self.recovery is not None:
                    self.recovery.note_retry(attempt)
                self._enqueue(key, msg, seq, msg.crc, "recover_retry")
                return True
        return False

    def service_probe(
        self, key: Tuple[int, int, str], attempt: int = 0,
        strict: bool = False,
    ) -> bool:
        """One backoff tick for ``key``: did anything get (re)sent?

        Delayed messages count down (and redeliver at zero); failing
        that, the oldest known-lost message is retransmitted.  A remote
        receiver that saw nothing arrive triggers this with a probe —
        the buffers live in the sending process — and the loopback
        receive loop calls it directly with ``strict`` set, where having
        something to recover but no recovery policy is an error.
        """
        policy = self.recovery
        delayed = self._delayed.get(key, ())
        for entry in delayed:
            entry[0] -= 1
        ready = [e for e in delayed if e[0] <= 0]
        lost = self._lost.get(key)
        if not (ready or lost):
            return False
        if strict and policy is None:
            what = "delayed message" if ready else "message lost in transit"
            raise ResilienceError(
                f"{what} ({_msg_context('recv', *key)}) and no recovery "
                "policy is attached to recover it"
            )
        for _countdown, seq, msg in ready:
            if policy is not None:
                policy.note_redeliver()
            self._enqueue(key, msg, seq, msg.crc, "recover_redeliver")
        if ready:
            self._delayed[key] = [e for e in delayed if e[0] > 0]
        else:
            seq, msg = lost.pop(0)
            if policy is not None:
                policy.note_retry(attempt)
            self._enqueue(key, msg, seq, msg.crc, "recover_retry")
        return True

    # -- resilience hooks --------------------------------------------------
    def attach_resilience(self, injector, recovery=None) -> None:
        """Attach a fault injector and (optionally) a recovery policy.

        ``injector`` is consulted on every :meth:`send`; ``recovery``
        drives the retry/backoff loop of :meth:`recv`.  Both are
        duck-typed so this module keeps no dependency on
        :mod:`repro.resilience`.
        """
        self.fault_injector = injector
        self.recovery = recovery

    def finish_step(self) -> None:
        """End-of-step transport maintenance under fault injection.

        Drains duplicate copies still queued (recorded as dedups) and
        raises :class:`~repro.exceptions.ResilienceError` if a dropped or
        delayed message was never asked for again — a fault nobody
        recovered must stop the run, not linger silently.
        """
        self.transport.drain()
        if self.fault_injector is None:
            return
        for key, queue in self._queues.items():
            queue[:] = [
                e for e in queue if not self._is_duplicate(key, e[0], e[1])
            ]
        leftovers = self._fault_leftovers()
        if leftovers and self.transport.blocking:
            # remote receivers recover through probe/NACK control
            # messages, which may still be on their way here: keep
            # servicing the inbox until the buffers empty or the
            # transport's own patience runs out
            deadline = now() + getattr(
                self.transport, "recv_timeout", 0.0
            )
            while leftovers and now() < deadline:
                self.transport.pump()
                leftovers = self._fault_leftovers()
        if leftovers:
            raise ResilienceError(
                "unrecovered message fault(s) at end of step for "
                f"(src, dst, tag) = {leftovers}; the receiver never "
                "re-requested the lost/delayed message"
            )

    def _fault_leftovers(self) -> List[Tuple[int, int, str]]:
        return sorted(
            key for key, entries in self._lost.items() if entries
        ) + sorted(key for key, entries in self._delayed.items() if entries)

    def record_rank_failure(self, rank: int) -> None:
        """Log a hard rank failure (audited by commcheck rule RES002)."""
        self._check_rank(rank, "", "rank_fail")
        self._record("rank_fail", rank, -1, "rank", 0)

    def record_restore(self, rank: int, nbytes: int = 0) -> None:
        """Log a checkpoint-restore recovery for a failed rank."""
        self._check_rank(rank, "", "recover_restore")
        self._record("recover_restore", rank, -1, "rank", nbytes)

    @contextmanager
    def exchange(
        self,
        tag: str,
        pairs: Iterable[Tuple[int, int]],
        outgoing: Mapping[Tuple[int, int], Any],
    ) -> Iterator[List[Message]]:
        """Run one exchange phase on ``tag``, end to end (a context manager).

        ``tag`` is one of :data:`PHASE_TAGS` whose phase is not open on
        this endpoint already; anything else raises
        :class:`CommunicationError` before the first send.  Phases that
        share a tag one after the other are fine: each channel delivers
        in send order.

        ``pairs``: every ordered cross-rank ``(src, dst)`` pair of the
        phase, derived identically on every rank; ``outgoing``: the
        payload of each pair this endpoint sources (keys of other pairs
        of the phase are allowed).  A self pair ``(r, r)`` (a local copy,
        which a blocking-send MPI would deadlock on), a missing payload,
        or a key outside ``pairs``, raises :class:`CommunicationError`
        before anything is sent.  Posts every send (sorted pairs) before
        the first receive, and hands the ``with`` body the received
        :class:`Message` list, every message arrived, with the phase
        still open: apply there.
        The tag is free again when the block ends, also when it raises.

        For the life of the ``with`` block every buffer of ``outgoing``
        and of the received messages is read-only: loopback hands the
        receiver the sender's very arrays, the process transport a copy,
        so a write into one would make the two diverge; instead it
        raises ``ValueError`` on both.  The flags are restored when the
        block ends, also when it raises.
        """
        if tag not in PHASE_TAGS.values() or tag in self._open_phases:
            what = (
                "a phase already open on this endpoint"
                if tag in self._open_phases
                else f"no declared phase ({sorted(PHASE_TAGS.values())})"
            )
            raise CommunicationError(
                f"{_msg_context('exchange', -1, -1, tag)}: the tag names {what}"
            )
        pairs = sorted(pairs)
        for src, dst in pairs:
            if src == dst:
                raise CommunicationError(
                    f"{_msg_context('exchange', src, dst, tag)}: a self "
                    "pair; a rank's own data is a local copy, not a message"
                )
        # an SPMD endpoint speaks for one rank; loopback for all of them
        sends = [p for p in pairs if self.local_rank in (None, p[0])]
        recvs = [p for p in pairs if self.local_rank in (None, p[1])]
        missing = [p for p in sends if p not in outgoing]
        stray = sorted(set(outgoing).difference(pairs))
        if missing or stray:
            pair, what = (
                (missing[0], "no payload for a pair this endpoint sources")
                if missing
                else (stray[0], "a payload for a pair outside the phase")
            )
            raise CommunicationError(
                f"{_msg_context('exchange', *pair, tag)}: outgoing holds {what}"
            )
        frozen: List[np.ndarray] = []
        try:
            self._open_phases.add(tag)
            _freeze(outgoing.values(), frozen)
            for src, dst in sends:
                self.send(src, dst, outgoing[(src, dst)], tag=tag)
            received = [
                as_message(self.recv(src, dst, tag=tag)) for src, dst in recvs
            ]
            _freeze(received, frozen)
            yield received
        finally:
            self._open_phases.discard(tag)
            # owners first: a view cannot turn writable over a read-only base
            for buf in sorted(frozen, key=lambda b: isinstance(b.base, np.ndarray)):
                buf.flags.writeable = True

    def pending(self) -> int:
        """Number of undelivered messages (should be 0 between phases)."""
        return sum(len(q) for q in self._queues.values())

    def allreduce_sum(self, values: np.ndarray) -> np.ndarray:
        """Model an allreduce: account ~2 log2(P) message rounds per rank.

        A loopback communicator speaks for every rank, so the call is the
        whole collective and every rank's counters move.  An SPMD
        endpoint (a blocking transport) runs a real reduction across the
        worker processes and accounts its own rank only; a peer that
        never joins makes ``transport.allreduce`` time out with a
        :class:`~repro.exceptions.ResilienceError`.  Counted in
        :attr:`collective_calls`, not logged.
        """
        if self.transport.blocking:
            # the modelled accounting below is unchanged, so the counters
            # stay transport-independent
            values = self.transport.allreduce(values)
        self.collective_calls += 1
        nbytes = int(np.asarray(values).nbytes)
        rounds = max(int(np.ceil(np.log2(max(self.n_ranks, 2)))), 1)
        ranks = slice(None) if self.local_rank is None else self.local_rank
        self.bytes_sent[ranks] += nbytes * rounds
        self.messages_sent[ranks] += rounds
        return values

    # -- reporting ---------------------------------------------------------
    def pair_bytes_for_tag(self, prefix: str = "") -> Dict[Tuple[int, int], int]:
        """Per (src, dst) bytes of logged ``send`` events matching a tag prefix.

        Replays the event log, so in a fault-free run the totals reconcile
        exactly with :attr:`pair_bytes` (which aggregates every tag) —
        this is how tests and the perf model attribute traffic to one
        exchange phase (e.g. prefix ``"halo"`` or ``"lb:"``).  A
        checkpoint restore rolls the counters back but deliberately not
        the log (it is the audit trail), so after a recovery the replay
        also counts the traffic of the steps that were rolled back.
        """
        return pair_bytes_for_tag(self.log, prefix)

    def total_bytes(self) -> int:
        return int(self.bytes_sent.sum())

    def total_messages(self) -> int:
        return int(self.messages_sent.sum())

    def reset_counters(self) -> None:
        """Zero the aggregate counters (the event log is kept: it is the
        audit trail whose faults and recoveries RES001/RES002 pair)."""
        self.bytes_sent[:] = 0
        self.messages_sent[:] = 0
        self.pair_bytes.clear()
        self.collective_calls = 0

    def clear_log(self) -> None:
        """Drop the recorded event history (e.g. between benchmark phases)."""
        self.log.clear()
