"""Simulated communicator with full message accounting.

Stands in for MPI: ranks live in one process and messages move through
buffers, but every send is *recorded* — source, destination, byte count,
tag — so the performance model can run on the code's true communication
volumes rather than estimates.  The interface deliberately mirrors the
mpi4py buffer idiom (send counted in bytes, collectives as explicit calls).

Beyond the aggregate counters, every operation appends a
:class:`CommEvent` to :attr:`SimComm.log`; the post-hoc protocol checker
(:mod:`repro.analysis.commcheck`) replays that log to detect unreceived
messages, tag mismatches, self-sends and collective divergence.
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

#: schedule-structure events emitted by the exchange phases themselves
#: (``begin_phase``/``end_phase``/``record_apply``); replayed by the
#: happens-before checker in :mod:`repro.analysis.commcheck`
SCHEDULE_EVENT_KINDS = (
    "phase_begin",
    "phase_end",
    "apply",
)


class CommEvent(NamedTuple):
    """One recorded communicator operation (a tuple: the log holds
    hundreds of these per step, so no per-instance ``__dict__``).

    ``kind`` is one of ``"send"``, ``"recv"``, ``"recv_missing"`` (a recv
    that found no matching message, recorded before the error is raised),
    ``"collective"`` or ``"barrier"``.  For collectives and barriers
    ``src`` is the participating rank and ``dst`` is ``-1``.

    Under fault injection (:mod:`repro.resilience`) the log additionally
    carries fault events (:data:`FAULT_EVENT_KINDS`: an injected drop,
    duplicate, corruption, delay, or rank failure) and the recovery
    actions that repaired them (:data:`RECOVERY_EVENT_KINDS`: a
    retransmit, a late delivery, a receiver-side dedup, a checkpoint
    restore).  The protocol checker pairs the two streams to verify no
    fault went unrecovered (RES001/RES002).

    Exchange phases additionally bracket their traffic with
    :data:`SCHEDULE_EVENT_KINDS`: a ``phase_begin``/``phase_end`` pair
    per exchange (``src = dst = -1``; ``detail`` holds the declared
    cross-rank message count at begin) and, for ordered fold/fill
    phases, one ``apply`` event per run of consecutive canonical-order
    entries applied from one buffer, ``detail`` = its first order index
    (:meth:`record_apply`).  The happens-before
    checker replays these to flag phase overlap on a shared tag
    (COMM007), non-canonical application order (COMM009) and applies
    racing in-flight messages (COMM010).  ``detail`` is 0 for every
    other event kind.
    """

    seq: int
    kind: str
    src: int
    dst: int
    tag: str
    nbytes: int
    detail: int = 0


def _msg_context(op: str, src: int, dst: int, tag: str) -> str:
    """The one message-context format shared by runtime errors and commcheck."""
    return f"{op}: src={src} dst={dst} tag={tag!r}"


class SimComm:
    """An in-process stand-in for an MPI communicator over ``n_ranks``.

    ``device_buffer_bytes`` models the finite GPU memory available for
    communication buffers: messages that do not fit "spill" to pinned host
    memory, WarpX's fall-back for the buffer spikes of large load
    balancing or mesh-refinement-removal steps (paper Sec. V.A.2).  Spills
    are counted (and cost a slowdown factor in the performance model) but
    never fail — exactly the slower-but-safe trade the paper describes.
    """

    #: modelled pinned-host vs device bandwidth ratio for spilled traffic
    SPILL_SLOWDOWN = 4.0

    def __init__(
        self,
        n_ranks: int,
        device_buffer_bytes: Optional[int] = None,
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
        if self.transport.blocking and device_buffer_bytes is not None:
            raise CommunicationError(
                "device-buffer spill modelling needs the loopback transport "
                "(the receiver cannot release a remote sender's buffer)"
            )
        # the local landing store: the loopback wire itself, or the
        # drained inbox of a multi-process endpoint; every entry is
        # (message, msg_id, checksum)
        self._queues: Dict[Tuple[int, int, str], List[Any]] = (
            self.transport.queues
        )
        # accounting
        self.bytes_sent = np.zeros(self.n_ranks, dtype=np.int64)
        self.messages_sent = np.zeros(self.n_ranks, dtype=np.int64)
        self.pair_bytes: Dict[Tuple[int, int], int] = defaultdict(int)
        self.collective_calls = 0
        self.barrier_calls = 0
        # event log replayed by repro.analysis.commcheck
        self.log: List[CommEvent] = []
        self._seq = 0
        # pinned-memory fall-back accounting
        self.device_buffer_bytes = device_buffer_bytes
        self._buffer_in_use = np.zeros(self.n_ranks, dtype=np.int64)
        self.spilled_messages = 0
        self.spilled_bytes = 0
        # -- resilient transport (both None unless attach_resilience) ------
        #: duck-typed fault source: .on_send(src, dst, tag, message)
        self.fault_injector = None
        #: duck-typed recovery policy: .max_retries, .note_retry(), ...
        self.recovery = None
        self._msg_id = 0
        # sender-side retransmission buffer: (msg_id, original message) of
        # dropped/corrupted messages, keyed like the queues
        self._lost: Dict[Tuple[int, int, str], List[Tuple[int, Message]]] = (
            defaultdict(list)
        )
        # in-flight delayed messages: [countdown, msg_id, message]
        self._delayed: Dict[Tuple[int, int, str], List[List[Any]]] = (
            defaultdict(list)
        )
        # receiver-side sequence filter (delivered msg ids per queue key)
        self._delivered: Dict[Tuple[int, int, str], set] = defaultdict(set)

    def _check_rank(self, rank: int, role: str, op: str) -> None:
        if not (0 <= rank < self.n_ranks):
            noun = f"{role} rank" if role else "rank"
            raise CommunicationError(
                f"{op}: {noun} {rank} out of range [0, {self.n_ranks})"
            )

    def _record(
        self, kind: str, src: int, dst: int, tag: str, nbytes: int,
        detail: int = 0,
    ) -> None:
        self.log.append(
            CommEvent(self._seq, kind, src, dst, tag, nbytes, detail)
        )
        self._seq += 1

    def _next_msg_id(self) -> int:
        msg_id = self._msg_id
        self._msg_id += 1
        return msg_id

    def _enqueue(
        self,
        key: Tuple[int, int, str],
        msg: Message,
        msg_id: int,
        checksum: Optional[int],
        event: str = "send",
    ) -> None:
        """Put ``msg`` on the wire: the one spelling of buffer accounting,
        log record and delivery.  ``event`` names a recovery action when
        this is a retransmission; it is logged ahead of the ``send``."""
        src, dst, tag = key
        if event != "send":
            self._record(event, src, dst, tag, msg.nbytes)
        if self.device_buffer_bytes is not None:
            if self._buffer_in_use[src] + msg.nbytes > self.device_buffer_bytes:
                self.spilled_messages += 1
                self.spilled_bytes += msg.nbytes
            else:
                self._buffer_in_use[src] += msg.nbytes
        self._record("send", src, dst, tag, msg.nbytes)
        self.transport.deliver(key, (msg, msg_id, checksum))

    def _dequeue(self, key: Tuple[int, int, str], queue: List[Any]):
        """Pop the oldest entry of ``queue`` and release its buffer space."""
        entry = queue.pop(0)
        if self.device_buffer_bytes is not None:
            self._buffer_in_use[key[0]] = max(
                self._buffer_in_use[key[0]] - entry[0].nbytes, 0
            )
        return entry

    def send(self, src: int, dst: int, payload: Any, tag: str = "") -> None:
        """Enqueue ``payload`` from ``src`` to ``dst`` and account its size.

        ``payload`` is a :class:`~repro.parallel.wire.Message` or one bare
        ndarray; anything else raises :class:`CommunicationError`.  With
        a finite device buffer, the payload occupies buffer space on the
        sender until received; overflow spills to pinned memory.

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
        msg_id = self._next_msg_id()
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
            self._lost[key].append((msg_id, msg))
        elif kind == "delay":
            self._record("fault_delay", src, dst, tag, msg.nbytes)
            self._delayed[key].append([int(extra), msg_id, msg])
        elif kind == "corrupt":
            # checksum of the *original* travels with the mangled copy
            # (the sender computed it before the bit flip)
            self._enqueue(key, extra, msg_id, checksum)
            self._record("fault_corrupt", src, dst, tag, msg.nbytes)
            self._lost[key].append((msg_id, msg))
        elif kind == "duplicate":
            self._enqueue(key, msg, msg_id, checksum)
            self._record("fault_duplicate", src, dst, tag, msg.nbytes)
            self.transport.deliver(key, (msg, msg_id, checksum))
        elif kind is None:
            self._enqueue(key, msg, msg_id, checksum)
        else:
            raise CommunicationError(
                f"fault injector returned unknown action {kind!r}"
            )

    def recv(self, src: int, dst: int, tag: str = "") -> Any:
        """Dequeue the oldest matching message (releases its buffer space).

        Returns what was sent: the :class:`~repro.parallel.wire.Message`,
        or the ndarray of a bare-array send.

        Under an attached fault injector this is the resilient receive:
        duplicate copies are filtered by message id, corrupted payloads
        are detected by checksum and retransmitted from the sender-side
        buffer, and dropped/delayed messages are recovered by the retry
        loop of the attached policy.  A fault that cannot be recovered
        raises :class:`~repro.exceptions.ResilienceError` — never a
        silent wrong payload.
        """
        self._check_rank(src, "src", "recv")
        self._check_rank(dst, "dst", "recv")
        key = (src, dst, tag)
        if self.fault_injector is not None:
            return self._recv_resilient(key).unwrap()
        self.transport.drain()
        while not self._queues.get(key):
            if not self.transport.wait(key):
                self._raise_no_message(src, dst, tag)
            self.transport.drain()
        msg, _msg_id, checksum = self._dequeue(key, self._queues[key])
        self._record("recv", src, dst, tag, msg.nbytes)
        if checksum is not None and msg.crc != checksum:
            raise ResilienceError(
                "corrupted message detected "
                f"({_msg_context('recv', src, dst, tag)}) with no fault "
                "injector attached: the transport itself mangled the payload"
            )
        return msg.unwrap()

    def _raise_no_message(self, src: int, dst: int, tag: str) -> None:
        """Nothing to receive: recorded as ``recv_missing`` (the audit
        trail shows where the run stalled) and raised with full message
        context, never a silent hang.  On a blocking transport the recv
        ran out of patience, so the peer is likely dead
        (:class:`ResilienceError`); on loopback the message was never
        sent (:class:`CommunicationError`)."""
        self._record("recv_missing", src, dst, tag, 0)
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
        self, key: Tuple[int, int, str], msg: Message, msg_id: int
    ) -> bool:
        """The receiver-side sequence filter: a copy of an already
        delivered message is discarded (and logged as ``recover_dedup``)."""
        if msg_id not in self._delivered[key]:
            return False
        self._record("recover_dedup", key[0], key[1], key[2], msg.nbytes)
        if self.recovery is not None:
            self.recovery.note_dedup()
        return True

    def _recv_resilient(self, key: Tuple[int, int, str]) -> Message:
        """The receive loop of the resilient transport (injector attached)."""
        src, dst, tag = key
        policy = self.recovery
        max_retries = policy.max_retries if policy is not None else 0
        attempts = 0
        while True:
            self.transport.drain()
            queue = self._queues.get(key)
            while queue:
                msg, msg_id, checksum = self._dequeue(key, queue)
                if self._is_duplicate(key, msg, msg_id):
                    continue
                self._record("recv", src, dst, tag, msg.nbytes)
                if checksum is None or msg.crc == checksum:
                    self._delivered[key].add(msg_id)
                    return msg
                # corrupted in transit.  On a blocking transport the
                # original lives in the *sender's* process: NACK it and
                # wait for the retransmission (the sender records the
                # recover_retry, pairing the fault on its own log);
                # on loopback the sender-side buffer is right here
                if policy is None:
                    resent = False
                elif self.transport.blocking:
                    self.transport.request_retransmit(key, msg_id)
                    resent = True
                else:
                    resent = self.service_nack(key, msg_id, attempts)
                if not resent:
                    raise ResilienceError(
                        "corrupted message detected "
                        f"({_msg_context('recv', src, dst, tag)}) and no "
                        "recovery policy is attached to retransmit it"
                    )
                queue = self._queues.get(key)
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
        self, key: Tuple[int, int, str], msg_id: int, attempt: int = 0
    ) -> bool:
        """Retransmit the buffered original of a corrupted message.

        A receiver detected a checksum mismatch on ``msg_id``; the
        original sits in the sender's retransmission buffer.  It goes
        out again under a new message id with its own checksum, and the
        ``recover_retry`` is recorded on the *sender's* log (where the
        ``fault_corrupt`` it pairs with also lives).  False when the
        buffer no longer holds that message.
        """
        for i, (lost_id, msg) in enumerate(self._lost.get(key, ())):
            if lost_id == msg_id:
                del self._lost[key][i]
                if self.recovery is not None:
                    self.recovery.note_retry(attempt)
                self._enqueue(
                    key, msg, self._next_msg_id(), msg.crc, "recover_retry"
                )
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
        for _countdown, msg_id, msg in ready:
            if policy is not None:
                policy.note_redeliver()
            self._enqueue(key, msg, msg_id, msg.crc, "recover_redeliver")
        if ready:
            self._delayed[key] = [e for e in delayed if e[0] > 0]
        else:
            msg_id, msg = lost.pop(0)
            if policy is not None:
                policy.note_retry(attempt)
            self._enqueue(key, msg, msg_id, msg.crc, "recover_retry")
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

    # -- schedule structure (replayed by the happens-before checker) --------
    def begin_phase(self, tag: str, n_messages: int = 0) -> None:
        """Mark the start of an exchange phase operating on ``tag``.

        ``n_messages`` is the number of *cross-rank* messages the phase
        intends to move (same-rank overlaps are local copies and never
        touch the communicator — declaring only cross-rank traffic is
        what keeps single-rank decompositions clean under the pair
        accounting of the happens-before checker).
        """
        self._record("phase_begin", -1, -1, tag, 0, detail=int(n_messages))

    def end_phase(self, tag: str) -> None:
        """Mark the end of the exchange phase operating on ``tag``."""
        self._record("phase_end", -1, -1, tag, 0)

    @contextmanager
    def exchange(
        self,
        tag: str,
        pairs: Iterable[Tuple[int, int]],
        outgoing: Mapping[Tuple[int, int], Any],
    ) -> Iterator[List[Message]]:
        """Run one exchange phase on ``tag``, end to end (a context manager).

        ``pairs``: every ordered cross-rank ``(src, dst)`` pair of the
        phase, derived identically on every rank; ``outgoing``: the
        payload of each pair this endpoint sources.  Declares exactly
        what it posts, posts every send (sorted pairs) before the first
        receive, and hands the ``with`` body the received
        :class:`Message` list with the phase still open — apply, and
        :meth:`record_apply`, there.  A body that raises leaves the phase
        open; it must not write ``outgoing`` buffers, which loopback
        hands to the receiver as they are (static COMM010).
        """
        pairs = sorted(pairs)
        # an SPMD endpoint speaks for one rank; loopback for all of them
        sends = [p for p in pairs if self.local_rank in (None, p[0])]
        recvs = [p for p in pairs if self.local_rank in (None, p[1])]
        self.begin_phase(tag, n_messages=len(sends))
        for src, dst in sends:
            self.send(src, dst, outgoing[(src, dst)], tag=tag)
        yield [as_message(self.recv(src, dst, tag=tag)) for src, dst in recvs]
        self.end_phase(tag)

    def record_apply(self, tag: str, order: int, nbytes: int = 0) -> None:
        """Log one run of an ordered phase: a maximal run of consecutive
        canonical-order entries drawn from one buffer, ``order`` its first
        entry's index, ``nbytes`` its bytes.  The checker requires the
        orders within a phase to be strictly increasing (COMM009) and
        every apply to follow the phase's traffic (COMM010).
        """
        self._record("apply", -1, -1, tag, nbytes, detail=int(order))

    def pending(self) -> int:
        """Number of undelivered messages (should be 0 between phases)."""
        return sum(len(q) for q in self._queues.values())

    def allreduce_sum(
        self, values: np.ndarray, rank: Optional[int] = None
    ) -> np.ndarray:
        """Model an allreduce: account ~2 log2(P) message rounds per rank.

        ``rank=None`` models the whole collective at once (every rank
        participates); passing a rank records that rank's participation
        only, letting tests and the protocol checker model divergence
        (some ranks reaching the collective, others not).
        """
        if rank is not None:
            self._check_rank(rank, "", "allreduce_sum")
        if self.transport.blocking:
            # a real reduction across worker processes; the modelled
            # accounting below is unchanged so counters stay transport-
            # independent
            if rank is None:
                raise CommunicationError(
                    "allreduce_sum on a blocking transport needs the "
                    "calling rank (every worker participates explicitly)"
                )
            values = self.transport.allreduce(values)
        self.collective_calls += 1
        nbytes = int(np.asarray(values).nbytes)
        rounds = max(int(np.ceil(np.log2(max(self.n_ranks, 2)))), 1)
        if rank is None:
            self.bytes_sent += nbytes * rounds
            self.messages_sent += rounds
            for r in range(self.n_ranks):
                self._record("collective", r, -1, "allreduce_sum", nbytes)
        else:
            self.bytes_sent[rank] += nbytes * rounds
            self.messages_sent[rank] += rounds
            self._record("collective", rank, -1, "allreduce_sum", nbytes)
        return values

    def barrier(self, rank: Optional[int] = None) -> None:
        """Record a barrier; per-rank participation mirrors allreduce_sum.

        On a blocking transport this is additionally a *real* rendezvous:
        no worker proceeds until every rank has arrived.
        """
        if self.transport.blocking:
            self.transport.sync()
        self.barrier_calls += 1
        if rank is None:
            for r in range(self.n_ranks):
                self._record("barrier", r, -1, "barrier", 0)
        else:
            self._check_rank(rank, "", "barrier")
            self._record("barrier", rank, -1, "barrier", 0)

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
        audit trail the protocol checker replays)."""
        self.bytes_sent[:] = 0
        self.messages_sent[:] = 0
        self.pair_bytes.clear()
        self.collective_calls = 0
        self.barrier_calls = 0

    def clear_log(self) -> None:
        """Drop the recorded event history (e.g. between benchmark phases)."""
        self.log.clear()
