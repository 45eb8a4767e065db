"""One worker process per rank: SimComm over ``multiprocessing``.

:class:`MultiprocessingTransport` is the blocking counterpart of the
in-process loopback: every rank runs in its own forked worker, each with
one ``multiprocessing.Queue`` inbox, and messages — the same
``(message, msg_id, checksum)`` entries the loopback queues hold — cross
a real process boundary, laid out by :mod:`repro.parallel.wire` (one
block per message: in the pipe when small, in one run-scoped
shared-memory segment when large, swept here when the workers are gone).

The resilience layer stays load-bearing across the boundary: CRC32
checksums are always computed (the wire is real here), a receiver that
detects corruption NACKs the sender's retransmission buffer, and a
receiver that sees nothing arrive probes the sender, driving the
delayed-message countdowns and lost-message retransmits that the
loopback transport services in-process.  Every blocking wait — receive,
barrier, reduction — is one deadline loop (``_pump_until``) servicing
all control traffic, so recovery cannot deadlock behind a collective; a
starved receive probes once per :data:`POLL_INTERVAL`, busy inbox or not.

Quiescence is count-exact: :meth:`MultiprocessingTransport.sync` sends a
sequence-numbered token to every peer and dispatches the inbox until all
peers' tokens arrive.  ``multiprocessing.Queue`` preserves per-producer
FIFO order, so holding rank *r*'s token proves every message *r* sent
before the barrier has already been drained into the local queues.

:func:`run_distributed_mp` is the SPMD driver: each worker builds the
*same* :class:`~repro.parallel.distributed.DistributedSimulation`
deterministically, computes only the boxes its rank owns, and ships its
owned state, counters and event log back to the parent, which folds them
into the single-view shape of :class:`MPRunResult` — the object the
cross-transport differential tests compare bit-for-bit; a loopback run
(:func:`run_distributed_local`) is the one-state case of the same fold.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue as queue_mod
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import count
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.diagnostics.timers import now
from repro.exceptions import CommunicationError, ResilienceError
from repro.parallel import wire
from repro.parallel.transport import (
    ChannelKey,
    CommCounters,
    Transport,
    merge_comm_counters,
    merge_rank_logs,
)

#: inbox poll period in seconds; also the probe cadence while starved
POLL_INTERVAL = 0.02


class MultiprocessingTransport(Transport):
    """A SimComm endpoint living in one worker process.

    All inter-rank traffic flows through per-rank inbox queues shared by
    fork inheritance; :meth:`drain` moves arrived data messages into the
    local landing store (:attr:`queues`, aliased by ``SimComm._queues``)
    and services control messages — retransmit NACKs, probes, barrier
    tokens, reduction parts — as a side effect.
    """

    kind = "multiprocessing"
    blocking = True

    def __init__(
        self,
        local_rank: int,
        n_ranks: int,
        inboxes: Sequence[Any],
        recv_timeout: float = 30.0,
    ) -> None:
        if not (0 <= local_rank < n_ranks):
            raise CommunicationError(
                f"local rank {local_rank} out of range [0, {n_ranks})"
            )
        if len(inboxes) != n_ranks:
            raise CommunicationError(
                f"need one inbox per rank: got {len(inboxes)} for {n_ranks}"
            )
        self.local_rank = int(local_rank)
        self.n_ranks = int(n_ranks)
        self._inboxes = list(inboxes)
        self._inbox = self._inboxes[self.local_rank]
        #: seconds a blocking recv waits before declaring the peer dead
        self.recv_timeout = float(recv_timeout)
        self.queues: Dict[ChannelKey, List[Any]] = defaultdict(list)
        # segment names: <run prefix><rank>-<sequence>.  Workers are
        # forked by run_spmd, whose pid scopes the run (and its sweep)
        stem = f"{wire.segment_prefix(os.getppid())}{self.local_rank}-"
        self._segment_names = (f"{stem}{n}" for n in count())
        self._sync_seq = 0
        self._sync_seen: Dict[int, set] = {}
        self._reduce_seq = 0
        self._reduce_parts: Dict[int, Dict[int, np.ndarray]] = {}
        self._reduce_results: Dict[int, np.ndarray] = {}

    # -- outbound ----------------------------------------------------------
    def deliver(self, key: ChannelKey, entry: Tuple) -> None:
        src, dst, tag = key
        if dst == self.local_rank:
            # self-delivery (possible for retransmissions of a local
            # loop): land directly, no wire involved
            self.queues[key].append(entry)
            return
        if src != self.local_rank:
            raise CommunicationError(
                f"SPMD endpoint of rank {self.local_rank} cannot send as "
                f"rank {src}: each worker only speaks for itself"
            )
        msg, msg_id, checksum = entry
        encoded = wire.encode(msg, next(self._segment_names))
        self._inboxes[dst].put(("data", key, encoded, msg_id, checksum))

    def request_retransmit(self, key: ChannelKey, msg_id: Optional[int]) -> None:
        self._inboxes[key[0]].put(("nack", key, msg_id))

    # -- inbound -----------------------------------------------------------
    def _dispatch(self, msg: Tuple) -> int:
        kind = msg[0]
        if kind == "data":
            _, key, encoded, msg_id, checksum = msg
            self.queues[key].append((wire.decode(encoded), msg_id, checksum))
            return 1
        if kind == "nack":
            self.comm.service_nack(msg[1], msg[2])
            return 0
        if kind == "probe":
            self.comm.service_probe(msg[1])
            return 0
        if kind == "sync":
            _, seq, src = msg
            self._sync_seen.setdefault(seq, set()).add(src)
            return 0
        if kind == "reduce":
            _, seq, src, arr = msg
            self._reduce_parts.setdefault(seq, {})[src] = arr
            return 0
        if kind == "reduce_result":
            self._reduce_results[msg[1]] = msg[2]
            return 0
        raise CommunicationError(f"unknown wire message kind {kind!r}")

    def drain(self) -> int:
        n = 0
        while True:
            try:
                msg = self._inbox.get_nowait()
            except queue_mod.Empty:
                return n
            n += self._dispatch(msg)

    def pump(self) -> int:
        """One short blocking poll of the inbox (plus a full drain)."""
        try:
            msg = self._inbox.get(timeout=POLL_INTERVAL)
        except queue_mod.Empty:
            return 0
        return self._dispatch(msg) + self.drain()

    def _pump_until(
        self, done: Callable[[], bool], probe_key: Optional[ChannelKey] = None
    ) -> bool:
        """:meth:`pump` until ``done()``; False if ``recv_timeout`` elapses
        first (the caller words the error).  With ``probe_key``
        that channel's source is probed once per ``POLL_INTERVAL`` of
        waiting, by the clock: probes drive the *sender-side* recovery
        (delayed-message countdowns, lost-message retransmits), and an
        inbox kept busy by a peer's own probes must not starve them.
        """
        deadline = now() + self.recv_timeout
        next_probe = now() + POLL_INTERVAL
        while not done():
            t = now()
            if t >= deadline:
                return False
            if probe_key is not None and t >= next_probe:
                self._inboxes[probe_key[0]].put(("probe", probe_key))
                next_probe = t + POLL_INTERVAL
            self.pump()
        return True

    def wait(self, key: ChannelKey) -> bool:
        """Block until data arrives (any channel), probing ``key``'s source.

        Returns False only when ``recv_timeout`` elapses with no data at
        all — the caller turns that into a :class:`ResilienceError`,
        never a hang.
        """
        before = self.comm.pending()
        return self._pump_until(
            lambda: self.comm.pending() > before,
            probe_key=key if key[0] != self.local_rank else None,
        )

    # -- collectives -------------------------------------------------------
    def sync(self) -> None:
        """Count-exact quiescent barrier over all ranks.

        Per-producer FIFO of the inbox queues guarantees that once every
        peer's token (for this barrier's sequence number) has been
        dispatched, every message sent before the barrier has landed in
        the local queues — the property the differential tests rely on
        when they reconcile counters after a run.
        """
        if self.n_ranks == 1:
            return
        self._sync_seq += 1
        seq = self._sync_seq
        for r in range(self.n_ranks):
            if r != self.local_rank:
                self._inboxes[r].put(("sync", seq, self.local_rank))
        seen = self._sync_seen.setdefault(seq, set())
        if not self._pump_until(lambda: len(seen) >= self.n_ranks - 1):
            missing = sorted(set(range(self.n_ranks)) - {self.local_rank} - seen)
            raise ResilienceError(
                f"barrier {seq} timed out after {self.recv_timeout}s "
                f"on rank {self.local_rank}: no token from rank(s) "
                f"{missing} — worker(s) likely died"
            )
        del self._sync_seen[seq]

    def allreduce(self, values: np.ndarray) -> np.ndarray:
        """A real sum-reduction: gather to rank 0, broadcast the total.

        Contributions are summed in rank order, so the result is
        deterministic; when each vector entry is owned by exactly one
        rank (the SPMD cost vectors), the sum is bit-identical to the
        vector a loopback run assembles directly.
        """
        arr = np.asarray(values)
        if self.n_ranks == 1:
            return values
        self._reduce_seq += 1
        seq = self._reduce_seq

        def pump_until(done: Callable[[], bool], what: str) -> None:
            if not self._pump_until(done):
                raise ResilienceError(
                    f"allreduce {seq} timed out after "
                    f"{self.recv_timeout}s on rank {self.local_rank} "
                    f"waiting for {what}"
                )

        if self.local_rank == 0:
            pump_until(
                lambda: len(self._reduce_parts.get(seq, {}))
                >= self.n_ranks - 1,
                "contributions",
            )
            parts = self._reduce_parts.pop(seq)
            total = np.array(arr, copy=True)
            for r in sorted(parts):
                total = total + parts[r]
            for r in range(1, self.n_ranks):
                self._inboxes[r].put(("reduce_result", seq, total))
            return total
        self._inboxes[0].put(("reduce", seq, self.local_rank, arr))
        pump_until(lambda: seq in self._reduce_results, "the result")
        return self._reduce_results.pop(seq)

    def flush(self) -> None:
        """Block until everything this rank sent has left the process:
        queue feeder threads die with it, and a barrier token still
        buffered there leaves a slower peer waiting until its timeout.
        Only safe while every peer is alive and reading, i.e. right
        after a successful :meth:`sync`."""
        for r, q in enumerate(self._inboxes):
            if r != self.local_rank:
                q.close()
                q.join_thread()

    def close(self) -> None:
        """Detach from the inbox queues without blocking on flush.

        After the final :meth:`sync` all traffic is proven delivered and
        the inbox is empty; on an error path it may still hold encoded
        messages nobody will read; those are decoded and dropped, which
        is what frees a shared-memory carrier (control messages are
        dropped unserviced).  Cancelling the feeder join keeps that exit
        from hanging on messages this rank sent to a dead peer.
        """
        while True:
            try:
                msg = self._inbox.get_nowait()
            except queue_mod.Empty:
                break
            if msg[0] == "data":
                wire.decode(msg[2])
        for q in self._inboxes:
            q.cancel_join_thread()


# -- SPMD process runner -------------------------------------------------


def _spmd_worker_main(
    rank: int,
    n_ranks: int,
    inboxes: List[Any],
    worker_fn: Callable,
    result_q: Any,
    recv_timeout: float,
) -> None:
    transport = MultiprocessingTransport(rank, n_ranks, inboxes, recv_timeout)
    try:
        out = worker_fn(rank, transport)
        # all traffic proven delivered before anyone tears down
        transport.sync()
        transport.flush()
        result_q.put((rank, "ok", out))
    except BaseException:
        result_q.put((rank, "error", traceback.format_exc()))
    finally:
        result_q.close()
        result_q.join_thread()
        transport.close()


def run_spmd(
    n_ranks: int,
    worker_fn: Callable[[int, MultiprocessingTransport], Any],
    recv_timeout: float = 30.0,
    run_timeout: float = 300.0,
) -> List[Any]:
    """Run ``worker_fn(rank, transport)`` in one forked process per rank.

    Returns the per-rank results in rank order.  A worker that raises —
    including a :class:`ResilienceError` from a receive that timed out
    on a dead peer — or dies outright turns into one aggregated
    :class:`ResilienceError` carrying every failed rank's traceback, and
    every surviving worker is terminated; the parent never hangs past
    ``run_timeout``.  However the run ends, no shared-memory segment of
    it survives: once the workers are gone, whatever a dead or failed
    receiver left behind is swept by the run's name prefix.  That prefix
    is this process's pid, so one process runs one ``run_spmd`` at a
    time: it is not re-entrant (two overlapping calls, say from threads,
    would share segment names and sweep each other's messages).
    """
    if n_ranks < 1:
        raise CommunicationError(f"need at least one rank, got {n_ranks}")
    ctx = mp.get_context("fork")
    inboxes = [ctx.Queue() for _ in range(n_ranks)]
    result_q = ctx.Queue()
    procs = [
        ctx.Process(
            target=_spmd_worker_main,
            args=(r, n_ranks, inboxes, worker_fn, result_q, recv_timeout),
            daemon=True,
        )
        for r in range(n_ranks)
    ]
    segments = wire.segment_prefix(os.getpid())
    wire.sweep_segments(segments)  # a killed earlier run with this pid
    for p in procs:
        p.start()
    results: Dict[int, Any] = {}
    errors: Dict[int, str] = {}
    deadline = now() + run_timeout
    try:
        while len(results) + len(errors) < n_ranks:
            try:
                rank, status, payload = result_q.get(timeout=0.2)
                (results if status == "ok" else errors)[rank] = payload
                continue
            except queue_mod.Empty:
                pass
            for r, p in enumerate(procs):
                if (
                    p.exitcode is not None
                    and p.exitcode != 0
                    and r not in results
                    and r not in errors
                ):
                    errors[r] = (
                        f"worker process for rank {r} exited with code "
                        f"{p.exitcode} without reporting a result"
                    )
            if now() > deadline:
                missing = sorted(
                    set(range(n_ranks)) - set(results) - set(errors)
                )
                raise ResilienceError(
                    f"SPMD run timed out after {run_timeout}s; no result "
                    f"from rank(s) {missing}"
                )
    finally:
        for p in procs:
            if p.is_alive():
                p.terminate()
        for p in procs:
            p.join(timeout=5.0)
        for q in inboxes:
            q.cancel_join_thread()
        result_q.cancel_join_thread()
        wire.sweep_segments(segments)
    if errors:
        report = "\n".join(
            f"--- rank {r} ---\n{errors[r]}" for r in sorted(errors)
        )
        raise ResilienceError(
            f"{len(errors)} worker(s) failed during the SPMD run:\n{report}"
        )
    return [results[r] for r in range(n_ranks)]


@dataclass
class MPRunResult:
    """Everything a multi-process run hands back, in loopback shape.

    ``fields``/``species`` hold each box's state from the rank that
    owned it at the end of the run; ``counters`` is the
    :func:`merge_comm_counters` fold of the per-rank counter snapshots
    and ``merged_log`` the :func:`merge_rank_logs` interleaving of the
    per-rank event logs (fault-free runs only — ``rank_logs`` keeps the
    raw per-rank streams either way).
    """

    n_ranks: int
    n_steps: int
    fields: Dict[int, Dict[str, np.ndarray]]
    species: Dict[str, Dict[int, Dict[str, np.ndarray]]]
    assignment: np.ndarray
    counters: CommCounters
    rank_counters: List[CommCounters]
    rank_logs: List[List[Any]]
    merged_log: Optional[List[Any]]
    halo: Dict[str, int]
    lb_events: List[int]
    lb_moved_bytes: int
    recovery: List[Dict[str, float]]
    rank_walls: List[float]
    wall_time: float = 0.0
    rank_metrics: List[Optional[Dict[str, Any]]] = field(default_factory=list)

    def total_particles(self) -> int:
        return sum(
            arrays["ids"].size
            for per_box in self.species.values()
            for arrays in per_box.values()
        )


def _collect_worker_state(sim) -> Dict[str, Any]:
    """Pack one worker's owned state and accounting for the parent."""
    fields = {}
    species: Dict[str, Dict[int, Dict[str, np.ndarray]]] = {}
    for i in range(len(sim.boxes)):
        if not sim.owns_box(i):
            continue
        fields[i] = {
            comp: np.array(arr, copy=True)
            for comp, arr in sim.box_grids[i].fields.items()
        }
    for name, dsp in sim.species.items():
        species[name] = {}
        for i, sp in enumerate(dsp.per_box):
            if not sim.owns_box(i):
                continue
            species[name][i] = {
                "positions": np.array(sp.positions, copy=True),
                "momenta": np.array(sp.momenta, copy=True),
                "weights": np.array(sp.weights, copy=True),
                "ids": np.array(sp.ids, copy=True),
            }
    recovery = {}
    if sim.comm.recovery is not None:
        recovery = {
            k: v
            for k, v in vars(sim.comm.recovery.stats).items()
            if isinstance(v, (int, float)) and not k.startswith("_")
        }
    return {
        "fields": fields,
        "species": species,
        "assignment": np.array(sim.dm.assignment, copy=True),
        "counters": CommCounters.from_comm(sim.comm),
        "log": list(sim.comm.log),
        "halo": {
            "samples": sim.halo_samples,
            "payload_bytes": sim.halo_payload_bytes,
            "messages": sim.halo_messages,
        },
        "lb_events": list(sim.lb_events),
        "lb_moved_bytes": sim.lb_moved_bytes,
        "recovery": recovery,
        "metrics": sim.metrics.snapshot() if sim.metrics is not None else None,
    }


def _run_rank(build: Callable[..., Any], n_steps: int, transport=None):
    """Build, step and collect one endpoint: a worker's rank, or — with
    no transport — the loopback simulation that holds every rank."""
    sim = build(transport=transport)
    if transport is not None and sim.comm.transport is not transport:
        raise CommunicationError(
            "build() must pass the given transport to "
            "DistributedSimulation(transport=...)"
        )
    t0 = now()
    sim.step(n_steps)
    wall = now() - t0
    # rendezvous before collection so late retransmissions and control
    # traffic are fully settled on every endpoint (loopback: a no-op)
    sim.comm.transport.sync()
    state = _collect_worker_state(sim)
    state["wall"] = wall
    return state


def _fold_states(
    states: Sequence[Dict[str, Any]],
    n_steps: int,
    wall_time: float,
    merge_logs: bool,
) -> MPRunResult:
    """Fold per-endpoint states into the single-view :class:`MPRunResult`
    (one state — a loopback run — folds to itself)."""
    n_ranks = states[0]["counters"].n_ranks
    fields: Dict[int, Dict[str, np.ndarray]] = {}
    species: Dict[str, Dict[int, Dict[str, np.ndarray]]] = {}
    for state in states:
        for i, comps in state["fields"].items():
            if i in fields:
                raise CommunicationError(
                    f"box {i} reported by two ranks: diverging ownership"
                )
            fields[i] = comps
        for name, per_box in state["species"].items():
            species.setdefault(name, {}).update(per_box)
    assignments = [state["assignment"] for state in states]
    for other in assignments[1:]:
        if not np.array_equal(assignments[0], other):
            raise CommunicationError(
                "final distribution mappings diverge across ranks — the "
                "workers did not run the same schedule"
            )
    rank_counters = [state["counters"] for state in states]
    rank_logs = [state["log"] for state in states]
    halo = {"samples": 0, "payload_bytes": 0, "messages": 0}
    for state in states:
        for k in halo:
            halo[k] += state["halo"][k]
    lb_events = states[0]["lb_events"]
    merged_log = None
    if merge_logs:
        # a lone endpoint's log already is the global one (and stays
        # defined under fault injection, where logs do not interleave)
        merged_log = (
            list(rank_logs[0]) if len(states) == 1
            else merge_rank_logs(rank_logs, n_ranks)
        )
    return MPRunResult(
        n_ranks=n_ranks,
        n_steps=n_steps,
        fields=fields,
        species=species,
        assignment=assignments[0],
        counters=merge_comm_counters(rank_counters),
        rank_counters=rank_counters,
        rank_logs=rank_logs,
        merged_log=merged_log,
        halo=halo,
        lb_events=lb_events,
        lb_moved_bytes=sum(state["lb_moved_bytes"] for state in states),
        recovery=[state["recovery"] for state in states],
        rank_walls=[state["wall"] for state in states],
        wall_time=wall_time,
        rank_metrics=[state["metrics"] for state in states],
    )


def run_distributed_local(
    build: Callable[..., Any],
    n_steps: int,
    merge_logs: bool = True,
) -> MPRunResult:
    """The loopback twin of :func:`run_distributed_mp`.

    Runs ``build(transport=None)`` in-process (all ranks local) and
    packs the outcome into the same :class:`MPRunResult` shape — the
    one-state case of the fold the multi-process run performs — so the
    differential tests compare the two transports field by field without
    caring which side is which.
    """
    state = _run_rank(build, n_steps)
    return _fold_states([state], n_steps, state["wall"], merge_logs)


def run_distributed_mp(
    build: Callable[..., Any],
    n_steps: int,
    n_ranks: int,
    recv_timeout: float = 30.0,
    run_timeout: float = 300.0,
    merge_logs: bool = True,
) -> MPRunResult:
    """Step a DistributedSimulation ``n_steps`` with one process per rank.

    ``build(transport)`` must construct the simulation — species
    included — as a pure function of its argument: every worker calls it
    with its own endpoint and must end up with the same boxes,
    distribution mapping and initial particles (verified cheap proxies:
    diverging schedules deadlock or fail the merge).  Pass
    ``merge_logs=False`` for fault-injected runs, whose per-rank logs
    carry rank-local recovery pairings that do not interleave.
    """
    t0 = now()
    states = run_spmd(
        n_ranks,
        lambda rank, transport: _run_rank(build, n_steps, transport),
        recv_timeout=recv_timeout,
        run_timeout=run_timeout,
    )
    return _fold_states(states, n_steps, now() - t0, merge_logs)
