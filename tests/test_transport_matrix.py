"""The cross-transport differential matrix (tentpole acceptance).

Every suite here runs the same scenario through the in-process loopback
transport and through the real one-worker-process-per-rank
multiprocessing transport, and demands *bit-identical* outcomes: fields,
particles, communication counters, halo totals, LB history.  The
equivalence story is the product — the loopback transport is the
verification oracle for the real one, and the real one proves the
loopback's protocol (aggregated pairwise messages, canonical apply
order, count-exact phases) actually survives process boundaries, OS
scheduling and shared-memory hops.

Satellites living here:

* seeded fault-injection fuzz replayed through the multiprocessing
  backend, asserting recovery reproduces the fault-free loopback run to
  the last bit (the resilience layer is load-bearing on a real wire);
* a stress/ordering test with many concurrent tagged messages per rank
  pair, reconciled against ``pair_bytes_for_tag`` and the commlog JSONL
  replay under real process interleaving;
* the killed-worker regression: a blocking recv on a dead peer raises
  :class:`ResilienceError` with full ``src/dst/tag`` context instead of
  hanging;
* the unsupported-feature contract of per-process transports
  (checkpointing, rank-failure faults, device spill buffers, global
  views).
"""

import os
import queue
import time

import numpy as np
import pytest

from repro.analysis.commcheck import check_comm
from repro.exceptions import (
    CommunicationError,
    ConfigurationError,
    ResilienceError,
)
from repro.observability.commlog import (
    CommLogReplay,
    read_comm_log,
    write_comm_log,
)
from repro.observability.metrics import merge_snapshots
from repro.parallel.comm import (
    FAULT_EVENT_KINDS, RECOVERY_EVENT_KINDS, SimComm, payload_nbytes,
)
from repro.parallel.distributed import DistributedSimulation
from repro.parallel.mp_transport import (
    POLL_INTERVAL,
    MultiprocessingTransport,
    run_distributed_local,
    run_distributed_mp,
    run_spmd,
)
from repro.parallel.transport import (
    LoopbackTransport,
    merge_comm_counters,
    merge_rank_logs,
    pair_bytes_for_tag,
)
from repro.resilience import FaultSchedule, FaultSpec, RecoveryPolicy

from tests.conftest import (
    PARITY_RANKS,
    assert_runs_equal,
    make_langmuir_build,
    make_skewed_lb_build,
    migrated_boxes_carry_fields,
)

STEPS = 10


# -- golden parity -----------------------------------------------------------


def test_golden_langmuir_bit_identical():
    """THE acceptance test: the golden scenario on 4 worker processes is
    bit-identical to loopback — every box's fields and particles, the
    merged per-rank comm counters, halo totals and pair-byte matrix —
    and the merged event log replays clean through every protocol
    detector."""
    build = make_langmuir_build(uy=0.3)
    want = run_distributed_local(build, STEPS)
    got = run_distributed_mp(build, STEPS, PARITY_RANKS)
    assert_runs_equal(got, want)
    # per-rank counters really were partial views, not copies
    assert all(
        c.total_messages() < got.counters.total_messages()
        for c in got.rank_counters
    )
    report = check_comm(CommLogReplay(got.merged_log, PARITY_RANKS))
    assert report.ok, report.format()
    # the loopback log replays clean too — same audit, same verdict
    report = check_comm(CommLogReplay(want.merged_log, PARITY_RANKS))
    assert report.ok, report.format()


def test_dynamic_lb_golden_bit_identical():
    """Dynamic LB on the multiprocessing transport: heuristic costs go
    through a real gather+broadcast reduction, every rank derives the
    same rebalance, and migrated state matches loopback bit for bit."""
    build = make_skewed_lb_build()
    want = run_distributed_local(build, 6)
    assert any(m > 0 for m in want.lb_events)
    assert migrated_boxes_carry_fields(build, want)
    got = run_distributed_mp(build, 6, PARITY_RANKS)
    assert_runs_equal(got, want)


def test_merged_metrics_snapshot_matches_loopback():
    """Per-rank observability snapshots merge to the loopback registry:
    summed counters/gauges, max-merged imbalance."""
    from repro.observability import attach_observability

    def observed(base_build):
        def build(transport=None):
            sim = base_build(transport=transport)
            attach_observability(sim)
            return sim

        return build

    build = observed(make_langmuir_build(uy=0.3))
    want = run_distributed_local(build, 6)
    got = run_distributed_mp(build, 6, PARITY_RANKS)
    assert want.rank_metrics[0] is not None
    merged = merge_snapshots([m for m in got.rank_metrics if m is not None])
    ref = want.rank_metrics[0]
    for mid in (
        "comm.messages",
        "comm.collectives",
        "halo.bytes",
        "halo.messages",
        "halo.guard_cells",
        "particles.pushed",
        "particles.live",
    ):
        if mid in ref:
            assert merged.get(mid) == ref[mid], mid
    # every comm pair metric reconciles exactly
    for mid, value in ref.items():
        if mid.startswith("comm.pair_bytes"):
            assert merged.get(mid) == value, mid


# -- satellite: seeded fault-injection fuzz ----------------------------------


def assert_faults_audited_clean(run):
    """The merged per-rank logs of a fault-injected run replay clean:
    every fault is in the log, and so is its recovery."""
    kinds = {ev.kind for ev in run.merged_log}
    assert kinds & set(FAULT_EVENT_KINDS) and kinds & set(RECOVERY_EVENT_KINDS)
    report = check_comm(CommLogReplay(run.merged_log, PARITY_RANKS))
    assert report.ok, report.format()



@pytest.mark.parametrize("seed", [1, 2, 7])
def test_fuzz_faults_recover_to_fault_free_loopback(seed):
    """Seeded drop/duplicate/corrupt/delay scenarios replayed through
    the multiprocessing transport: the resilience layer (checksums,
    NACK retransmits, probe-driven redelivery, dedup) fully masks every
    injected fault — physics and comm accounting equal the *fault-free*
    loopback run to the last bit."""
    schedule = FaultSchedule.random(
        seed, n_faults=6, max_step=STEPS - 2, n_ranks=PARITY_RANKS
    )
    clean = run_distributed_local(make_langmuir_build(uy=0.3), STEPS)
    got = run_distributed_mp(
        make_langmuir_build(
            uy=0.3, fault_schedule=schedule, recovery=RecoveryPolicy()
        ),
        STEPS,
        PARITY_RANKS,
    )
    assert_runs_equal(got, clean)
    # the faults really fired and really were recovered on the wire
    recovered = sum(sum(r.values()) for r in got.recovery if r)
    assert recovered > 0
    assert_faults_audited_clean(got)


@pytest.mark.parametrize(
    "kind", ["drop", "duplicate", "corrupt", "delay"]
)
def test_each_fault_kind_recovers_on_the_wire(kind):
    """One deliberate fault of each kind on halo traffic, pinned to a
    single source rank, recovered across a real process boundary."""
    schedule = FaultSchedule(
        [FaultSpec(kind=kind, step=2, src=1, delay=2)], seed=3
    )
    clean = run_distributed_local(make_langmuir_build(), 5)
    got = run_distributed_mp(
        make_langmuir_build(
            fault_schedule=schedule, recovery=RecoveryPolicy()
        ),
        5,
        PARITY_RANKS,
    )
    assert_runs_equal(got, clean)
    recovered = sum(sum(r.values()) for r in got.recovery if r)
    assert recovered > 0
    assert_faults_audited_clean(got)


@pytest.mark.parametrize(
    "kind, src", [("drop", 2), ("delay", 2), ("corrupt", 3)]
)
def test_a_fault_on_one_species_phase_never_feeds_the_next(kind, src):
    """Two species run two ``particles`` phases a step on one channel.
    A sender races into the second phase while the receiver still waits
    for the first phase's lost, late or mangled message; the second
    message must wait its turn, not be delivered as the first (box 0's
    electron and positron ids used to come out swapped)."""
    schedule = FaultSchedule(
        [FaultSpec(kind=kind, step=1, src=src, tag="particles", delay=2)],
        seed=3,
    )
    clean = run_distributed_local(make_langmuir_build(uy=0.3, positrons=True), 6)
    got = run_distributed_mp(
        make_langmuir_build(
            uy=0.3, positrons=True, fault_schedule=schedule,
            recovery=RecoveryPolicy(),
        ),
        6,
        PARITY_RANKS,
    )
    assert_runs_equal(got, clean)
    assert sum(sum(r.values()) for r in got.recovery if r) > 0
    assert_faults_audited_clean(got)


# -- satellite: stress / ordering under real interleaving --------------------


def _stress_worker(rank, transport, n_ranks, n_tags, tmpdir):
    comm = SimComm(n_ranks, transport=transport)
    rng = np.random.default_rng(100 + rank)
    for k in range(n_tags):
        for dst in range(n_ranks):
            if dst != rank:
                payload = np.arange(
                    10 * (k + 1), dtype=np.float64
                ) * (rank + 1)
                comm.send(rank, dst, payload, tag=f"stress:{k:02d}")
    # receive in a per-rank shuffled order: arrival interleaving and
    # consumption order both differ from the send order
    want = [
        (src, k)
        for src in range(n_ranks)
        if src != rank
        for k in range(n_tags)
    ]
    rng.shuffle(want)
    total = 0.0
    for src, k in want:
        payload = comm.recv(src, rank, tag=f"stress:{k:02d}")
        assert payload.shape == (10 * (k + 1),)
        total += float(payload.sum())
    transport.sync()
    write_comm_log(comm, os.path.join(tmpdir, f"rank{rank}.commlog"))
    from repro.parallel.transport import CommCounters

    return {
        "counters": CommCounters.from_comm(comm),
        "log": list(comm.log),
        "total": total,
    }


def test_stress_many_tags_reconcile_with_commlog(tmp_path):
    """Many concurrent tagged messages per rank pair, received in
    shuffled order under real process interleaving: the merged per-rank
    counters, the in-memory logs and the commlog JSONL replays all
    reconcile with the bytes that actually crossed the wire."""
    n_ranks, n_tags = 3, 12

    def worker(rank, transport):
        return _stress_worker(rank, transport, n_ranks, n_tags, str(tmp_path))

    results = run_spmd(n_ranks, worker, run_timeout=120.0)
    merged = merge_comm_counters([r["counters"] for r in results])
    # ground truth, computed independently of the comm layer
    expect_pair = {
        (src, dst): sum(
            payload_nbytes(np.arange(10 * (k + 1), dtype=np.float64))
            for k in range(n_tags)
        )
        for src in range(n_ranks)
        for dst in range(n_ranks)
        if src != dst
    }
    assert merged.pair_bytes == expect_pair
    assert merged.total_messages() == n_ranks * (n_ranks - 1) * n_tags
    # per-tag wire traffic: in-memory log == JSONL replay == expectation
    merged_log = merge_rank_logs([r["log"] for r in results])
    replays = [
        read_comm_log(str(tmp_path / f"rank{r}.commlog"))
        for r in range(n_ranks)
    ]
    replay_log = merge_rank_logs([rep.log for rep in replays])
    for k in range(n_tags):
        tag_bytes = payload_nbytes(np.arange(10 * (k + 1), dtype=np.float64))
        expect_tag = {
            pair: tag_bytes for pair in expect_pair
        }
        assert pair_bytes_for_tag(merged_log, f"stress:{k:02d}") == expect_tag
        assert pair_bytes_for_tag(replay_log, f"stress:{k:02d}") == expect_tag
    # every logged send was matched by a logged recv (nothing vanished,
    # nothing was double-delivered)
    sends = [e for e in merged_log if e.kind == "send"]
    recvs = [e for e in merged_log if e.kind == "recv"]
    assert sorted((e.src, e.dst, e.tag, e.nbytes) for e in sends) == sorted(
        (e.src, e.dst, e.tag, e.nbytes) for e in recvs
    )


# -- satellite: a dead worker raises, never hangs ----------------------------


def test_killed_worker_raises_with_message_context():
    """Regression: when a worker dies mid-phase, the peer's blocking
    recv raises ResilienceError naming src/dst/tag after the timeout —
    the run fails loudly instead of hanging forever."""

    def worker(rank, transport):
        comm = SimComm(2, transport=transport)
        if rank == 0:
            # die without sending what rank 1 is waiting for
            os._exit(17)
        comm.recv(0, 1, tag="never-sent")
        return "unreachable"

    with pytest.raises(ResilienceError) as err:
        run_spmd(2, worker, recv_timeout=1.0, run_timeout=60.0)
    msg = str(err.value)
    assert "src=0 dst=1 tag='never-sent'" in msg
    assert "may have died mid-phase" in msg
    # the parent also noticed the corpse itself
    assert "exited with code 17" in msg


def test_sync_timeout_names_missing_ranks():
    """A barrier against a dead peer times out with the missing ranks
    named, instead of deadlocking the surviving workers."""

    def worker(rank, transport):
        if rank == 1:
            os._exit(3)
        transport.sync()

    with pytest.raises(ResilienceError) as err:
        run_spmd(2, worker, recv_timeout=1.0, run_timeout=60.0)
    assert "exited with code 3" in str(err.value)


def test_a_collective_one_rank_skips_times_out_naming_it():
    """Rank 0 reaches the allreduce, rank 1 returns without it: rank 0
    fails within the receive timeout, naming the collective, instead of
    waiting forever for the missing contribution."""

    def worker(rank, transport):
        if rank == 0:
            SimComm(2, transport=transport).allreduce_sum(np.ones(3))
        return rank

    with pytest.raises(ResilienceError) as err:
        run_spmd(2, worker, recv_timeout=1.0, run_timeout=60.0)
    msg = str(err.value)
    assert "allreduce 1 timed out after 1.0s on rank 0" in msg
    assert "waiting for contributions" in msg


# -- unsupported-feature contract on per-process transports ------------------


class _FakeBlockingTransport(LoopbackTransport):
    """Loopback mechanics with the per-process contract flags set."""

    kind = "fake-blocking"
    blocking = True

    def __init__(self, local_rank=0):
        super().__init__()
        self.local_rank = local_rank


def _build_sim(**kwargs):
    return DistributedSimulation(
        (8, 8), (0.0, 0.0), (1.0, 1.0), n_ranks=2, max_grid_size=4,
        transport=_FakeBlockingTransport(), **kwargs
    )


def test_checkpointing_rejected_on_blocking_transport():
    with pytest.raises(ConfigurationError, match="checkpoint"):
        _build_sim(checkpoint_interval=2)
    with pytest.raises(ConfigurationError, match="checkpoint"):
        _build_sim(checkpoint_dir="/tmp/nope")


def test_rank_failure_faults_rejected_on_blocking_transport():
    schedule = FaultSchedule([FaultSpec(kind="rank_failure", step=1, rank=1)])
    with pytest.raises(ConfigurationError, match="rank_failure"):
        _build_sim(fault_schedule=schedule, recovery=RecoveryPolicy())


def test_global_views_rejected_on_spmd_endpoint():
    sim = _build_sim()
    with pytest.raises(ConfigurationError, match="run_distributed_mp"):
        sim.global_field_view("Ex")
    with pytest.raises(ConfigurationError, match="run_distributed_mp"):
        sim.field_energy()


def test_spmd_endpoint_cannot_send_as_another_rank():
    transport = MultiprocessingTransport(0, 2, [None, None])
    transport._inboxes = [None, None]
    with pytest.raises(CommunicationError, match="only speaks for itself"):
        transport.deliver((1, 1, "t"), (1, 0, b"", None, None))


# -- the one wait loop: probes go out by the clock ----------------------------


class _BusyInbox:
    """An inbox that never runs empty: every blocking ``get`` hands back
    a peer's probe at once — what two ranks starved on each other do to
    one another — and ``get_nowait`` (the drain) finds nothing more."""

    def __init__(self, key):
        self._probe = ("probe", key)

    def get(self, timeout=None):
        time.sleep(0.001)
        return self._probe

    def get_nowait(self):
        raise queue.Empty


class _ListInbox(list):
    put = list.append


def test_a_starved_receive_probes_by_the_clock_even_with_a_busy_inbox():
    """ROADMAP 2(e): the probes of a starved receive drive the sender's
    delayed-message countdowns, so they must go out once per
    ``POLL_INTERVAL`` of waiting whatever else arrives — sending one only
    after an *empty* poll meant two ranks probing each other starved the
    very probes they were waiting on (0 sent here before the one loop)."""
    key = (1, 0, "halo:fold")
    peer_inbox = _ListInbox()
    transport = MultiprocessingTransport(
        0, 2, [_BusyInbox((0, 1, "halo:fold")), peer_inbox],
        recv_timeout=10 * POLL_INTERVAL,
    )
    SimComm(2, transport=transport)  # binds: peer probes get serviced
    assert transport.wait(key) is False  # control traffic is not data
    assert 1 <= peer_inbox.count(("probe", key)) <= 10
    assert set(peer_inbox) == {("probe", key)}
