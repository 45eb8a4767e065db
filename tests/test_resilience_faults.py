"""Fault injection and recovery: the never-a-silent-wrong-answer contract.

Every injected fault must either be fully recovered — final state
bit-identical to the fault-free run — or raise a typed
:class:`~repro.exceptions.ResilienceError`.  The commcheck replay must
see every fault paired with its recovery (RES001/RES002) and flag
unrecovered ones.
"""

import numpy as np
import pytest

from repro.analysis.commcheck import check_comm
from repro.analysis.sanitize import Sanitizer
from repro.constants import m_e, plasma_wavelength, q_e
from repro.exceptions import ConfigurationError, ResilienceError
from repro.parallel.comm import SimComm
from repro.parallel.distributed import DistributedSimulation
from repro.particles.injection import UniformProfile
from repro.particles.species import Species
from repro.resilience import (
    FaultInjector,
    FaultSchedule,
    FaultSpec,
    RecoveryPolicy,
    corrupt_payload,
)

N_STEPS = 10


def build(schedule=None, policy=None, interval=0, checkpoint_dir=None):
    """A thermal 4-rank Langmuir setup with cross-rank particle traffic."""
    n0 = 1e24
    length = plasma_wavelength(n0)
    sim = DistributedSimulation(
        (16, 16), (0.0, 0.0), (length, length), n_ranks=4, max_grid_size=8,
        fault_schedule=schedule, recovery=policy,
        checkpoint_interval=interval, checkpoint_dir=checkpoint_dir,
    )
    e = Species("electrons", charge=-q_e, mass=m_e, ndim=2)
    k = 2 * np.pi / length

    def perturb(sp):
        sp.momenta[:, 0] += 1e-3 * np.sin(k * sp.positions[:, 0])

    sim.add_species(
        e, profile=UniformProfile(n0), ppc=(2, 2), momentum_init=perturb,
        temperature_uth=0.05, rng_seed=7,
    )
    return sim


@pytest.fixture(scope="module")
def reference():
    """The fault-free run every recovered run must match bit-for-bit."""
    sim = build()
    sim.step(N_STEPS)
    return {
        "energy": sim.field_energy(),
        "n": sim.total_particles(),
        "ex": np.array(sim.global_field_view("Ex"), copy=True),
    }


def assert_matches_reference(sim, reference):
    assert sim.total_particles() == reference["n"]
    assert sim.field_energy() == reference["energy"]
    np.testing.assert_array_equal(sim.global_field_view("Ex"), reference["ex"])


# -- deterministic per-kind recovery -----------------------------------------

@pytest.mark.parametrize("kind", ["drop", "duplicate", "corrupt", "delay"])
def test_message_fault_recovered_bit_identically(kind, reference):
    schedule = FaultSchedule([FaultSpec(kind=kind, step=4)], seed=1)
    policy = RecoveryPolicy()
    sim = build(schedule, policy)
    sim.step(N_STEPS)
    assert schedule.fired(), f"{kind} spec never fired"
    assert policy.stats.total_recoveries() >= 1
    report = check_comm(sim.comm)
    assert report.ok, report.format()
    assert_matches_reference(sim, reference)


def test_targeted_particle_corruption_recovered(reference):
    """Corrupting the data-carrying redistribute payload specifically."""
    schedule = FaultSchedule(
        [FaultSpec(kind="corrupt", step=2, tag="particles")], seed=3
    )
    policy = RecoveryPolicy()
    sim = build(schedule, policy)
    sim.step(N_STEPS)
    assert schedule.fired()
    assert policy.stats.retries >= 1
    check_comm(sim.comm).raise_if_failed()
    assert_matches_reference(sim, reference)


def test_rank_failure_restore_and_redistribute(tmp_path, reference):
    """A rank dies mid-run; restore + evacuate + replay matches the
    fault-free run to machine precision (the acceptance criterion)."""
    schedule = FaultSchedule([FaultSpec(kind="rank_failure", step=5, rank=1)])
    policy = RecoveryPolicy()
    sim = build(schedule, policy, interval=3,
                checkpoint_dir=str(tmp_path / "ckpt"))
    sim.step(N_STEPS)
    assert sim.dead_ranks == {1}
    assert not np.any(sim.dm.assignment == 1)  # boxes evacuated
    assert policy.stats.restores == 1
    assert policy.stats.restored_bytes > 0
    report = check_comm(sim.comm)
    assert report.ok, report.format()
    assert_matches_reference(sim, reference)


def test_rank_failure_in_memory_checkpoint(reference):
    schedule = FaultSchedule([FaultSpec(kind="rank_failure", step=6, rank=2)])
    policy = RecoveryPolicy()
    sim = build(schedule, policy, interval=4)  # no dir: in-memory restore
    sim.step(N_STEPS)
    assert sim.dead_ranks == {2}
    assert policy.stats.restores == 1
    check_comm(sim.comm).raise_if_failed()
    assert_matches_reference(sim, reference)


def build_two_rank(schedule=None, policy=None, interval=0):
    """32 x 32, four boxes on two ranks, cold plasma: all traffic is halo
    traffic, so ``halo_payload_bytes`` and ``comm.total_bytes()`` agree."""
    n0 = 1e24
    length = plasma_wavelength(n0)
    sim = DistributedSimulation(
        (32, 32), (0.0, 0.0), (length, length), n_ranks=2, max_grid_size=16,
        fault_schedule=schedule, recovery=policy, checkpoint_interval=interval,
    )
    e = Species("electrons", charge=-q_e, mass=m_e, ndim=2)
    sim.add_species(e, profile=UniformProfile(n0), ppc=(2, 2))
    return sim


def rollback_run(observed=False):
    schedule = FaultSchedule([FaultSpec(kind="rank_failure", step=6, rank=1)])
    sim = build_two_rank(schedule, RecoveryPolicy(), interval=4)
    metrics = None
    if observed:
        from repro.observability import attach_observability

        _tracer, metrics = attach_observability(sim)
    sim.step(N_STEPS)
    assert sim.dead_ranks == {1}
    return sim, metrics


def test_rank_failure_rollback_keeps_the_books():
    """The restore rolls ``halo_stats`` back with the ``comm`` counters:
    steps 4 and 5 ran twice, and before the accumulators were
    checkpointed ``halo_payload_bytes`` read the log's total, 420,672,
    against ``comm.total_bytes()`` 280,448.  ``halo_samples`` counts
    what the steps applied: 4 steps on two ranks' tiles and, after rank
    1's boxes move to rank 0, 6 on the one tile that covers the domain
    (305,152 / 457,728 / 156,000 when every box was its own field grid
    and the count did not depend on the assignment)."""
    fault_free = build_two_rank()
    fault_free.step(N_STEPS)
    one_tile = build_two_rank()
    one_tile.dm.assignment[:] = 0
    one_tile.step(1)
    sim, _ = rollback_run()
    assert sim.halo_payload_bytes == sim.comm.total_bytes() == 280_448
    assert fault_free.halo_samples == N_STEPS * 13_194
    assert one_tile.halo_samples == 10_881
    assert sim.halo_samples == 4 * 13_194 + 6 * 10_881 == 118_062
    # the event log is the audit trail and is *not* rolled back: it
    # still shows the traffic of the two steps the restore discarded
    assert sum(sim.comm.pair_bytes_for_tag("halo").values()) == 420_672


def test_observed_run_survives_a_rank_failure_rollback():
    """Died at the first recovery with ``counters only go up``: the
    observer diffed the restored accounting against pre-restore totals.
    Its mirrors now follow the restore, so they still equal the live
    counters — the contract of the metrics snapshot."""
    sim, metrics = rollback_run(observed=True)
    snap = metrics.snapshot()
    assert snap["comm.messages"] == sim.comm.total_messages() > 0
    assert snap["halo.bytes"] == sim.halo_payload_bytes == 280_448
    assert snap["halo.guard_cells"] == sim.halo_samples
    for (src, dst), nbytes in sim.comm.pair_bytes.items():
        assert snap[f"comm.pair_bytes{{dst={dst},src={src}}}"] == nbytes
    assert snap["particles.pushed"] == 12 * sim.total_particles()
    assert snap["resilience.restores"] == 1


def test_run_report_imbalance_skips_dead_ranks():
    """The dashboard's imbalance is the gauge's: over the alive ranks.
    With the dead rank's zero load counted it read 2.0 against 1.0."""
    from repro.observability import RunReport

    sim, metrics = rollback_run(observed=True)
    report = RunReport.from_distributed(sim)
    assert report.imbalance == pytest.approx(metrics.snapshot()["lb.imbalance"])
    assert report.imbalance < 1.5


# -- unrecoverable faults raise, never silently corrupt ----------------------

@pytest.mark.parametrize("kind", ["drop", "corrupt", "delay"])
def test_fault_without_policy_raises(kind):
    schedule = FaultSchedule([FaultSpec(kind=kind, step=2)], seed=1)
    sim = build(schedule, policy=None)
    with pytest.raises(ResilienceError):
        sim.step(N_STEPS)


def test_rank_failure_without_policy_raises():
    schedule = FaultSchedule([FaultSpec(kind="rank_failure", step=3, rank=0)])
    sim = build(schedule, policy=None, interval=2)
    with pytest.raises(ResilienceError, match="no recovery policy"):
        sim.step(N_STEPS)


def test_rank_failure_before_any_checkpoint_raises():
    # interval=0 still takes the initial restore point at step 0, so the
    # failure must be scheduled to beat it: step 0 fires before it.
    schedule = FaultSchedule([FaultSpec(kind="rank_failure", step=0, rank=0)])
    sim = build(schedule, policy=RecoveryPolicy())
    with pytest.raises(ResilienceError, match="no checkpoint"):
        sim.step(N_STEPS)


# -- seeded fuzz over random schedules ---------------------------------------

@pytest.mark.parametrize("seed", range(6))
def test_fuzz_random_schedule_recovers_or_raises(seed, reference):
    """Any seeded random scenario either ends bit-identical to the
    fault-free run with a clean commcheck replay, or dies with a typed
    ResilienceError — never a silent wrong answer."""
    schedule = FaultSchedule.random(
        seed=seed, n_faults=4, max_step=N_STEPS - 2, n_ranks=4
    )
    policy = RecoveryPolicy()
    sim = build(schedule, policy)
    try:
        sim.step(N_STEPS)
    except ResilienceError:
        return  # typed failure is an acceptable outcome, silence is not
    report = check_comm(sim.comm)
    assert report.ok, report.format()
    n_fired = len(schedule.fired())
    assert policy.stats.total_recoveries() >= n_fired
    assert_matches_reference(sim, reference)


def test_fuzz_is_replayable():
    """Same seed, same schedule: the scenario is the seed."""
    a = FaultSchedule.random(seed=11, n_faults=5, max_step=8, n_ranks=4)
    b = FaultSchedule.random(seed=11, n_faults=5, max_step=8, n_ranks=4)
    assert [
        (s.kind, s.step, s.src, s.dst, s.tag, s.delay) for s in a.specs
    ] == [(s.kind, s.step, s.src, s.dst, s.tag, s.delay) for s in b.specs]


# -- the commcheck audit flags exactly the unrecovered faults ----------------

def test_res001_flags_unrecovered_message_fault():
    comm = SimComm(2)
    comm._record("fault_drop", 0, 1, "halo", 64)
    report = check_comm(comm)
    assert [f.rule for f in report.findings] == ["RES001"]
    assert "drop" in report.findings[0].message
    # the matching recovery silences it
    comm._record("recover_retry", 0, 1, "halo", 64)
    comm._record("send", 0, 1, "halo", 64)
    comm._record("recv", 0, 1, "halo", 64)
    assert check_comm(comm).ok


def test_res001_pairs_recovery_kinds_correctly():
    comm = SimComm(2)
    # a dedup does NOT repair a drop: kinds must match
    comm._record("fault_drop", 0, 1, "x", 8)
    comm._record("recover_dedup", 0, 1, "x", 8)
    report = check_comm(comm)
    assert any(f.rule == "RES001" for f in report.findings)


def test_res002_flags_unrestored_rank_failure():
    comm = SimComm(4)
    comm.record_rank_failure(3)
    report = check_comm(comm)
    assert [f.rule for f in report.findings] == ["RES002"]
    comm.record_restore(3, nbytes=1024)
    assert check_comm(comm).ok


def test_commcheck_sees_exactly_the_injected_events(reference):
    """Every fired fault appears in the log; none are left unpaired."""
    schedule = FaultSchedule(
        [
            FaultSpec(kind="drop", step=2),
            FaultSpec(kind="duplicate", step=4),
            FaultSpec(kind="delay", step=6),
        ],
        seed=5,
    )
    sim = build(schedule, RecoveryPolicy())
    sim.step(N_STEPS)
    kinds = [ev.kind for ev in sim.comm.log]
    assert kinds.count("fault_drop") == 1
    assert kinds.count("fault_duplicate") == 1
    assert kinds.count("fault_delay") == 1
    assert kinds.count("recover_retry") >= 1
    assert kinds.count("recover_dedup") >= 1
    assert kinds.count("recover_redeliver") >= 1
    check_comm(sim.comm).raise_if_failed()


# -- SAN004 and unit-level pieces --------------------------------------------

def test_san004_detects_undrained_comm():
    comm = SimComm(2)
    comm.send(0, 1, np.zeros(4, dtype=np.float64), tag="x")
    san = Sanitizer()
    with pytest.raises(Exception, match="SAN004"):
        san.check_comm_quiescent(comm, step=1)
    comm.recv(0, 1, tag="x")
    san.check_comm_quiescent(comm, step=1)  # clean after drain


def test_corrupt_payload_is_detectable_and_structural():
    """A message keeps its header, buffer count, dtypes and shapes under
    corruption; only the checksum moves.  (The nested-tuple structure
    this used to walk is gone: tests/test_parallel_wire.py fuzzes the
    flat format.)"""
    from repro.parallel.wire import Message, payload_checksum

    rng = np.random.default_rng(0)
    payload = Message(
        [(0, 1)], [np.arange(12, dtype=np.float64).reshape(4, 3), np.ones(4)]
    )
    mangled = corrupt_payload(payload, rng)
    assert payload_checksum(mangled) != payload_checksum(payload)
    assert mangled.header == payload.header
    assert mangled.nbytes == payload.nbytes
    assert [(b.dtype, b.shape) for b in mangled.buffers] == [
        (b.dtype, b.shape) for b in payload.buffers
    ]
    # the original is untouched (the retransmission buffer keeps it)
    np.testing.assert_array_equal(
        payload.buffers[0], np.arange(12, dtype=np.float64).reshape(4, 3)
    )
    np.testing.assert_array_equal(payload.buffers[1], np.ones(4))


def test_fault_spec_validation():
    with pytest.raises(ConfigurationError):
        FaultSpec(kind="meteor", step=1)
    with pytest.raises(ConfigurationError):
        FaultSpec(kind="rank_failure", step=1)  # needs a rank
    with pytest.raises(ConfigurationError):
        FaultSpec(kind="delay", step=1, delay=0)


def test_fault_spec_must_name_a_declared_tag():
    """A tag no exchange phase sends on would never fire, silently: it is
    refused when the spec is built, naming the tags it may be."""
    with pytest.raises(ConfigurationError, match=r"'halo:fild'.*halo:fields"):
        FaultSpec(kind="drop", step=1, tag="halo:fild")
    with pytest.raises(ConfigurationError, match="'halo'"):
        FaultSchedule.random(seed=1, n_faults=2, max_step=4, tag="halo")
    assert FaultSpec(kind="drop", step=1, tag="lb:migrate").tag == "lb:migrate"


def test_injector_skips_corrupt_on_empty_payload():
    schedule = FaultSchedule([FaultSpec(kind="corrupt", step=0)], seed=1)
    injector = FaultInjector(schedule)
    injector.begin_step(0)
    assert injector.on_send(0, 1, "halo", np.empty(0)) is None
    assert not schedule.fired()  # still armed for a payload with bytes
    action = injector.on_send(0, 1, "particles", np.ones(3))
    assert action is not None and action[0] == "corrupt"
    assert schedule.fired()
