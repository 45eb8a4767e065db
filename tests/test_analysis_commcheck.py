"""Replay-checker tests: RES001/RES002 on a SimComm log, and the
run-time errors whose context the findings share.

The protocol rules the replay used to check are refused where they
would happen: a self pair by ``SimComm.exchange``
(``tests/test_comm_plants.py``), a receive under the wrong tag by the
receive itself (below), a collective one rank skips by the process
transport's timeout (``tests/test_transport_matrix.py``), and a message
left pending between steps by the SAN004 sanitizer.
"""

import numpy as np
import pytest

from repro.analysis.commcheck import check_comm
from repro.exceptions import CommunicationError, ProtocolError
from repro.parallel.comm import SimComm


def rule_ids(report):
    return [f.rule for f in report.findings]


def test_clean_run_reports_ok():
    comm = SimComm(4)
    comm.send(0, 1, np.zeros(4), tag="halo")
    comm.recv(0, 1, tag="halo")
    comm.allreduce_sum(np.ones(2))
    report = check_comm(comm)
    assert report.ok
    assert report.n_ranks == 4
    report.raise_if_failed()  # must not raise
    assert "clean" in report.format()


def test_raise_if_failed_raises_protocol_error():
    comm = SimComm(4)
    comm._record("fault_drop", 0, 1, "particles", 32)
    report = check_comm(comm)
    with pytest.raises(ProtocolError) as excinfo:
        report.raise_if_failed()
    assert "RES001" in str(excinfo.value)


def test_multiple_violations_reported_together():
    comm = SimComm(4)
    comm._record("fault_corrupt", 1, 2, "halo:fields", 16)
    comm.record_rank_failure(3)
    report = check_comm(comm)
    assert rule_ids(report) == ["RES001", "RES002"]


def test_clear_log_resets_the_audit_trail():
    comm = SimComm(2)
    comm._record("fault_delay", 0, 1, "particles", 8)
    assert not check_comm(comm).ok
    comm.clear_log()
    assert check_comm(comm).ok
    assert check_comm(comm).n_events == 0


# -- pairing is by count per channel, not by position in the log -----------

def test_event_kinds_the_checker_does_not_pair_are_ignored():
    """Only faults pair with recoveries: a send without its receive (in
    the per-rank logs of a multi-process run, the receive may sit in
    another rank's log) and the kinds older version-2 logs carry —
    ``recv_missing``, ``collective``, ``barrier`` — replay clean."""
    comm = SimComm(2)
    comm._record("send", 1, 0, "halo:fold", 64)
    comm._record("recv", 0, 1, "halo:fold", 64)
    comm._record("recv_missing", 0, 1, "particles", 0)
    for rank in (0, 1):
        comm._record("collective", rank, -1, "allreduce_sum", 16)
    comm._record("barrier", 0, -1, "barrier", 0)
    report = check_comm(comm)
    assert report.ok, report.format()
    assert report.n_events == 6


def test_a_recovery_logged_before_its_fault_pairs_by_count():
    """A duplicate is logged by its sender, the dedup by its receiver:
    concatenated, the receiver's log can come first."""
    comm = SimComm(2)
    comm._record("recover_dedup", 1, 0, "particles", 8)
    comm._record("fault_duplicate", 1, 0, "particles", 8)
    assert check_comm(comm).ok
    comm._record("fault_duplicate", 1, 0, "particles", 8)
    report = check_comm(comm)
    assert rule_ids(report) == ["RES001"]
    assert report.findings[0].line == comm.log[-1].seq


def test_distinct_tags_do_not_interfere():
    """A phase may open inside one of another tag: each delivers its own
    messages and the log replays clean."""
    comm = SimComm(4)
    with comm.exchange("halo:fold", [(0, 1)], {(0, 1): np.zeros(4)}) as fold:
        with comm.exchange("lb:migrate", [(2, 3)], {(2, 3): np.ones(4)}) as lb:
            pass
    assert [m.nbytes for m in fold + lb] == [32, 32]
    assert lb[0].buffers[0].sum() == 4.0 and not fold[0].buffers[0].any()
    assert check_comm(comm).ok


# -- same-rank decompositions: local copies must not trip pair accounting ----

def test_single_rank_halo_exchange_replays_clean():
    """Regression: a single-rank decomposition short-circuits every
    overlap to a local copy — no send/recv events exist, and the
    protocol rules may not expect one."""
    from repro.grid.yee import SOURCE_COMPONENTS, YeeGrid
    from repro.parallel.box import chop_domain
    from repro.parallel.halo import fold_sources_pairwise, neighbor_overlaps

    guards = 3
    boxes = chop_domain((16, 16), 8)
    grids = [
        YeeGrid(b.shape, tuple(map(float, b.lo)), tuple(map(float, b.hi)),
                guards=guards)
        for b in boxes
    ]
    overlaps = neighbor_overlaps(
        boxes, (16, 16), guards=guards, periodic_axes=(0, 1), kind="fold"
    )
    comm = SimComm(1)
    stats = fold_sources_pairwise(
        comm, grids, boxes, overlaps, [0] * len(boxes), guards=guards
    )
    assert stats.local_copies > 0 and stats.messages == 0
    assert comm.log == []
    report = check_comm(comm)
    assert report.ok, report.format()


def test_single_rank_distributed_simulation_audits_clean():
    from repro.constants import m_e, plasma_wavelength, q_e
    from repro.parallel.distributed import DistributedSimulation
    from repro.particles.injection import UniformProfile
    from repro.particles.species import Species

    n0 = 1e24
    length = plasma_wavelength(n0)
    sim = DistributedSimulation(
        (16, 16), (0.0, 0.0), (length, length), n_ranks=1, max_grid_size=8
    )
    sim.add_species(
        Species("electrons", charge=-q_e, mass=m_e, ndim=2),
        profile=UniformProfile(n0), ppc=(1, 1), rng_seed=9,
    )
    sim.step(2)
    report = check_comm(sim.comm)
    assert report.ok, report.format()


def test_four_rank_distributed_run_audits_clean():
    from repro.constants import m_e, plasma_wavelength, q_e
    from repro.parallel.distributed import DistributedSimulation
    from repro.particles.injection import UniformProfile
    from repro.particles.species import Species

    n0 = 1e24
    length = plasma_wavelength(n0)
    sim = DistributedSimulation(
        (16, 16), (0.0, 0.0), (length, length), n_ranks=4, max_grid_size=8
    )
    sim.add_species(
        Species("electrons", charge=-q_e, mass=m_e, ndim=2),
        profile=UniformProfile(n0), ppc=(2, 2), rng_seed=3,
    )
    sim.step(3)
    assert {ev.kind for ev in sim.comm.log} == {"send", "recv"}
    report = check_comm(sim.comm)
    assert report.ok, report.format()


# -- runtime errors carry the same context as the findings ------------------

def test_recv_missing_error_names_src_dst_tag():
    comm = SimComm(4)
    with pytest.raises(CommunicationError) as excinfo:
        comm.recv(0, 1, tag="halo")
    assert "src=0 dst=1 tag='halo'" in str(excinfo.value)


def test_recv_missing_error_hints_pending_tags():
    comm = SimComm(4)
    comm.send(0, 1, np.zeros(2), tag="particles")
    with pytest.raises(CommunicationError) as excinfo:
        comm.recv(0, 1, tag="halo")
    assert "pending tags for this pair: ['particles']" in str(excinfo.value)


def test_rank_range_errors_name_operation_and_role():
    comm = SimComm(4)
    with pytest.raises(CommunicationError) as excinfo:
        comm.send(0, 9, np.zeros(1))
    assert "send: dst rank 9 out of range [0, 4)" in str(excinfo.value)
    with pytest.raises(CommunicationError) as excinfo:
        comm.recv(-1, 0)
    assert "recv: src rank -1 out of range [0, 4)" in str(excinfo.value)
    with pytest.raises(CommunicationError) as excinfo:
        comm.record_rank_failure(4)
    assert "rank_fail: rank 4 out of range [0, 4)" in str(excinfo.value)
