"""Comm-log persistence: roundtrip fidelity and format validation."""

import numpy as np
import pytest

from repro.analysis.commcheck import check_comm
from repro.exceptions import AnalysisError
from repro.observability.commlog import (
    LOG_FORMAT_VERSION,
    CommLogReplay,
    read_comm_log,
    write_comm_log,
)
from repro.parallel.comm import CommEvent, SimComm


def sample_comm():
    comm = SimComm(3)
    outgoing = {
        (0, 1): np.zeros(4, dtype=np.float64),
        (1, 2): np.zeros(8, dtype=np.float64),
    }
    with comm.exchange("halo:fold", list(outgoing), outgoing):
        pass
    comm._record("fault_drop", 0, 1, "halo:fold", 32)
    comm._record("recover_retry", 0, 1, "halo:fold", 32)
    return comm


def test_roundtrip_preserves_every_event(tmp_path):
    comm = sample_comm()
    path = str(tmp_path / "run.commlog.jsonl")
    n = write_comm_log(comm, path)
    assert n == len(comm.log)
    replay = read_comm_log(path)
    assert replay.n_ranks == comm.n_ranks
    assert len(replay) == len(comm.log)
    assert replay.log == comm.log  # CommEvent is a frozen dataclass
    assert all(isinstance(ev, CommEvent) for ev in replay.log)


def test_replay_feeds_the_checkers(tmp_path):
    comm = sample_comm()
    path = str(tmp_path / "run.commlog.jsonl")
    write_comm_log(comm, path)
    report = check_comm(read_comm_log(path))
    assert report.ok, report.format()
    assert report.n_ranks == 3


def test_replay_object_is_writable_again(tmp_path):
    comm = sample_comm()
    first = str(tmp_path / "a.jsonl")
    second = str(tmp_path / "b.jsonl")
    write_comm_log(comm, first)
    write_comm_log(read_comm_log(first), second)  # duck-typed writer
    assert read_comm_log(second).log == comm.log


def test_rejects_non_comm_logs(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_text('{"kind": "span", "version": 1}\n')
    with pytest.raises(AnalysisError, match="not a comm log"):
        read_comm_log(str(path))


def test_rejects_a_version_1_log(tmp_path):
    """Version 1 carried the schedule events and a ``detail`` field."""
    path = tmp_path / "old.jsonl"
    path.write_text(
        '{"kind": "comm_log", "version": 1, "n_ranks": 2}\n'
        '{"seq": 0, "kind": "phase_begin", "src": -1, "dst": -1, '
        '"tag": "halo:fold", "nbytes": 0, "detail": 1}\n'
    )
    with pytest.raises(AnalysisError, match="version 1"):
        read_comm_log(str(path))


def test_rejects_future_versions(tmp_path):
    path = tmp_path / "future.jsonl"
    path.write_text(
        '{"kind": "comm_log", "version": %d, "n_ranks": 2}\n'
        % (LOG_FORMAT_VERSION + 1)
    )
    with pytest.raises(AnalysisError, match="version"):
        read_comm_log(str(path))


def test_rejects_malformed_events(tmp_path):
    path = tmp_path / "mangled.jsonl"
    path.write_text(
        '{"kind": "comm_log", "version": %d, "n_ranks": 2}\n'
        '{"seq": 0, "kind": "send"}\n' % LOG_FORMAT_VERSION
    )
    with pytest.raises(AnalysisError, match="malformed comm-log event"):
        read_comm_log(str(path))


def test_distributed_run_log_replays_clean(tmp_path):
    """End to end: a real distributed step's log roundtrips and audits."""
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
        profile=UniformProfile(n0), ppc=(1, 1), rng_seed=5,
    )
    sim.step(2)
    path = str(tmp_path / "dist.commlog.jsonl")
    write_comm_log(sim.comm, path)
    replay = read_comm_log(path)
    assert {ev.kind for ev in replay.log} == {"send", "recv"}
    report = check_comm(replay)
    assert report.ok, report.format()
