"""Communication plants, run on both transports.

Each seeded tag bug of ``tests/data/comm_fixtures`` fails at run time —
``SimComm.exchange`` refuses a tag outside ``PHASE_TAGS``, a tag whose
phase is already open on the endpoint, and a self pair — on the
in-process loopback and on one worker process per rank alike; the clean schedules run clean on
both, and phases that reuse a tag one after the other recover from a
lost or late message in send order.  (The raw ``send`` / ``recv`` plants
are lint rule PIC008, ``tests/test_analysis_lint.py``; the buffer plant
is in ``tests/test_parallel_comm.py`` and ``tests/test_parallel_wire.py``.)
"""

import numpy as np
import pytest

from repro.exceptions import CommunicationError
from repro.parallel.comm import PHASE_TAGS, SimComm
from repro.parallel.mp_transport import run_spmd
from repro.resilience import FaultSchedule, FaultSpec, RecoveryPolicy
from repro.resilience.faults import FaultInjector

from tests.conftest import TRANSPORTS, load_comm_fixture, make_skewed_lb_build


def run_on(transport, worker, n_ranks=2):
    """``worker(comm)`` on one loopback communicator speaking for every
    rank, or on each rank's endpoint in its own process: the results in
    a list (one entry on loopback, one per rank otherwise)."""
    if transport == "loopback":
        return [worker(SimComm(n_ranks))]
    return run_spmd(
        n_ranks, lambda rank, t: worker(SimComm(n_ranks, transport=t)),
        run_timeout=60.0,
    )


def received(messages):
    return [buf.tolist() for buf in messages]


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_an_undeclared_tag_is_refused_before_the_first_send(transport):
    """``exchange_tag_collision.py``: both sites of ``ex:fold`` raise,
    naming the tag, and nothing reaches the log or the wire."""

    def worker(comm):
        plant = load_comm_fixture("exchange_tag_collision.py")
        errors = []
        for phase in (plant.fold_guards, plant.migrate_state):
            with pytest.raises(CommunicationError) as err:
                phase(comm, [(0, 1)], {(0, 1): np.zeros(2)})
            errors.append(str(err.value))
        return errors, len(comm.log), comm.pending()

    for errors, n_events, pending in run_on(transport, worker):
        assert all(
            "tag='ex:fold'" in e and "no declared phase" in e for e in errors
        )
        assert (n_events, pending) == (0, 0)


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_a_migration_inside_the_fold_phase_is_refused(transport):
    """``tag_collision.py``: the migration run from the fold's apply
    raises before its first send; the raising body leaves the tag free,
    so the same migration runs once the fold has closed."""

    def worker(comm):
        plant = load_comm_fixture("tag_collision.py")
        moves = {(1, 0): np.full(2, 2.0)}
        with pytest.raises(CommunicationError, match="already open") as err:
            plant.fold_guards(
                comm, [(0, 1)], {(0, 1): np.full(2, 1.0)},
                apply=lambda: plant.migrate_state(comm, [(1, 0)], moves),
            )
        after = plant.migrate_state(comm, [(1, 0)], moves)
        return str(err.value), received(after)

    results = run_on(transport, worker)
    assert all("tag='halo:fold'" in error for error, _ in results)
    assert [m for _, moved in results for m in moved] == [[2.0, 2.0]]


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_a_self_pair_is_refused_before_the_first_send(transport):
    """A rank's own data is a local copy: a phase whose pairs hold
    ``(r, r)`` raises on every endpoint, naming the tag and the pair,
    before its cross-rank pair goes out."""

    def worker(comm):
        out = {(0, 1): np.zeros(2), (1, 1): np.zeros(2)}
        with pytest.raises(CommunicationError) as err:
            with comm.exchange(PHASE_TAGS["fields"], list(out), out):
                pass
        return str(err.value), len(comm.log), comm.pending()

    for error, n_events, pending in run_on(transport, worker):
        assert "src=1 dst=1 tag='halo:fields'" in error
        assert "self pair" in error
        assert (n_events, pending) == (0, 0)


@pytest.mark.parametrize("kind", ["drop", "delay"])
@pytest.mark.parametrize("transport", TRANSPORTS)
def test_sequential_phases_on_one_tag_recover_in_send_order(transport, kind):
    """``tag_collision.py`` run the legal way: the fold, then the
    migration on the same tag.  The fold's message is lost or late while
    the migration's is already on its way; the receiver still hands the
    fold its own payload and the migration its own."""

    def worker(comm):
        spec = FaultSpec(kind=kind, step=0, src=0, tag="halo:fold", delay=2)
        comm.attach_resilience(
            FaultInjector(FaultSchedule([spec])), RecoveryPolicy()
        )
        plant = load_comm_fixture("tag_collision.py")
        fold = plant.fold_guards(comm, [(0, 1)], {(0, 1): np.full(2, 1.0)})
        moved = plant.migrate_state(comm, [(0, 1)], {(0, 1): np.full(2, 2.0)})
        comm.finish_step()
        return received(fold), received(moved), spec.fired

    results = run_on(transport, worker)
    assert [f for fold, _, _ in results for f in fold] == [[1.0, 1.0]]
    assert [m for _, moved, _ in results for m in moved] == [[2.0, 2.0]]
    assert any(fired for _, _, fired in results)


def _exchange_on_a_popped_tag(comm, tags, pairs, out):
    with comm.exchange(tags.pop(), pairs, out) as received:
        return list(received)


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_a_tag_computed_at_run_time_is_checked_when_it_runs(transport):
    """The tag no constant folding could name: an undeclared value
    raises, a declared one runs."""

    def worker(comm):
        out = {(0, 1): np.full(2, 3.0)}
        with pytest.raises(CommunicationError, match="tag='ex:dyn'"):
            _exchange_on_a_popped_tag(comm, ["ex:dyn"], [(0, 1)], out)
        got = _exchange_on_a_popped_tag(
            comm, [PHASE_TAGS["particles"]], [(0, 1)], out
        )
        return [msg.buffers[0].tolist() for msg in got]

    results = run_on(transport, worker)
    assert [g for got in results for g in got] == [[3.0, 3.0]]


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_clean_fixtures_run_clean(transport):
    """``clean_schedule.py`` and ``exchange_explicit_tag.py``: every
    payload arrives, nothing is left on the wire."""

    def worker(comm):
        clean = load_comm_fixture("clean_schedule.py")
        result, staging = clean.exchange_default_pairs(comm)
        explicit = load_comm_fixture("exchange_explicit_tag.py")
        sources, fields = explicit.step(
            comm, [(0, 1)], {(0, 1): np.ones(3)}, {(0, 1): np.full(3, 4.0)}
        )
        comm.transport.drain()
        return (
            received(result), staging[0],
            [m.buffers[0].tolist() for m in sources + fields],
            comm.pending(),
        )

    results = run_on(transport, worker)
    # one arrival (on loopback it is ``staging`` itself, written after)
    assert [len(r) for result, _, _, _ in results for r in result] == [8]
    assert all(staged == 1.0 for _, staged, _, _ in results)
    assert [p for _, _, got, _ in results for p in got] == [
        [1.0] * 3, [4.0] * 3,
    ]
    assert all(pending == 0 for *_, pending in results)


def test_the_decomposed_step_runs_every_declared_phase():
    """The table is the schedule: a decomposed run with a rebalance
    sends on each of the five declared tags and on nothing else."""
    sim = make_skewed_lb_build()()
    assert sim.comm.n_ranks >= 2
    sim.step(6)
    assert any(sim.lb_events)
    tags = {e.tag for e in sim.comm.log if e.kind == "send"}
    assert tags == set(PHASE_TAGS.values())
