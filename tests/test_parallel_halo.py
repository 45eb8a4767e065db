"""Tests for the pairwise halo exchange: overlap regions, real payloads,
message aggregation, and equivalence with the global-assembly reference."""

from collections import Counter

import numpy as np
import pytest

from repro.exceptions import DecompositionError
from repro.grid.boundary import periodic_image_shifts
from repro.grid.yee import FIELD_COMPONENTS, SOURCE_COMPONENTS, YeeGrid
from repro.parallel.box import chop_domain
from repro.parallel.comm import SimComm
from repro.parallel.halo import (
    assemble_global,
    exchange_halos,
    fold_sources_pairwise,
    neighbor_overlaps,
)
from repro.perfmodel.machines import get_machine
from repro.perfmodel.network import measured_halo_time

from tests.oracles import fold_sources_global, scatter_local


def make_setup(n=16, max_grid=8, guards=3):
    domain = YeeGrid((n, n), (0.0, 0.0), (float(n), float(n)), guards=guards)
    boxes = chop_domain((n, n), max_grid)
    grids = []
    for b in boxes:
        lo = tuple(float(v) for v in b.lo)
        hi = tuple(float(v) for v in b.hi)
        grids.append(YeeGrid(b.shape, lo, hi, guards=guards))
    return domain, boxes, grids


def fill_random(grids, components, seed, valid_only=False):
    rng = np.random.default_rng(seed)
    for bg in grids:
        for comp in components:
            if valid_only:
                view = bg.fields[comp][bg.valid_slices(comp)]
            else:
                view = bg.fields[comp]
            view[...] = rng.uniform(-1.0, 1.0, size=view.shape)


def test_periodic_image_shifts():
    shifts = periodic_image_shifts((8, 4), periodic_axes=(1,))
    assert set(shifts) == {(0, -4), (0, 0), (0, 4)}
    assert periodic_image_shifts((8, 4)) == [(0, 0)]


def test_fold_sources_matches_monolithic_deposit():
    """Depositing particles per box then folding equals one global deposit."""
    from repro.constants import q_e
    from repro.particles.deposit import deposit_charge

    domain, boxes, grids = make_setup()
    rng = np.random.default_rng(30)
    pos = rng.uniform(0.5, 15.5, size=(60, 2))
    w = rng.uniform(0.5, 2.0, size=60)
    # monolithic reference
    ref = YeeGrid((16, 16), (0, 0), (16.0, 16.0), guards=3)
    deposit_charge(ref, pos, w, -q_e, order=2)
    # per-box deposit of the particles each box owns
    for b, bg in zip(boxes, grids):
        mask = np.ones(len(pos), dtype=bool)
        for d in range(2):
            mask &= (pos[:, d] >= b.lo[d]) & (pos[:, d] < b.hi[d])
        if np.any(mask):
            deposit_charge(bg, pos[mask], w[mask], -q_e, order=2)
    fold_sources_global(domain, grids, boxes, periodic_axes=())
    np.testing.assert_allclose(
        domain.fields["rho"], ref.fields["rho"], rtol=1e-12, atol=1e-25
    )


def test_assemble_scatter_roundtrip():
    domain, boxes, grids = make_setup()
    # give every box a field that is a pure function of global position
    for b, bg in zip(boxes, grids):
        x = bg.axis_coords(0, "Ey")
        y = bg.axis_coords(1, "Ey")
        bg.interior_view("Ey")[...] = x[:, None] + 10.0 * y[None, :]
    assemble_global(domain, grids, boxes, ("Ey",), periodic_axes=(0, 1))
    scatter_local(domain, grids, boxes, ("Ey",))
    # after scatter, each box's guards hold the neighbour's (global) values
    for b, bg in zip(boxes, grids):
        g = bg.guards
        # check one guard plane against the global function (mod periodic);
        # Ey is nodal in x and staggered (8 valid samples) in y
        x_guard = (b.lo[0] - 1.0) % 16.0
        y = bg.axis_coords(1, "Ey")
        expected = x_guard + 10.0 * y
        np.testing.assert_allclose(
            bg.fields["Ey"][g - 1, g : g + bg.n_cells[1]], expected, rtol=1e-12
        )


def test_neighbor_overlaps_fill_is_exact_partition():
    """Fill overlaps tile each box's full array exactly once per position,
    except the box's own owned cells — every guard sample has one owner."""
    guards = 3
    _, boxes, _ = make_setup(n=16, max_grid=8, guards=guards)
    overlaps = neighbor_overlaps(
        boxes, (16, 16), guards=guards, periodic_axes=(0, 1), kind="fill"
    )
    for i, b in enumerate(boxes):
        extent = tuple(s + 1 + 2 * guards for s in b.shape)
        cover = np.zeros(extent, dtype=np.int64)
        for ov in (o for o in overlaps if o.dst == i):
            sl = tuple(
                slice(lo - bl + guards, hi - bl + guards)
                for lo, hi, bl in zip(ov.region.lo, ov.region.hi, b.lo)
            )
            cover[sl] += 1
        owned = tuple(slice(guards, guards + s) for s in b.shape)
        assert np.all(cover[owned] == 0)
        cover[owned] = 1
        np.testing.assert_array_equal(cover, np.ones(extent, dtype=np.int64))


def test_neighbor_overlaps_symmetric_counts():
    _, boxes, _ = make_setup(n=16, max_grid=8)
    overlaps = neighbor_overlaps(
        boxes, (16, 16), guards=2, periodic_axes=(0, 1), kind="fill"
    )
    # 2x2 boxes on a periodic torus: every box sees all 3 others
    partners = {}
    size = Counter()
    for ov in overlaps:
        partners.setdefault(ov.dst, set()).add(ov.src)
        size[(ov.dst, ov.src)] += ov.region.n_cells
    for i in range(4):
        assert partners[i] == {0, 1, 2, 3} - {i}
    # equal-size boxes: the overlap volumes are symmetric per pair
    for (i, j), n in size.items():
        assert size[(j, i)] == n


def test_neighbor_overlaps_rejects_unknown_kind():
    _, boxes, _ = make_setup()
    with pytest.raises(DecompositionError):
        neighbor_overlaps(boxes, (16, 16), guards=2, kind="sideways")


def test_exchange_halos_matches_assemble_scatter():
    """The pairwise fill is bit-identical to assemble + periodic + scatter,
    over the boxes' full (guard-padded) arrays."""
    guards = 3
    domain, boxes, grids_ref = make_setup(guards=guards)
    _, _, grids_pw = make_setup(guards=guards)
    fill_random(grids_ref, FIELD_COMPONENTS, seed=7, valid_only=True)
    for ref, pw in zip(grids_ref, grids_pw):
        for comp in FIELD_COMPONENTS:
            pw.fields[comp][...] = ref.fields[comp]

    assemble_global(domain, grids_ref, boxes, FIELD_COMPONENTS, periodic_axes=(0, 1))
    scatter_local(domain, grids_ref, boxes, FIELD_COMPONENTS)

    overlaps = neighbor_overlaps(
        boxes, (16, 16), guards=guards, periodic_axes=(0, 1), kind="fill"
    )
    comm = SimComm(2)
    exchange_halos(
        comm, grids_pw, boxes, overlaps, [0, 0, 1, 1], guards=guards
    )
    for ref, pw in zip(grids_ref, grids_pw):
        for comp in FIELD_COMPONENTS:
            np.testing.assert_array_equal(pw.fields[comp], ref.fields[comp])


def test_fold_pairwise_matches_global_fold():
    """Pairwise deposit folding equals folding on the assembled global
    grid (up to floating-point summation order) on every valid region."""
    guards = 3
    domain, boxes, grids_ref = make_setup(guards=guards)
    _, _, grids_pw = make_setup(guards=guards)
    fill_random(grids_ref, SOURCE_COMPONENTS, seed=11, valid_only=False)
    for ref, pw in zip(grids_ref, grids_pw):
        for comp in SOURCE_COMPONENTS:
            pw.fields[comp][...] = ref.fields[comp]

    fold_sources_global(domain, grids_ref, boxes, periodic_axes=(0, 1))
    scatter_local(domain, grids_ref, boxes, SOURCE_COMPONENTS)

    overlaps = neighbor_overlaps(
        boxes, (16, 16), guards=guards, periodic_axes=(0, 1), kind="fold"
    )
    comm = SimComm(4)
    fold_sources_pairwise(
        comm, grids_pw, boxes, overlaps, [0, 1, 2, 3], guards=guards
    )
    for ref, pw in zip(grids_ref, grids_pw):
        for comp in SOURCE_COMPONENTS:
            sl = ref.valid_slices(comp)
            np.testing.assert_allclose(
                pw.fields[comp][sl], ref.fields[comp][sl],
                rtol=1e-13, atol=1e-15,
            )


def test_exchange_aggregates_one_message_per_rank_pair():
    """Acceptance: one aggregated send per (src_rank, dst_rank) per phase,
    every payload non-empty, and the log reconciles with pair_bytes."""
    guards = 3
    _, boxes, grids = make_setup(guards=guards)
    fill_random(grids, FIELD_COMPONENTS, seed=3)
    overlaps = neighbor_overlaps(
        boxes, (16, 16), guards=guards, periodic_axes=(0, 1), kind="fill"
    )
    comm = SimComm(4)
    rank_of = [0, 1, 2, 3]
    stats = exchange_halos(comm, grids, boxes, overlaps, rank_of, guards=guards)

    sends = [e for e in comm.log if e.kind == "send"]
    assert sends and all(e.nbytes > 0 for e in sends)
    counts = Counter((e.src, e.dst) for e in sends)
    assert max(counts.values()) == 1  # aggregation: one message per pair
    assert set(counts) == {
        (r, s) for r in range(4) for s in range(4) if r != s
    }
    assert stats.messages == len(sends)
    # log bytes == pair_bytes == the stats' payload accounting
    logged = comm.pair_bytes_for_tag("halo")
    assert logged == dict(comm.pair_bytes)
    assert sum(logged.values()) == stats.payload_bytes
    assert stats.local_copies == 0


def test_same_rank_exchange_short_circuits_to_copies():
    guards = 3
    domain, boxes, grids_ref = make_setup(guards=guards)
    _, _, grids = make_setup(guards=guards)
    fill_random(grids_ref, FIELD_COMPONENTS, seed=5, valid_only=True)
    for ref, pw in zip(grids_ref, grids):
        for comp in FIELD_COMPONENTS:
            pw.fields[comp][...] = ref.fields[comp]
    assemble_global(domain, grids_ref, boxes, FIELD_COMPONENTS, periodic_axes=(0, 1))
    scatter_local(domain, grids_ref, boxes, FIELD_COMPONENTS)

    overlaps = neighbor_overlaps(
        boxes, (16, 16), guards=guards, periodic_axes=(0, 1), kind="fill"
    )
    comm = SimComm(1)
    stats = exchange_halos(comm, grids, boxes, overlaps, [0, 0, 0, 0], guards=guards)
    assert comm.total_bytes() == 0 and comm.total_messages() == 0
    assert stats.messages == 0 and stats.payload_bytes == 0
    assert stats.local_copies > 0 and stats.samples > 0
    # the physics is identical whether the neighbor is local or remote
    for ref, pw in zip(grids_ref, grids):
        for comp in FIELD_COMPONENTS:
            np.testing.assert_array_equal(pw.fields[comp], ref.fields[comp])


def test_exchange_kind_mismatch_raises():
    guards = 3
    _, boxes, grids = make_setup(guards=guards)
    fold = neighbor_overlaps(
        boxes, (16, 16), guards=guards, periodic_axes=(0, 1), kind="fold"
    )
    fill = neighbor_overlaps(
        boxes, (16, 16), guards=guards, periodic_axes=(0, 1), kind="fill"
    )
    comm = SimComm(4)
    with pytest.raises(DecompositionError):
        exchange_halos(comm, grids, boxes, fold, [0, 1, 2, 3], guards=guards)
    with pytest.raises(DecompositionError):
        fold_sources_pairwise(comm, grids, boxes, fill, [0, 1, 2, 3], guards=guards)


def test_measured_halo_time_bottleneck_sender():
    machine = get_machine("summit")
    bw = machine.net_gb_per_s * 1e9 / machine.devices_per_node
    pair_bytes = {(0, 1): 2_000_000, (0, 2): 2_000_000, (1, 0): 500_000,
                  (3, 3): 10**9}  # self-pairs never cost wire time
    t = measured_halo_time(machine, pair_bytes, messages_per_pair=2)
    expected = 4_000_000 / bw + 4 * machine.net_latency  # rank 0 dominates
    assert t == pytest.approx(expected)
    assert measured_halo_time(machine, {}) == 0.0


# -- cross-transport parity (see tests/conftest.py) --------------------------

from tests.conftest import assert_runs_equal, make_langmuir_build  # noqa: E402


def test_halo_exchange_cross_transport(transport_runner, golden_langmuir):
    """Fold + guard-fill halo traffic is transport-invariant: the same
    scenario run with one worker process per rank produces bit-identical
    fields and the exact same aggregated halo accounting as loopback."""
    want = golden_langmuir(n_steps=6)
    got = transport_runner(make_langmuir_build(), 6)
    assert got.halo == want.halo
    assert_runs_equal(got, want)


# -- exchange plans: one per assignment, built once, refused on disagreement --

from repro.diagnostics.io import (  # noqa: E402
    load_distributed_checkpoint,
    save_distributed_checkpoint,
)
from repro.exceptions import CommunicationError  # noqa: E402
from repro.parallel import halo  # noqa: E402
from repro.parallel.mp_transport import run_spmd  # noqa: E402
from repro.parallel.redistribute import migrate_boxes  # noqa: E402
from repro.parallel.wire import Message  # noqa: E402


@pytest.fixture
def plan_builds(monkeypatch):
    """Every :class:`~repro.parallel.halo.ExchangePlan` built while the
    test runs, in build order."""
    built = []

    class Recorded(halo.ExchangePlan):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(halo, "ExchangePlan", Recorded)
    return built


def assert_states_equal(sim, twin):
    """Bit-identical fields (every box, guards included) and particles
    (per box, by id) of two loopback runs."""
    for bg, tg in zip(sim.box_grids, twin.box_grids):
        for comp, arr in bg.fields.items():
            assert np.array_equal(arr, tg.fields[comp]), comp
    for name, dsp in sim.species.items():
        for sp, tp in zip(dsp.per_box, twin.species[name].per_box):
            order, t_order = np.argsort(sp.ids), np.argsort(tp.ids)
            for key in ("ids", "positions", "momenta", "weights"):
                assert np.array_equal(
                    getattr(sp, key)[order], getattr(tp, key)[t_order]
                ), key


def _reassign(sim, change):
    """Apply ``change`` to ``sim.dm`` mid-run and ship the moved boxes,
    as the driver's load-balance phase does."""
    old = sim.dm.assignment.copy()
    assert change(sim.dm) > 0
    migrate_boxes(sim.comm, sim.box_grids, sim.species, old, sim.dm.assignment)


def _built_for(plans, assignment):
    return [np.array_equal(p.assignment, assignment) for p in plans]


@pytest.mark.parametrize(
    "n_ranks, change",
    [
        (2, lambda dm: dm.rebalance([4.0, 1.0, 1.0, 1.0], strategy="knapsack")),
        (4, lambda dm: dm.evacuate(1, alive=[0, 2, 3])),
    ],
    ids=["rebalance", "evacuate"],
)
def test_plans_follow_a_new_assignment(plan_builds, n_ranks, change):
    """The exchange after a rebalance (or an evacuation) runs on plans
    built for the new assignment — once, then reused — and the state is
    bit-identical to a run built with that assignment from the start.
    Three plans a step: the per-box fold and the two tile fills (J,
    then E/B), whose plans live on the new tiling's overlap sets."""
    build = make_langmuir_build(n_ranks=n_ranks, uy=0.3)
    sim = build()
    sim.step(2)
    assert len(plan_builds) == 3  # reused on the second step
    _reassign(sim, change)
    sim.step(1)
    assert len(plan_builds) == 6
    tiling = sim.tiling
    assert _built_for(plan_builds[3:4], sim.dm.assignment) == [True]
    assert _built_for(plan_builds[4:6], tiling.ranks) == [True, True]
    assert set(sim.fold_overlaps.plans.values()) | set(
        tiling.source_overlaps.plans.values()
    ) | set(tiling.fill_overlaps.plans.values()) == set(plan_builds[3:])
    sim.step(3)
    assert len(plan_builds) == 6
    twin = build()
    twin.dm.assignment = sim.dm.assignment.copy()
    twin.step(6)
    assert_states_equal(sim, twin)


def test_plans_follow_a_checkpoint_restore(plan_builds, tmp_path):
    """Restoring a checkpoint written under another assignment switches
    the next exchange to plans for that assignment (the fold's, and the
    two tile fills' of its tiling), and the run goes on bit for bit like
    the one that wrote it."""
    build = make_langmuir_build(n_ranks=2, uy=0.3)
    writer = build()
    writer.dm.rebalance([4.0, 1.0, 1.0, 1.0], strategy="knapsack")
    writer.step(3)
    save_distributed_checkpoint(writer, str(tmp_path / "ckpt"))
    reader = build()
    assert not np.array_equal(reader.dm.assignment, writer.dm.assignment)
    reader.step(1)
    n_built = len(plan_builds)
    load_distributed_checkpoint(reader, str(tmp_path / "ckpt"))
    reader.step(1)
    assert _built_for(plan_builds[n_built:n_built + 1], writer.dm.assignment) == [
        True,
    ]
    assert np.array_equal(reader.tiling.ranks, writer.tiling.ranks)
    assert _built_for(plan_builds[n_built + 1:], reader.tiling.ranks) == [
        True, True,
    ]
    reader.step(2)
    writer.step(3)
    assert len(plan_builds) == n_built + 3
    assert_states_equal(reader, writer)


def test_a_message_from_another_plan_is_refused():
    """SPMD, two worker processes: rank 0 sends its fill message under a
    digest rank 1's plan does not have.  Rank 1 raises a
    ``CommunicationError`` naming (src, dst, tag) before applying
    anything; rank 0, which received a genuine message, completes."""

    def worker(rank, transport):
        comm = SimComm(2, transport=transport)
        _, boxes, grids = make_setup(guards=3)
        fill_random(grids, FIELD_COMPONENTS, seed=3)
        overlaps = neighbor_overlaps(
            boxes, (16, 16), guards=3, periodic_axes=(0, 1), kind="fill"
        )
        if rank == 0:
            send = comm.send

            def forged(src, dst, msg, tag=""):
                (digest,), = msg.header
                send(src, dst, Message([(digest + 1,)], msg.buffers), tag=tag)

            comm.send = forged
        before = [bg.fields["Ex"].copy() for bg in grids]
        try:
            exchange_halos(
                comm, grids, boxes, overlaps, [0, 1, 0, 1], guards=3,
                local_rank=rank,
            )
        except CommunicationError as err:
            untouched = all(
                np.array_equal(b, bg.fields["Ex"]) for b, bg in zip(before, grids)
            )
            return str(err), untouched
        return None, None

    (ok, _), (error, untouched) = run_spmd(2, worker, run_timeout=60.0)
    assert ok is None
    assert "src=0 dst=1 tag='halo:fields'" in error and "plan" in error
    assert untouched
