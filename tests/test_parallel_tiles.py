"""Field tiles: a rank's E and B live in one guard-padded rectangle.

:class:`repro.parallel.distributed.FieldTiles` gives each rank one tile
over the rectangle its boxes cover (one tile per box where they cover
none), makes every box grid's E/B views into it, and runs one Maxwell
solver per tile.  These tests pin the tile detection, the fallback, the
carry-over when the assignment changes, and agreement with the
monolithic driver where one tile covers the whole domain.
"""

import numpy as np
import pytest

from repro.constants import c, m_e, plasma_wavelength, q_e
from repro.core.simulation import Simulation
from repro.grid.yee import FIELD_COMPONENTS, YeeGrid
from repro.parallel.box import Box
from repro.parallel.distributed import DistributedSimulation
from repro.parallel.redistribute import migrate_boxes
from repro.particles.injection import UniformProfile
from repro.particles.species import Species
from repro.scenarios.boosted_lwfa import (
    GUARD_TOLERANCES,
    BoostedLWFASetup,
    build_monolithic,
    make_distributed_build,
)

from tests.conftest import make_langmuir_build

N0 = 1e24
LENGTH = plasma_wavelength(N0)


def _perturb(sp):
    k = 2 * np.pi / LENGTH
    sp.momenta[:, 0] = 1e-2 * np.sin(k * sp.positions[:, 0])
    if sp.ndim > 1:
        sp.momenta[:, 1] = 5e-3 * np.cos(k * sp.positions[:, 1])


def _decomposed(n_cells, n_ranks, max_grid_size, **kw):
    ndim = len(n_cells)
    sim = DistributedSimulation(
        n_cells, (0.0,) * ndim, (LENGTH,) * ndim, n_ranks=n_ranks,
        max_grid_size=max_grid_size, cfl=0.9, shape_order=2,
        smoothing_passes=0, **kw,
    )
    sim.add_species(
        Species("electrons", charge=-q_e, mass=m_e, ndim=ndim),
        profile=UniformProfile(N0), ppc=1, momentum_init=_perturb,
    )
    return sim


def _monolithic(n_cells, guards, **kw):
    ndim = len(n_cells)
    sim = Simulation(
        YeeGrid(n_cells, (0.0,) * ndim, (LENGTH,) * ndim, guards=guards),
        cfl=0.9, shape_order=2, smoothing_passes=0, **kw,
    )
    electrons = Species("electrons", charge=-q_e, mass=m_e, ndim=ndim)
    sim.add_species(electrons, profile=UniformProfile(N0), ppc=1)
    _perturb(electrons)
    return sim


def _shares(sim, i, comp):
    tiling = sim.tiling
    return np.shares_memory(
        sim.box_grids[i].fields[comp],
        tiling.grids[tiling.tile_of_box[i]].fields[comp],
    )


@pytest.mark.parametrize(
    "n_cells, max_grid_size, tiles",
    [
        ((64,), 16, [Box((0,), (32,)), Box((32,), (64,))]),
        ((32, 32), 16, [Box((0, 0), (32, 16)), Box((0, 16), (32, 32))]),
        ((16, 16, 16), 8,
         [Box((0, 0, 0), (16, 16, 8)), Box((0, 0, 8), (16, 16, 16))]),
    ],
    ids=["1d", "2d", "3d"],
)
def test_each_rank_gets_one_tile(n_cells, max_grid_size, tiles):
    """Two ranks, each holding a rectangle of boxes: two tiles, every
    box's E and B are views into its rank's tile, its currents are its
    own, and one solver per tile advances all of its boxes."""
    sim = _decomposed(n_cells, 2, max_grid_size)
    assert sim.tiling.tiles == tiles
    assert list(sim.tiling.ranks) == [0, 1]
    for i in range(len(sim.boxes)):
        t = sim.tiling.tile_of_box[i]
        assert sim.tiling.ranks[t] == sim.dm.assignment[i]
        assert all(_shares(sim, i, comp) for comp in FIELD_COMPONENTS)
        assert not any(_shares(sim, i, comp) for comp in ("Jx", "Jy", "Jz"))
        assert sim.box_solvers[i] is sim.tiling.solvers[t]
    assert len({id(s) for s in sim.box_solvers}) == 2


def test_a_rank_with_no_boxes_has_no_tile():
    """Every box on rank 0 of two: one tile, the whole domain, solved by
    one solver; the idle rank owns nothing."""
    sim = _decomposed((32, 32), 2, 16)
    sim.dm.assignment = np.zeros(len(sim.boxes), dtype=np.intp)
    assert sim.tiling.tiles == [Box((0, 0), (32, 32))]
    assert list(sim.tiling.ranks) == [0]
    sim.step(2)
    assert all(_shares(sim, i, "Ex") for i in range(len(sim.boxes)))


def _reassign(sim, assignment):
    old = sim.dm.assignment.copy()
    sim.dm.assignment = np.asarray(assignment, dtype=np.intp)
    migrate_boxes(sim.comm, sim.box_grids, sim.species, old, sim.dm.assignment)


def _assert_same_state(sim, twin):
    """E and B (every box, guards included) and the particles agree bit
    for bit.  A box's own J outside the samples it owns differs between
    layouts by design — raw guard deposits under a shared tile, the
    owner's values where the box is its own tile — and no step reads it
    there, so it is not compared."""
    for bg, tg in zip(sim.box_grids, twin.box_grids):
        for comp in FIELD_COMPONENTS:
            np.testing.assert_array_equal(
                bg.fields[comp], tg.fields[comp], err_msg=comp
            )
    for name, dsp in sim.species.items():
        for sp, tp in zip(dsp.per_box, twin.species[name].per_box):
            order, t_order = np.argsort(sp.ids), np.argsort(tp.ids)
            for key in ("ids", "positions", "momenta"):
                np.testing.assert_array_equal(
                    getattr(sp, key)[order], getattr(tp, key)[t_order]
                )


def test_a_non_rectangular_rank_falls_back_to_box_tiles():
    """A rebalance that leaves rank 0 an L of three boxes: that rank runs
    one tile per box, rank 1 keeps one tile, the old tiles' data carries
    over, and the Yee run stays bit-identical to the run that never
    rebalanced (and to one built with the new assignment)."""
    build = make_langmuir_build(n_ranks=2, uy=0.3)
    sim, reference = build(), build()
    assert len(sim.tiling.tiles) == 2
    sim.step(3)
    reference.step(3)
    _reassign(sim, [0, 0, 0, 1])
    assert sim.tiling.tiles == sim.boxes[:3] + [sim.boxes[3]]
    assert [int(r) for r in sim.tiling.ranks] == [0, 0, 0, 1]
    _assert_same_state(sim, reference)
    sim.step(4)
    reference.step(4)
    _assert_same_state(sim, reference)
    twin = build()
    twin.dm.assignment = sim.dm.assignment.copy()
    twin.step(7)
    _assert_same_state(sim, twin)


def _assert_matches_monolithic(dist, mono, tol=1e-12):
    """Every component within ``tol`` of the field scale: max |E|, and
    max |E| / c for B (this deck's B is round-off noise, so its own
    maximum is no scale)."""
    e_scale = max(
        np.max(np.abs(mono.grid.interior_view(comp)))
        for comp in ("Ex", "Ey", "Ez")
    )
    assert e_scale > 0
    for comp in FIELD_COMPONENTS:
        scale = e_scale / c if comp[0] == "B" else e_scale
        err = np.max(np.abs(
            dist.global_field_view(comp) - mono.grid.interior_view(comp)
        ))
        assert err <= tol * scale, (comp, err / scale)


def test_single_rank_yee_is_one_tile_and_matches_monolithic():
    """One rank, four boxes: one tile covers the domain, and the run
    agrees with ``Simulation`` to round-off (deposit summation order)."""
    mono = _monolithic((32, 32), guards=4)
    dist = _decomposed((32, 32), 1, 16)
    assert dist.tiling.tiles == [Box((0, 0), (32, 32))]
    mono.step(20)
    dist.step(20)
    _assert_matches_monolithic(dist, mono)


def test_single_rank_psatd_is_the_periodic_transform():
    """One rank of PSATD boxes: the one tile spans the period on every
    axis, so it transforms the n periodic samples as the monolithic
    ``"valid"`` solve does — no guard error, only round-off."""
    kw = dict(maxwell_solver="psatd")
    mono = _monolithic((32, 32), guards=6, **kw)
    dist = _decomposed((32, 32), 1, 16, psatd_guards=6, **kw)
    (solver,) = dist.tiling.solvers
    assert solver.fft_shape == (32, 32)
    mono.step(20)
    dist.step(20)
    _assert_matches_monolithic(dist, mono)


def test_psatd_window_follows_the_tile():
    """A tile spanning the period along x transforms its 128 samples
    there and the n + 2g local window along y: one 128 x 88 transform
    set per rank instead of two 88 x 88 box sets."""
    sim = _decomposed((128, 128), 2, 64, maxwell_solver="psatd")
    assert [s.fft_shape for s in sim.tiling.solvers] == [(128, 88)] * 2
    # FFT cells over valid cells: 2 * 128 * 88 / 128**2 = 1.375 (1.89)


def test_psatd_run_whose_tiling_changes_stays_in_tolerance():
    """The decomposed boosted LWFA changes tiling mid-run — rank 1 takes
    three boxes, wider than a period minus its guards, so it falls back
    to box tiles — and still tracks the monolithic solve within the
    guard tolerance of its depth."""
    setup = BoostedLWFASetup(n_cells=64, ppc=2)
    guards = 12
    field_tol = GUARD_TOLERANCES[guards][0]
    mono, _electrons = build_monolithic(setup, guards=guards)
    dist = make_distributed_build(
        setup, n_ranks=2, max_grid_size=16, psatd_guards=guards
    )()
    assert len(dist.tiling.tiles) == 2
    dist.step(15)
    _reassign(dist, [0, 1, 1, 1])
    assert len(dist.tiling.tiles) == 4
    dist.step(15)
    mono.step(30)
    for comp in ("Ex", "Ey", "Bz"):
        want = mono.grid.interior_view(comp)
        err = np.max(np.abs(dist.global_field_view(comp) - want))
        assert err / np.max(np.abs(want)) < field_tol, comp


def _lb_build(transport=None):
    """Plasma with a Langmuir perturbation in the lowest quarter along y
    of a 4 x 4 box deck on two ranks (one tile each, split along y): the
    heuristic balancer moves boxes whose fields are already nonzero."""
    from repro.particles.injection import SlabProfile

    sim = DistributedSimulation(
        (16, 16), (0.0, 0.0), (LENGTH, LENGTH), n_ranks=2, max_grid_size=4,
        cfl=0.9, shape_order=2, smoothing_passes=0, dynamic_lb=True,
        lb_interval=4, lb_threshold=1.01, lb_cost_source="heuristic",
        transport=transport,
    )
    sim.add_species(
        Species("electrons", charge=-q_e, mass=m_e, ndim=2),
        profile=SlabProfile(N0, 0.0, LENGTH / 4, axis=1), ppc=(2, 2),
        momentum_init=_perturb,
    )
    return sim


def test_an_spmd_rebalance_ships_current_fields(transport_runner):
    """Worker processes rebuild their tiles when the balancer moves boxes:
    a box a rank gives away is shipped with its current fields, one it
    takes over lands in its new tile, and the run stays bit-identical to
    loopback."""
    from repro.parallel.mp_transport import run_distributed_local

    from tests.conftest import assert_runs_equal

    want = run_distributed_local(_lb_build, 8)
    moved = np.flatnonzero(_lb_build().dm.assignment != want.assignment)
    assert moved.size and all(
        np.abs(want.fields[i]["Ex"]).max() > 0 for i in moved
    )
    got = transport_runner(_lb_build, 8, n_ranks=2)
    assert got.lb_events == want.lb_events
    assert_runs_equal(got, want)
