"""Native entries bind their arrays once (:func:`repro.native.bind`).

Every native entry keeps a pointer table of the arrays it was handed,
checked once, on the object that owns them, and on each later call
rechecks only what can change under the same objects: identity, shape,
strides, dtype and, where the entry writes, writability (the PSATD
update's spectra, fresh every step, are checked on every call).  For
each entry (and for the subcycled aux assembly, on the external term its
patch holds) a good call binds first; then (a) a replaced array, (b) a
written array made read-only and (c) an in-place reshape must each raise
the entry's ``ConfigurationError`` and write nothing.  Also: a binding follows the
moving window's ``lo``, a precision change and a re-tiling rebind, and a
run builds each binding once.
"""

import collections

import numpy as np
import pytest

from repro import native
from repro.constants import c, m_e, q_e
from repro.core.mr_level import MRPatch
from repro.exceptions import ConfigurationError
from repro.grid import compiled as native_fields
from repro.grid.boundary import apply_damping
from repro.grid.maxwell import MaxwellSolver, cfl_dt
from repro.grid.pml import PMLMaxwellSolver
from repro.grid.psatd import PSATDMaxwellSolver
from repro.grid.yee import FIELD_COMPONENTS, YeeGrid
from repro.particles.kernels import get_kernel_set
from tests.conftest import (
    assert_same_arrays,
    make_langmuir_build,
    needs_compiled,
    random_fields,
    random_grid,
)

pytestmark = needs_compiled


def particles(grid, n=37, seed=3):
    rng = np.random.default_rng(seed)
    lo, hi = np.asarray(grid.lo), np.asarray(grid.hi)
    pos = lo + (hi - lo) * rng.uniform(0.1, 0.9, size=(n, grid.ndim))
    return pos, 0.5 * rng.standard_normal((n, 3)), 1.0 + rng.random(n)


def grid_case(run):
    grid = random_grid((10, 8))
    return grid, lambda: run(grid)


def case_yee():
    def run(grid):
        MaxwellSolver(grid, cfl_dt(grid.dx, 0.7)).step()
    grid, call = grid_case(run)
    return call, grid.fields, "Ey", grid.fields, "yee_step"


def case_pml():
    grid = random_grid((10, 8))
    solver = PMLMaxwellSolver(grid, cfl_dt(grid.dx, 0.7), n_pml=3)
    keys = {str(k): k for k in solver.split}
    state = {**grid.fields, **{s: solver.split[k] for s, k in keys.items()}}
    return solver.step, solver.split, ("Ez", 0), state, "pml_step"


def case_damp():
    grid, call = grid_case(lambda grid: apply_damping(grid, 1, 3))
    return call, grid.fields, "Bz", grid.fields, "damp"


def case_smooth():
    backend = native_fields.backend(np.dtype(np.float64))
    grid, call = grid_case(lambda grid: backend.smooth(grid, 2))
    return call, grid.fields, "Jy", grid.fields, "smooth"


def mr_patch():
    parent = YeeGrid((12, 12), (0.0, 0.0), (12.0, 12.0), guards=3)
    patch = MRPatch(parent, (3, 2), (9, 7), ratio=2,
                    dt=0.5 * cfl_dt(parent.dx, 0.7), n_pml=2)
    for k, grid in enumerate((parent, patch.coarse, patch.fine)):
        random_fields(grid, k)
    return patch


def patch_state(patch):
    return {f"{level}/{k}": v for level in ("parent", "coarse", "fine", "aux")
            for k, v in getattr(patch, level).fields.items()}


def case_assemble_aux():
    patch = mr_patch()
    return (patch.assemble_aux, patch.aux.fields, "Ey", patch_state(patch),
            "assemble_aux")


def case_assemble_aux_subcycled():
    """The last substep of a subcycled step: it reads and writes the
    external term the patch holds (float64, the fine grid's shape)."""
    patch = mr_patch()
    patch.assemble_aux(0)  # the first substep of its first step holds one
    held = patch._external_prev
    state = {**patch_state(patch), **{f"prev/{k}": v for k, v in held.items()}}
    return (lambda: patch.assemble_aux(patch.ratio - 1), held, "Ey", state,
            "assemble_aux")


def case_restrict_currents():
    patch = mr_patch()

    def run():
        patch.begin_step()
        patch.accumulate_restricted_currents(0.5)
    return (run, patch.coarse.fields, "Jz", patch_state(patch),
            "restrict_currents")


def case_psatd_update():
    grid = random_grid((12, 10))
    solver = PSATDMaxwellSolver(grid, 0.5 * cfl_dt(grid.dx, 0.7))
    spectra = [solver._raw_spectrum(comp)
               for comp in FIELD_COMPONENTS + ("Jx", "Jy", "Jz")]
    backend = native_fields.backend(solver.rdtype)
    named = dict(enumerate(spectra))

    def run():
        backend.psatd_update(solver, [named[k] for k in range(9)])
    return run, named, 1, {str(k): v for k, v in named.items()}, "psatd_update"


def particle_case(entry):
    grid = random_grid((10, 8))
    ks = get_kernel_set("compiled")
    pos, mom, w = particles(grid)
    dt = 0.3 * min(grid.dx) / c
    moved = pos + 0.05 * np.asarray(grid.dx)
    run = {
        "advance": lambda: ks.advance(grid, pos, mom, w, -q_e, m_e, dt, 2),
        "gather": lambda: ks.gather(grid, pos, 2),
        "deposit": lambda: ks.deposit_current(grid, pos, moved, mom, w, -q_e,
                                              dt, 2),
    }[entry]
    written = None if entry == "gather" else "Jy"
    return run, grid.fields, written, grid.fields, "compiled"


CASES = {
    "yee": case_yee, "pml": case_pml, "damp": case_damp,
    "smooth": case_smooth, "assemble_aux": case_assemble_aux,
    "assemble_aux_subcycled": case_assemble_aux_subcycled,
    "restrict_currents": case_restrict_currents,
    "psatd_update": case_psatd_update,
    "advance": lambda: particle_case("advance"),
    "gather": lambda: particle_case("gather"),
    "deposit": lambda: particle_case("deposit"),
}


def snapshot(state):
    return {str(k): np.array(v, copy=True).ravel() for k, v in state.items()}


def refused(call, state, what):
    before = snapshot(state)
    with pytest.raises(ConfigurationError, match=what):
        call()
    assert_same_arrays(snapshot(state), before)


@pytest.mark.parametrize("entry", list(CASES))
def test_a_bound_entry_refuses_what_changed_under_it(entry):
    call, arrays, written, state, what = CASES[entry]()
    call()  # binds
    # (a) a replaced array with a layout the entry cannot take; a good
    # replacement is bound and runs
    key = written if written is not None else "Bz"
    good = arrays[key]
    arrays[key] = np.asfortranarray(good) if good.ndim > 1 else good[::2]
    refused(call, state, what)
    arrays[key] = good.copy()
    call()
    good = arrays[key]
    # (b) a written array made read-only (no written grid array: gather)
    if written is not None:
        good.flags.writeable = False
        refused(call, state, what)
        good.flags.writeable = True
    # (c) an in-place reshape of a bound array
    shape = good.shape
    good.shape = (good.size,)
    refused(call, state, what)
    good.shape = shape
    call()  # and it runs again


def test_a_bound_advance_follows_the_moving_window_bit_for_bit():
    """The fused pass keeps its geometry, wrap and keep boxes with the
    binding, keyed by value: after a window shift the bound call is bit
    for bit the call on a grid bound for the first time."""
    from repro.core.moving_window import MovingWindow
    from repro.core.simulation import Simulation

    def deck():
        grid = random_grid((16, 8), guards=3)
        sim = Simulation(grid, boundaries=("damped", "periodic"))
        sim.set_moving_window(MovingWindow(c))
        return sim

    sim = deck()
    ks = get_kernel_set("compiled")
    grid = sim.grid
    pos, mom, w = particles(grid)
    dt = 0.3 * min(grid.dx) / c
    periodic = (grid.lo, grid.hi, (1,))
    box = (tuple(lo + 1e-6 for lo in grid.lo), tuple(grid.hi))
    ks.advance(grid, pos, mom, w, -q_e, m_e, dt, 2, "boris", periodic, None, box)
    sim._shift_window_one_cell()
    fresh = YeeGrid(grid.n_cells, grid.lo, grid.hi, guards=grid.guards)
    for name, arr in grid.fields.items():
        fresh.fields[name][...] = arr
    pos = pos + grid.dx[0]
    periodic = (grid.lo, grid.hi, (1,))
    box = (tuple(lo + 1e-6 for lo in grid.lo), tuple(grid.hi))
    got = ks.advance(grid, pos, mom, w, -q_e, m_e, dt, 2, "boris", periodic,
                     None, box)
    want = ks.advance(fresh, pos, mom, w, -q_e, m_e, dt, 2, "boris",
                      periodic, None, box)
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b)
    assert_same_arrays(grid.fields, fresh.fields)


def counting_bind(monkeypatch):
    """Spy on :func:`repro.native.bind`: builds per (owner, key)."""
    builds = collections.Counter()
    real = native.bind

    def spy(owner, key, *args):
        before = owner.__dict__.get("_native_bindings", {}).get(key)
        bound = real(owner, key, *args)
        if bound is not before:
            builds[id(owner), key] += 1
        return bound

    monkeypatch.setattr(native, "bind", spy)
    return builds


def test_set_precision_rebinds(monkeypatch):
    builds = counting_bind(monkeypatch)
    grid = random_grid((10, 8))
    twin = random_grid((10, 8))
    MaxwellSolver(grid, cfl_dt(grid.dx, 0.7)).step()
    grid.set_precision(np.float32)
    MaxwellSolver(grid, cfl_dt(grid.dx, 0.7)).step()
    assert builds[id(grid), "EBJ"] == 2
    # what a grid bound for the first time at float32 computes
    MaxwellSolver(twin, cfl_dt(twin.dx, 0.7)).step()
    fresh = YeeGrid(twin.n_cells, twin.lo, twin.hi, guards=twin.guards)
    for name, arr in twin.fields.items():
        fresh.fields[name][...] = arr
    fresh.set_precision(np.float32)
    MaxwellSolver(fresh, cfl_dt(fresh.dx, 0.7)).step()
    assert_same_arrays(grid.fields, fresh.fields)


def test_a_tiling_rebuild_rebinds_the_box_grids(monkeypatch):
    """After a rebalance each box's E and B are views into new tiles: the
    fused pass of every box binds again, and the run stays bit for bit
    the one that never rebalanced (test_parallel_tiles)."""
    from repro.parallel.redistribute import migrate_boxes

    builds = counting_bind(monkeypatch)
    build = make_langmuir_build(n_ranks=2, uy=0.3)
    sim, reference = build(), build()
    sim.step(2)
    reference.step(2)
    before = sum(n for (_, key), n in builds.items() if key == "advance")
    old = sim.dm.assignment.copy()
    sim.dm.assignment = np.asarray([0, 0, 0, 1], dtype=np.intp)
    migrate_boxes(sim.comm, sim.box_grids, sim.species, old, sim.dm.assignment)
    sim.step(2)
    reference.step(2)
    after = sum(n for (_, key), n in builds.items() if key == "advance")
    assert after >= before + 3
    for bg in sim.box_grids:
        bound = bg._native_bindings["advance"]
        assert all(a is bg.fields[k] for a, k in zip(bound.arrays, bound.names))
    for bg, tg in zip(sim.box_grids, reference.box_grids):
        for comp in FIELD_COMPONENTS:
            np.testing.assert_array_equal(bg.fields[comp], tg.fields[comp])


@pytest.mark.parametrize("subcycle", [False, True],
                         ids=["synchronous", "subcycled"])
def test_the_hybrid_deck_builds_each_binding_once(monkeypatch, subcycle):
    """20 steps of the Fig. 6(a) deck, scaled down, with its patch active:
    every (owner, key) binding is built on its first call and never
    again — a subcycled patch's held external term included."""
    from repro.constants import fs, um
    from repro.scenarios import HybridTargetSetup, build_hybrid_target

    builds = counting_bind(monkeypatch)
    setup = HybridTargetSetup(
        cells_per_wavelength=4, x_max=8 * um, y_half=3 * um,
        gas_lo=2 * um, gas_hi=4.5 * um, solid_lo=4.5 * um, solid_hi=5.5 * um,
        solid_nc=20, a0=2.5, duration=3 * fs, waist=1.5 * um, seed=7,
    )
    sim, _, _ = build_hybrid_target(setup, mode="mr", subcycle=subcycle)
    sim.step(20)
    assert sim.patches
    keys = {key for _, key in builds}
    expected = {"EBJ", "EB", "EB:r", "J", "J:r", "parts", "advance"}
    assert expected | ({"prev"} if subcycle else set()) <= keys
    assert set(builds.values()) == {1}
