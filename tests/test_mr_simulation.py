"""Integration tests for the mesh-refined simulation: agreement with
uniform-resolution runs, patch removal, moving-window coupling, subcycling."""

import dataclasses

import numpy as np
import pytest

from repro.constants import c, fs, m_e, plasma_wavelength, q_e, um
from repro.core.moving_window import MovingWindow
from repro.core.simulation import Simulation
from repro.diagnostics.io import load_checkpoint, save_checkpoint
from repro.exceptions import ConfigurationError
from repro.grid.maxwell import cfl_dt
from repro.grid.yee import YeeGrid
from repro.particles.injection import UniformProfile
from repro.particles.kernels import FLOAT32_ERROR_BUDGET
from repro.particles.species import Species
from tests.conftest import needs_compiled, record_calls, unfused
from tests.test_resilience_checkpoint import build_mr_subcycled


def test_mr_requires_esirkepov():
    g = YeeGrid((32,), (0.0,), (32.0,), guards=4)
    sim = Simulation(g, deposition="direct")
    with pytest.raises(ConfigurationError):
        sim.add_patch((8,), (24,))


def make_langmuir_mr(n_cells=64, with_patch=True, subcycle=False, ppc=16,
                     **options):
    n0 = 1e24
    length = plasma_wavelength(n0)
    g = YeeGrid((n_cells,), (0.0,), (length,), guards=4)
    # dt must satisfy the fine CFL when not subcycling
    ratio = 2
    dt = cfl_dt((length / n_cells / ratio,), 0.9)
    if subcycle:
        dt = cfl_dt((length / n_cells,), 0.9)
    sim = Simulation(g, dt=dt, shape_order=2, smoothing_passes=0, **options)
    e = Species("electrons", charge=-q_e, mass=m_e, ndim=1)
    sim.add_species(e, profile=UniformProfile(n0), ppc=ppc)
    k = 2 * np.pi / length
    e.momenta[:, 0] = 1e-3 * np.sin(k * e.positions[:, 0])
    if with_patch:
        sim.add_patch((n_cells // 4,), (3 * n_cells // 4,), ratio=ratio,
                      subcycle=subcycle)
    return sim, e


def test_mr_langmuir_matches_single_level():
    """A refinement patch over a uniform plasma must not change the
    large-scale dynamics: Ex histories agree with the no-MR run."""
    sim_mr, _ = make_langmuir_mr(with_patch=True)
    sim_ref, _ = make_langmuir_mr(with_patch=False)
    probe = (sim_ref.grid.guards + 8,)  # outside the patch
    hist_mr, hist_ref = [], []
    for _ in range(150):
        sim_mr.step()
        sim_ref.step()
        hist_mr.append(sim_mr.grid.fields["Ex"][probe])
        hist_ref.append(sim_ref.grid.fields["Ex"][probe])
    hist_mr = np.array(hist_mr)
    hist_ref = np.array(hist_ref)
    scale = np.max(np.abs(hist_ref))
    assert scale > 0
    assert np.max(np.abs(hist_mr - hist_ref)) < 0.1 * scale


def test_mr_gather_uses_aux_inside_patch():
    sim, e = make_langmuir_mr(with_patch=True, kernels="vectorized")
    patch = sim.patches[0]
    # poison the aux field; interior particles must see it
    patch.aux.fields["Ez"][...] = 123.0
    inner = patch.interior_mask(e.positions)
    assert np.any(inner)
    sim.kernel_set, gathers = record_calls(sim.kernel_set, "gather")
    sim.step()
    (on_aux, x_aux, (e_aux, _)), (on_parent, x_parent, (e_parent, _)) = gathers
    assert on_aux is patch.aux and on_parent is sim.grid
    assert len(x_aux) == inner.sum() and len(x_parent) == (~inner).sum()
    np.testing.assert_allclose(e_aux[:, 2], 123.0, rtol=1e-12)
    assert np.all(np.abs(e_parent[:, 2]) < 1.0)


def test_mr_gather_evaluates_each_particle_on_one_grid():
    """While a patch is active every particle is gathered on exactly one
    grid (aux or parent): the simulation's own gather kernel sees it
    once, not once on the parent and again on the patch — on the NumPy
    and on the native tier's gather, and in the native tier's fused
    slot."""
    for kernels in ("vectorized", "compiled"):
        sim, e = make_langmuir_mr(with_patch=True, kernels=kernels)
        aux = sim.patches[0].aux
        inner = sim.patches[0].interior_mask(e.positions)
        assert np.any(inner) and not np.all(inner)
        if sim.kernel_set.advance is not None:
            fused, _ = make_langmuir_mr(with_patch=True, kernels=kernels)
            fused.kernel_set, advances = record_calls(
                fused.kernel_set, "advance"
            )
            fused.step()
            assert [(grid, len(x)) for grid, x, _ in advances] == [
                (fused.patches[0].aux, int(inner.sum())),
                (fused.grid, int((~inner).sum())),
            ]
            sim.kernel_set = unfused(sim.kernel_set)
        # bit for bit what each grid gathers on its own, at step n
        real = sim.kernel_set.gather
        on_parent = real(sim.grid, e.positions, sim.shape_order)
        on_patch = real(aux, e.positions[inner], sim.shape_order)
        sim.kernel_set, gathers = record_calls(sim.kernel_set, "gather")
        sim.step()
        assert [(grid, len(x)) for grid, x, _ in gathers] == [
            (aux, int(inner.sum())), (sim.grid, int((~inner).sum()))
        ]
        (_, _, (e_in, b_in)), (_, _, (e_out, _)) = gathers
        assert np.array_equal(e_out, on_parent[0][~inner])
        assert np.array_equal(e_in, on_patch[0])
        assert np.array_equal(b_in, on_patch[1])


def test_patch_removed_at_remove_time():
    g = YeeGrid((32,), (0.0,), (32.0,), guards=4)
    ratio = 2
    dt = cfl_dt((32.0 / 32 / ratio,), 0.9)
    sim = Simulation(g, dt=dt, smoothing_passes=0)
    sim.add_patch((8,), (24,), remove_time=3.5 * dt)
    assert len(sim.patches) == 1
    sim.step(3)
    assert len(sim.patches) == 1
    sim.step(1)
    assert len(sim.patches) == 0
    assert len(sim.removal_log) == 1
    sim.step(2)  # keeps running fine without the patch


def test_patch_follows_moving_window_and_exits():
    g = YeeGrid((32,), (0.0,), (32.0,), guards=4)
    ratio = 2
    dt = cfl_dt((32.0 / 32 / ratio,), 0.9)
    sim = Simulation(g, dt=dt, boundaries="damped", smoothing_passes=0)
    patch = sim.add_patch((2,), (10,))
    sim.set_moving_window(MovingWindow(speed=c, start_time=0.0))
    lo_before = patch.region_lo[0]
    # each step shifts by c*dt/dx = 0.45 cells
    sim.step(4)
    assert sim.patches and sim.patches[0].region_lo[0] < lo_before
    sim.step(10)
    # the lab-fixed patch has fallen off the moving domain
    assert len(sim.patches) == 0


def test_subcycled_patch_matches_non_subcycled():
    """Subcycling the fine level must reproduce the same physics.

    The subcycled run advances the parent with a 2x larger step, so a
    small phase shift is expected; the field *pattern* and amplitude must
    agree."""
    sim_a, _ = make_langmuir_mr(with_patch=True, subcycle=False)
    sim_b, _ = make_langmuir_mr(with_patch=True, subcycle=True)
    t_end = 60 * sim_a.dt
    sim_a.run_until(t_end)
    sim_b.run_until(t_end)
    ex_a = sim_a.grid.interior_view("Ex")
    ex_b = sim_b.grid.interior_view("Ex")
    scale = np.max(np.abs(ex_a))
    assert scale > 0
    # same amplitude ...
    assert np.max(np.abs(ex_b)) == pytest.approx(scale, rel=0.2)
    # ... and the same standing-wave pattern (phase-insensitive)
    corr = np.corrcoef(ex_a.ravel(), ex_b.ravel())[0, 1]
    assert corr > 0.98


def test_subcycling_allows_coarse_dt():
    """With subcycling, dt set by the *coarse* CFL is legal and stable."""
    sim, e = make_langmuir_mr(with_patch=True, subcycle=True)
    assert sim.dt > cfl_dt((plasma_wavelength(1e24) / 64 / 2,), 1.0)
    sim.step(30)
    assert np.all(np.isfinite(sim.grid.fields["Ex"]))
    assert np.all(np.isfinite(sim.patches[0].fine.fields["Ex"]))


def test_subcycled_members_keep_their_place_in_the_species():
    """Membership is a mask over the species, not a removal: with periodic
    walls and nothing removed, a subcycled MR run keeps its particle
    order."""
    sim, e = build_mr_subcycled()
    ids = e.ids.copy()
    sim.step(3)
    assert sim.patches[0]._member_ids["e"].size
    np.testing.assert_array_equal(e.ids, ids)


@pytest.mark.parametrize("option, value", [
    ("ratio", 2.5), ("ratio", 1), ("n_transition", 1.7),
    ("n_transition", -3), ("n_pml", 2.9), ("n_pml", 0),
])
def test_add_patch_refuses_what_it_would_truncate(option, value):
    sim, _ = make_langmuir_mr(with_patch=False)
    with pytest.raises(ConfigurationError, match=option):
        sim.add_patch((16,), (48,), **{option: value})
    assert not sim.patches


def test_total_fine_cells():
    g = YeeGrid((32, 32), (0, 0), (32.0, 32.0), guards=4)
    dt = cfl_dt((0.5, 0.5), 0.7)
    sim = Simulation(g, dt=dt, smoothing_passes=0)
    sim.add_patch((8, 8), (16, 16), ratio=2)
    assert sim.total_fine_cells() == 16 * 16


def test_mr_requires_yee_solver():
    g = YeeGrid((32,), (0.0,), (32.0,), guards=4)
    sim = Simulation(g, maxwell_solver="psatd")
    with pytest.raises(ConfigurationError):
        sim.add_patch((8,), (24,))


# -- the particle route while a patch is active ---------------------------------

def make_mr_2d(fused=True, precision=None, kernels="compiled"):
    """A warm 2D plasma under one patch: some members leave the patch
    interior every step."""
    n0 = 1e24
    length = plasma_wavelength(n0)
    g = YeeGrid((32, 16), (0.0, 0.0), (length, length / 2), guards=4)
    dt = cfl_dt((g.dx[0] / 2, g.dx[1] / 2), 0.9)
    sim = Simulation(g, dt=dt, shape_order=2, kernels=kernels,
                     precision=precision)
    e = Species("electrons", charge=-q_e, mass=m_e, ndim=2)
    sim.add_species(e, profile=UniformProfile(n0), ppc=(2, 2),
                    temperature_uth=0.05, rng=np.random.default_rng(3))
    e.momenta[:, 0] += 1e-2 * np.sin(2 * np.pi / length * e.positions[:, 0])
    sim.add_patch((8, 4), (24, 12), ratio=2)
    if not fused:
        sim.kernel_set = unfused(sim.kernel_set)
    return sim, e


def patch_grids(sim):
    return [("parent", sim.grid)] + [
        (f"patch {k} {label}", getattr(patch, label))
        for k, patch in enumerate(sim.patches)
        for label in ("fine", "coarse", "aux")
    ]


def worst_field_deviation(got, want):
    """Largest deviation over every grid of the two runs, relative to the
    largest magnitude of its field family (E, B, J; the auxiliary grid
    holds no current) on that grid."""
    worst = 0.0
    for (name, mine), (_, ref) in zip(patch_grids(got), patch_grids(want)):
        for family in ("E", "B") if name.endswith("aux") else ("E", "B", "J"):
            comps = [family + axis for axis in "xyz"]
            scale = max(np.max(np.abs(ref.fields[comp])) for comp in comps)
            assert scale > 0, (name, family)
            diff = max(
                np.max(np.abs(mine.fields[comp].astype(np.float64)
                              - ref.fields[comp]))
                for comp in comps
            )
            worst = max(worst, diff / scale)
    return worst


def count_crossers(sim):
    seen = []
    deposit = sim._deposit

    def spy(weights, charge, x_old, x_new, velocities):
        seen.append(len(x_old))
        return deposit(weights, charge, x_old, x_new, velocities)

    sim._deposit = spy
    return seen


def assert_runs_agree(got, want, e_got, e_want, bound):
    """Every grid of the two runs and their particles agree to ``bound``,
    relative to the largest magnitude of each family."""
    assert worst_field_deviation(got, want) <= bound
    scale = np.max(np.abs(e_want.positions))
    assert np.max(np.abs(e_got.positions - e_want.positions)) <= bound * scale
    scale = np.max(np.abs(e_want.momenta))
    assert np.max(np.abs(e_got.momenta - e_want.momenta)) <= bound * scale


@needs_compiled
@pytest.mark.parametrize("reference, precision, bound", [
    ("unfused", None, 1e-13),
    ("unfused", "mixed", FLOAT32_ERROR_BUDGET["advance"]),
    ("vectorized", None, 1e-13),
])
def test_fused_mr_route_matches_the_composed_route(reference, precision, bound):
    """One fused pass per level reproduces the composed route on every
    grid of the deck — parent, fine, coarse and auxiliary fields — and on
    the particles, crossers included: against the same C gather and
    deposit without the fused slot, and against the NumPy tier."""
    fused, e_f = make_mr_2d(precision=precision)
    if reference == "unfused":
        composed, e_c = make_mr_2d(fused=False, precision=precision)
    else:
        composed, e_c = make_mr_2d(precision=precision, kernels=reference)
        assert composed.kernels == reference
    crossers = count_crossers(fused)
    composed_crossers = count_crossers(composed)
    fused.step(20)
    composed.step(20)
    assert sum(crossers) >= 1 and sum(composed_crossers) >= 1
    # one phase per species and step, whichever kernel each level took
    assert fused.timers.counts["particles"] == 20
    assert composed.timers.counts["particles"] == 20
    assert not {"gather", "push", "deposit"} & set(composed.timers.totals)
    assert_runs_agree(fused, composed, e_f, e_c, bound)


def make_mr_1d_at_the_fine_courant_limit(fused=True):
    """A warm 1D plasma under one ratio-2 patch, stepped at the fine
    grid's Courant limit: every move may span a fine cell, so the patch
    level takes the composed route while the parent (half a parent cell
    a step) keeps the fused pass."""
    n0 = 1e24
    length = plasma_wavelength(n0)
    g = YeeGrid((32,), (0.0,), (length,), guards=4)
    sim = Simulation(g, dt=cfl_dt((g.dx[0] / 2,), 1.0), shape_order=2,
                     smoothing_passes=0, kernels="compiled")
    e = Species("electrons", charge=-q_e, mass=m_e, ndim=1)
    sim.add_species(e, profile=UniformProfile(n0), ppc=4,
                    temperature_uth=0.3, rng=np.random.default_rng(4))
    sim.add_patch((8,), (24,), ratio=2)
    if not fused:
        sim.kernel_set = unfused(sim.kernel_set)
    return sim, e


@needs_compiled
def test_one_step_mixes_a_fused_and_a_composed_level():
    """Each level picks its kernel for its own grid: on this deck the
    parent's particles run the fused slot and the patch members the
    composed route (C gather, NumPy push, C deposit), in one step, and the
    run matches the all-composed one."""
    mixed, e_m = make_mr_1d_at_the_fine_courant_limit()
    composed, e_c = make_mr_1d_at_the_fine_courant_limit(fused=False)
    aux = mixed.patches[0].aux
    assert min(mixed.grid.dx) > c * mixed.dt >= min(aux.dx)
    mixed.kernel_set, advances = record_calls(mixed.kernel_set, "advance")
    mixed.kernel_set, gathers = record_calls(mixed.kernel_set, "gather")
    crossers = count_crossers(mixed)
    mixed.step(20)
    composed.step(20)
    assert mixed.patches and sum(crossers) >= 1
    assert [grid for grid, _, _ in advances] == [mixed.grid] * 20
    # the crossers' deposit runs no gather: every gather is the patch's
    assert [grid for grid, _, _ in gathers] == [aux] * 20
    assert_runs_agree(mixed, composed, e_m, e_c, 1e-13)


@needs_compiled
def test_fused_mr_checkpoint_restart_is_bit_identical(tmp_path):
    straight, e_s = make_mr_2d()
    straight.step(20)
    first, _ = make_mr_2d()
    first.step(10)
    path = str(tmp_path / "mid_patch.npz")
    save_checkpoint(first, path)
    resumed, e_r = make_mr_2d()
    load_checkpoint(resumed, path)
    crossers = count_crossers(resumed)
    resumed.step(10)
    assert sum(crossers) >= 1 and resumed.patches
    assert "gather" not in resumed.timers.totals
    for (name, mine), (_, ref) in zip(patch_grids(resumed), patch_grids(straight)):
        for comp, arr in ref.fields.items():
            assert np.array_equal(mine.fields[comp], arr), (name, comp)
    assert np.array_equal(e_r.positions, e_s.positions)
    assert np.array_equal(e_r.momenta, e_s.momenta)


@needs_compiled
def test_only_subcycled_patches_leave_the_parent_on_the_fused_pass():
    """A subcycled patch claims its members' rows for its substeps, so
    the parent pass runs the rest: the parent's rows run the fused pass,
    and the substeps run it too (aux -> fine), so no standalone gather or
    deposit runs anywhere."""
    sim, e = make_langmuir_mr(with_patch=True, subcycle=True,
                              kernels="compiled")
    calls = []
    sim.kernel_set = dataclasses.replace(
        sim.kernel_set,
        gather=lambda *args: calls.append("gather"),
        deposit_current=lambda *args: calls.append("deposit"),
    )
    sim.step(5)
    assert not calls
    assert sim.timers.counts["particles"] == 5
    assert sim.timers.counts["mr_subcycle"] == 5
    assert not {"gather", "push", "deposit"} & set(sim.timers.counts)
    assert np.all(np.isfinite(sim.patches[0].fine.fields["Jx"]))
    assert np.any(sim.patches[0].fine.fields["Jx"])


# -- the hybrid target deck: native field entries against the NumPy bodies -----

from repro.scenarios import HybridTargetSetup, build_hybrid_target  # noqa: E402
from tests.conftest import assert_same_arrays, numpy_fields  # noqa: E402


def hybrid_state(sim):
    """Every array of the run: parent and patch grids, PML split parts,
    particles (the sort keeps ids and order identical across routes)."""
    state = {f"grid/{k}": v for k, v in sim.grid.fields.items()}
    for i, patch in enumerate(sim.patches):
        for level in ("fine", "coarse", "aux"):
            grid = getattr(patch, level)
            state.update((f"p{i}/{level}/{k}", v) for k, v in grid.fields.items())
        for level in ("fine_solver", "coarse_solver"):
            split = getattr(patch, level).split
            state.update((f"p{i}/{level}/{k}", v) for k, v in split.items())
    for name, sp in sim.species.items():
        for attr in ("positions", "momenta", "weights", "ids"):
            state[f"{name}/{attr}"] = getattr(sp, attr)
    return state


@needs_compiled
def test_a_subcycled_patch_assembles_aux_once_per_substep(monkeypatch):
    """Over N patch-active coarse steps of the subcycled Fig. 6 deck the
    native ``assemble_aux`` runs ``ratio * N`` times, once per substep.
    It used to run once more per step after the parent's field advance
    (120 calls in 40 steps): dead work, since the next step's substep 0
    rebuilds all of ``aux`` before any gather reads it."""
    from benchmarks.bench_fig6_mr_time_to_solution import make_setup
    from repro.grid.compiled import FieldBackend

    calls = []
    real = FieldBackend.assemble_aux

    def spy(self, patch, *args, **kwargs):
        calls.append(patch)
        return real(self, patch, *args, **kwargs)

    sim, _, _ = build_hybrid_target(make_setup(), mode="mr")
    (patch,) = sim.patches
    assert patch.subcycle
    monkeypatch.setattr(FieldBackend, "assemble_aux", spy)
    n_steps = 40
    sim.step(n_steps)
    assert sim.patches == [patch]
    assert len(calls) == patch.ratio * n_steps == 80


@needs_compiled
@pytest.mark.parametrize("subcycle", [False, True],
                         ids=["synchronous", "subcycled"])
def test_hybrid_deck_native_fields_are_the_numpy_route_through_removal(subcycle):
    """The MR deck of Fig. 6 (damped walls, antenna, a PML-terminated
    patch, the moving window), scaled down, run past its patch removal
    with the native field entries and with their NumPy bodies — the
    particle kernels the same on both sides — must agree in every array
    at every fifth step, while the patch is active and after; for the
    synchronous patch and for the subcycled one, whose substeps
    accumulate the restricted current (and run at twice the ``dt``, so
    half as many steps have the patch)."""
    setup = HybridTargetSetup(
        cells_per_wavelength=4, x_max=8 * um, y_half=3 * um,
        gas_lo=2 * um, gas_hi=4.5 * um, solid_lo=4.5 * um, solid_hi=5.5 * um,
        solid_nc=20, a0=2.5, duration=3 * fs, waist=1.5 * um, seed=7,
    )
    native, _, _ = build_hybrid_target(setup, mode="mr", subcycle=subcycle)
    with numpy_fields():
        oracle, _, _ = build_hybrid_target(setup, mode="mr", subcycle=subcycle)
    active = 0
    for step in range(1, 121):
        native.step()
        with numpy_fields():
            oracle.step()
        active += bool(native.patches)
        if step % 5 == 0:
            assert_same_arrays(hybrid_state(native), hybrid_state(oracle),
                               f"step {step}")
    assert (40 if subcycle else 80) <= active < 120 and not oracle.patches
    assert native.removal_log == oracle.removal_log
