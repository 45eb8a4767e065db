"""Tests for the mesh-refinement patch: construction, substitution,
current restriction and wave transmission."""

import contextlib

import numpy as np
import pytest

from repro.constants import c, q_e
from repro.core.mr_level import JOIN_DEPTH_CELLS, MRPatch
from repro.exceptions import ConfigurationError, StabilityError
from repro.grid.boundary import apply_periodic
from repro.grid.maxwell import MaxwellSolver, cfl_dt
from repro.grid.yee import YeeGrid
from repro.particles.species import Species


def make_parent(n=64, ndim=2, guards=4):
    return YeeGrid((n,) * ndim, (0.0,) * ndim, (float(n),) * ndim, guards=guards)


def fine_dt(parent, ratio=2, cfl=0.9):
    return cfl_dt(tuple(d / ratio for d in parent.dx), cfl)


def test_patch_geometry():
    parent = make_parent()
    dt = fine_dt(parent)
    p = MRPatch(parent, (16, 16), (48, 40), ratio=2, dt=dt)
    assert p.fine.n_cells == (64, 48)
    assert p.coarse.n_cells == (32, 24)
    assert p.lo == (16.0, 16.0)
    assert p.hi == (48.0, 40.0)
    np.testing.assert_allclose(p.fine.dx, (0.5, 0.5))


def test_patch_region_validation():
    parent = make_parent()
    dt = fine_dt(parent)
    with pytest.raises(ConfigurationError):
        MRPatch(parent, (16, 16), (16, 40), dt=dt)
    with pytest.raises(ConfigurationError):
        MRPatch(parent, (-1, 0), (8, 8), dt=dt)
    with pytest.raises(ConfigurationError):
        MRPatch(parent, (0, 0), (65, 8), dt=dt)
    with pytest.raises(ConfigurationError):
        MRPatch(parent, (0, 0), (8, 8), ratio=1, dt=dt)


def test_patch_cfl_guard():
    parent = make_parent()
    coarse_dt = cfl_dt(parent.dx, 0.95)
    with pytest.raises(StabilityError):
        MRPatch(parent, (16, 16), (32, 32), ratio=2, dt=coarse_dt, subcycle=False)
    # subcycling makes the same dt legal
    MRPatch(parent, (16, 16), (32, 32), ratio=2, dt=coarse_dt, subcycle=True)


def test_initial_aux_matches_interpolated_parent():
    parent = make_parent()
    # a smooth parent field
    x = np.arange(parent.shape[0])[:, None]
    y = np.arange(parent.shape[1])[None, :]
    parent.fields["Ey"][...] = np.sin(2 * np.pi * x / 32.0) * np.cos(
        2 * np.pi * y / 32.0
    )
    p = MRPatch(parent, (16, 16), (48, 48), ratio=2, dt=fine_dt(parent))
    aux = p.aux.interior_view("Ey")
    # at construction F(f) = I[F(s)] and F(c) = F(s), so a = I[F(s)]
    from repro.grid.interpolation import prolong, region_sample_counts
    from repro.grid.yee import STAGGER

    expected = prolong(
        p._parent_section("Ey"),
        2,
        STAGGER["Ey"],
        region_sample_counts(p.fine.n_cells, STAGGER["Ey"]),
    )
    np.testing.assert_allclose(aux, expected, atol=1e-12)


def test_contains_and_interior_mask():
    parent = make_parent()
    p = MRPatch(parent, (16, 16), (48, 48), ratio=2, dt=fine_dt(parent),
                n_transition=4)
    pos = np.array([[20.0, 20.0], [16.5, 20.0], [10.0, 20.0], [47.5, 47.5]])
    np.testing.assert_array_equal(p.contains(pos), [True, True, False, True])
    # transition zone: 4 fine cells = 2 m here
    np.testing.assert_array_equal(p.interior_mask(pos), [True, False, False, False])


def species_at(xs, ids=None):
    """A 2D species with one particle at ``(x, 32)`` per ``x``."""
    sp = Species("e", ndim=2)
    sp.add_particles(np.array([[x, 32.0] for x in xs]))
    if ids is not None:
        sp.ids = np.asarray(ids, dtype=np.int64)
    return sp


def test_synchronous_membership_is_the_interior_mask():
    parent = make_parent()
    p = MRPatch(parent, (16, 16), (48, 48), ratio=2, dt=fine_dt(parent))
    assert p.margins() == (p.transition_margin(), p.transition_margin())
    rng = np.random.default_rng(3)
    sp = Species("e", ndim=2)
    sp.add_particles(rng.uniform(0.0, 64.0, size=(500, 2)))
    free = np.ones(sp.n, dtype=bool)
    mask = p.members(sp, free)
    np.testing.assert_array_equal(mask, p.interior_mask(sp.positions))
    assert 0 < mask.sum() < sp.n
    # a synchronous patch keeps no memory, and claimed particles stay out
    assert p._member_ids == {}
    free[::2] = False
    np.testing.assert_array_equal(
        p.members(sp, free), p.interior_mask(sp.positions) & free
    )


def test_subcycled_membership_joins_deep_and_stays_until_the_stay_margin():
    parent = make_parent()
    p = MRPatch(parent, (16, 16), (48, 48), ratio=2,
                dt=cfl_dt(parent.dx, 0.9), subcycle=True)
    join, stay = p.margins()
    assert stay == p.extraction_margin()
    assert join == pytest.approx(stay + JOIN_DEPTH_CELLS * p.fine.dx[0])
    deep, band, out = p.lo[0] + join + 0.5, p.lo[0] + 0.5 * (join + stay), 8.0
    free = np.ones(2, dtype=bool)
    # step n: one particle deep inside joins, one in the band does not
    sp = species_at([deep, band])
    np.testing.assert_array_equal(p.members(sp, free), [True, False])
    # step n+1: both in the band; only the one that was a member stays
    sp = species_at([band, band], ids=sp.ids)
    np.testing.assert_array_equal(p.members(sp, free), [True, False])
    np.testing.assert_array_equal(p._member_ids["e"], [0])
    # step n+2: it leaves the stay margin and drops out, memory with it
    sp = species_at([p.lo[0] + 0.5 * stay, band], ids=sp.ids)
    np.testing.assert_array_equal(p.members(sp, free), [False, False])
    assert "e" not in p._member_ids
    # step n+3: back in the band it is no member, as it was not one
    sp = species_at([band, out], ids=sp.ids)
    np.testing.assert_array_equal(p.members(sp, free), [False, False])


def test_external_wave_enters_patch_through_substitution():
    """A plane wave launched outside the patch must appear in the auxiliary
    field with the right amplitude — the substitution transports external
    fields into the refined region."""
    parent = make_parent(n=96, ndim=1, guards=4)
    lam = 24.0  # 24 cells per wavelength: tiny dispersion error
    k = 2 * np.pi / lam
    x_e = parent.axis_coords(0, "Ey")
    x_b = parent.axis_coords(0, "Bz")
    envelope = lambda s: np.exp(-(((s - 24.0) / 8.0) ** 2))
    parent.interior_view("Ey")[...] = envelope(x_e) * np.sin(k * x_e)
    parent.interior_view("Bz")[...] = envelope(x_b) * np.sin(k * x_b) / c
    dt = fine_dt(parent, ratio=2, cfl=0.45)
    solver = MaxwellSolver(parent, dt)
    patch = MRPatch(parent, (48,), (80,), ratio=2, dt=dt)
    # propagate until the pulse is centered inside the patch
    steps = int(36.0 / (c * dt))
    for _ in range(steps):
        apply_periodic(parent, 0)
        solver.step()
        patch.advance_fields()
        patch.assemble_aux()
    aux_ey = patch.aux.interior_view("Ey")
    # compare against the parent solution interpolated onto the fine lattice
    from repro.grid.interpolation import prolong, region_sample_counts
    from repro.grid.yee import STAGGER

    expected = prolong(
        patch._parent_section("Ey"),
        2,
        STAGGER["Ey"],
        region_sample_counts(patch.fine.n_cells, STAGGER["Ey"]),
    )
    err = np.max(np.abs(aux_ey - expected)) / np.max(np.abs(expected))
    assert err < 0.05


def test_internal_current_restricted_to_parent_conserves_total():
    from repro.particles.deposit import deposit_current_esirkepov

    parent = make_parent(n=32, ndim=2)
    p = MRPatch(parent, (8, 8), (24, 24), ratio=2, dt=fine_dt(parent))
    pos0 = np.array([[16.0, 16.0]])
    pos1 = np.array([[16.3, 16.0]])
    vel = np.array([[0.3 / 1e-9, 0.0, 0.0]])
    w = np.array([2.0])
    deposit_current_esirkepov(p.fine, pos0, pos1, vel, w, q_e, 1e-9, order=2)
    fine_total = p.fine.fields["Jx"].sum() * float(np.prod(p.fine.dx))
    p.accumulate_restricted_currents(1.0)
    p.apply_accumulated_currents_to_parent()
    parent_total = parent.fields["Jx"].sum() * float(np.prod(parent.dx))
    coarse_total = p.coarse.fields["Jx"].sum() * float(np.prod(p.coarse.dx))
    assert fine_total == pytest.approx(q_e * 2.0 * 0.3 / 1e-9, rel=1e-12)
    assert parent_total == pytest.approx(fine_total, rel=1e-9)
    assert coarse_total == pytest.approx(fine_total, rel=1e-9)


def test_internal_wave_no_spurious_reflection():
    """A pulse radiated inside the patch leaves through the patch PML and
    propagates on the parent; almost nothing reflects back into the fine
    grid. This is the defining property of the Sec. V.B construction."""
    parent = make_parent(n=128, ndim=1, guards=4)
    dt = fine_dt(parent, ratio=2, cfl=0.45)
    solver = MaxwellSolver(parent, dt)
    patch = MRPatch(parent, (48,), (80,), ratio=2, dt=dt, n_pml=8)
    # seed an outgoing pulse *inside the fine grid only*, plus the restricted
    # counterparts on coarse+parent (as a real source would create)
    xf = patch.fine.axis_coords(0, "Ey")
    xb = patch.fine.axis_coords(0, "Bz")
    pulse = lambda s: np.exp(-(((s - 64.0) / 2.0) ** 2))
    patch.fine.interior_view("Ey")[...] = pulse(xf)
    patch.fine.interior_view("Bz")[...] = pulse(xb) / c
    from repro.grid.interpolation import restrict, region_sample_counts
    from repro.grid.yee import STAGGER

    for comp in ("Ey", "Bz"):
        counts = region_sample_counts(patch.coarse.n_cells, STAGGER[comp])
        coarse_vals = restrict(
            patch.fine.interior_view(comp), 2, STAGGER[comp], counts
        )
        patch.coarse.interior_view(comp)[...] = coarse_vals
        patch._parent_section(comp)[...] = coarse_vals
    # re-seed solvers so the PML split state carries the initial fields
    from repro.grid.pml import PMLMaxwellSolver

    patch.fine_solver = PMLMaxwellSolver(patch.fine, dt, n_pml=8)
    patch.coarse_solver = PMLMaxwellSolver(patch.coarse, dt, n_pml=8)

    e0 = patch.fine.field_energy()
    steps = int(40.0 / (c * dt))
    for _ in range(steps):
        apply_periodic(parent, 0)
        solver.step()
        patch.advance_fields()
        patch.assemble_aux()
    # the pulse (width 2, patch half-width 16) has fully left the fine grid
    assert patch.fine.field_energy() < 1e-3 * e0
    # and it is now travelling on the parent grid
    assert parent.field_energy() > 0.1 * e0


def test_shift_region_and_removal():
    parent = make_parent(n=32, ndim=1)
    dt = fine_dt(parent)
    p = MRPatch(parent, (4,), (12,), ratio=2, dt=dt, remove_time=5.0)
    p.shift_region(2)
    assert p.region_lo == [2] and p.region_hi == [10]
    assert not p.is_outside_parent()
    assert not p.should_remove(1.0)
    assert p.should_remove(5.0)
    p.shift_region(3)
    assert p.is_outside_parent()
    assert p.should_remove(0.0)


# -- the native aux assembly against the NumPy substitution ----------------------

from repro.core.simulation import Simulation  # noqa: E402
from repro.diagnostics.io import load_checkpoint, save_checkpoint  # noqa: E402
from repro.grid.yee import FIELD_COMPONENTS  # noqa: E402
from repro.grid import compiled as native_fields  # noqa: E402
from tests.conftest import (  # noqa: E402
    assert_same_arrays,
    needs_compiled,
    numpy_fields,
    random_fields,
    same_bits,
)


def held_copy(patch):
    held = patch._external_prev
    return None if held is None else {c: a.copy() for c, a in held.items()}


def aux_both_routes(patch, substep=None):
    """The auxiliary field the native entry assembles and the one the
    NumPy substitution does, from the same fine / coarse / parent state
    and, for a subcycled ``substep``, the same held external term (which
    each route leaves under ``prev/<component>``)."""

    def run():
        patch.assemble_aux(substep)
        got = {c: patch.aux.fields[c].copy() for c in FIELD_COMPONENTS}
        if substep is not None:
            got.update((f"prev/{c}", a) for c, a in held_copy(patch).items())
        return got

    start = held_copy(patch)
    native = run()
    patch._external_prev = start
    for c in FIELD_COMPONENTS:
        patch.aux.fields[c][...] = 123.0  # every point must be rewritten
    with numpy_fields():
        oracle = run()
    return native, oracle


def randomized_patch(ndim, ratio, dtype, seed=0):
    n = 12
    parent = YeeGrid((n,) * ndim, (0.0,) * ndim, (float(n),) * ndim,
                     guards=3, dtype=dtype)
    lo, hi = (3, 2, 4)[:ndim], (9, 7, 8)[:ndim]
    patch = MRPatch(parent, lo, hi, ratio=ratio,
                    dt=fine_dt(parent, ratio), n_pml=2)
    for k, grid in enumerate((parent, patch.coarse, patch.fine)):
        random_fields(grid, seed + k)
    return patch


@needs_compiled
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("ratio", [2, 4])
@pytest.mark.parametrize("ndim", [1, 2, 3])
def test_native_aux_is_the_numpy_substitution_bit_for_bit(ndim, ratio, dtype):
    patch = randomized_patch(ndim, ratio, dtype)
    native, oracle = aux_both_routes(patch)
    assert_same_arrays(native, oracle, f"{ndim}D r{ratio} {dtype.__name__}")
    # the lab-fixed patch after a window shift: new parent section, maps
    # rebuilt for the new region
    plan = patch._transfer_plan
    patch.shift_region(1)
    random_fields(patch.parent, 9)
    native, oracle = aux_both_routes(patch)
    assert patch._transfer_plan is not plan
    assert patch._transfer_plan.region_lo == tuple(patch.region_lo)
    assert_same_arrays(native, oracle, "after shift_region")


def external_term(patch, comp):
    """``I[F(s) - F(c)]`` of ``comp`` on the fine samples, by
    :func:`prolong` (float64 on both precisions)."""
    from repro.grid.interpolation import prolong, region_sample_counts
    from repro.grid.yee import STAGGER

    diff = patch._parent_section(comp) - patch.coarse.interior_view(comp)
    counts = region_sample_counts(patch.fine.n_cells, STAGGER[comp])
    return prolong(diff, patch.ratio, STAGGER[comp], counts)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("ratio", [2, 4])
@pytest.mark.parametrize("ndim", [1, 2, 3])
def test_extrapolated_aux_of_a_subcycled_step(ndim, ratio, dtype):
    """Substep ``k`` of a subcycled parent step assembles ``fine + (e + k
    / ratio * (e - prev))``: on the patch's first step ``prev`` is ``e``
    itself, on a later one the ``e`` its last substep held.  The native
    entry is the NumPy body bit for bit (NaN-free here, with negative
    zeros), and the NumPy body is that formula."""
    native_lib = native_fields.backend(np.dtype(dtype)) is not None
    patch = randomized_patch(ndim, ratio, dtype)
    assert patch._external_prev is None
    for step in ("first", "later"):
        held = held_copy(patch)
        for k in range(ratio):
            what = f"{ndim}D r{ratio} {dtype.__name__} {step} step, substep {k}"
            if native_lib:
                native, oracle = aux_both_routes(patch, k)
                assert_same_arrays(native, oracle, what)
            else:
                with numpy_fields():
                    patch.assemble_aux(k)
            for c in FIELD_COMPONENTS:
                e = external_term(patch, c)
                prev = e if held is None else held[c][patch.fine.valid_slices(c)]
                want = np.zeros_like(patch.aux.fields[c])
                want[patch.aux.valid_slices(c)] = patch.fine.interior_view(c) + (
                    e + k / ratio * (e - prev)
                )
                assert same_bits(patch.aux.fields[c], want), f"{what} {c}"
                # the last substep holds e for the next parent step
                now = patch._external_prev[c][patch.fine.valid_slices(c)]
                assert same_bits(now, e if k == ratio - 1 else prev), what
        if step == "later":
            assert not same_bits(patch._external_prev["Ey"], held["Ey"])
        # the next parent step starts from another parent and coarse state
        random_fields(patch.parent, 20)
        random_fields(patch.coarse, 21)


@needs_compiled
def test_native_aux_after_a_checkpoint_restore(tmp_path):
    """The restored region differs from the one the fresh deck built its
    maps for: the restore must not leave those maps in use."""

    def build():
        grid = YeeGrid((32, 16), (0.0, 0.0), (32e-6, 16e-6), guards=4)
        sim = Simulation(grid, dt=fine_dt(grid), shape_order=2)
        sim.add_patch((8, 4), (20, 12), ratio=2, n_pml=2)
        return sim

    sim_a = build()
    patch = sim_a.patches[0]
    patch.shift_region(3)  # as a moving window would have
    for grid in (sim_a.grid, patch.coarse, patch.fine):
        random_fields(grid, 4)
    sim_a.step()
    path = str(tmp_path / "mr.npz")
    save_checkpoint(sim_a, path)
    sim_b = build()
    stale = sim_b.patches[0]._transfer_plan
    load_checkpoint(sim_b, path)
    restored = sim_b.patches[0]
    assert restored.region_lo == patch.region_lo
    native, oracle = aux_both_routes(restored)
    assert restored._transfer_plan is not stale
    assert_same_arrays(native, oracle, "after restore")
    assert_same_arrays(
        native, {c: patch.aux.fields[c] for c in FIELD_COMPONENTS},
        "restored vs written",
    )


@needs_compiled
def test_native_aux_refuses_a_bad_layout_and_writes_nothing():
    patch = randomized_patch(2, 2, np.float64)
    aux = {c: patch.aux.fields[c].copy() for c in FIELD_COMPONENTS}
    good = patch.coarse.fields["Bx"]
    for bad in (np.asfortranarray(good), good[:, :-1].copy(),
                good.astype(np.float32)):
        patch.coarse.fields["Bx"] = bad
        with pytest.raises(ConfigurationError, match="assemble_aux"):
            patch.assemble_aux()
        assert_same_arrays(
            {c: patch.aux.fields[c] for c in FIELD_COMPONENTS}, aux
        )
    patch.coarse.fields["Bx"] = good
    patch.aux.fields["Ey"] = np.asfortranarray(patch.aux.fields["Ey"])
    with pytest.raises(ConfigurationError, match="assemble_aux"):
        patch.assemble_aux()
    assert_same_arrays(
        {c: np.ascontiguousarray(patch.aux.fields[c]) for c in FIELD_COMPONENTS},
        aux,
    )


# -- the native restriction against the NumPy one --------------------------------

J = ("Jx", "Jy", "Jz")


def fill_fine_j(patch, seed):
    """A fresh fine J, as a substep's deposit leaves it (negative zeros
    included)."""
    rng = np.random.default_rng(seed)
    for c in J:
        arr = patch.fine.fields[c]
        arr[...] = (1e16 * rng.standard_normal(arr.shape)).astype(arr.dtype)
        arr.reshape(-1)[::7] = -0.0


def j_state(patch):
    return {f"{level}/{c}": getattr(patch, level).fields[c].copy()
            for level in ("parent", "coarse") for c in J}


def restricted_both_routes(patch, weights):
    """Parent and coarse J after one parent step's restrictions —
    ``begin_step``, a fresh fine J and ``accumulate_restricted_currents``
    per weight, then the add to the parent — on the native route and on
    the NumPy one, from the same state."""
    start = j_state(patch)

    def run():
        for key, arr in start.items():
            level, c = key.split("/")
            getattr(patch, level).fields[c][...] = arr
        patch.begin_step()
        for k, weight in enumerate(weights):
            fill_fine_j(patch, 10 + k)
            patch.accumulate_restricted_currents(weight)
        patch.apply_accumulated_currents_to_parent()
        return j_state(patch)

    native = run()
    with numpy_fields():
        oracle = run()
    return native, oracle, start


@needs_compiled
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("ratio", [2, 3, 4])
@pytest.mark.parametrize("ndim", [1, 2, 3])
def test_native_restriction_is_the_numpy_one_bit_for_bit(ndim, ratio, dtype):
    patch = randomized_patch(ndim, ratio, dtype)
    what = f"{ndim}D r{ratio} {dtype.__name__}"
    # the synchronous step: one restriction of weight 1 ...
    native, oracle, start = restricted_both_routes(patch, [1.0])
    assert_same_arrays(native, oracle, what)
    assert not same_bits(native["parent/Jx"], start["parent/Jx"])
    # ... and the subcycled one: r substeps of weight 1 / r
    native, oracle, _ = restricted_both_routes(patch, [1.0 / ratio] * ratio)
    assert_same_arrays(native, oracle, what + " subcycled")


@needs_compiled
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_the_first_restriction_of_a_step_assigns(dtype):
    """A fine J of negative zeros restricts to negative zeros in the
    coarse companion: the first call stores, it does not add to the
    zeroed array (which would make them +0.0)."""
    patch = randomized_patch(2, 2, dtype)
    for route in (contextlib.nullcontext, numpy_fields):
        patch.zero_sources()
        for c in J:
            patch.fine.fields[c][...] = -0.0
        with route():
            patch.begin_step()
            patch.accumulate_restricted_currents(1.0)
        for c in J:
            assert np.all(np.signbit(patch.coarse.interior_view(c))), (route, c)


@needs_compiled
def test_native_restriction_refuses_a_bad_layout_and_writes_nothing():
    patch = randomized_patch(2, 2, np.float64)
    native = native_fields.backend(patch.parent.dtype)
    before = j_state(patch)
    for grid, c, bad in (
        (patch.fine, "Jx", patch.fine.fields["Jx"][:, :-1].copy()),
        (patch.coarse, "Jz", np.asfortranarray(patch.coarse.fields["Jz"])),
        (patch.fine, "Jy", patch.fine.fields["Jy"].astype(np.float32)),
    ):
        good = grid.fields[c]
        grid.fields[c] = bad
        patch.begin_step()
        with pytest.raises(ConfigurationError, match="restrict_currents"):
            patch.accumulate_restricted_currents(1.0)
        grid.fields[c] = good
        assert_same_arrays(j_state(patch), before)
    # a plan built for another patch's grids
    stale = randomized_patch(2, 3, np.float64).transfer_plan()
    with pytest.raises(ConfigurationError, match="restrict_currents"):
        native.restrict_currents(patch, stale, 1.0, True)
    assert_same_arrays(j_state(patch), before)
