"""Multiple refinement patches in one simulation — the paper's future-work
"adaptive collections of refinement patches"."""

import numpy as np
import pytest

from repro.constants import m_e, plasma_wavelength, q_e
from repro.core.simulation import Simulation
from repro.grid.maxwell import cfl_dt
from repro.grid.yee import YeeGrid
from repro.particles.injection import UniformProfile
from repro.particles.species import Species
from tests.conftest import needs_compiled, record_calls, unfused


def build(n_cells=96, n0=1e24, patches=((10, 30), (60, 80)), ppc=8):
    length = plasma_wavelength(n0)
    g = YeeGrid((n_cells,), (0.0,), (length,), guards=4)
    dt = cfl_dt((length / n_cells / 2,), 0.9)
    sim = Simulation(g, dt=dt, shape_order=2, smoothing_passes=0)
    e = Species("e", charge=-q_e, mass=m_e, ndim=1)
    sim.add_species(e, profile=UniformProfile(n0), ppc=ppc)
    k = 2 * np.pi / length
    e.momenta[:, 0] = 1e-3 * np.sin(k * e.positions[:, 0])
    for lo, hi in patches:
        sim.add_patch((lo,), (hi,), ratio=2)
    return sim, e


def test_two_patches_run_and_match_reference():
    sim2, _ = build(patches=((10, 30), (60, 80)))
    sim0, _ = build(patches=())
    assert len(sim2.patches) == 2
    for _ in range(80):
        sim2.step()
        sim0.step()
    ex2 = sim2.grid.interior_view("Ex")
    ex0 = sim0.grid.interior_view("Ex")
    scale = np.max(np.abs(ex0))
    # two patches double the interface noise; ~12% pointwise after 80
    # steps of a standing oscillation is the observed level
    assert np.max(np.abs(ex2 - ex0)) < 0.2 * scale
    corr = np.corrcoef(ex2.ravel(), ex0.ravel())[0, 1]
    assert corr > 0.99


def test_patches_route_particles_independently():
    sim, e = build(patches=((10, 30), (60, 80)))
    p0, p1 = sim.patches
    m0 = p0.interior_mask(e.positions)
    m1 = p1.interior_mask(e.positions)
    assert np.any(m0) and np.any(m1)
    assert not np.any(m0 & m1)  # disjoint regions
    # each patch gathers its own members, the parent everyone else
    sim.kernel_set = unfused(sim.kernel_set)
    sim.kernel_set, gathers = record_calls(sim.kernel_set, "gather")
    sim.step()
    assert [(grid, len(x)) for grid, x, _ in gathers] == [
        (p0.aux, m0.sum()), (p1.aux, m1.sum()), (sim.grid, (~(m0 | m1)).sum())
    ]


def test_staggered_removal_times():
    sim, _ = build(patches=())
    dt = sim.dt
    sim.add_patch((10,), (30,), remove_time=5 * dt)
    sim.add_patch((60,), (80,), remove_time=12 * dt)
    sim.step(6)
    assert len(sim.patches) == 1
    sim.step(7)
    assert len(sim.patches) == 0
    assert len(sim.removal_log) == 2
    assert np.all(np.isfinite(sim.grid.fields["Ex"]))


def test_total_fine_cells_sums_patches():
    sim, _ = build(patches=((10, 30), (60, 80)))
    assert sim.total_fine_cells() == 40 + 40


def test_mixed_subcycling():
    """One synchronous and one subcycled patch can coexist... at the fine
    CFL (the subcycled patch simply takes redundant substeps)."""
    sim, e = build(patches=())
    sim.add_patch((10,), (30,), subcycle=False)
    sim.add_patch((60,), (80,), subcycle=True)
    sim.step(20)
    assert np.all(np.isfinite(sim.grid.fields["Ex"]))
    for p in sim.patches:
        assert np.all(np.isfinite(p.fine.fields["Ex"]))


def one_crosser(fused):
    """Patches A = [8, 20) and B = [14, 28) overlap; one fast particle
    starts inside both interiors (so in A: the first patch wins) and
    moves out of A's interior, still inside B's."""
    dx = 1e-6
    sim = Simulation(YeeGrid((32,), (0.0,), (32 * dx,), guards=4),
                     dt=cfl_dt((dx / 2,), 0.9), shape_order=2,
                     smoothing_passes=0, kernels="compiled")
    sp = Species("e", charge=-q_e, mass=m_e, ndim=1)
    sp.add_particles(np.array([[18.3 * dx]]), momenta=np.array([[20.0, 0, 0]]),
                     weights=np.array([1e10]))
    sim.add_species(sp)
    sim.add_patch((8,), (20,))
    sim.add_patch((14,), (28,))
    if not fused:
        sim.kernel_set = unfused(sim.kernel_set)
    return sim, sp


@needs_compiled
def test_a_crosser_leaving_one_patch_inside_another_deposits_on_its_fine_grid():
    sim, sp = one_crosser(fused=True)
    split, _ = one_crosser(fused=False)
    a, b = sim.patches
    x_old = sp.positions.copy()
    sim.step()
    split.step()
    assert a.interior_mask(x_old)[0] and b.interior_mask(x_old)[0]
    assert not a.interior_mask(sp.positions)[0]
    assert b.interior_mask(sp.positions)[0]
    assert "particles" in sim.timers.totals
    currents = ("Jx", "Jy", "Jz")
    assert not any(np.any(a.fine.fields[j]) for j in currents)
    assert np.any(b.fine.fields["Jx"])
    # the grids the composed route gives it
    for patch, ref in zip(sim.patches, split.patches):
        for label in ("fine", "coarse", "aux"):
            for comp, want in getattr(ref, label).fields.items():
                got = getattr(patch, label).fields[comp]
                scale = np.max(np.abs(want))
                assert np.max(np.abs(got - want)) <= 1e-13 * scale, (label, comp)
    for comp, want in split.grid.fields.items():
        scale = np.max(np.abs(want))
        assert np.max(np.abs(sim.grid.fields[comp] - want)) <= 1e-13 * scale
