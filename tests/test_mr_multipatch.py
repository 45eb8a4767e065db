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
    e_f, _ = sim._gather(e)
    m0 = p0.interior_mask(e.positions)
    m1 = p1.interior_mask(e.positions)
    assert np.any(m0) and np.any(m1)
    assert not np.any(m0 & m1)  # disjoint regions


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
