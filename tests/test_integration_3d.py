"""3D integration tests (small grids — the paper's production dimensionality)."""

import numpy as np
import pytest

from repro.constants import c, m_e, plasma_frequency, plasma_wavelength, q_e, um, fs
from repro.core.simulation import Simulation
from repro.grid.maxwell import cfl_dt
from repro.grid.yee import YeeGrid
from repro.laser.antenna import LaserAntenna
from repro.laser.profiles import GaussianLaser
from repro.particles.injection import UniformProfile
from repro.particles.species import Species


def test_3d_langmuir_oscillation():
    """The canonical validation in full 3D."""
    n0 = 1e24
    length = plasma_wavelength(n0)
    g = YeeGrid((16, 8, 8), (0.0,) * 3, (length, length / 2, length / 2), guards=4)
    sim = Simulation(g, shape_order=2, smoothing_passes=0)
    e = Species("e", charge=-q_e, mass=m_e, ndim=3)
    sim.add_species(e, profile=UniformProfile(n0), ppc=1)
    k = 2 * np.pi / length
    e.momenta[:, 0] = 1e-3 * np.sin(k * e.positions[:, 0])
    steps = 200
    hist = np.empty(steps)
    for i in range(steps):
        sim.step()
        hist[i] = g.fields["Ex"][g.guards + 4, g.guards + 4, g.guards + 4]
    spec = np.abs(np.fft.rfft(hist - hist.mean()))
    freqs = np.fft.rfftfreq(steps, d=sim.dt) * 2 * np.pi
    omega = freqs[np.argmax(spec)]
    assert omega == pytest.approx(plasma_frequency(n0), rel=0.15)


def test_3d_energy_finite_and_bounded():
    n0 = 1e24
    length = plasma_wavelength(n0)
    g = YeeGrid((8, 8, 8), (0.0,) * 3, (length,) * 3, guards=4)
    sim = Simulation(g, shape_order=2, smoothing_passes=1)
    e = Species("e", ndim=3)
    sim.add_species(e, profile=UniformProfile(n0), ppc=1,
                    temperature_uth=0.01, rng=np.random.default_rng(0))
    ke0 = e.kinetic_energy()
    sim.step(50)
    assert np.all(np.isfinite(g.fields["Ex"]))
    assert e.kinetic_energy() < 2.0 * ke0


def test_3d_laser_antenna():
    """Normal-incidence 3D injection produces a focused transverse profile.

    A 2-um carrier keeps the wavelength resolved (8 cells) on a grid small
    enough for a test."""
    g = YeeGrid((48, 24, 24), (0, -6 * um, -6 * um), (12 * um, 6 * um, 6 * um),
                guards=4)
    sim = Simulation(g, boundaries="damped", n_absorber=6)
    laser = GaussianLaser(2.0 * um, a0=1.0, waist=3 * um, duration=8 * fs,
                          t_peak=16 * fs)
    sim.add_laser(LaserAntenna(laser, position=1 * um, center=(0.0, 0.0)))
    sim.run_until(laser.t_peak + 5 * um / c)
    ey = sim.grid.interior_view("Ey")
    assert np.abs(ey).max() > 0.3 * laser.e_peak
    # intensity is centered on the axis
    i_peak = np.unravel_index(np.argmax(np.abs(ey)), ey.shape)
    assert abs(i_peak[1] - ey.shape[1] // 2) <= 3
    assert abs(i_peak[2] - ey.shape[2] // 2) <= 3


def test_3d_mr_patch_runs():
    """A 3D refinement patch: construction, substitution, stability."""
    n0 = 1e24
    length = plasma_wavelength(n0)
    g = YeeGrid((12, 12, 12), (0.0,) * 3, (length,) * 3, guards=4)
    dt = cfl_dt(tuple(d / 2 for d in g.dx), 0.9)
    sim = Simulation(g, dt=dt, shape_order=2, smoothing_passes=0)
    e = Species("e", ndim=3)
    sim.add_species(e, profile=UniformProfile(n0), ppc=1,
                    temperature_uth=0.005, rng=np.random.default_rng(1))
    k = 2 * np.pi / length
    e.momenta[:, 0] = 1e-3 * np.sin(k * e.positions[:, 0])
    patch = sim.add_patch((3, 3, 3), (9, 9, 9), ratio=2)
    assert patch.fine.n_cells == (12, 12, 12)
    sim.step(25)
    assert np.all(np.isfinite(g.fields["Ex"]))
    assert np.all(np.isfinite(patch.fine.fields["Ex"]))
    assert np.all(np.isfinite(patch.aux.fields["Ex"]))
    assert e.gamma().max() < 1.1  # no spurious heating


def test_3d_mr_matches_no_mr():
    """The 3D MR run tracks the single-level run (the Fig. 7 validation
    structure, in miniature)."""
    def build(with_patch):
        n0 = 1e24
        length = plasma_wavelength(n0)
        g = YeeGrid((12, 6, 6), (0.0,) * 3, (length, length / 2, length / 2),
                    guards=4)
        dt = cfl_dt(tuple(d / 2 for d in g.dx), 0.9)
        sim = Simulation(g, dt=dt, shape_order=2, smoothing_passes=0)
        e = Species("e", ndim=3)
        sim.add_species(e, profile=UniformProfile(n0), ppc=1)
        k = 2 * np.pi / length
        e.momenta[:, 0] = 1e-3 * np.sin(k * e.positions[:, 0])
        if with_patch:
            sim.add_patch((3, 1, 1), (9, 5, 5), ratio=2)
        return sim

    sim_mr = build(True)
    sim_ref = build(False)
    for _ in range(40):
        sim_mr.step()
        sim_ref.step()
    ex_mr = sim_mr.grid.interior_view("Ex")
    ex_ref = sim_ref.grid.interior_view("Ex")
    scale = np.max(np.abs(ex_ref))
    assert scale > 0
    assert np.max(np.abs(ex_mr - ex_ref)) < 0.15 * scale
