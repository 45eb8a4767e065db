"""Checkpoint/restart tests: a restarted run continues bit-for-bit."""

import numpy as np
import pytest

from repro.constants import c, m_e, plasma_wavelength, q_e, um, fs
from repro.core.moving_window import MovingWindow
from repro.core.simulation import Simulation
from repro.diagnostics.io import load_checkpoint, save_checkpoint
from repro.exceptions import ConfigurationError
from repro.grid.maxwell import cfl_dt
from repro.grid.yee import YeeGrid
from repro.particles.injection import UniformProfile
from repro.particles.species import Species


def build_langmuir(mr=False):
    n0 = 1e24
    length = plasma_wavelength(n0)
    g = YeeGrid((48,), (0.0,), (length,), guards=4)
    if mr:
        dt = cfl_dt((length / 48 / 2,), 0.9)
        sim = Simulation(g, dt=dt, shape_order=2, smoothing_passes=0)
    else:
        sim = Simulation(g, shape_order=2, smoothing_passes=0)
    e = Species("e", charge=-q_e, mass=m_e, ndim=1)
    sim.add_species(e, profile=UniformProfile(n0), ppc=8)
    k = 2 * np.pi / length
    e.momenta[:, 0] = 1e-3 * np.sin(k * e.positions[:, 0])
    if mr:
        sim.add_patch((12,), (36,), ratio=2)
    return sim, e


@pytest.mark.parametrize("mr", [False, True])
def test_checkpoint_restart_bitwise(tmp_path, mr):
    """run 10 + 10 steps == run 10, checkpoint, restore elsewhere, run 10."""
    path = str(tmp_path / "ckpt.npz")
    sim_a, e_a = build_langmuir(mr)
    sim_a.step(10)
    save_checkpoint(sim_a, path)
    sim_a.step(10)

    sim_b, e_b = build_langmuir(mr)
    load_checkpoint(sim_b, path)
    assert sim_b.step_count == 10
    sim_b.step(10)

    np.testing.assert_array_equal(
        sim_a.grid.fields["Ex"], sim_b.grid.fields["Ex"]
    )
    np.testing.assert_array_equal(e_a.positions, e_b.positions)
    np.testing.assert_array_equal(e_a.momenta, e_b.momenta)
    if mr:
        np.testing.assert_array_equal(
            sim_a.patches[0].fine.fields["Ey"],
            sim_b.patches[0].fine.fields["Ey"],
        )


def test_checkpoint_restores_moving_window_state(tmp_path):
    path = str(tmp_path / "ckpt.npz")
    g = YeeGrid((64,), (0.0,), (64 * um,), guards=4)
    sim = Simulation(g, boundaries="damped")
    e = Species("e", ndim=1)
    sim.add_species(e, profile=UniformProfile(1e24), ppc=1,
                    continuous_injection=True)
    sim.set_moving_window(MovingWindow(speed=c, start_time=0.0))
    sim.step(15)
    save_checkpoint(sim, path)
    lo_a = sim.grid.lo[0]

    sim2 = Simulation(YeeGrid((64,), (0.0,), (64 * um,), guards=4),
                      boundaries="damped")
    e2 = Species("e", ndim=1)
    sim2.add_species(e2, profile=UniformProfile(1e24), ppc=1,
                     continuous_injection=True)
    sim2.set_moving_window(MovingWindow(speed=c, start_time=0.0))
    load_checkpoint(sim2, path)
    assert sim2.grid.lo[0] == lo_a
    assert sim2.moving_window.cells_shifted == sim.moving_window.cells_shifted
    sim2.step(5)
    assert np.all(np.isfinite(sim2.grid.fields["Ey"]))


def test_checkpoint_mismatch_raises(tmp_path):
    path = str(tmp_path / "ckpt.npz")
    sim, _ = build_langmuir(mr=True)
    save_checkpoint(sim, path)
    plain, _ = build_langmuir(mr=False)
    with pytest.raises(ConfigurationError):
        load_checkpoint(plain, path)  # patch count mismatch
    with pytest.raises(ConfigurationError):
        load_checkpoint(plain, str(tmp_path / "missing.npz"))


def test_checkpoint_missing_species_raises(tmp_path):
    path = str(tmp_path / "ckpt.npz")
    sim, _ = build_langmuir()
    save_checkpoint(sim, path)
    g = YeeGrid((48,), (0.0,), (1.0,), guards=4)
    other = Simulation(g, smoothing_passes=0)
    other.add_species(Species("ions", ndim=1))
    with pytest.raises(ConfigurationError):
        load_checkpoint(other, path)
