"""Smoke and physics tests for the packaged scenarios (reduced sizes)."""

import numpy as np
import pytest

from repro.constants import MeV, c, fs, um
from repro.exceptions import ConfigurationError
from repro.scenarios.hybrid_target import (
    HybridTargetSetup,
    build_hybrid_target,
)
from repro.scenarios.lwfa import build_lwfa
from repro.scenarios.uniform_plasma import build_uniform_plasma


def tiny_setup(**overrides):
    kw = dict(
        cells_per_wavelength=5,
        x_max=16 * um,
        y_half=4 * um,
        gas_lo=3 * um,
        gas_hi=10 * um,
        solid_lo=10 * um,
        solid_hi=11.5 * um,
        a0=2.5,
        duration=6 * fs,
        waist=2.5 * um,
        solid_nc=20.0,
    )
    kw.update(overrides)
    return HybridTargetSetup(**kw)


def test_uniform_plasma_builder():
    sim, electrons = build_uniform_plasma((16, 16), ppc=2)
    assert electrons.n == 16 * 16 * 4  # ppc=2 means 2 per axis
    sim.step(3)
    assert np.all(np.isfinite(sim.grid.fields["Ex"]))


def test_lwfa_builder_runs_and_wake_forms():
    sim, electrons, laser = build_lwfa(
        domain_size=(24 * um, 16 * um),
        cells_per_wavelength=8,
        waist=3 * um,
        duration=6 * fs,
        a0=2.0,
    )
    # run until the pulse is inside the gas
    sim.run_until(laser.t_peak + 10 * um / c)
    ex = sim.grid.interior_view("Ex")
    # a longitudinal wakefield has appeared (GV/m scale)
    assert np.max(np.abs(ex)) > 1e9
    assert np.all(np.isfinite(ex))


def test_hybrid_setup_validation():
    with pytest.raises(ConfigurationError):
        HybridTargetSetup(gas_lo=10 * um, gas_hi=5 * um)
    with pytest.raises(ConfigurationError):
        build_hybrid_target(tiny_setup(), mode="quantum")


def test_hybrid_setup_derived_times_ordered():
    s = tiny_setup()
    assert s.reflection_time() < s.patch_removal_time() < s.window_start_time()
    assert s.solid_density > 1e27  # tens of critical densities


def test_hybrid_modes_grid_sizes():
    s = tiny_setup()
    sim_mr, _, _ = build_hybrid_target(s, mode="mr", subcycle=False)
    sim_hi, _, _ = build_hybrid_target(s, mode="highres")
    sim_co, _, _ = build_hybrid_target(s, mode="coarse")
    assert sim_hi.grid.n_cells[0] == 2 * sim_mr.grid.n_cells[0]
    assert sim_co.grid.n_cells == sim_mr.grid.n_cells
    assert len(sim_mr.patches) == 1
    # without subcycling, mr and highres share the fine time step and the
    # coarse reference is 2x larger
    assert sim_mr.dt == pytest.approx(sim_hi.dt)
    assert sim_co.dt == pytest.approx(2 * sim_mr.dt, rel=1e-6)
    # with subcycling (the default) the MR run advances at the coarse CFL
    sim_sub, _, _ = build_hybrid_target(s, mode="mr", subcycle=True)
    assert sim_sub.dt == pytest.approx(2 * sim_mr.dt, rel=1e-6)
    assert sim_sub.patches[0].subcycle


def test_hybrid_ppc4_matches_mr_particle_count_scale():
    s = tiny_setup()
    sim_mr, solid_mr, gas_mr = build_hybrid_target(s, mode="mr")
    sim_b, solid_b, gas_b = build_hybrid_target(s, mode="highres_ppc4")
    n_mr = solid_mr.n + gas_mr.n
    n_b = solid_b.n + gas_b.n
    assert n_b == pytest.approx(n_mr, rel=0.3)


def test_hybrid_mr_run_reflects_and_accelerates():
    """End-to-end physics: the pulse reflects, the patch is removed, the
    window moves backward, and solid electrons gain MeV-scale energy."""
    s = tiny_setup()
    sim, solid, gas = build_hybrid_target(s, mode="mr")
    gamma0 = solid.gamma().max()
    # run past patch removal
    sim.run_until(s.patch_removal_time() + 2 * sim.dt)
    assert len(sim.patches) == 0
    assert len(sim.removal_log) == 1
    # run a little with the moving window
    sim.run_until(s.window_start_time() + 4 * fs)
    assert sim.grid.lo[0] < 0.0  # window moved backward
    assert np.all(np.isfinite(sim.grid.fields["Ey"]))
    assert solid.gamma().max() > gamma0 + 1.0  # MeV-scale acceleration
    from repro.diagnostics.beam import beam_charge

    assert beam_charge(solid, energy_threshold=0.1 * MeV) > 0.0

