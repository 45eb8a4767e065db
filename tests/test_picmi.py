"""Tests for the PICMI-flavored input layer."""

import numpy as np
import pytest

import repro.picmi as picmi
from repro.constants import m_e, q_e, um
from repro.exceptions import ConfigurationError


def make_grid(bc="periodic"):
    return picmi.Cartesian2DGrid(
        number_of_cells=[16, 16],
        lower_bound=[0.0, 0.0],
        upper_bound=[16e-6, 16e-6],
        boundary_conditions=bc,
    )


def test_grid_dimensionality_checked():
    with pytest.raises(ConfigurationError):
        picmi.Cartesian3DGrid(
            number_of_cells=[8, 8],
            lower_bound=[0, 0],
            upper_bound=[1, 1],
        )


def test_species_from_particle_type():
    e = picmi.Species(name="e", particle_type="electron")
    assert e.charge == -q_e and e.mass == m_e
    p = picmi.Species(name="p", particle_type="proton")
    assert p.charge == q_e
    with pytest.raises(ConfigurationError):
        picmi.Species(name="x", particle_type="muon")
    with pytest.raises(ConfigurationError):
        picmi.Species(name="x")


def test_solver_method_validation():
    with pytest.raises(ConfigurationError):
        picmi.ElectromagneticSolver(grid=make_grid(), method="ADI")


def test_end_to_end_uniform_plasma():
    grid = make_grid()
    solver = picmi.ElectromagneticSolver(grid=grid, cfl=0.9)
    plasma = picmi.Species(
        name="electrons",
        particle_type="electron",
        initial_distribution=picmi.UniformDistribution(
            density=1e24, rms_velocity_uth=0.01
        ),
    )
    sim = picmi.Simulation(solver=solver, particle_shape=2)
    sim.add_species(
        plasma, layout=picmi.GriddedLayout(n_macroparticles_per_cell=[2, 2])
    )
    assert plasma.core is not None
    assert plasma.core.n == 16 * 16 * 4
    sim.step(5)
    assert sim.time > 0
    assert np.all(np.isfinite(sim.core.grid.fields["Ex"]))


def test_max_steps_cap():
    sim = picmi.Simulation(
        solver=picmi.ElectromagneticSolver(grid=make_grid()), max_steps=3
    )
    sim.step(10)
    assert sim.core.step_count == 3
    sim.step(10)
    assert sim.core.step_count == 3


def test_laser_and_antenna():
    grid = picmi.Cartesian2DGrid(
        number_of_cells=[32, 16],
        lower_bound=[0.0, -8e-6],
        upper_bound=[32e-6, 8e-6],
        boundary_conditions="damped",
    )
    sim = picmi.Simulation(solver=picmi.ElectromagneticSolver(grid=grid))
    laser = picmi.GaussianLaser(
        wavelength=0.8 * um, waist=4 * um, duration=5e-15, a0=1.0
    )
    sim.add_laser(laser, picmi.LaserAntenna(position=2e-6))
    sim.step(20)
    assert np.abs(sim.core.grid.fields["Ey"]).max() > 0


def test_mesh_refinement_patch():
    """Any simulation takes a patch; there is no mesh-refinement switch."""
    grid = make_grid()
    sim = picmi.Simulation(solver=picmi.ElectromagneticSolver(grid=grid, cfl=0.45))
    patch = sim.add_mesh_refinement_patch((4, 4), (12, 12), ratio=2)
    assert patch.fine.n_cells == (16, 16)
    assert sim.core.patches == [patch]
    sim.step(2)
    with pytest.raises(TypeError):
        picmi.Simulation(
            solver=picmi.ElectromagneticSolver(grid=make_grid()),
            mesh_refinement=True,
        )


def test_analytic_distribution_drift():
    from repro.particles.injection import SlabProfile

    grid = make_grid()
    sim = picmi.Simulation(solver=picmi.ElectromagneticSolver(grid=grid))
    beam = picmi.Species(
        name="beam",
        particle_type="electron",
        initial_distribution=picmi.AnalyticDistribution(
            SlabProfile(1e24, 4e-6, 8e-6, axis=0),
            directed_velocity_u=[10.0, 0.0, 0.0],
        ),
    )
    sim.add_species(beam, layout=picmi.GriddedLayout([1, 1]))
    assert np.allclose(beam.core.momenta[:, 0], 10.0)
    assert beam.core.positions[:, 0].min() >= 4e-6


def test_psatd_method():
    """PICMI method="PSATD" selects the spectral solver (periodic only)."""
    from repro.grid.psatd import PSATDMaxwellSolver

    grid = make_grid(bc="periodic")
    sim = picmi.Simulation(
        solver=picmi.ElectromagneticSolver(grid=grid, method="PSATD")
    )
    assert isinstance(sim.core.solver, PSATDMaxwellSolver)
    sim.step(3)
    assert np.all(np.isfinite(sim.core.grid.fields["Ex"]))
    # non-periodic boundaries are rejected
    with pytest.raises(ConfigurationError):
        picmi.Simulation(
            solver=picmi.ElectromagneticSolver(grid=make_grid("damped"),
                                               method="PSATD")
        )


def test_unknown_method_rejected():
    with pytest.raises(ConfigurationError):
        picmi.ElectromagneticSolver(grid=make_grid(), method="CKC")
