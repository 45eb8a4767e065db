"""PICMI-flavored high-level input layer.

The Particle-In-Cell Modeling Interface (PICMI) is the community-standard
Python input layer WarpX ships; this module provides the same vocabulary
— grids, distributions, species, lasers, solver, simulation — mapped onto
the :mod:`repro.core` engine, so a WarpX-style input deck translates
nearly line-for-line:

    import repro.picmi as picmi

    grid = picmi.Cartesian2DGrid(
        number_of_cells=[256, 128],
        lower_bound=[0, -20e-6], upper_bound=[80e-6, 20e-6],
        boundary_conditions=["damped", "damped"],
    )
    solver = picmi.ElectromagneticSolver(grid=grid, cfl=0.95)
    plasma = picmi.Species(
        particle_type="electron", name="electrons",
        initial_distribution=picmi.UniformDistribution(density=1e24),
    )
    sim = picmi.Simulation(solver=solver)
    sim.add_species(plasma, layout=picmi.GriddedLayout(n_macroparticles_per_cell=[2, 2]))
    sim.step(100)

Mesh refinement needs no flag: ``sim.add_mesh_refinement_patch(lo, hi,
ratio=2)`` adds a patch to any simulation (the fine grid's Courant limit
applies unless ``subcycle=True``).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.constants import m_e, m_p, q_e
from repro.core.moving_window import MovingWindow
from repro.core.simulation import Simulation as _CoreSimulation
from repro.exceptions import ConfigurationError
from repro.grid.yee import YeeGrid
from repro.laser.antenna import LaserAntenna as _CoreAntenna
from repro.laser.profiles import GaussianLaser as _CoreLaser
from repro.particles.injection import (
    DensityProfile,
    GasJetProfile,
    SlabProfile,
    UniformProfile,
)
from repro.particles.species import Species as _CoreSpecies

#: particle types understood by :class:`Species`
PARTICLE_TYPES = {
    "electron": (-q_e, m_e),
    "positron": (+q_e, m_e),
    "proton": (+q_e, m_p),
}


class _CartesianGrid:
    """Shared base of the 1/2/3D grid descriptions."""

    ndim = 0

    def __init__(
        self,
        number_of_cells: Sequence[int],
        lower_bound: Sequence[float],
        upper_bound: Sequence[float],
        boundary_conditions="periodic",
        guards: int = 4,
    ) -> None:
        if len(number_of_cells) != self.ndim:
            raise ConfigurationError(
                f"{type(self).__name__} needs {self.ndim} cell counts"
            )
        self.number_of_cells = tuple(int(n) for n in number_of_cells)
        self.lower_bound = tuple(float(v) for v in lower_bound)
        self.upper_bound = tuple(float(v) for v in upper_bound)
        if isinstance(boundary_conditions, str):
            boundary_conditions = (boundary_conditions,) * self.ndim
        self.boundary_conditions = tuple(boundary_conditions)
        self.guards = int(guards)

    def build(self) -> YeeGrid:
        return YeeGrid(
            self.number_of_cells, self.lower_bound, self.upper_bound, self.guards
        )


class Cartesian1DGrid(_CartesianGrid):
    ndim = 1


class Cartesian2DGrid(_CartesianGrid):
    ndim = 2


class Cartesian3DGrid(_CartesianGrid):
    ndim = 3


class ElectromagneticSolver:
    """The Maxwell solver description: ``method="Yee"`` (explicit FDTD) or
    ``method="PSATD"`` (spectral, periodic boundaries only)."""

    def __init__(self, grid: _CartesianGrid, cfl: float = 0.95, method: str = "Yee") -> None:
        if method not in ("Yee", "PSATD"):
            raise ConfigurationError(f"unknown Maxwell method {method!r}")
        self.grid = grid
        self.cfl = float(cfl)
        self.method = method


class UniformDistribution:
    """Constant density with optional thermal/drift momentum."""

    def __init__(
        self,
        density: float,
        rms_velocity_uth: float = 0.0,
        directed_velocity_u=None,
    ) -> None:
        self.profile = UniformProfile(density)
        self.rms_velocity_uth = rms_velocity_uth
        self.directed_velocity_u = directed_velocity_u


class AnalyticDistribution:
    """Density from an arbitrary :class:`DensityProfile` (slab, gas jet, ...)."""

    def __init__(
        self,
        profile: DensityProfile,
        rms_velocity_uth: float = 0.0,
        directed_velocity_u=None,
    ) -> None:
        self.profile = profile
        self.rms_velocity_uth = rms_velocity_uth
        self.directed_velocity_u = directed_velocity_u


class GriddedLayout:
    """Regular particles-per-cell placement."""

    def __init__(self, n_macroparticles_per_cell) -> None:
        self.ppc = n_macroparticles_per_cell


class Species:
    """A particle species description (PICMI naming)."""

    def __init__(
        self,
        name: str,
        particle_type: Optional[str] = None,
        charge: Optional[float] = None,
        mass: Optional[float] = None,
        initial_distribution=None,
    ) -> None:
        if particle_type is not None:
            if particle_type not in PARTICLE_TYPES:
                raise ConfigurationError(
                    f"unknown particle type {particle_type!r}"
                )
            charge, mass = PARTICLE_TYPES[particle_type]
        if charge is None or mass is None:
            raise ConfigurationError(
                "give either particle_type or explicit charge and mass"
            )
        self.name = name
        self.charge = float(charge)
        self.mass = float(mass)
        self.initial_distribution = initial_distribution
        #: populated by Simulation.add_species
        self.core: Optional[_CoreSpecies] = None


class GaussianLaser:
    """PICMI-style Gaussian laser description.

    PICMI's ``focal_position``, ``centroid_position`` and
    ``propagation_direction`` are not accepted (a ``TypeError``, not a
    laser silently focused elsewhere): the pulse leaves its antenna along
    +x (tilted by ``incidence_angle``) with its waist at the antenna
    plane.  To focus downstream, use the core
    :class:`repro.laser.profiles.GaussianLaser` and its ``focal_distance``.
    """

    def __init__(
        self,
        wavelength: float,
        waist: float,
        duration: float,
        a0: float,
        polarization_direction="y",
        incidence_angle: float = 0.0,
        t_peak: Optional[float] = None,
    ) -> None:
        self.core = _CoreLaser(
            wavelength=wavelength,
            a0=a0,
            waist=waist,
            duration=duration,
            polarization=polarization_direction,
            incidence_angle=incidence_angle,
            t_peak=t_peak,
        )


class LaserAntenna:
    """Injection plane for a laser."""

    def __init__(self, position: float, transverse_center=0.0) -> None:
        self.position = float(position)
        self.transverse_center = transverse_center


class Simulation:
    """The PICMI simulation container."""

    def __init__(
        self,
        solver: ElectromagneticSolver,
        max_steps: Optional[int] = None,
        particle_shape: int = 2,
        verbose: bool = False,
    ) -> None:
        self.solver = solver
        self.max_steps = max_steps
        grid = solver.grid.build()
        self.core = _CoreSimulation(
            grid,
            cfl=solver.cfl,
            shape_order=particle_shape,
            boundaries=solver.grid.boundary_conditions,
            maxwell_solver="psatd" if solver.method == "PSATD" else "yee",
        )
        self.verbose = verbose
        self._steps_taken = 0

    def add_species(self, species: Species, layout: GriddedLayout) -> None:
        core_sp = _CoreSpecies(
            species.name, species.charge, species.mass, self.solver.grid.ndim
        )
        dist = species.initial_distribution
        self.core.add_species(
            core_sp,
            profile=dist.profile if dist is not None else None,
            ppc=tuple(layout.ppc) if dist is not None else None,
            temperature_uth=dist.rms_velocity_uth if dist else 0.0,
        )
        if dist is not None and dist.directed_velocity_u is not None and core_sp.n:
            core_sp.momenta += np.asarray(dist.directed_velocity_u)[None, :]
        species.core = core_sp

    def add_laser(self, laser: GaussianLaser, injection_method: LaserAntenna) -> None:
        self.core.add_laser(
            _CoreAntenna(
                laser.core,
                position=injection_method.position,
                center=injection_method.transverse_center,
            )
        )

    def add_moving_window(self, window: MovingWindow) -> None:
        self.core.set_moving_window(window)

    def add_mesh_refinement_patch(self, lo, hi, ratio=2, **kwargs):
        return self.core.add_patch(lo, hi, ratio=ratio, **kwargs)

    def step(self, nsteps: int = 1) -> None:
        if self.max_steps is not None:
            nsteps = min(nsteps, self.max_steps - self._steps_taken)
        self.core.step(max(nsteps, 0))
        self._steps_taken += max(nsteps, 0)
        if self.verbose:  # pragma: no cover - cosmetic
            print(f"step {self.core.step_count}, t = {self.core.time:.3e} s")

    @property
    def time(self) -> float:
        return self.core.time
