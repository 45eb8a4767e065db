"""Electromagnetic field substrate: staggered Yee grids, FDTD Maxwell solver,
absorbing boundaries (Berenger PML and graded damping), and the coarse/fine
interpolation operators used by the mesh-refinement coupling."""

from repro.grid.yee import YeeGrid, STAGGER, FIELD_COMPONENTS
from repro.grid.maxwell import MaxwellSolver, cfl_dt
from repro.grid.pml import PMLMaxwellSolver, pml_sigma_profile
from repro.grid.psatd import PSATDMaxwellSolver
from repro.grid.boundary import apply_periodic, apply_damping
from repro.grid.interpolation import prolong, restrict

__all__ = [
    "YeeGrid",
    "STAGGER",
    "FIELD_COMPONENTS",
    "MaxwellSolver",
    "cfl_dt",
    "PMLMaxwellSolver",
    "PSATDMaxwellSolver",
    "pml_sigma_profile",
    "apply_periodic",
    "apply_damping",
    "prolong",
    "restrict",
]
