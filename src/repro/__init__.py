"""repro — a mesh-refined electromagnetic Particle-In-Cell code.

A from-scratch Python reproduction of *"Pushing the Frontier in the Design
of Laser-Based Electron Accelerators with Groundbreaking Mesh-Refined
Particle-In-Cell Simulations on Exascale-Class Supercomputers"* (Fedeli,
Huebl, et al., SC 2022 — the 2022 ACM Gordon Bell Prize winner).

Subpackages
-----------
``repro.grid``
    Staggered Yee grids, FDTD Maxwell solver, Berenger PML, coarse/fine
    transfer operators.
``repro.particles``
    Species containers, Boris/Vay pushers, B-spline shapes, gather and
    charge-conserving (Esirkepov) deposition, sorting, plasma injection.
``repro.laser``
    Gaussian pulses and the current-sheet antenna.
``repro.core``
    The PIC cycle, electromagnetic mesh refinement, moving window,
    load balancing.
``repro.parallel``
    AMReX-style box decomposition over a simulated, fully-accounted
    communicator; a distributed PIC verified against the monolithic run.
``repro.perfmodel``
    Machine catalog and the calibrated roofline/network models behind the
    paper's evaluation tables and figures.
``repro.diagnostics``
    Energy budgets, beam statistics, spectra, checkpoints, timers.
``repro.analysis``
    Correctness tooling: PIC-aware lint rules (``python -m
    repro.analysis``), the SimComm protocol checker, and the opt-in
    runtime sanitizers (``REPRO_SANITIZE=1``).
``repro.scenarios``
    Uniform plasma, LWFA gas jet, and the hybrid solid-gas target.
``repro.picmi``
    A PICMI-flavored high-level input layer.
"""

from repro import constants
from repro.core.moving_window import MovingWindow
from repro.core.simulation import Simulation
from repro.exceptions import ReproError
from repro.grid.yee import YeeGrid
from repro.laser.antenna import LaserAntenna
from repro.laser.profiles import GaussianLaser
from repro.particles.species import Species

__version__ = "1.0.0"

__all__ = [
    "constants",
    "MovingWindow",
    "Simulation",
    "ReproError",
    "YeeGrid",
    "LaserAntenna",
    "GaussianLaser",
    "Species",
    "__version__",
]
