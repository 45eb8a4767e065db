"""The paper's science case: the hybrid solid-gas target (Fig. 1b).

An intense pulse crosses an underdense gas, reflects off a solid-density
plasma mirror at the far end, extracts a high-charge electron bunch at the
reflection, and the reflected pulse drives a wakefield in the gas that
traps and accelerates the bunch.  The solid needs the fine resolution, so
an MR patch covers it; once the laser has reflected, the patch is removed
(the star of Fig. 6) and a moving window follows the reflected pulse
backward through the gas (the dashed line of Fig. 6).

Reduced-scale substitutions relative to the paper's 4k-node 3D run, all
parameterized so they can be pushed back toward the paper's values:

* 2D (x, y) instead of 3D — the paper's own Fig. 6 comparison is run in
  2D for exactly this reason;
* normal incidence instead of 45 degrees — keeps the reflected pulse on
  the moving-window axis (the antenna supports oblique injection; the
  window is axis-aligned);
* reduced solid density / laser power / domain — laptop scale.

Solid and gas electrons are separate species so the Fig. 7a "beam charge"
(electrons extracted from the solid) is measured directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro.constants import c, critical_density, fs, m_e, q_e, um
from repro.core.moving_window import MovingWindow
from repro.core.simulation import Simulation
from repro.exceptions import ConfigurationError
from repro.grid.maxwell import cfl_dt
from repro.grid.yee import YeeGrid
from repro.laser.antenna import LaserAntenna
from repro.laser.profiles import GaussianLaser
from repro.particles.injection import BoxProfile, SlabProfile
from repro.particles.species import Species

MODES = ("mr", "highres", "highres_ppc4", "coarse")


@dataclass
class HybridTargetSetup:
    """All physical and numerical parameters of the reduced science case."""

    wavelength: float = 0.8 * um
    a0: float = 4.0
    waist: float = 5.0 * um
    duration: float = 10.0 * fs
    #: domain extent [m]
    x_max: float = 40.0 * um
    y_half: float = 10.0 * um
    #: gas region and density [1/m^3] (the paper's 2.34e18 cm^-3)
    gas_lo: float = 6.0 * um
    gas_hi: float = 28.0 * um
    gas_density: float = 2.34e24
    #: solid (plasma mirror) region; density in critical densities.  The
    #: target has a finite transverse half-size so the MR patch can
    #: enclose it with underdense margins (required for subcycling).
    solid_lo: float = 28.0 * um
    solid_hi: float = 30.0 * um
    solid_nc: float = 30.0
    solid_y_half: Optional[float] = None
    #: coarse cells per laser wavelength and MR refinement ratio
    cells_per_wavelength: float = 10.0
    mr_ratio: int = 2
    #: particles per cell (coarse grid): solid / gas; per-axis counts must
    #: be even so the "ppc/4" Fig. 6 case can halve them per axis
    ppc_solid: Tuple[int, int] = (2, 2)
    ppc_gas: Tuple[int, int] = (2, 2)
    #: transverse cell coarsening relative to longitudinal
    transverse_coarsening: float = 2.0
    shape_order: int = 2
    antenna_x: float = 1.5 * um
    seed: int = 7

    def __post_init__(self) -> None:
        if not (0 < self.gas_lo < self.gas_hi <= self.solid_lo < self.solid_hi < self.x_max):
            raise ConfigurationError("hybrid target regions must be ordered")
        if self.solid_y_half is None:
            self.solid_y_half = 0.6 * self.y_half
        if self.solid_y_half >= self.y_half:
            raise ConfigurationError("the solid must not touch the y boundaries")

    # -- derived quantities -------------------------------------------------
    @property
    def solid_density(self) -> float:
        return self.solid_nc * critical_density(self.wavelength)

    def laser(self) -> GaussianLaser:
        return GaussianLaser(
            wavelength=self.wavelength,
            a0=self.a0,
            waist=self.waist,
            duration=self.duration,
            polarization="y",  # in-plane: drives electron extraction
            t_peak=2.5 * self.duration,
        )

    def reflection_time(self) -> float:
        """When the pulse peak reaches the solid surface."""
        return self.laser().t_peak + (self.solid_lo - self.antenna_x) / c

    def patch_removal_time(self) -> float:
        """Just after the pulse has fully reflected (the Fig. 6 star)."""
        return self.reflection_time() + 3.0 * self.duration

    def window_start_time(self) -> float:
        """Moving window start (the Fig. 6 dashed line)."""
        return self.patch_removal_time() + 1.0 * self.duration

    def grid_cells(self, resolution_factor: int = 1) -> Tuple[int, int]:
        dx = self.wavelength / (self.cells_per_wavelength * resolution_factor)
        nx = int(round(self.x_max / dx))
        ny = max(
            int(round(2 * self.y_half / (dx * self.transverse_coarsening))), 16
        )
        return nx, ny


def build_hybrid_target(
    setup: Optional[HybridTargetSetup] = None,
    mode: str = "mr",
    subcycle: bool = True,
) -> Tuple[Simulation, Species, Species]:
    """Build one of the Fig. 6 configurations.

    ``mode``:

    * ``"mr"`` — coarse grid plus an MR patch (ratio ``mr_ratio``) over the
      solid, removed at :meth:`HybridTargetSetup.patch_removal_time`;
    * ``"highres"`` — no MR, whole domain at the fine resolution, same ppc
      (the paper's case c);
    * ``"highres_ppc4"`` — no MR, fine resolution, ppc reduced 4x to match
      the MR case's total macroparticle count (the paper's case b);
    * ``"coarse"`` — the coarse grid alone (no fine physics; reference).

    ``subcycle`` (MR mode only): advance the fine patch with ``ratio``
    substeps so the global time step is set by the *coarse* CFL — after
    the patch is removed the MR run then takes ``ratio``x fewer steps per
    unit of physical time, which is where most of the Fig. 6 advantage
    comes from.  ``subcycle=False`` uses the fine CFL globally.

    Returns ``(simulation, solid_electrons, gas_electrons)``.
    """
    if setup is None:
        setup = HybridTargetSetup()
    if mode not in MODES:
        raise ConfigurationError(f"mode must be one of {MODES}")

    res_factor = setup.mr_ratio if mode in ("highres", "highres_ppc4") else 1
    nx, ny = setup.grid_cells(res_factor)
    grid = YeeGrid(
        (nx, ny),
        (0.0, -setup.y_half),
        (setup.x_max, setup.y_half),
        guards=4,
    )
    # the no-MR fine-resolution cases are pinned to the fine CFL; the MR
    # case uses the coarse CFL when subcycling, the fine CFL otherwise
    if mode == "mr" and not subcycle:
        dt = 0.95 * cfl_dt(tuple(d / setup.mr_ratio for d in grid.dx))
    else:
        dt = 0.95 * cfl_dt(grid.dx)

    sim = Simulation(
        grid,
        dt=dt,
        shape_order=setup.shape_order,
        boundaries=("damped", "damped"),
        n_absorber=max(ny // 12, 8),
        smoothing_passes=1,
    )

    sim.add_laser(LaserAntenna(setup.laser(), position=setup.antenna_x))

    ppc_scale = 1
    ppc_solid = setup.ppc_solid
    ppc_gas = setup.ppc_gas
    if mode == "highres":
        # same ppc on 4x the cells: 4x the particles of the MR case
        pass
    elif mode == "highres_ppc4":
        # halve ppc per axis: the same total particle count as the MR case
        ppc_solid = tuple(max(p // 2, 1) for p in setup.ppc_solid)
        ppc_gas = tuple(max(p // 2, 1) for p in setup.ppc_gas)

    rng = np.random.default_rng(setup.seed)
    solid = Species("solid_electrons", charge=-q_e, mass=m_e, ndim=2)
    sim.add_species(
        solid,
        profile=BoxProfile(
            setup.solid_density,
            (setup.solid_lo, -setup.solid_y_half),
            (setup.solid_hi, setup.solid_y_half),
        ),
        ppc=ppc_solid,
        rng=rng,
    )
    gas = Species("gas_electrons", charge=-q_e, mass=m_e, ndim=2)
    sim.add_species(
        gas,
        profile=SlabProfile(setup.gas_density, setup.gas_lo, setup.gas_hi, axis=0),
        ppc=ppc_gas,
        continuous_injection=True,
        rng=rng,
    )

    if mode == "mr":
        dx, dy = grid.dx
        lo_cell = max(int(np.floor((setup.solid_lo - 2.0 * um) / dx)), 0)
        hi_cell = min(int(np.ceil((setup.solid_hi + 1.0 * um) / dx)), nx)
        # the patch encloses the finite-size target with an underdense
        # transverse margin, so no dense plasma sits near the patch PML
        y_extent = setup.solid_y_half + 1.2 * um
        lo_y = max(int(np.floor((setup.y_half - y_extent) / dy)), 0)
        hi_y = min(int(np.ceil((setup.y_half + y_extent) / dy)), ny)
        sim.add_patch(
            (lo_cell, lo_y),
            (hi_cell, hi_y),
            ratio=setup.mr_ratio,
            n_pml=4,
            subcycle=subcycle,
            remove_time=setup.patch_removal_time(),
        )

    # the window follows the *reflected* pulse, backward through the gas
    sim.set_moving_window(
        MovingWindow(
            speed=c, start_time=setup.window_start_time(), direction=-1
        )
    )
    return sim, solid, gas
