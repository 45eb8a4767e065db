"""Second-order FDTD Maxwell solver on the staggered Yee grid.

This is the standard explicit leapfrog update used by every code in the
paper's Table I: ``B`` is advanced with the forward-difference curl of
``E``; ``E`` with the backward-difference curl of ``B`` minus the deposited
current.  The solver is dimension-general (1D/2D/3D); derivatives along
absent axes vanish, which gives the usual 2D3V behaviour on 2D grids.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.constants import c, eps0
from repro.exceptions import StabilityError
from repro.grid import compiled as native_fields
from repro.grid.stencils import curl_term
from repro.grid.yee import YeeGrid


def cfl_dt(dx: Sequence[float], cfl: float = 0.999) -> float:
    """Largest stable FDTD time step for cell sizes ``dx`` [s].

    The Courant limit of the Yee scheme is
    ``c dt <= 1 / sqrt(sum_d 1/dx_d^2)``; ``cfl`` is the safety fraction.
    """
    inv = math.sqrt(sum(1.0 / d**2 for d in dx))
    return cfl / (c * inv)


class MaxwellSolver:
    """Vacuum FDTD updates for a :class:`YeeGrid`.

    Parameters
    ----------
    grid:
        The grid whose fields are evolved in place.
    dt:
        Time step [s]; checked against the Courant limit at construction.
    """

    #: FDTD exposes split push_e/push_b leapfrog halves.
    advances_together = False
    #: The second-order curl stencil reaches one cell into the halo.
    guard_cells = 1

    def __init__(self, grid: YeeGrid, dt: float) -> None:
        self.grid = grid
        self.dt = float(dt)
        limit = cfl_dt(grid.dx, cfl=1.0)
        if self.dt > limit * (1.0 + 1e-12):
            raise StabilityError(
                f"dt={self.dt:.3e}s exceeds the CFL limit {limit:.3e}s "
                f"for dx={grid.dx}"
            )
        self._scratch = np.zeros(grid.shape, dtype=grid.dtype)

    def push_b(self, fraction: float = 1.0) -> None:
        """Advance B by ``fraction * dt`` using ``dB/dt = -curl E``."""
        g = self.grid
        dt = self.dt * fraction
        for comp in ("Bx", "By", "Bz"):
            g.fields[comp] += dt * curl_term(
                g.fields, comp, g.ndim, g.dx, self._scratch
            )

    def push_e(self, fraction: float = 1.0) -> None:
        """Advance E by ``fraction * dt`` using ``dE/dt = c^2 curl B - J/eps0``."""
        g = self.grid
        dt = self.dt * fraction
        c2 = c * c
        for comp, j in (("Ex", "Jx"), ("Ey", "Jy"), ("Ez", "Jz")):
            g.fields[comp] += dt * (
                c2 * curl_term(g.fields, comp, g.ndim, g.dx, self._scratch)
                - g.fields[j] / eps0
            )

    def step(self) -> None:
        """One full leapfrog step: half B, full E, half B.

        This centering keeps E and B synchronous at step boundaries, which
        simplifies diagnostics and the MR coupling; it is algebraically
        equivalent to the usual staggered-in-time update.

        With the native library the three pushes run as the one C entry
        ``yee_step`` (:mod:`repro.grid.compiled`), bit for bit what
        :meth:`push_b` / :meth:`push_e` compute; those stay the fallback
        (``REPRO_COMPILED_BACKEND=none``, no compiler) and the oracle.
        """
        native = native_fields.backend(self.grid.dtype)
        if native is not None:
            native.yee_step(self.grid, self.dt, c * c, eps0)
            return
        self.push_b(0.5)
        self.push_e(1.0)
        self.push_b(0.5)
