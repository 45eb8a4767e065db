"""Berenger split-field Perfectly Matched Layer.

The mesh-refinement algorithm of the paper (Sec. V.B) terminates both the
fine patch and its coarse companion patch with absorbing layers so that
waves generated inside the patch leave without spurious reflection.  This
module implements the classic Berenger split-field PML: every field
component is split into the two sub-components driven by the two terms of
its curl, and each sub-component is damped by a conductivity graded along
the axis of its own derivative.

Where the conductivity vanishes (the patch interior) the update reduces
*exactly* to the vacuum FDTD scheme, so a PML-terminated patch uses a
single code path (:class:`PMLMaxwellSolver` is a drop-in replacement for
:class:`repro.grid.maxwell.MaxwellSolver`).
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.constants import c, eps0
from repro.exceptions import StabilityError
from repro.grid import compiled as native_fields
from repro.grid.boundary import absorber_sides
from repro.grid.maxwell import cfl_dt
from repro.grid.stencils import CURL_TERMS, diff_backward, diff_forward
from repro.grid.yee import STAGGER, YeeGrid


def pml_sigma_profile(
    grid: YeeGrid,
    axis: int,
    stagger: int,
    n_pml: int,
    order: int = 3,
    r0: float = 1.0e-8,
    sides: str = "both",
) -> np.ndarray:
    """1D conductivity profile [1/s] along ``axis`` for one staggering.

    Polynomial grading ``sigma = sigma_max (depth/n_pml)^order`` inside the
    outermost ``n_pml`` valid cells (and growing through the guards), with
    ``sigma_max`` set from the theoretical normal-incidence reflection
    coefficient ``r0``.  ``sides`` is ``"both"``, ``"low"`` or ``"high"``.
    """
    low, high = absorber_sides(sides)
    g = grid.guards
    n = grid.n_cells[axis]
    dx = grid.dx[axis]
    # conductivity tables are DP by design  # repro: allow(PIC007)
    idx = np.arange(grid.shape[axis], dtype=np.float64)  # repro: allow(PIC007)
    pos = idx - g + 0.5 * stagger  # in cell units; valid region is [0, n]
    depth = np.zeros_like(pos)
    if low:
        depth = np.maximum(depth, n_pml - pos)
    if high:
        depth = np.maximum(depth, pos - (n - n_pml))
    sigma_max = -(order + 1) * math.log(r0) * c / (2.0 * n_pml * dx)
    return sigma_max * (np.maximum(depth, 0.0) / n_pml) ** order


def _exp_coeffs(sigma: np.ndarray, dt: float) -> Tuple[np.ndarray, np.ndarray]:
    """Exponential-integrator coefficients (decay, source weight).

    The split-field ODE ``dP/dt + sigma P = R`` integrates exactly to
    ``P <- decay * P + weight * R`` with ``decay = exp(-sigma dt)`` and
    ``weight = (1 - decay)/sigma`` (limit ``dt`` as ``sigma -> 0``).
    """
    s_dt = sigma * dt
    decay = np.exp(-s_dt)
    with np.errstate(divide="ignore", invalid="ignore"):
        weight = np.where(s_dt > 1.0e-12, (1.0 - decay) / np.where(sigma > 0, sigma, 1.0), dt)
    return decay, weight


class PMLMaxwellSolver:
    """FDTD solver with Berenger split fields over the whole grid.

    Parameters
    ----------
    grid:
        The grid to evolve; its ``fields`` always hold the recomposed
        (summed) physical fields after each push.
    dt:
        Time step [s].
    n_pml:
        Absorber thickness in cells measured inward from each domain edge.
    axes:
        Axes that carry an absorbing layer (default: all grid axes).
    sides:
        ``"both"``, ``"low"`` or ``"high"`` — which ends of each axis absorb.
    order, r0:
        Conductivity grading polynomial order and target reflection.
    """

    #: Same split leapfrog interface as the vacuum FDTD solver.
    advances_together = False
    #: The second-order curl stencil reaches one cell into the halo.
    guard_cells = 1

    def __init__(
        self,
        grid: YeeGrid,
        dt: float,
        n_pml: int = 8,
        axes: Optional[Sequence[int]] = None,
        sides: str = "both",
        order: int = 3,
        r0: float = 1.0e-8,
    ) -> None:
        self.grid = grid
        self.dt = float(dt)
        limit = cfl_dt(grid.dx, cfl=1.0)
        if self.dt > limit * (1.0 + 1e-12):
            raise StabilityError(
                f"dt={self.dt:.3e}s exceeds the CFL limit {limit:.3e}s"
            )
        absorber_sides(sides)
        self.n_pml = int(n_pml)
        self.axes = tuple(axes) if axes is not None else tuple(range(grid.ndim))
        # split sub-fields, keyed by (component, derivative axis)
        self.split: Dict[Tuple[str, int], np.ndarray] = {}
        # per split sub-field: 1D sigma broadcast to the grid shape
        self._sigma: Dict[Tuple[str, int], np.ndarray] = {}
        for comp in ("Ex", "Ey", "Ez", "Bx", "By", "Bz"):
            terms = [t for t in CURL_TERMS[comp] if t[1] < grid.ndim]
            for i, (_, axis, _) in enumerate(terms):
                key = (comp, axis)
                part = np.zeros(grid.shape, dtype=grid.dtype)
                # carry any pre-existing field entirely in the first part
                if i == 0:
                    part[...] = grid.fields[comp]
                self.split[key] = part
                if axis in self.axes:
                    sig1d = pml_sigma_profile(
                        grid, axis, STAGGER[comp][axis], self.n_pml, order, r0, sides
                    )
                else:
                    sig1d = np.zeros(grid.shape[axis], dtype=np.float64)  # repro: allow(PIC007)
                shape = [1] * grid.ndim
                shape[axis] = grid.shape[axis]
                self._sigma[key] = sig1d.reshape(shape)
        self._scratch = np.zeros(grid.shape, dtype=grid.dtype)
        self._coeff_cache: Dict[Tuple[str, int, float], Tuple[np.ndarray, np.ndarray]] = {}
        #: dt -> the native entry's pointer table into ``_coeff_cache``
        #: (filled by :mod:`repro.grid.compiled`)
        self._native_coeffs: Dict[float, tuple] = {}

    def _coeffs(self, key: Tuple[str, int], dt: float) -> Tuple[np.ndarray, np.ndarray]:
        cache_key = (key[0], key[1], dt)
        if cache_key not in self._coeff_cache:
            self._coeff_cache[cache_key] = _exp_coeffs(self._sigma[key], dt)
        return self._coeff_cache[cache_key]

    def _push_family(self, components, coeff: float, fraction: float, with_current: bool) -> None:
        g = self.grid
        dt = self.dt * fraction
        use_fwd = components[0].startswith("B")
        for comp in components:
            terms = [t for t in CURL_TERMS[comp] if t[1] < g.ndim]
            if not terms:
                # lower-dimensional grids: no curl term exists (e.g. Ex in
                # 1D); the field still responds to the deposited current.
                if with_current:
                    g.fields[comp] -= dt * g.fields["J" + comp[1]] / eps0
                continue
            for i, (source, axis, sign) in enumerate(terms):
                key = (comp, axis)
                diff = diff_forward if use_fwd else diff_backward
                rhs = diff(g.fields[source], axis, g.dx[axis], out=self._scratch)
                rhs = coeff * sign * rhs
                if with_current and i == 0:
                    rhs = rhs - g.fields["J" + comp[1]] / eps0
                decay, weight = self._coeffs(key, dt)
                part = self.split[key]
                part *= decay
                part += weight * rhs
            # recompose the physical field
            total = g.fields[comp]
            total.fill(0.0)
            for _, axis, _ in terms:
                total += self.split[(comp, axis)]

    def push_b(self, fraction: float = 1.0) -> None:
        """Advance the split B sub-fields by ``fraction * dt``."""
        self._push_family(("Bx", "By", "Bz"), 1.0, fraction, with_current=False)

    def push_e(self, fraction: float = 1.0) -> None:
        """Advance the split E sub-fields by ``fraction * dt`` (includes J)."""
        self._push_family(("Ex", "Ey", "Ez"), c * c, fraction, with_current=True)

    def step(self) -> None:
        """One full leapfrog step (half B, full E, half B).

        With the native library this is the one C entry ``pml_step``
        (:mod:`repro.grid.compiled`) over the fields, the split parts and
        the decay / weight tables of :meth:`_coeffs`, bit for bit what
        :meth:`push_b` / :meth:`push_e` compute; those stay the fallback
        (``REPRO_COMPILED_BACKEND=none``, no compiler) and the oracle.
        """
        native = native_fields.backend(self.grid.dtype)
        if native is not None:
            native.pml_step(self, c * c, eps0)
            return
        self.push_b(0.5)
        self.push_e(1.0)
        self.push_b(0.5)
