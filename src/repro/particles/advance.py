"""The box-level particle advance every step driver calls.

One PIC particle pass over the arrays of one species on one grid: gather
E and B, advance momenta (``u``: n-1/2 -> n+1/2) and positions (``x``: n
-> n+1), deposit the current of the motion (``J`` at n+1/2), wrap the new
positions into a periodic domain.  Every particle of ``Simulation`` (one
call per level while an MR patch is active, each level on its rows of
the species arrays, and one per substep of a subcycled patch, in place
from the second on) and of ``DistributedSimulation`` (one call per box)
advances through :func:`advance_particles`, so the loop is spelled once
(Vay et al., *Warp-X*: a single box-level particle routine shared by
every driver and every level).

The call picks the kernel for its grid:

* **fused** — the kernel set has an ``advance`` slot (the ``compiled``
  tier), the deposition is Esirkepov and ``c dt < min(dx)``: one native
  loop per particle does the whole pass, wrap included.  The bound makes
  every move sub-cell (``|v| <= c``), which is what fixes the kernel's
  deposit window at ``order + 2`` points.
* **composed** — everything else (the NumPy tier, ``deposition=
  "direct"``, time steps of a cell or more): the kernel set's gather, the
  pusher, :func:`~repro.particles.pusher.push_positions` and the deposit
  — the set's Esirkepov kernel with windows sized from the data, or the
  one NumPy :func:`~repro.particles.deposit.deposit_current_direct` —
  then :func:`~repro.particles.pusher.wrap_positions_periodic`.

Both honour one contract.  The fields are gathered from ``grid`` and the
current lands on ``deposit_grid``, a grid laid out like it: an MR patch
gathers its auxiliary grid and deposits on its fine one.  Given a ``keep
= (lo, hi)`` box, a particle whose new position left ``[lo, hi)`` on some
axis deposits nothing and is flagged in the returned ``leaving`` mask:
that is how the crossers of a patch interior come back to the driver.
The call is untimed; its callers sit inside a timed phase.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.constants import c
from repro.exceptions import ConfigurationError
from repro.grid.yee import YeeGrid
from repro.particles.deposit import deposit_current_direct
from repro.particles.pusher import (
    PUSHERS,
    lorentz_factor,
    push_positions,
    wrap_positions_periodic,
)

DEPOSITIONS = ("esirkepov", "direct")


def _fuses(kernel_set, deposition: str, dt: float, grid: YeeGrid) -> bool:
    return (
        kernel_set.advance is not None
        and deposition == "esirkepov"
        and c * dt < min(grid.dx)
    )


def advance_particles(
    kernel_set,
    grid: YeeGrid,
    x: np.ndarray,
    u: np.ndarray,
    w: np.ndarray,
    q: float,
    m: float,
    dt: float,
    order: int,
    pusher: str,
    deposition: str,
    periodic: Optional[Tuple[Sequence[float], Sequence[float], Sequence[int]]] = None,
    deposit_grid: Optional[YeeGrid] = None,
    keep: Optional[Tuple[Sequence[float], Sequence[float]]] = None,
    rows: Optional[np.ndarray] = None,
    out: Optional[Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]] = None,
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Advance positions ``x`` and momenta ``u`` (weights ``w``, charge
    ``q``, mass ``m``) one step on ``grid``, depositing their current.

    ``periodic = (lo, hi, axes)`` wraps the new positions into the domain
    along ``axes`` (None: nothing can leave — MR patch members);
    ``deposit_grid`` (default ``grid``) receives the current; ``keep``
    leaves out and flags the particles whose new position left that box
    (module docstring).  Returns ``(x_new, u_new, leaving)`` in fresh
    arrays, ``leaving`` None without a keep box.  Given ``rows``, an
    index into ``x`` / ``u`` / ``w``, only those particles advance and
    their results go to the same rows of ``out = (x_new, u_new,
    leaving)`` (``leaving`` zeroed, None without a keep box), which is
    returned: an MR level advances its particles where they live.
    ``out`` may hold ``x`` and ``u`` themselves (a subcycled patch's later
    substeps): each row is read before it is written.
    """
    if pusher not in PUSHERS:
        raise ConfigurationError(f"unknown pusher {pusher!r}")
    if deposition not in DEPOSITIONS:
        raise ConfigurationError(f"unknown deposition {deposition!r}")
    if _fuses(kernel_set, deposition, dt, grid):
        return kernel_set.advance(
            grid, x, u, w, q, m, dt, order, pusher, periodic, deposit_grid,
            keep, rows, out,
        )
    if rows is not None:
        x_new, u_new, leaving = advance_particles(
            kernel_set, grid, *(a.take(rows, axis=0) for a in (x, u, w)), q,
            m, dt, order, pusher, deposition, periodic, deposit_grid, keep,
        )
        out[0][rows], out[1][rows] = x_new, u_new
        if leaving is not None:
            out[2][rows] = leaving
        return out
    if deposit_grid is None:
        deposit_grid = grid
    e_f, b_f = kernel_set.gather(grid, x, order)
    u_new = PUSHERS[pusher](u, e_f, b_f, q, m, dt)
    x_new = push_positions(x, u_new, dt, grid.ndim)
    vel = u_new * (c / lorentz_factor(u_new))[:, None]
    x_old, x_dep, leaving = x, x_new, None
    if keep is not None:
        inside = np.ones(x_new.shape[0], dtype=bool)
        for d, (lo, hi) in enumerate(zip(*keep)):
            inside &= (x_new[:, d] >= lo) & (x_new[:, d] < hi)
        leaving = ~inside
        x_old, x_dep, vel, w = (a[inside] for a in (x, x_new, vel, w))
    if deposition == "esirkepov":
        kernel_set.deposit_current(
            deposit_grid, x_old, x_dep, vel, w, q, dt, order
        )
    else:
        deposit_current_direct(
            deposit_grid, 0.5 * (x_old + x_dep), vel, w, q, order
        )
    if periodic is not None:
        wrap_positions_periodic(x_new, *periodic)
    return x_new, u_new, leaving
