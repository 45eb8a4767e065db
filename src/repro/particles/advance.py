"""The box-level particle advance every step driver calls.

One PIC particle pass over one species on one grid: gather E and B,
advance momenta (``u``: n-1/2 -> n+1/2) and positions (``x``: n -> n+1),
deposit the current of the motion (``J`` at n+1/2).  ``Simulation``
and ``DistributedSimulation`` advance their particles through
:func:`advance_particles` or, for the levels of an active MR patch, the
kernel set's fused slot it wraps, so the loop is spelled once (Vay et
al., *Warp-X*: a single box-level particle routine shared by every
driver and every level).

Two routes, chosen from what the kernel set offers:

* **fused** — the kernel set has an ``advance`` slot (the ``compiled``
  tier), the deposition is Esirkepov and ``c dt < min(dx)`` (see
  :func:`fuses`): one native loop per particle does the whole pass *and*
  the periodic wrap, recorded as a single ``particles`` phase.  The
  bound makes every move sub-cell (``|v| <= c``), which is what fixes
  the kernel's deposit window at ``order + 2`` points.  The slot gathers
  from one grid and may deposit on a second of the same layout, and may
  leave out (and flag) the particles whose new position left a keep
  box: that is how mesh refinement runs on it.  While a patch is
  active, ``Simulation`` splits each species by level at step n and
  makes one fused call per level — a patch's members gather its
  auxiliary grid and deposit on its fine grid, keeping the patch
  interior; everyone else runs on the parent — and deposits the few
  flagged crossers through its level-aware deposit hook, all inside one
  ``particles`` phase.  Subcycled patch substeps call
  :func:`advance_particles` with ``deposit_grid=`` the fine grid.
* **three-phase** — everything else (the NumPy tier, ``deposition=
  "direct"``, time steps of a cell or more, and callers that substitute
  their own gather/deposit, which is how an active mesh-refinement
  patch routes particles between levels on those configurations): the
  classic ``gather`` / ``push`` / ``deposit`` phases with windows sized
  from the data, then the wrap
  (:func:`~repro.particles.pusher.wrap_positions_periodic`) under the
  ``particle_boundaries`` timer.  The kernel set supplies the gather and
  the Esirkepov deposit; the ``direct`` ablation deposits with the one
  NumPy :func:`~repro.particles.deposit.deposit_current_direct` on every
  tier.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Callable, Optional, Sequence, Tuple

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
from repro.particles.species import Species

DEPOSITIONS = ("esirkepov", "direct")


def _untimed(name: str, **attrs):
    return nullcontext()


def fuses(kernel_set, deposition: str, dt: float, grid: YeeGrid) -> bool:
    """Whether a pass on ``grid`` can take the fused route: the kernel
    set has an ``advance`` slot, the deposition is Esirkepov and every
    move is sub-cell (``c dt < min(dx)``)."""
    return (
        kernel_set.advance is not None
        and deposition == "esirkepov"
        and c * dt < min(grid.dx)
    )


def advance_particles(
    grid: YeeGrid,
    species: Species,
    kernel_set,
    pusher: str,
    dt: float,
    shape_order: int,
    deposition: str = "esirkepov",
    phase: Optional[Callable[..., object]] = None,
    gather: Optional[Callable[[Species], Tuple[np.ndarray, np.ndarray]]] = None,
    deposit: Optional[Callable[..., None]] = None,
    periodic: Optional[Tuple[Sequence[float], Sequence[float], Sequence[int]]] = None,
    deposit_grid: Optional[YeeGrid] = None,
) -> Tuple[str, ...]:
    """Advance ``species`` one step on ``grid``, depositing its current.

    ``phase(name, **attrs)`` returns the context manager that times one
    phase (a driver's ``_phase``); None runs untimed, for callers that
    already sit inside a timed region.  ``gather(species) -> (E, B)`` and
    ``deposit(species, x_old, x_new, velocities)`` replace the kernel
    set's own single-grid gather and deposit; giving either selects the
    three-phase route.  ``deposit_grid`` (default ``grid``), a grid laid
    out like ``grid``, receives the current: a subcycled MR patch gathers
    from its auxiliary grid and deposits on its fine one.  ``periodic =
    (lo, hi, axes)`` wraps the new positions into the domain along
    ``axes`` (None: nothing can leave — subcycled MR patches).
    ``DistributedSimulation`` passes its domain's bounds to every box, as
    ``Simulation`` passes its grid's.

    Returns the kernel phases dispatched — ``("advance",)`` or
    ``("gather", "deposit")`` — for the driver's ``kernel.dispatch``
    counters.
    """
    if pusher not in PUSHERS:
        raise ConfigurationError(f"unknown pusher {pusher!r}")
    if deposition not in DEPOSITIONS:
        raise ConfigurationError(f"unknown deposition {deposition!r}")
    if phase is None:
        phase = _untimed
    sp = species
    kernel = kernel_set.name
    if deposit_grid is None:
        deposit_grid = grid
    if gather is None and deposit is None and fuses(
        kernel_set, deposition, dt, grid
    ):
        with phase("particles", species=sp.name, kernel=kernel):
            sp.positions, sp.momenta, _ = kernel_set.advance(
                grid, sp.positions, sp.momenta, sp.weights, sp.charge,
                sp.mass, dt, shape_order, pusher, periodic, deposit_grid,
            )
        return ("advance",)

    with phase("gather", species=sp.name, kernel=kernel):
        if gather is not None:
            e_f, b_f = gather(sp)
        else:
            e_f, b_f = kernel_set.gather(grid, sp.positions, shape_order)
    with phase("push", species=sp.name):
        sp.momenta = PUSHERS[pusher](
            sp.momenta, e_f, b_f, sp.charge, sp.mass, dt
        )
        x_old = sp.positions
        sp.positions = push_positions(x_old, sp.momenta, dt, grid.ndim)
    with phase("deposit", species=sp.name, kernel=kernel):
        vel = sp.momenta * (c / lorentz_factor(sp.momenta))[:, None]
        if deposit is not None:
            deposit(sp, x_old, sp.positions, vel)
        elif deposition == "esirkepov":
            kernel_set.deposit_current(
                deposit_grid, x_old, sp.positions, vel, sp.weights,
                sp.charge, dt, shape_order,
            )
        else:
            deposit_current_direct(
                deposit_grid, 0.5 * (x_old + sp.positions), vel, sp.weights,
                sp.charge, shape_order,
            )
    if periodic is not None:
        with phase("particle_boundaries", species=sp.name):
            wrap_positions_periodic(sp.positions, *periodic)
    return ("gather", "deposit")
