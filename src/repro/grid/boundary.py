"""Domain boundary conditions for single-patch grids.

Two families are provided:

* periodic — guard cells wrap around the valid region,
* damping — graded exponential absorber (the cheap alternative to the PML,
  used by several production PIC codes for large outer boundaries).

Boundaries act on one grid axis at a time so that per-axis mixes (e.g.
periodic transverse + absorbing longitudinal) are expressible.
"""

from __future__ import annotations

from itertools import product
from typing import List, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.grid import compiled as native_fields
from repro.grid.yee import STAGGER, FIELD_COMPONENTS, YeeGrid

#: which ends of an axis an absorber covers: sides -> (low, high)
ABSORBER_SIDES = {"both": (True, True), "low": (True, False), "high": (False, True)}


def _axis_slice(ndim: int, axis: int, sl: slice):
    out = [slice(None)] * ndim
    out[axis] = sl
    return tuple(out)


def periodic_image_shifts(
    domain_cells: Sequence[int], periodic_axes: Sequence[int] = ()
) -> List[Tuple[int, ...]]:
    """Every periodic-image shift vector of the domain, zero shift included.

    Along a periodic axis a box has images displaced by ``-n``, ``0`` and
    ``+n`` cells; a non-periodic axis contributes only ``0``.  The pairwise
    halo exchange enumerates box overlaps against each shifted image, which
    is how wrap-around neighbor pairs (and a box's own periodic image, for
    a single-box axis) are found.  Sufficient as long as a box plus its
    guards never spans more than one full period.
    """
    per_axis = [
        (-int(domain_cells[d]), 0, int(domain_cells[d]))
        if d in periodic_axes
        else (0,)
        for d in range(len(domain_cells))
    ]
    return [tuple(s) for s in product(*per_axis)]


def apply_periodic(grid: YeeGrid, axis: int, components=None) -> None:
    """Fill guard cells along ``axis`` from the periodic image of the valid data.

    For a nodal component the first and last valid planes are physically the
    same point, so the period is ``n_cells`` for every staggering.
    """
    g = grid.guards
    n = grid.n_cells[axis]
    names = components if components is not None else list(grid.fields)
    for name in names:
        arr = grid.fields[name]
        stag = STAGGER[name][axis]
        # identify the duplicated nodal plane: arr[g] == arr[g+n]
        if stag == 0:
            arr[_axis_slice(arr.ndim, axis, slice(g + n, g + n + 1))] = arr[
                _axis_slice(arr.ndim, axis, slice(g, g + 1))
            ]
        # low guards <- image of high valid region
        arr[_axis_slice(arr.ndim, axis, slice(0, g))] = arr[
            _axis_slice(arr.ndim, axis, slice(n, n + g))
        ]
        # high guards <- image of low valid region
        hi0 = g + n + 1 - stag
        arr[_axis_slice(arr.ndim, axis, slice(hi0, hi0 + g + stag))] = arr[
            _axis_slice(arr.ndim, axis, slice(g + 1 - stag, g + 1 + g))
        ]


def accumulate_periodic_sources(grid: YeeGrid, axis: int) -> None:
    """Fold guard-cell deposits of J and rho back into the valid region.

    Deposition writes into the guards when a particle sits near the wall;
    with periodic boundaries those contributions belong to the opposite
    side and must be *added* (not copied) before the field push.
    """
    g = grid.guards
    n = grid.n_cells[axis]
    for name in ("Jx", "Jy", "Jz", "rho"):
        arr = grid.fields[name]
        stag = STAGGER[name][axis]
        nd = arr.ndim
        # low guards fold onto the top of the valid region
        arr[_axis_slice(nd, axis, slice(n, n + g))] += arr[
            _axis_slice(nd, axis, slice(0, g))
        ]
        # high guards fold onto the bottom
        hi0 = g + n + 1 - stag
        extent = arr.shape[axis] - hi0
        arr[_axis_slice(nd, axis, slice(g + 1 - stag, g + 1 - stag + extent))] += arr[
            _axis_slice(nd, axis, slice(hi0, None))
        ]
        if stag == 0:
            # the duplicated nodal plane holds the same physical point
            arr[_axis_slice(nd, axis, slice(g, g + 1))] += arr[
                _axis_slice(nd, axis, slice(g + n, g + n + 1))
            ]
            arr[_axis_slice(nd, axis, slice(g + n, g + n + 1))] = arr[
                _axis_slice(nd, axis, slice(g, g + 1))
            ]
        arr[_axis_slice(nd, axis, slice(0, g))] = 0.0
        arr[_axis_slice(nd, axis, slice(hi0, None))] = 0.0


def damping_profile(n_layer: int, strength: float = 0.02, power: int = 2) -> np.ndarray:
    """Per-plane multiplicative damping factors, 1.0 at the inner edge.

    ``factor[k] = 1 - strength * ((n_layer - k)/n_layer)^power`` for plane
    ``k`` counted from the outer edge inward; applied every step this gives
    a smooth exponential decay of outgoing waves.
    """
    k = np.arange(n_layer, dtype=np.float64)  # repro: allow(PIC007)
    depth = (n_layer - k) / n_layer
    return 1.0 - strength * depth**power


def absorber_sides(sides: str) -> Tuple[bool, bool]:
    """``(low, high)`` of an absorber's ``sides`` value (``"both"``,
    ``"low"`` or ``"high"``); anything else is refused, never read as
    "no absorber"."""
    try:
        return ABSORBER_SIDES[sides]
    except (KeyError, TypeError):
        raise ConfigurationError(
            f"unknown absorber sides {sides!r}; expected one of "
            f"{tuple(ABSORBER_SIDES)}"
        ) from None


def check_damping_layer(grid: YeeGrid, axis: int, n_layer: int) -> None:
    """Refuse a damping layer that does not fit in ``axis``: planes
    ``[0, n_layer)`` and ``[size - n_layer, size)`` must be planes of the
    array (a wider layer used to reach further planes through negative
    indices)."""
    size = grid.shape[axis]
    if not 0 <= n_layer <= size:
        raise ConfigurationError(
            f"damping layer of {n_layer} planes does not fit axis {axis} "
            f"({size} planes, guards included)"
        )


def apply_damping(
    grid: YeeGrid,
    axis: int,
    n_layer: int,
    strength: float = 0.02,
    power: int = 2,
    sides: str = "both",
) -> None:
    """Multiply E and B by a graded profile inside layers at the axis ends.

    Plane ``k`` from either end takes ``damping_profile(...)[k]``, the low
    side first: where the two layers overlap a plane is damped twice.  With
    the native library this is the C entry ``damp``
    (:mod:`repro.grid.compiled`); otherwise, and as its oracle, NumPy
    multiplies each component once per side by the broadcast profile.
    Either way the product runs in double (the factors are float64) and
    is rounded once per side to the grid dtype.
    """
    low, high = absorber_sides(sides)
    check_damping_layer(grid, axis, n_layer)
    factors = damping_profile(n_layer, strength, power)
    native = native_fields.backend(grid.dtype)
    if native is not None:
        native.damp(grid, axis, factors, low, high)
        return
    nd = grid.ndim
    size = grid.shape[axis]
    shape = [1] * nd
    shape[axis] = n_layer
    low_profile = factors.reshape(shape)
    high_profile = factors[::-1].reshape(shape)
    for name in FIELD_COMPONENTS:
        arr = grid.fields[name]
        if low:
            arr[_axis_slice(nd, axis, slice(0, n_layer))] *= low_profile
        if high:
            arr[_axis_slice(nd, axis, slice(size - n_layer, size))] *= high_profile
