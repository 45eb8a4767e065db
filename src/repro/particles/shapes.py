"""B-spline particle shape factors (orders 1-3).

The shape factor assigns a macroparticle's charge to nearby lattice points.
High-order (quadratic/cubic) shapes are one of the capabilities the paper's
Table I marks as *essential*: they let the dense plasma-mirror target be
modelled without the finite-grid instability forcing prohibitive
resolution.

Two entry points:

* :func:`bspline` — the centered B-spline ``B_o(s)`` itself (closed form),
  the definition the tests check every kernel's weights against.
* :func:`shape_weights` — per-particle stencil base index and weight table
  for gather/scatter on a sample lattice; also the shapes the Esirkepov
  deposition places in its window.
* :class:`ShapeWeightCache` — memoizes :func:`shape_weights` over the two
  distinct stagger offsets per axis, shared across field components.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError

SUPPORTED_ORDERS = (1, 2, 3)


def required_guards(order: int) -> int:
    """Guard cells needed so order-``order`` kernels never index out of range."""
    return (order + 3) // 2


def bspline(order: int, s: np.ndarray) -> np.ndarray:  # repro: allow(PIC007)
    """Centered B-spline ``B_o(s)`` evaluated elementwise.

    ``B_o`` has support ``|s| <= (order+1)/2``, unit integral, and satisfies
    the partition of unity ``sum_j B_o(j - x) = 1`` for any ``x``.
    """
    s = np.abs(np.asarray(s, dtype=np.float64))
    if order == 1:
        return np.where(s < 1.0, 1.0 - s, 0.0)
    if order == 2:
        inner = 0.75 - s**2
        outer = 0.5 * (1.5 - s) ** 2
        return np.where(s <= 0.5, inner, np.where(s < 1.5, outer, 0.0))
    if order == 3:
        inner = (4.0 - 6.0 * s**2 + 3.0 * s**3) / 6.0
        outer = (2.0 - s) ** 3 / 6.0
        return np.where(s <= 1.0, inner, np.where(s < 2.0, outer, 0.0))
    raise ConfigurationError(f"unsupported shape order {order}")


def shape_weights(x: np.ndarray, order: int) -> Tuple[np.ndarray, np.ndarray]:  # repro: allow(PIC007)
    """Stencil base indices and weights for particles at lattice coords ``x``.

    Parameters
    ----------
    x:
        Particle positions in lattice units (sample ``j`` sits at coordinate
        ``j``); shape (n,).
    order:
        Shape factor order (1, 2 or 3).

    Returns
    -------
    (i0, w):
        ``i0`` — integer array (n,), the first lattice point of each
        particle's stencil; ``w`` — float array (n, order+1), the weights
        applied at points ``i0, i0+1, ..., i0+order`` (each row sums to 1).
    """
    x = np.asarray(x, dtype=np.float64)
    if order == 1:
        i0 = np.floor(x).astype(np.intp)
        f = x - i0
        w = np.empty((x.size, 2), dtype=np.float64)
        w[:, 0] = 1.0 - f
        w[:, 1] = f
        return i0, w
    if order == 2:
        nearest = np.floor(x + 0.5).astype(np.intp)
        d = x - nearest
        i0 = nearest - 1
        w = np.empty((x.size, 3), dtype=np.float64)
        w[:, 0] = 0.5 * (0.5 - d) ** 2
        w[:, 1] = 0.75 - d**2
        w[:, 2] = 0.5 * (0.5 + d) ** 2
        return i0, w
    if order == 3:
        cell = np.floor(x).astype(np.intp)
        f = x - cell
        i0 = cell - 1
        w = np.empty((x.size, 4), dtype=np.float64)
        w[:, 0] = (1.0 - f) ** 3 / 6.0
        w[:, 1] = (3.0 * f**3 - 6.0 * f**2 + 4.0) / 6.0
        w[:, 2] = (-3.0 * f**3 + 3.0 * f**2 + 3.0 * f + 1.0) / 6.0
        w[:, 3] = f**3 / 6.0
        return i0, w
    raise ConfigurationError(f"unsupported shape order {order}")


class ShapeWeightCache:
    """Per-axis stencil weight tables memoized over the stagger offsets.

    A Yee lattice exposes exactly two sample lattices per axis — nodal
    (stagger 0) and half-cell shifted (stagger 1).  The cache keys on
    ``(axis, stagger)``, so the six-component field gather computes at
    most ``2 * ndim`` weight tables per particle population, not
    ``6 * ndim``; the remaining lookups are dictionary hits.

    The staggered coordinate is derived as ``nodal - 0.5`` — the same
    floating point operations :func:`repro.particles.gather.lattice_coords`
    performs — so cached gathers are bit-identical to uncached ones.
    """

    def __init__(self, nodal_coords: Sequence[np.ndarray], order: int) -> None:
        self._nodal = nodal_coords
        self.order = int(order)
        self._tables: Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray]] = {}
        self.hits = 0
        self.misses = 0

    def get(self, axis: int, stagger: int) -> Tuple[np.ndarray, np.ndarray]:
        """(i0, w) of :func:`shape_weights` on the requested sample lattice."""
        key = (int(axis), int(stagger))
        table = self._tables.get(key)
        if table is None:
            x = self._nodal[axis]
            if stagger:
                x = x - 0.5
            table = shape_weights(x, self.order)
            self._tables[key] = table
            self.misses += 1
        else:
            self.hits += 1
        return table
