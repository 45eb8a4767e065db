"""Field gathering: grid -> particle interpolation.

:func:`gather_fields` is the NumPy tier's gather (see
:mod:`repro.particles.kernels` for the dispatch table), vectorized over
particles with the stencil point fixed — exactly the strategy the paper
found optimal on A64FX ("vectorizing the computation of the coefficient
ijk for multiple particles"); in NumPy this is the only fast formulation.
The six components are grouped by the sample lattice they share (2D: four
lattices, ``Ex``/``By`` and ``Ey``/``Bx`` pair up; 1D: two; 3D: six).  Per
lattice the first-point flat address is built once, per stencil offset the
weight product and ``first + shift`` once, and each member component then
costs one take and one multiply-add.  The per-axis shape weights come from
a :class:`~repro.particles.shapes.ShapeWeightCache`: ``2 * ndim``
evaluations for the six components.  Every output element sees the
operations of a scalar per-particle loop in the same order, so the gather
is bit-identical to one (the test suite's oracle, ``tests/oracles.py``).

Under ``REPRO_SANITIZE=1`` the vectorized gather verifies (SAN005) that no
particle's stencil leaves the padded field array: the flat-address
arithmetic would otherwise wrap a negative base index to the far end of
the array and silently read garbage.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Tuple

import numpy as np

from repro.analysis.sanitize import Sanitizer
from repro.grid.yee import FIELD_COMPONENTS, STAGGER, YeeGrid
from repro.particles.shapes import ShapeWeightCache


def lattice_coords(
    grid: YeeGrid, positions: np.ndarray, component: str
) -> Tuple[np.ndarray, ...]:
    """Positions in the sample-lattice units of ``component``, per axis.

    Sample ``i`` of a component with stagger ``s`` sits at
    ``lo + (i - guards + 0.5 s) dx``; the returned coordinate of a particle
    is therefore directly comparable to array indices.
    """
    stag = STAGGER[component]
    return tuple(
        (positions[:, d] - grid.lo[d]) / grid.dx[d] + grid.guards - 0.5 * stag[d]
        for d in range(grid.ndim)
    )


def gather_fields(  # repro: allow(PIC007)
    grid: YeeGrid, positions: np.ndarray, order: int = 1
) -> Tuple[np.ndarray, np.ndarray]:
    """Interpolate (E, B) to particle positions.

    Returns two (n, 3) arrays.  Every component is gathered on its own
    staggered lattice with an order-``order`` B-spline; components that
    share a lattice share its address table and weight products.
    """
    ndim = grid.ndim
    n = positions.shape[0]
    san = Sanitizer.from_env()
    cache = ShapeWeightCache(lattice_coords(grid, positions, "rho"), order)
    sample = grid.fields["Ex"]
    strides = [int(s) for s in np.array(sample.strides) // sample.itemsize]
    lattices: Dict[Tuple[int, ...], List[str]] = {}
    for comp in FIELD_COMPONENTS:
        lattices.setdefault(STAGGER[comp][:ndim], []).append(comp)
    out = {comp: np.zeros(n, dtype=np.float64) for comp in FIELD_COMPONENTS}
    for stag, members in lattices.items():
        idx0, wts = zip(*(cache.get(d, stag[d]) for d in range(ndim)))
        if san is not None:
            for comp in members:
                san.check_stencil_bounds(
                    "gather_fields", comp, idx0, order + 1,
                    grid.fields[comp].shape,
                )
        flats = [grid.fields[comp].ravel() for comp in members]
        first = sum(i0 * s for i0, s in zip(idx0, strides))
        for offsets in itertools.product(range(order + 1), repeat=ndim):
            wprod = wts[0][:, offsets[0]]
            for d in range(1, ndim):
                wprod = wprod * wts[d][:, offsets[d]]
            addr = first + sum(o * s for o, s in zip(offsets, strides))
            for comp, flat in zip(members, flats):
                out[comp] += wprod * flat[addr]
    e_out = np.empty((n, 3), dtype=np.float64)
    b_out = np.empty((n, 3), dtype=np.float64)
    for i, comp in enumerate(FIELD_COMPONENTS):
        (e_out if i < 3 else b_out)[:, i % 3] = out[comp]
    return e_out, b_out
