"""Field gathering: grid -> particle interpolation.

Two implementations of the same kernel are provided on purpose (see
:mod:`repro.particles.kernels` for the dispatch registry):

* :func:`gather_fields` — vectorized over particles with the stencil point
  fixed, exactly the strategy the paper found optimal on A64FX
  ("vectorizing the computation of the coefficient ijk for multiple
  particles"); in NumPy this is the only fast formulation.  The per-axis
  shape weights are computed once per distinct stagger offset (a
  :class:`~repro.particles.shapes.ShapeWeightCache`) instead of once per
  component: at most ``2 * ndim`` weight evaluations for the six
  components, not ``6 * ndim``.
* :func:`gather_fields_reference` — a scalar per-particle loop, the
  "reference" baseline of the paper's Sec. V.A.1 tuning table.  It is used
  to cross-validate the vectorized kernel and in the kernel-optimization
  benchmark.

Under ``REPRO_SANITIZE=1`` the vectorized gather verifies (SAN005) that no
particle's stencil leaves the padded field array: the flat-address
arithmetic would otherwise wrap a negative base index to the far end of
the array and silently read garbage.
"""

from __future__ import annotations

import itertools
from typing import Sequence, Tuple

import numpy as np

from repro.analysis.sanitize import Sanitizer
from repro.grid.yee import FIELD_COMPONENTS, STAGGER, YeeGrid
from repro.particles.shapes import ShapeWeightCache, shape_weights


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


def _stencil_accumulate(  # repro: allow(PIC007)
    flat: np.ndarray,
    strides: Sequence[int],
    idx0: Sequence[np.ndarray],
    wts: Sequence[np.ndarray],
    order: int,
) -> np.ndarray:
    """Sum ``w_i * field[stencil_i]`` over the stencil, one offset at a time."""
    ndim = len(idx0)
    out = np.zeros(idx0[0].shape[0], dtype=np.float64)
    for offsets in itertools.product(range(order + 1), repeat=ndim):
        wprod = wts[0][:, offsets[0]].copy()
        addr = (idx0[0] + offsets[0]) * strides[0]
        for d in range(1, ndim):
            wprod *= wts[d][:, offsets[d]]
            addr = addr + (idx0[d] + offsets[d]) * strides[d]
        out += wprod * flat[addr]
    return out


def gather_fields(  # repro: allow(PIC007)
    grid: YeeGrid, positions: np.ndarray, order: int = 1
) -> Tuple[np.ndarray, np.ndarray]:
    """Interpolate (E, B) to particle positions.

    Returns two (n, 3) arrays.  Every component is gathered on its own
    staggered lattice with an order-``order`` B-spline.  The per-axis
    ``(i0, w)`` tables are memoized per stagger offset: a Yee lattice has
    only two distinct sample lattices per axis.
    """
    ndim = grid.ndim
    n = positions.shape[0]
    san = Sanitizer.from_env()
    cache = ShapeWeightCache(lattice_coords(grid, positions, "rho"), order)
    sample = grid.fields["Ex"]
    strides = [int(s) for s in np.array(sample.strides) // sample.itemsize]
    e_out = np.empty((n, 3), dtype=np.float64)
    b_out = np.empty((n, 3), dtype=np.float64)
    for i, comp in enumerate(FIELD_COMPONENTS):
        stag = STAGGER[comp]
        idx0 = []
        wts = []
        for d in range(ndim):
            i0, w = cache.get(d, stag[d])
            idx0.append(i0)
            wts.append(w)
        arr = grid.fields[comp]
        if san is not None:
            san.check_stencil_bounds(
                "gather_fields", comp, idx0, order + 1, arr.shape
            )
        out = e_out if i < 3 else b_out
        out[:, i % 3] = _stencil_accumulate(
            arr.ravel(), strides, idx0, wts, order
        )
    return e_out, b_out


def gather_fields_reference(  # repro: allow(PIC001, PIC007)
    grid: YeeGrid, positions: np.ndarray, order: int = 1
) -> Tuple[np.ndarray, np.ndarray]:
    """Scalar per-particle gather (baseline of the Sec. V.A.1 experiment).

    Identical mathematics to :func:`gather_fields`, but iterating particles
    in Python with per-particle stencil evaluation — the analog of the
    unvectorized per-particle loop the paper started from on A64FX.
    """
    n = positions.shape[0]
    ndim = grid.ndim
    e_out = np.zeros((n, 3), dtype=np.float64)
    b_out = np.zeros((n, 3), dtype=np.float64)
    for i, comp in enumerate(("Ex", "Ey", "Ez", "Bx", "By", "Bz")):
        arr = grid.fields[comp]
        out = e_out if i < 3 else b_out
        col = i % 3
        stag = STAGGER[comp]
        for p in range(n):
            coords = [
                (positions[p, d] - grid.lo[d]) / grid.dx[d]
                + grid.guards
                - 0.5 * stag[d]
                for d in range(ndim)
            ]
            stencil = []
            for d in range(ndim):
                i0, w = shape_weights(np.array([coords[d]]), order)
                stencil.append((int(i0[0]), w[0]))
            acc = 0.0
            for offsets in itertools.product(range(order + 1), repeat=ndim):
                wprod = 1.0
                idx = []
                for d in range(ndim):
                    i0, w = stencil[d]
                    wprod *= w[offsets[d]]
                    idx.append(i0 + offsets[d])
                acc += wprod * arr[tuple(idx)]
            out[p, col] = acc
    return e_out, b_out
