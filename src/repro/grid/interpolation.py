"""Coarse <-> fine grid transfer operators for mesh refinement.

Both operators are separable per axis and aware of the Yee staggering:

* :func:`prolong` — linear interpolation of a coarse array onto the fine
  sample points of the same physical region (used for the ``I[F(s)-F(c)]``
  term of the field substitution and for initializing patch fields).
* :func:`restrict` — full-weighting (nodal axes) / box-average (staggered
  axes) of a fine array onto coarse sample points (used to transfer the
  fine-patch current density onto the parent grid).

Arrays passed in are *sample arrays*: index 0 along each axis is the first
sample of the region, at coordinate ``0.5 * stagger`` in units of that
array's own cell size.  Both arrays describe the same physical region.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np


def prolong_map(
    ratio: int, stagger: int, n_fine: int, n_coarse: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(i0, i1, w)`` of the prolongation along one axis: fine sample
    ``k`` is ``coarse[i0[k]] * (1 - w[k]) + coarse[i1[k]] * w[k]``.

    Fine positions outside the coarse sample range are linearly
    extrapolated from the edge pair (callers keep such points inside
    guard/PML zones).  The native auxiliary-field assembly
    (:mod:`repro.grid.compiled`) runs on these same maps.
    """
    k = np.arange(n_fine, dtype=np.float64)  # repro: allow(PIC007)
    pos = (k + 0.5 * stagger) / ratio - 0.5 * stagger
    i0 = np.floor(pos).astype(np.intp)
    np.clip(i0, 0, max(n_coarse - 2, 0), out=i0)
    return i0, np.minimum(i0 + 1, n_coarse - 1), pos - i0


def prolong(
    arr: np.ndarray,
    ratio: int,
    stagger: Sequence[int],
    fine_shape: Sequence[int],
) -> np.ndarray:
    """Interpolate a coarse sample array onto ``fine_shape`` fine samples,
    axis by axis: ``lo * (1 - w) + hi * w`` over :func:`prolong_map`."""
    out = arr
    for d in range(arr.ndim):
        i0, i1, w = prolong_map(ratio, stagger[d], fine_shape[d], out.shape[d])
        shape = [1] * arr.ndim
        shape[d] = len(w)
        w = w.reshape(shape)
        out = np.take(out, i0, axis=d) * (1.0 - w) + np.take(out, i1, axis=d) * w
    return out


def _restrict_axis_nodal(arr: np.ndarray, axis: int, ratio: int, n_coarse: int) -> np.ndarray:
    """Triangular full-weighting onto nodal coarse samples."""
    n_f = arr.shape[axis]
    centers = np.arange(n_coarse, dtype=np.intp) * ratio
    out = None
    for m in range(-(ratio - 1), ratio):
        w = (ratio - abs(m)) / float(ratio * ratio)
        idx = np.clip(centers + m, 0, n_f - 1)
        term = w * np.take(arr, idx, axis=axis)
        out = term if out is None else out + term
    return out


def _restrict_axis_staggered(arr: np.ndarray, axis: int, ratio: int, n_coarse: int) -> np.ndarray:
    """Box average of the ``ratio`` fine faces inside each coarse face."""
    n_f = arr.shape[axis]
    base = np.arange(n_coarse, dtype=np.intp) * ratio
    out = None
    for t in range(ratio):
        idx = np.clip(base + t, 0, n_f - 1)
        term = np.take(arr, idx, axis=axis) / float(ratio)
        out = term if out is None else out + term
    return out


def restrict(
    arr: np.ndarray,
    ratio: int,
    stagger: Sequence[int],
    coarse_shape: Sequence[int],
) -> np.ndarray:
    """Average a fine sample array onto ``coarse_shape`` coarse samples."""
    out = arr
    for d in range(arr.ndim):
        if stagger[d]:
            out = _restrict_axis_staggered(out, d, ratio, coarse_shape[d])
        else:
            out = _restrict_axis_nodal(out, d, ratio, coarse_shape[d])
    return out


def region_sample_counts(
    n_cells: Sequence[int], stagger: Sequence[int]
) -> Tuple[int, ...]:
    """Number of samples of a component over a region of ``n_cells`` cells."""
    return tuple(n + 1 - s for n, s in zip(n_cells, stagger))
