"""Coarse <-> fine grid transfer operators for mesh refinement.

Both operators are separable per axis and aware of the Yee staggering:

* :func:`prolong` — linear interpolation of a coarse array onto the fine
  sample points of the same physical region (used for the ``I[F(s)-F(c)]``
  term of the field substitution and for initializing patch fields).
* :func:`restrict` — full-weighting (nodal axes) / box-average (staggered
  axes) of a fine array onto coarse sample points (used to transfer the
  fine-patch current density onto the parent grid).

Each is built on a per-axis map (:func:`prolong_map`,
:func:`restrict_map`) that depends only on the ratio and the sample
counts.  An MR patch keeps those maps in its transfer plan
(:class:`repro.grid.compiled.TransferPlan`) and, with the native library,
runs them as the C entries ``assemble_aux`` (both patch kinds, the
subcycled substeps included) and ``restrict_currents``; the NumPy
functions here stay the fallback and the oracle those entries are tested
against bit for bit, and initialize a patch's fine fields.

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


def restrict_map(
    ratio: int, stagger: int, n_fine: int, n_coarse: int
) -> Tuple[np.ndarray, Tuple[float, ...]]:
    """``(idx, w)`` of the restriction along one axis: coarse sample ``k``
    sums the terms ``t`` (from the first, not from 0) over the fine
    samples ``idx[t, k]``, clipped to the fine range.

    A nodal axis is a triangular full weighting, term ``t`` being
    ``w[t] * fine``, ``w = (r - |m|) / r**2`` for ``m = -(r-1) .. r-1``;
    a staggered axis is the box average of the ``r`` fine faces inside
    each coarse face, term ``t`` being ``fine / w[t]`` with ``w[t] = r``
    (a division, not a product with ``1/r``).  ``w`` holds Python floats,
    so a float32 array keeps its precision (NumPy 2 rounds the scalar).
    The native restriction (:mod:`repro.grid.compiled`) runs on these
    same maps.
    """
    if stagger:
        offsets = range(ratio)
        w = (float(ratio),) * ratio
    else:
        offsets = range(-(ratio - 1), ratio)
        w = tuple((ratio - abs(m)) / float(ratio * ratio) for m in offsets)
    base = np.arange(n_coarse, dtype=np.intp) * ratio
    idx = np.clip(base + np.array(offsets, dtype=np.intp)[:, None], 0, n_fine - 1)
    return idx, w


def restrict(
    arr: np.ndarray,
    ratio: int,
    stagger: Sequence[int],
    coarse_shape: Sequence[int],
) -> np.ndarray:
    """Average a fine sample array onto ``coarse_shape`` coarse samples,
    axis by axis (axis 0 first) over :func:`restrict_map`."""
    out = arr
    for d in range(arr.ndim):
        idx, w = restrict_map(ratio, stagger[d], out.shape[d], coarse_shape[d])
        total = None
        for samples, wt in zip(idx, w):
            x = np.take(out, samples, axis=d)
            term = x / wt if stagger[d] else wt * x
            total = term if total is None else total + term
        out = total
    return out


def region_sample_counts(
    n_cells: Sequence[int], stagger: Sequence[int]
) -> Tuple[int, ...]:
    """Number of samples of a component over a region of ``n_cells`` cells."""
    return tuple(n + 1 - s for n, s in zip(n_cells, stagger))
