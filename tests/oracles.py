"""Independent implementations the kernel tiers are validated against.

Nothing but the test suite runs these, so they live here and not in the
kernel table.  Each is written for clarity, not speed (one particle at
a time):

* :func:`gather_scalar` — a per-particle loop over the stencil, the scalar
  formulation of the paper's Sec. V.A.1 tuning experiment.  It shares
  only ``shape_weights`` with the NumPy gather, which performs the same
  floating-point operations per output element in the same order, so the
  two are ``array_equal``.
* :func:`deposit_charge_add_at` / :func:`deposit_current_direct_add_at` —
  the nodal deposits with B-splines evaluated around each particle and
  scattered with the unbuffered ``np.add.at``, indexed per axis: a
  stencil that leaves the array is an ``IndexError``, never a wrap into
  the next row.
* :func:`textbook_esirkepov` — B-splines evaluated over the standard
  ``order + 3`` window, the unfactored four-term products, the cumulative
  sum over the window tensor, ``np.add.at``.  The NumPy and native
  Esirkepov deposits share one factorisation (K-vectors ``cum`` / ``T`` /
  ``U`` over placed closed-form shapes), so neither checks the algebra of
  the other; this does.
* :func:`oracle_kernel_set` — the scalar gather and the textbook
  Esirkepov as a :class:`~repro.particles.kernels.KernelSet`, for a test
  to put into the kernel table for its own duration
  (``monkeypatch.setitem(kernels._REGISTRY, ...)``).
"""

import functools
import itertools

import numpy as np

from repro.grid.yee import STAGGER
from repro.particles.kernels import KernelSet
from repro.particles.shapes import bspline, shape_weights


def gather_scalar(grid, positions, order=1):
    """(E, B) at each particle, one particle and one component at a time."""
    n = positions.shape[0]
    ndim = grid.ndim
    e_out = np.zeros((n, 3), dtype=np.float64)
    b_out = np.zeros((n, 3), dtype=np.float64)
    for i, comp in enumerate(("Ex", "Ey", "Ez", "Bx", "By", "Bz")):
        arr = grid.fields[comp]
        out = e_out if i < 3 else b_out
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
            out[p, i % 3] = acc
    return e_out, b_out


def _deposit_nodal_add_at(grid, positions, values, order, target):
    """Scatter ``values[p]`` through particle ``p``'s order-``order``
    B-spline on the sample lattice of ``target``."""
    arr = grid.fields[target]
    stag = STAGGER[target]
    for p in range(positions.shape[0]):
        points, weights = [], []
        for d in range(grid.ndim):
            x = (
                (positions[p, d] - grid.lo[d]) / grid.dx[d]
                + grid.guards
                - 0.5 * stag[d]
            )
            near = int(np.floor(x)) + np.arange(-2, 4)  # covers |s| < 2
            w = bspline(order, near - x)
            near, w = near[w != 0.0], w[w != 0.0]
            if near[0] < 0 or near[-1] >= arr.shape[d]:
                raise IndexError(
                    f"stencil of particle {p} leaves {target} on axis {d}: "
                    f"points [{near[0]}, {near[-1]}] vs extent {arr.shape[d]}"
                )
            points.append(near)
            weights.append(w)
        np.add.at(
            arr, np.ix_(*points),
            values[p] * functools.reduce(np.multiply.outer, weights),
        )


def deposit_charge_add_at(grid, positions, weights, charge, order=1):
    """``deposit.deposit_charge``, one particle at a time."""
    qw = charge * weights / float(np.prod(grid.dx))
    _deposit_nodal_add_at(grid, positions, qw, order, "rho")


def deposit_current_direct_add_at(
    grid, positions_mid, velocities, weights, charge, order=1
):
    """``deposit.deposit_current_direct``, one particle at a time."""
    volume = float(np.prod(grid.dx))
    for ci, comp in enumerate(("Jx", "Jy", "Jz")):
        qwv = charge * weights * velocities[:, ci] / volume
        _deposit_nodal_add_at(grid, positions_mid, qwv, order, comp)


def textbook_esirkepov(grid, pos0, pos1, vel, weights, charge, dt, order=1):
    """Esirkepov's current of the moves ``pos0 -> pos1``, as written."""
    ndim, dx = grid.ndim, grid.dx
    move = max(np.max(np.abs(pos1[:, d] - pos0[:, d])) / dx[d] for d in range(ndim))
    K = order + 3 + 2 * max(int(np.ceil(move)) - 1, 0)
    jx, jy, jz = (grid.fields[comp] for comp in ("Jx", "Jy", "Jz"))
    for p in range(pos0.shape[0]):
        pts, s0, ds = [], [], []
        for d in range(ndim):
            a = (pos0[p, d] - grid.lo[d]) / dx[d] + grid.guards
            b = (pos1[p, d] - grid.lo[d]) / dx[d] + grid.guards
            lattice = int(np.floor(0.5 * (a + b))) - (K - 1) // 2 + np.arange(K)
            pts.append(lattice)
            s0.append(bspline(order, lattice - a))
            ds.append(bspline(order, lattice - b) - s0[d])
        qw = charge * weights[p]

        def averaged(a, b):  # time average of S_a S_b over the straight move
            return (
                np.multiply.outer(s0[a], s0[b])
                + 0.5 * np.multiply.outer(ds[a], s0[b])
                + 0.5 * np.multiply.outer(s0[a], ds[b])
                + np.multiply.outer(ds[a], ds[b]) / 3.0
            )

        if ndim == 1:
            np.add.at(jx, pts[0], -qw / dt * np.cumsum(ds[0]))
            np.add.at(jy, pts[0], qw * vel[p, 1] / dx[0] * (s0[0] + 0.5 * ds[0]))
            np.add.at(jz, pts[0], qw * vel[p, 2] / dx[0] * (s0[0] + 0.5 * ds[0]))
        elif ndim == 2:
            at = np.ix_(*pts)
            w_x = ds[0][:, None] * (s0[1] + 0.5 * ds[1])[None, :]
            w_y = (s0[0] + 0.5 * ds[0])[:, None] * ds[1][None, :]
            np.add.at(jx, at, -qw / (dt * dx[1]) * np.cumsum(w_x, axis=0))
            np.add.at(jy, at, -qw / (dt * dx[0]) * np.cumsum(w_y, axis=1))
            np.add.at(jz, at, qw * vel[p, 2] / (dx[0] * dx[1]) * averaged(0, 1))
        else:
            at = np.ix_(*pts)
            w_x = ds[0][:, None, None] * averaged(1, 2)[None, :, :]
            w_y = ds[1][None, :, None] * averaged(0, 2)[:, None, :]
            w_z = ds[2][None, None, :] * averaged(0, 1)[:, :, None]
            np.add.at(jx, at, -qw / (dt * dx[1] * dx[2]) * np.cumsum(w_x, axis=0))
            np.add.at(jy, at, -qw / (dt * dx[0] * dx[2]) * np.cumsum(w_y, axis=1))
            np.add.at(jz, at, -qw / (dt * dx[0] * dx[1]) * np.cumsum(w_z, axis=2))


def oracle_kernel_set():
    """The oracles as a kernel set named ``oracle`` (no fused pass), ready
    for the kernel table."""
    return KernelSet(
        name="oracle", gather=gather_scalar, deposit_current=textbook_esirkepov
    )
