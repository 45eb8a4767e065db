"""Charge and current deposition: particle -> grid scatter.

The production kernel is the charge-conserving Esirkepov (2001) scheme,
generalized to shape orders 1-3 and to 1D/2D/3D.  It guarantees the
discrete continuity equation

    (rho^{n+1} - rho^n)/dt + div J = 0

to machine precision, so no Poisson clean-up is ever needed — the property
the paper relies on for long laser-propagation runs.  A simpler direct
(momentum-conserving, *not* charge-conserving) deposition is provided for
the ablation benchmark, and the charge deposit for diagnostics.

All deposits are *added* into the grid arrays (callers zero the sources at
the start of the step), and all routines process particles in pieces to
bound the size of the (K, K, K, n) window tensors.

The Esirkepov body (one for every dimension and window width) is the
factored form of the compiled tier's ``esirkepov_scatter``.  Per axis the
old shape ``S0`` and ``DS = S1 - S0`` are the closed-form
:func:`shape_weights` *placed* in the K-point window, and three K-vectors
follow from them: ``cum = k qw
cumsum(DS)`` (the cumulative sum commutes with every factor that does not
depend on its axis, so it is never taken over a window tensor),
``T = S0 + DS/2`` and ``U = S0/2 + DS/3``.  Each component is then one
broadcast product — 2D ``Jx = cum_0[i] T_1[j]``, ``Jy = T_0[i] cum_1[j]``,
``Jz = cz (S0_0[i] T_1[j] + DS_0[i] U_1[j])``; 3D ``Jx = cum_0[i]
(S0_1[j] T_2[l] + DS_1[j] U_2[l])`` and cyclic; 1D ``Jx = cum_0``,
``Jy,z = k qw v T_0``.  Tables are laid out window-first, ``(K, n)``, so
every product runs its inner loop over particles.

How the ``vectorized`` deposits scatter (the Python analog of the
conflict-free tiled scatter the paper credits for its biggest node-level
win, Sec. V.A.1):

* one buffered ``np.bincount`` histogram pass per scatter instead of the
  per-element read-modify-write of ``np.add.at``, taken over the span of
  flat addresses the chunk touches, so a compact beam on a large grid
  costs O(stencil points + span), not O(array);
* the nodal (charge, direct) deposits first collapse contiguous runs of
  equal addresses with ``np.add.reduceat`` — runs that
  :func:`~repro.particles.sorting.sort_species_by_bin` ordering makes long;
* Esirkepov uses the minimal ``order + 2``-point window for sub-cell moves
  (:func:`esirkepov_window`), shrinking every window tensor.

The independent twins these are validated against — ``np.add.at``
scatters and a textbook Esirkepov on the standard ``order + 3`` window —
live in the test suite (``tests/oracles.py``); the additions here are
reassociated, never dropped, and the two agree to machine precision.

Every scatter checks the flat-address span it is about to touch and raises
``SanitizerError`` (SAN005) when a particle has escaped the padded array;
so does a shape that does not fit the window it is placed in, and a
non-finite displacement met while sizing that window.
Under ``REPRO_SANITIZE=1`` every deposit additionally verifies per axis
that no stencil leaves the array; the flat-address arithmetic would
otherwise wrap an index on an inner axis into the neighbouring row and
silently corrupt fields.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence, Tuple

import numpy as np

from repro.analysis.sanitize import Sanitizer
from repro.exceptions import ConfigurationError, SanitizerError
from repro.grid.yee import STAGGER, YeeGrid
from repro.particles.shapes import shape_weights

#: largest Esirkepov piece: bounds the window tensors
_CHUNK = 4096

#: prefix length sampled to decide whether address runs are worth scanning
_RUN_PROBE = 1024

#: chunk size of the nodal deposits, whose temporaries are only n-sized:
#: fewer scatter calls, and address runs that span the whole sorted species
_CHUNK_NODAL = 65536


def _nodal_coords(grid: YeeGrid, positions: np.ndarray, axis: int) -> np.ndarray:
    return (positions[:, axis] - grid.lo[axis]) / grid.dx[axis] + grid.guards


def _flat_strides(arr: np.ndarray) -> Sequence[int]:
    return [int(s) for s in np.array(arr.strides) // arr.itemsize]


def _address_span(
    base: Sequence[np.ndarray],
    strides: Sequence[int],
    width: int,
    size: int,
    kernel: str,
    component: str,
) -> Tuple[np.ndarray, int, int]:
    """Flat addresses a chunk of ``width``-point stencils touches.

    Returns ``(first, lo, hi)``: each particle's first stencil address
    relative to ``lo``, and the span ``[lo, hi)`` holding every address of
    every stencil.  A span outside the ``size``-element array means a
    particle escaped the padded grid; that is SAN005 here, always, because
    a histogram over such addresses fails opaquely or allocates by the
    escaped coordinate.
    """
    first = base[0] * strides[0]
    for d in range(1, len(base)):
        first = first + base[d] * strides[d]
    lo = int(first.min())
    hi = int(first.max()) + (width - 1) * sum(strides) + 1
    if lo < 0 or hi > size:
        raise SanitizerError(
            f"SAN005: particle stencil out of range in {kernel} for "
            f"{component}: flat addresses [{lo}, {hi}) vs array size "
            f"{size}; a particle has left the padded field array"
        )
    return first - lo, lo, hi


def _run_starts(addr: np.ndarray) -> np.ndarray:
    """Start offset of every run of equal consecutive addresses."""
    change = np.empty(addr.size, dtype=bool)
    change[0] = True
    np.not_equal(addr[1:], addr[:-1], out=change[1:])
    return np.flatnonzero(change)


def _scatter_add_segmented(
    span: np.ndarray, addr: np.ndarray, vals: np.ndarray
) -> None:
    """Sort-aware scatter: reduceat over address runs + one histogram pass.

    When the particles were ordered by :func:`~repro.particles.sorting.
    sort_species_by_bin`, consecutive particles hit the same stencil
    points, so ``addr`` is dominated by runs of equal values:
    ``np.add.reduceat`` collapses each run to a single (address, sum)
    pair first.  The surviving pairs — and, for unsorted input, the raw
    (address, value) pairs — go through :func:`_scatter_add_histogram`.
    """
    # cheap prefix probe: when the head of the address stream shows no
    # runs (unsorted species, or sorting at multi-cell granularity), skip
    # the full run scan and take the histogram pass directly
    head = addr[:_RUN_PROBE]
    if head.size >= 2 and np.count_nonzero(head[1:] != head[:-1]) * 2 <= head.size:
        starts = _run_starts(addr)
        if starts.size <= addr.size // 2:
            vals = np.add.reduceat(vals, starts)
            addr = addr[starts]
    _scatter_add_histogram(span, addr, vals)


def _scatter_add_histogram(
    span: np.ndarray, addr: np.ndarray, vals: np.ndarray
) -> None:
    """Buffered histogram scatter without run detection.

    The Esirkepov kernels scatter whole ``(K, ..., K, n)`` window tensors
    at once: one ``np.bincount`` pass replaces the per-element
    read-modify-write of ``np.add.at``.
    """
    span += np.bincount(addr.ravel(), weights=vals.ravel(), minlength=span.size)


def _scatter_nodal(
    grid: YeeGrid,
    positions: np.ndarray,
    values: np.ndarray,
    order: int,
    target: str,
    kernel: str,
) -> None:
    """Scatter per-particle ``values`` through an order-``order`` stencil.

    Shared body of the charge and direct-current deposits: per-axis shape
    weights on the (possibly staggered) sample lattice of ``target``,
    then one scatter per stencil offset.
    """
    arr = grid.fields[target]
    flat = arr.ravel()
    strides = _flat_strides(arr)
    stagger = STAGGER[target]
    ndim = grid.ndim
    n = positions.shape[0]
    san = Sanitizer.from_env()
    for start in range(0, n, _CHUNK_NODAL):
        sl = slice(start, min(start + _CHUNK_NODAL, n))
        idx0 = []
        wts = []
        for d in range(ndim):
            coords = _nodal_coords(grid, positions[sl], d)
            if stagger[d]:
                coords = coords - 0.5
            i0, w = shape_weights(coords, order)
            idx0.append(i0)
            wts.append(w)
        if san is not None:
            san.check_stencil_bounds(kernel, target, idx0, order + 1, arr.shape)
        first, lo, hi = _address_span(
            idx0, strides, order + 1, flat.size, kernel, target
        )
        span = flat[lo:hi]
        vals = values[sl]
        for offsets in itertools.product(range(order + 1), repeat=ndim):
            wprod = vals * wts[0][:, offsets[0]]
            for d in range(1, ndim):
                wprod = wprod * wts[d][:, offsets[d]]
            shift = sum(offsets[d] * strides[d] for d in range(ndim))
            _scatter_add_segmented(span, first + shift, wprod)


def deposit_charge(
    grid: YeeGrid,
    positions: np.ndarray,
    weights: np.ndarray,
    charge: float,
    order: int = 1,
    target: str = "rho",
) -> None:
    """Deposit ``q * w`` onto the nodal charge-density array ``target``."""
    qw = charge * weights / float(np.prod(grid.dx))
    _scatter_nodal(grid, positions, qw, order, target, "deposit_charge")


def esirkepov_window(order: int, max_displacement: float) -> int:
    """Window width covering both shapes for moves up to ``max_displacement``
    cells.

    A move of up to one cell needs the minimal ``order + 2`` points: the
    union of the supports of the old and new shapes spans no more.  Beyond
    one cell the standard ``order + 3`` window applies, and each further
    cell of displacement (particles on a *fine* MR grid pushed with the
    subcycled coarse time step move up to ``ratio`` fine cells) widens it
    by one point on each side.  The Esirkepov decomposition is an algebraic
    identity, so charge conservation is exact at any width.
    """
    extra = max(int(np.ceil(max_displacement)) - 1, 0)
    if extra == 0:
        return order + 2
    return order + 3 + 2 * extra


def sized_esirkepov_window(
    grid: YeeGrid,
    positions_old: np.ndarray,
    positions_new: np.ndarray,
    order: int,
    kernel: str,
) -> int:
    """The :func:`esirkepov_window` for the moves ``positions_old ->
    positions_new`` (at least one particle), checked against the guards.

    The longest displacement in cells over all axes sizes the window.  A
    non-finite one (a NaN or infinite position) is SAN005 naming the first
    such particle and its axis; a window whose half-width exceeds the guard
    layer is a :class:`ConfigurationError`.  Every Esirkepov deposit of the
    composed route sizes its window here.
    """
    # np.max propagates NaN (inf - inf included): a non-finite move shows
    # in its axis's maximum, and only then is it looked for
    moves = [
        float(np.max(np.abs(positions_new[:, d] - positions_old[:, d])))
        / grid.dx[d]
        for d in range(grid.ndim)
    ]
    if not all(math.isfinite(m) for m in moves):
        cells = np.abs(positions_new - positions_old) / np.asarray(grid.dx)
        p, d = np.argwhere(~np.isfinite(cells))[0]
        raise SanitizerError(
            f"SAN005: non-finite displacement of particle {p} on axis {d} "
            f"in {kernel} for J; a particle position is NaN or infinite"
        )
    max_disp = max(moves)
    K = esirkepov_window(order, max_disp)
    if (K + 1) // 2 > grid.guards:
        raise ConfigurationError(
            f"particle displacement of {max_disp:.2f} cells needs a "
            f"{K}-point deposition window but only {grid.guards} guard "
            f"cells are available"
        )
    return K


def _esirkepov_shapes(
    x0: np.ndarray, x1: np.ndarray, order: int, window: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One axis of the Esirkepov window for the moves ``x0 -> x1``: its
    base index, the old shape ``s0`` and ``ds = s1 - s0``, both (window, n).

    A shape *is* the closed-form :func:`shape_weights` vector placed at
    offset ``i0 - base`` of an otherwise zero column, whatever the window
    width; nothing is evaluated over the window.  A shape that does not
    fit (a move longer than the window was sized for) is SAN005, never
    truncated.

    The minimal (``order + 2``) odd-order window must be centered on
    ``round(xm)`` rather than ``floor(xm)``: an odd-order shape reaches
    ``(order + 1) / 2`` cells to each side of the particle, so when the
    midpoint sits in the upper half of its cell the support extends one
    lattice point further right than the floor-centered window covers.
    Even orders are symmetric about ``floor(xm)`` and keep that base.
    """
    xm = 0.5 * (x0 + x1)
    if window == order + 2 and order % 2:
        xm = xm + 0.5
    base = np.floor(xm).astype(np.intp) - (window - 1) // 2
    cols = np.arange(x0.size, dtype=np.intp)
    placed = []
    for x in (x0, x1):
        i0, w = shape_weights(x, order)
        offset = i0 - base
        lo, hi = int(offset.min()), int(offset.max()) + order
        if lo < 0 or hi >= window:
            raise SanitizerError(
                f"SAN005: particle shape out of range in "
                f"deposit_current_esirkepov for J: "
                f"window points [{lo}, {hi}] vs a {window}-point deposition "
                f"window; a particle moved further than the window was "
                f"sized for"
            )
        shape = np.zeros((window, x.size), dtype=w.dtype)
        flat = shape.ravel()
        offset = offset * x.size + cols
        for m in range(order + 1):
            flat[offset + m * x.size] = w[:, m]
        placed.append(shape)
    s0, ds = placed
    ds -= s0
    return base, s0, ds


def deposit_current_esirkepov(
    grid: YeeGrid,
    positions_old: np.ndarray,
    positions_new: np.ndarray,
    velocities: np.ndarray,
    weights: np.ndarray,
    charge: float,
    dt: float,
    order: int = 1,
) -> None:
    """Charge-conserving current deposition (Esirkepov 2001, orders 1-3).

    ``velocities`` (n, 3) supplies the components along invariant axes
    (``vz`` in 2D, ``vy``/``vz`` in 1D), which are not constrained by the
    in-plane continuity equation.  The stencil window widens automatically
    for displacements beyond one cell (subcycled MR fine grids); the
    number of guard cells bounds the displacement that can be handled.
    """
    kernel = "deposit_current_esirkepov"
    ndim = grid.ndim
    n = positions_old.shape[0]
    if n == 0:
        return
    j_arrays = [grid.fields[name] for name in ("Jx", "Jy", "Jz")]
    flats = [a.ravel() for a in j_arrays]
    strides = _flat_strides(j_arrays[0])
    K = sized_esirkepov_window(grid, positions_old, positions_new, order, kernel)
    # flat offset of every window point from a particle's first one
    stencil = np.zeros((K,) * ndim + (1,), dtype=np.intp)
    for d in range(ndim):
        stencil += (np.arange(K) * strides[d]).reshape(
            (K,) + (1,) * (ndim - d)
        )
    # -q / (dt dA) along the axes the continuity equation drives, q / dV
    # (times the velocity, per particle) along the invariant ones
    volume = float(np.prod(grid.dx))
    k = [-charge * grid.dx[d] / (dt * volume) for d in range(ndim)]
    k += [charge / volume] * (3 - ndim)
    san = Sanitizer.from_env()

    def along(vec: np.ndarray, d: int) -> np.ndarray:
        """A (K, n) K-vector laid along window axis ``d``."""
        return vec.reshape((1,) * d + (K,) + (1,) * (ndim - 1 - d) + (-1,))

    pieces = -(-n // _CHUNK)  # equal pieces: no ragged last round
    for piece in range(pieces):
        sl = slice(piece * n // pieces, (piece + 1) * n // pieces)
        qw = weights[sl]
        base, s0, ds, cum, t, u = [], [], [], [], [], []
        for d in range(ndim):
            b, s0d, dsd = _esirkepov_shapes(
                _nodal_coords(grid, positions_old[sl], d),
                _nodal_coords(grid, positions_new[sl], d),
                order, K,
            )
            base.append(b)
            s0.append(s0d)
            ds.append(dsd)
            # the cumulative sum along the deposit axis commutes with every
            # factor that does not depend on that axis: it is taken here,
            # over the K-vector (row by row: np.cumsum would walk the
            # strided axis), not over the window tensor
            cumd = dsd * (k[d] * qw)
            for i in range(1, K):
                cumd[i] += cumd[i - 1]
            cum.append(cumd)
            t.append(s0d + 0.5 * dsd)
            u.append(0.5 * s0d + dsd / 3.0)
        if san is not None:
            san.check_stencil_bounds(kernel, "J", base, K, j_arrays[0].shape)
        first, lo, hi = _address_span(
            base, strides, K, flats[0].size, kernel, "J"
        )
        addr = stencil + first
        jx, jy, jz = (flat[lo:hi] for flat in flats)

        def averaged(sa: np.ndarray, dsa: np.ndarray, a: int, b: int):
            """Time-averaged shape product of axes ``a`` and ``b``, factored
            as ``S0a Tb + DSa Ub``."""
            return along(sa, a) * along(t[b], b) + along(dsa, a) * along(u[b], b)

        scatter = _scatter_add_histogram
        if ndim == 3:
            scatter(jx, addr, along(cum[0], 0) * averaged(s0[1], ds[1], 1, 2))
            scatter(jy, addr, along(cum[1], 1) * averaged(s0[0], ds[0], 0, 2))
            scatter(jz, addr, averaged(s0[0], ds[0], 0, 1) * along(cum[2], 2))
        elif ndim == 2:
            scatter(jx, addr, along(cum[0], 0) * along(t[1], 1))
            scatter(jy, addr, along(t[0], 0) * along(cum[1], 1))
            # the invariant-axis current: time-averaged shape product
            cz = k[2] * qw * velocities[sl, 2]
            scatter(jz, addr, averaged(cz * s0[0], cz * ds[0], 0, 1))
        else:
            scatter(jx, addr, cum[0])
            scatter(jy, addr, k[1] * qw * velocities[sl, 1] * t[0])
            scatter(jz, addr, k[2] * qw * velocities[sl, 2] * t[0])


def deposit_current_direct(
    grid: YeeGrid,
    positions_mid: np.ndarray,
    velocities: np.ndarray,
    weights: np.ndarray,
    charge: float,
    order: int = 1,
) -> None:
    """Direct (momentum-conserving) current deposition at the midpoint.

    Each J component is scattered on its own staggered lattice with the
    particle's ``q w v / V``.  Cheaper and simpler than Esirkepov but does
    *not* satisfy the discrete continuity equation — kept as the ablation
    baseline (``deposition="direct"``).
    """
    cell_volume = float(np.prod(grid.dx))
    for ci, comp in enumerate(("Jx", "Jy", "Jz")):
        qwv = charge * weights * velocities[:, ci] / cell_volume
        _scatter_nodal(
            grid, positions_mid, qwv, order, comp, "deposit_current_direct"
        )
