"""The fused pass through a ``rows`` index is take -> advance -> store.

An MR level advances its particles where they live: ``advance`` reads
rows ``rows[p]`` of the species arrays and writes the new positions,
momenta and leaving flags to the same rows of ``out``.  Over the grid of
``test_fused_pass_golden.py`` (ndim 1-3 x order 1-3 x {boris, vay} x
{float64, float32} x n in {7, 8, 9, 1003} x {no boundary, periodic wrap,
keep box}) that must be bit for bit what the pass computes on the taken
rows, stored back — the current included, the rows unsorted.  So must a
block that is refused (a lane that left the keep box, a stray particle)
and goes through the scalar loop; a row outside the arrays is refused
before anything moves.  ``out`` may be the arrays the call reads (a
subcycled MR patch advances its members in place from its second
substep on): aliased or not, the call computes the same bits, on the
fused route and on the composed one.
"""

import numpy as np
import pytest

from repro.constants import c, m_e, q_e
from repro.exceptions import ConfigurationError, SanitizerError
from repro.grid.yee import YeeGrid
from repro.particles.advance import advance_particles
from repro.particles.kernels import get_kernel_set
from tests.conftest import needs_compiled
from tests.test_fused_pass_golden import (
    DTYPES, MODES, NDIMS, ORDERS, PUSHERS, SIZES, seeded_grid,
)

pytestmark = needs_compiled

#: particles the species holds besides the ``n`` rows advanced
EXTRA = 5


def setup(ndim, order, pusher, dtype_name, n, mode):
    dtype = DTYPES[dtype_name]
    seed = 1000 * ndim + 100 * order + 10 * PUSHERS.index(pusher) + n
    grid = seeded_grid(ndim, dtype, seed)
    rng = np.random.default_rng(seed + 1)
    n_all = n + EXTRA
    pos = rng.uniform(grid.lo[0], grid.hi[0], size=(n_all, ndim))
    mom = 2.0 * rng.normal(size=(n_all, 3))
    w = 1.0 + rng.random(n_all)
    rows = rng.permutation(n_all)[:n]  # unsorted
    periodic = (grid.lo, grid.hi, tuple(range(ndim))) if mode == "periodic" else None
    keep = None
    if mode == "keep":
        keep = (tuple(lo + 0.5 for lo in grid.lo), tuple(hi - 0.5 for hi in grid.hi))
    args = (-q_e, m_e, 0.9 * grid.dx[0] / c, order, pusher, periodic)
    return grid, pos, mom, w, rows, args, keep


def both_routes(grid, pos, mom, w, rows, args, keep):
    """(rows route, take-advance-store route): out arrays and the J of
    their deposit grids."""
    advance = get_kernel_set("compiled").advance
    results = []
    for through_rows in (True, False):
        source = grid.copy()
        target = source if keep is None else YeeGrid(
            grid.n_cells, grid.lo, grid.hi, guards=grid.guards, dtype=grid.dtype
        )
        out = (pos.copy(), mom.copy(),
               None if keep is None else np.zeros(len(pos), dtype=bool))
        if through_rows:
            got = advance(source, pos, mom, w, *args, target, keep, rows, out)
            assert all(a is b for a, b in zip(got, out))
        else:
            x, u, leaving = advance(
                source, pos[rows], mom[rows], w[rows], *args, target, keep
            )
            out[0][rows], out[1][rows] = x, u
            if keep is not None:
                out[2][rows] = leaving
        results.append((out, {k: target.fields[k] for k in ("Jx", "Jy", "Jz")}))
    return results


def assert_same(a, b):
    (out_a, j_a), (out_b, j_b) = a, b
    for x, y in zip(out_a, out_b):
        if x is not None:
            assert x.tobytes() == y.tobytes()
    for k in j_a:
        assert j_a[k].tobytes() == j_b[k].tobytes(), k


@pytest.mark.parametrize("dtype_name", list(DTYPES))
@pytest.mark.parametrize("pusher", PUSHERS)
@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("ndim", NDIMS)
def test_rows_are_take_advance_store_bit_for_bit(ndim, order, pusher, dtype_name):
    for n in SIZES:
        for mode in MODES:
            case = setup(ndim, order, pusher, dtype_name, n, mode)
            rows_route, take_route = both_routes(*case)
            assert_same(rows_route, take_route)
            if mode == "keep" and n == SIZES[-1]:
                # some blocks were refused for a leaver, some were not
                assert 0 < rows_route[0][2].sum() < n


def test_a_block_refused_for_a_stray_particle_stops_where_the_take_does():
    """A stray particle in the middle of a block: both routes raise the
    same SAN005 (the same particle index of the call) with the same
    partial J, and the species arrays stand."""
    grid, pos, mom, w, rows, args, keep = setup(2, 2, "boris", "float64", 41, "open")
    pos[rows[19]] = (1e9, 0.0)
    messages = []
    for through_rows in (True, False):
        source = grid.copy()
        out = (pos.copy(), mom.copy(), None)
        with pytest.raises(SanitizerError) as err:
            if through_rows:
                get_kernel_set("compiled").advance(
                    source, pos, mom, w, *args, None, None, rows, out)
            else:
                get_kernel_set("compiled").advance(
                    source, pos[rows], mom[rows], w[rows], *args)
        messages.append((str(err.value), source.fields["Jx"].tobytes()))
    assert messages[0] == messages[1]
    assert pos[rows[19]].tolist() == [1e9, 0.0]
    assert "particle 19" in messages[0][0]


def test_a_row_outside_the_arrays_is_refused_before_anything_moves():
    grid, pos, mom, w, rows, args, keep = setup(2, 1, "vay", "float64", 20, "open")
    advance = get_kernel_set("compiled").advance
    for bad in (len(pos), -1):
        for entry_rows in (rows.copy(), rows[:3].copy()):  # a block, a tail
            entry_rows[-1] = bad
            source = grid.copy()
            out = (pos.copy(), mom.copy(), None)
            with pytest.raises(ConfigurationError, match="rows index"):
                advance(source, pos, mom, w, *args, None, None, entry_rows, out)
            assert not source.fields["Jx"].any()
            assert np.array_equal(out[0], pos) and np.array_equal(out[1], mom)


@pytest.mark.parametrize("kernels", ["compiled", "vectorized"])
def test_advance_particles_takes_rows_on_both_routes(kernels):
    """``advance_particles`` with ``rows``: the fused slot reads them in
    place, the composed route takes them itself; either way the result
    is the rows' own advance stored back."""
    grid, pos, mom, w, rows, args, keep = setup(2, 2, "boris", "float64", 30, "keep")
    ks = get_kernel_set(kernels)
    q, m, dt, order, pusher, periodic = args
    results = []
    for through_rows in (True, False):
        target = YeeGrid(grid.n_cells, grid.lo, grid.hi, guards=grid.guards)
        out = (pos.copy(), mom.copy(), np.zeros(len(pos), dtype=bool))
        if through_rows:
            advance_particles(ks, grid, pos, mom, w, q, m, dt, order, pusher,
                              "esirkepov", periodic, target, keep, rows, out)
        else:
            x, u, leaving = advance_particles(
                ks, grid, pos[rows], mom[rows], w[rows], q, m, dt, order,
                pusher, "esirkepov", periodic, target, keep)
            out[0][rows], out[1][rows], out[2][rows] = x, u, leaving
        results.append((out, dict(target.fields)))
    assert_same(*results)


@pytest.mark.parametrize("kernels", ["compiled", "vectorized"])
@pytest.mark.parametrize("dtype_name", list(DTYPES))
@pytest.mark.parametrize("ndim", NDIMS)
def test_out_may_be_the_arrays_the_call_reads(ndim, dtype_name, kernels):
    """``out`` may be the ``x`` / ``u`` the call reads, as in a subcycled
    patch's later substeps: on the fused route (``compiled``) and on the
    composed one (``vectorized``) the aliased call is the call into
    separate arrays, bit for bit, in whole blocks and with a tail (``n``
    of 7, 8, 9 and 1003; no boundary, periodic wrap, keep box)."""
    ks = get_kernel_set(kernels)
    for n in SIZES:
        for mode in MODES:
            grid, pos, mom, w, rows, args, keep = setup(
                ndim, 2, "vay", dtype_name, n, mode
            )
            q, m, dt, order, pusher, periodic = args
            results = []
            for aliased in (True, False):
                target = YeeGrid(grid.n_cells, grid.lo, grid.hi,
                                 guards=grid.guards, dtype=grid.dtype)
                x, u = pos.copy(), mom.copy()
                out = (x, u) if aliased else (x.copy(), u.copy())
                out += (None if keep is None else np.zeros(len(pos), dtype=bool),)
                advance_particles(ks, grid, x, u, w, q, m, dt, order, pusher,
                                  "esirkepov", periodic, target, keep, rows, out)
                results.append((out, dict(target.fields)))
            assert_same(*results)


@pytest.mark.parametrize("kernels", ["compiled", "vectorized"])
@pytest.mark.parametrize("dtype_name", list(DTYPES))
def test_an_aliased_call_refused_for_a_stray_particle_writes_no_row(
        dtype_name, kernels):
    """A stray particle in the first block of an aliased call: the call
    raises what the call into separate arrays raises, with the same
    partial J, and no row of the arrays it reads has moved."""
    grid, pos, mom, w, rows, args, keep = setup(2, 2, "boris", dtype_name, 41,
                                                "open")
    pos[rows[19]] = (1e9, 0.0)
    q, m, dt, order, pusher, periodic = args
    ks = get_kernel_set(kernels)
    raised = []
    for aliased in (True, False):
        source = grid.copy()
        x, u = pos.copy(), mom.copy()
        out = (x, u, None) if aliased else (x.copy(), u.copy(), None)
        with pytest.raises((SanitizerError, IndexError)) as err:
            advance_particles(ks, source, x, u, w, q, m, dt, order, pusher,
                              "esirkepov", periodic, None, None, rows, out)
        raised.append((type(err.value), str(err.value),
                       source.fields["Jx"].tobytes()))
        assert x.tobytes() == pos.tobytes() and u.tobytes() == mom.tobytes()
    assert raised[0] == raised[1]
    if kernels == "compiled":
        assert "particle 19" in raised[0][1]
