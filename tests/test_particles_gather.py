"""Tests for the NumPy field gather, including bit-identity with the
scalar per-particle oracle of ``tests/oracles.py``."""

import numpy as np
import pytest

from repro.grid.yee import STAGGER, YeeGrid
from repro.particles.gather import gather_fields, lattice_coords
from tests.oracles import gather_scalar


def make_grid(ndim=2, n=12):
    return YeeGrid((n,) * ndim, (0.0,) * ndim, (float(n),) * ndim, guards=3)


def test_lattice_coords_staggering():
    g = make_grid(ndim=1, n=8)
    pos = np.array([[2.0]])
    (cx,) = lattice_coords(g, pos, "rho")
    assert cx[0] == pytest.approx(2.0 + g.guards)
    (cx,) = lattice_coords(g, pos, "Ex")
    assert cx[0] == pytest.approx(2.0 + g.guards - 0.5)


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("ndim", [1, 2, 3])
def test_uniform_field_gathers_exactly(order, ndim):
    """Partition of unity: a constant field gathers as itself everywhere."""
    g = make_grid(ndim=ndim, n=8)
    for i, comp in enumerate(("Ex", "Ey", "Ez")):
        g.fields[comp][...] = float(i + 1)
    for i, comp in enumerate(("Bx", "By", "Bz")):
        g.fields[comp][...] = float(10 + i)
    rng = np.random.default_rng(5)
    pos = rng.uniform(1.0, 7.0, size=(40, ndim))
    e, b = gather_fields(g, pos, order)
    np.testing.assert_allclose(e, [[1.0, 2.0, 3.0]] * 40, rtol=1e-12)
    np.testing.assert_allclose(b, [[10.0, 11.0, 12.0]] * 40, rtol=1e-12)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_linear_field_gathered_exactly(order):
    """B-splines reproduce affine fields exactly (away from edges)."""
    g = make_grid(ndim=2, n=12)
    # build Ey = 2x + 3y on its own staggered lattice over the full array
    gx = (np.arange(g.shape[0]) - g.guards + 0.5 * STAGGER["Ey"][0]) * g.dx[0]
    gy = (np.arange(g.shape[1]) - g.guards + 0.5 * STAGGER["Ey"][1]) * g.dx[1]
    g.fields["Ey"][...] = 2.0 * gx[:, None] + 3.0 * gy[None, :]
    rng = np.random.default_rng(6)
    pos = rng.uniform(3.0, 9.0, size=(30, 2))
    e, _ = gather_fields(g, pos, order)
    np.testing.assert_allclose(e[:, 1], 2.0 * pos[:, 0] + 3.0 * pos[:, 1], rtol=1e-10)


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("ndim", [1, 2, 3])
def test_vectorized_matches_reference(order, ndim):
    """The optimized kernel must agree with the scalar baseline bit for bit
    — the paper's optimization is performance-only.  Grouping components
    by lattice shares addresses and weight products but keeps every output
    element's operations and their order, on float64 and float32 grids."""
    for dtype in (np.float64, np.float32):
        g = YeeGrid(
            (8,) * ndim, (0.0,) * ndim, (8.0,) * ndim, guards=3, dtype=dtype
        )
        rng = np.random.default_rng(7)
        for comp in ("Ex", "Ey", "Ez", "Bx", "By", "Bz"):
            g.fields[comp][...] = rng.normal(size=g.shape)
        pos = rng.uniform(1.5, 6.5, size=(25, ndim))
        e_v, b_v = gather_fields(g, pos, order)
        e_r, b_r = gather_scalar(g, pos, order)
        assert np.array_equal(e_v, e_r) and np.array_equal(b_v, b_r), dtype


def test_gather_localized_spike_order1():
    """An order-1 gather sees only the two bracketing samples in 1D."""
    g = make_grid(ndim=1, n=10)
    arr = g.fields["Ez"]  # nodal in 1D grid (stagger along z ignored)
    arr[...] = 0.0
    arr[g.guards + 5] = 1.0
    pos = np.array([[5.25], [4.0], [6.9]])
    e, _ = gather_fields(g, pos, order=1)
    assert e[0, 2] == pytest.approx(0.75)
    assert e[1, 2] == pytest.approx(0.0, abs=1e-15)
    assert e[2, 2] == pytest.approx(0.0, abs=1e-12)
