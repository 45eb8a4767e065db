"""Tests for periodic / damping boundary handling."""

import contextlib

import numpy as np
import pytest

from repro.constants import c
from repro.grid.boundary import (
    accumulate_periodic_sources,
    apply_damping,
    apply_periodic,
    damping_profile,
)
from repro.grid.maxwell import MaxwellSolver, cfl_dt
from repro.grid.yee import YeeGrid


def test_periodic_guard_fill_nodal():
    g = YeeGrid((8,), (0.0,), (8.0,), guards=2)
    g.Ey[...] = 0.0
    g.interior_view("Ey")[...] = np.arange(9.0)
    # node 8 is the same physical point as node 0
    apply_periodic(g, 0)
    arr = g.Ey
    assert arr[g.guards + 8] == arr[g.guards]
    np.testing.assert_allclose(arr[:2], arr[8:10])
    np.testing.assert_allclose(arr[11:], arr[3:5])


def test_periodic_guard_fill_staggered():
    g = YeeGrid((8,), (0.0,), (8.0,), guards=2)
    g.interior_view("Ex")[...] = np.arange(8.0)
    apply_periodic(g, 0)
    arr = g.Ex
    np.testing.assert_allclose(arr[:2], arr[8:10])
    np.testing.assert_allclose(arr[10:], arr[2:5])


def test_accumulate_periodic_sources_conserves_total():
    g = YeeGrid((8,), (0.0,), (8.0,), guards=2)
    rng = np.random.default_rng(0)
    g.fields["rho"][...] = rng.normal(size=g.shape)
    # every array entry (guards and the duplicated nodal plane included)
    # is a deposit belonging to some physical node
    total_before = g.fields["rho"].sum()
    accumulate_periodic_sources(g, 0)
    rho = g.fields["rho"]
    assert np.all(rho[:2] == 0.0)
    valid = rho[g.guards : g.guards + 9]
    # first and last valid nodes are the same physical point
    assert valid[0] == pytest.approx(valid[-1])
    assert valid[:-1].sum() == pytest.approx(total_before)


def test_damping_profile_monotone():
    f = damping_profile(8, strength=0.05)
    assert np.all(np.diff(f) > 0)
    assert f[-1] < 1.0
    assert f[0] == pytest.approx(0.95)


def test_damping_layer_absorbs_energy():
    n = 128
    g = YeeGrid((n,), (0.0,), (1.0,), guards=3)
    x = g.axis_coords(0, "Ey")
    x_b = g.axis_coords(0, "Bz")
    pulse = lambda s: np.exp(-((s - 0.5) ** 2) / (2 * 0.03**2))
    g.interior_view("Ey")[...] = pulse(x)
    g.interior_view("Bz")[...] = pulse(x_b) / c
    dt = cfl_dt(g.dx, 0.9)
    solver = MaxwellSolver(g, dt)
    e0 = g.field_energy()
    steps = int(2.5 / (c * dt))
    for _ in range(steps):
        apply_damping(g, 0, n_layer=32, strength=0.03)
        solver.step()
    # graded damping is the cheap absorber: much weaker than the PML but
    # still removes the bulk of the outgoing energy
    assert g.field_energy() < 0.1 * e0


# -- the damped walls: native entry, NumPy body and the per-plane reference ----

from repro.core.simulation import Simulation  # noqa: E402
from repro.exceptions import ConfigurationError  # noqa: E402
from repro.grid.boundary import _axis_slice  # noqa: E402
from repro.grid.yee import FIELD_COMPONENTS  # noqa: E402
from tests.conftest import (  # noqa: E402
    assert_same_arrays,
    needs_compiled,
    numpy_fields,
    random_fields,
    random_grid,
)


def per_plane_damping(grid, axis, n_layer, strength, power, low, high):
    """The damping as it was written first: one in-place product per plane
    and component, low side first, with the NumPy scalar factor."""
    factors = damping_profile(n_layer, strength, power)
    size = grid.shape[axis]
    for name in FIELD_COMPONENTS:
        arr = grid.fields[name]
        if low:
            for k in range(n_layer):
                arr[_axis_slice(grid.ndim, axis, slice(k, k + 1))] *= factors[k]
        if high:
            for k in range(n_layer):
                plane = slice(size - 1 - k, size - k)
                arr[_axis_slice(grid.ndim, axis, plane)] *= factors[k]


def seeded_grid(ndim, dtype):
    return random_grid((9, 7, 6)[:ndim], dtype)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("ndim", [1, 2, 3])
def test_damping_routes_match_the_per_plane_reference(ndim, dtype):
    """Every axis and side; layers from none through thin and past the
    middle of the axis (the two sides overlap) to the whole axis."""
    for axis in range(ndim):
        size = seeded_grid(ndim, dtype).shape[axis]
        for n_layer in (0, 1, 3, size // 2 + 2, size):
            for sides, low, high in (("both", 1, 1), ("low", 1, 0),
                                     ("high", 0, 1)):
                ref = seeded_grid(ndim, dtype)
                per_plane_damping(ref, axis, n_layer, 0.3, 2, low, high)
                with numpy_fields():
                    numpy_grid = seeded_grid(ndim, dtype)
                    apply_damping(numpy_grid, axis, n_layer, 0.3, sides=sides)
                what = f"{ndim}D {dtype.__name__} axis {axis} n={n_layer} {sides}"
                assert_same_arrays(numpy_grid.fields, ref.fields, what)
                native = seeded_grid(ndim, dtype)
                apply_damping(native, axis, n_layer, 0.3, sides=sides)
                assert_same_arrays(native.fields, ref.fields, what)


@needs_compiled
def test_native_damping_refuses_a_bad_layout_and_writes_nothing():
    grid = seeded_grid(2, np.float64)
    before = {name: arr.copy() for name, arr in grid.fields.items()}
    grid.fields["Bz"] = before["Bz"][:, :-1].copy()
    with pytest.raises(ConfigurationError, match="damp"):
        apply_damping(grid, 1, 3)
    grid.fields["Bz"] = before["Bz"]
    assert_same_arrays(grid.fields, before)


def test_damping_layer_wider_than_the_axis_is_refused():
    """Planes past the far end used to be reached through negative
    indices: 8 cells + 2 guards per side is 13 planes, and a 20-plane
    layer damped planes 6-11 a second time."""
    for route in (numpy_fields, contextlib.nullcontext):
        grid = YeeGrid((8,), (0.0,), (1.0,), guards=2)
        random_fields(grid)
        before = {name: arr.copy() for name, arr in grid.fields.items()}
        with route():
            with pytest.raises(ConfigurationError, match="20 planes"):
                apply_damping(grid, 0, 20)
            with pytest.raises(ConfigurationError, match="-1 planes"):
                apply_damping(grid, 0, -1)
        assert_same_arrays(grid.fields, before)
        # the whole axis is the widest layer there is; the profile is then
        # symmetric about the middle plane
        grid.fields["Ey"][...] = 1.0
        with route():
            apply_damping(grid, 0, 13, strength=0.5)
        ey = grid.fields["Ey"]
        np.testing.assert_array_equal(ey, ey[::-1])


def test_simulation_refuses_a_damping_layer_wider_than_an_axis():
    grid = YeeGrid((8, 32), (0.0, 0.0), (8e-6, 32e-6), guards=3)
    with pytest.raises(ConfigurationError, match="axis 0"):
        Simulation(grid, boundaries=("damped", "periodic"), n_absorber=20)
    # the same width on an axis that holds it, or without a damped axis
    Simulation(grid, boundaries=("periodic", "damped"), n_absorber=20)
    Simulation(grid, boundaries="periodic", n_absorber=20)


@pytest.mark.parametrize("sides", ["Low", "HIGH", "", "none", None])
def test_unknown_damping_sides_are_refused(sides):
    grid = seeded_grid(1, np.float64)
    before = {name: arr.copy() for name, arr in grid.fields.items()}
    for route in (numpy_fields, contextlib.nullcontext):
        with route(), pytest.raises(ConfigurationError, match=repr(sides)):
            apply_damping(grid, 0, 3, sides=sides)
    assert_same_arrays(grid.fields, before)
