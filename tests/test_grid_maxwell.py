"""Physics tests for the FDTD Maxwell solver: propagation, energy, CFL."""

import numpy as np
import pytest

from repro.constants import c
from repro.exceptions import StabilityError
from repro.grid.boundary import apply_periodic
from repro.grid.maxwell import MaxwellSolver, cfl_dt
from repro.grid.yee import YeeGrid


def plane_wave_grid(n=128, wavelengths=4):
    """1D grid loaded with a right-going (Ey, Bz) plane wave."""
    length = 1.0
    g = YeeGrid((n,), (0.0,), (length,), guards=2)
    k = 2 * np.pi * wavelengths / length
    x_e = g.axis_coords(0, "Ey")
    x_b = g.axis_coords(0, "Bz")
    g.interior_view("Ey")[...] = np.sin(k * x_e)
    g.interior_view("Bz")[...] = np.sin(k * x_b) / c
    return g, k


def test_cfl_dt_formula():
    dt = cfl_dt((1.0, 1.0), cfl=1.0)
    assert dt == pytest.approx(1.0 / (c * np.sqrt(2.0)))


def test_cfl_violation_raises():
    g = YeeGrid((16,), (0.0,), (1.0,), guards=2)
    with pytest.raises(StabilityError):
        MaxwellSolver(g, dt=10.0 * cfl_dt(g.dx))


def test_plane_wave_travels_at_c():
    g, k = plane_wave_grid(n=256)
    dt = cfl_dt(g.dx, cfl=0.5)
    solver = MaxwellSolver(g, dt)
    steps = 160
    for _ in range(steps):
        apply_periodic(g, 0)
        solver.step()
    # the wave should be the initial profile shifted by c * t
    shift = c * steps * dt
    x_e = g.axis_coords(0, "Ey")
    expected = np.sin(k * (x_e - shift))
    measured = g.interior_view("Ey")
    # second-order dispersion at ~16 pts/wavelength: a few percent
    assert np.max(np.abs(measured - expected)) < 0.05


def test_energy_conserved_periodic():
    g, _ = plane_wave_grid(n=128)
    dt = cfl_dt(g.dx, cfl=0.9)
    solver = MaxwellSolver(g, dt)
    apply_periodic(g, 0)
    e0 = g.field_energy()
    for _ in range(300):
        apply_periodic(g, 0)
        solver.step()
    assert g.field_energy() == pytest.approx(e0, rel=1e-6)


def test_vacuum_stays_zero():
    g = YeeGrid((16, 16), (0, 0), (1, 1), guards=2)
    solver = MaxwellSolver(g, cfl_dt(g.dx, 0.9))
    for _ in range(10):
        solver.step()
    assert g.field_energy() == 0.0


def test_static_uniform_b_is_steady():
    g = YeeGrid((16, 16), (0, 0), (1, 1), guards=2)
    g.Bz[...] = 1.5
    solver = MaxwellSolver(g, cfl_dt(g.dx, 0.9))
    for _ in range(20):
        apply_periodic(g, 0)
        apply_periodic(g, 1)
        solver.step()
    np.testing.assert_allclose(g.interior_view("Bz"), 1.5, rtol=1e-12)
    assert np.max(np.abs(g.interior_view("Ex"))) == 0.0


def test_current_drives_e_field():
    """A uniform Jz for one step produces Ez = -J dt / eps0 (1D limit)."""
    from repro.constants import eps0

    g = YeeGrid((32,), (0.0,), (1.0,), guards=2)
    dt = cfl_dt(g.dx, 0.5)
    solver = MaxwellSolver(g, dt)
    g.Jz[...] = 2.0
    solver.push_e(1.0)
    np.testing.assert_allclose(
        g.interior_view("Ez"), -2.0 * dt / eps0, rtol=1e-12
    )


def test_2d_pulse_expands_isotropically():
    n = 64
    g = YeeGrid((n, n), (0, 0), (1, 1), guards=2)
    x = g.axis_coords(0, "Ez")
    y = g.axis_coords(1, "Ez")
    r2 = (x[:, None] - 0.5) ** 2 + (y[None, :] - 0.5) ** 2
    g.interior_view("Ez")[...] = np.exp(-r2 / 0.002)
    dt = cfl_dt(g.dx, 0.7)
    solver = MaxwellSolver(g, dt)
    for _ in range(20):
        solver.step()
    ez = g.interior_view("Ez")
    # 90-degree rotational symmetry of the expanding ring
    np.testing.assert_allclose(ez, ez[::-1, :], atol=1e-9)
    np.testing.assert_allclose(ez, ez.T, atol=1e-9)


# -- the native entry against the NumPy pushes --------------------------------

from repro.exceptions import ConfigurationError  # noqa: E402
from tests.conftest import (  # noqa: E402
    assert_same_arrays,
    needs_compiled,
    numpy_fields,
    random_grid,
)


def seeded_grid(ndim, dtype):
    return random_grid((9, 7, 6)[:ndim], dtype)


@needs_compiled
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("ndim", [1, 2, 3])
def test_native_yee_step_is_the_numpy_step_bit_for_bit(ndim, dtype):
    native, oracle = seeded_grid(ndim, dtype), seeded_grid(ndim, dtype)
    dt = cfl_dt(native.dx, 0.7)
    solver = MaxwellSolver(native, dt)
    for _ in range(3):
        solver.step()
    # the oracle: the NumPy pushes, called directly and through step()
    solver = MaxwellSolver(oracle, dt)
    solver.push_b(0.5)
    solver.push_e(1.0)
    solver.push_b(0.5)
    with numpy_fields():
        for _ in range(2):
            solver.step()
    assert_same_arrays(native.fields, oracle.fields, f"{ndim}D {dtype.__name__}")


@needs_compiled
def test_native_yee_refuses_a_bad_layout_and_writes_nothing():
    grid = seeded_grid(2, np.float64)
    solver = MaxwellSolver(grid, cfl_dt(grid.dx, 0.7))
    before = {name: arr.copy() for name, arr in grid.fields.items()}
    for bad in (
        np.asfortranarray(grid.fields["By"]),  # same values, column-major
        np.ascontiguousarray(grid.fields["By"][:, :-1]),  # one row short
        grid.fields["By"].astype(np.float32),  # not the grid dtype
    ):
        grid.fields["By"] = bad
        with pytest.raises(ConfigurationError, match="yee_step"):
            solver.step()
        assert_same_arrays(
            {n: np.asarray(a, dtype=np.float64) for n, a in grid.fields.items()
             if n != "By"},
            {n: a for n, a in before.items() if n != "By"},
        )
    grid.fields["By"] = before["By"].copy()
    solver.step()  # a good layout runs again
