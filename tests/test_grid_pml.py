"""Tests for the Berenger split-field PML."""

import numpy as np
import pytest

from repro.constants import c
from repro.grid.maxwell import MaxwellSolver, cfl_dt
from repro.grid.pml import PMLMaxwellSolver, pml_sigma_profile
from repro.grid.yee import YeeGrid


def gaussian_pulse_1d(n=256, center=0.5, width=0.02, guards=3):
    g = YeeGrid((n,), (0.0,), (1.0,), guards=guards)
    x = g.axis_coords(0, "Ey")
    x_b = g.axis_coords(0, "Bz")
    pulse = lambda s: np.exp(-((s - center) ** 2) / (2 * width**2))
    g.interior_view("Ey")[...] = pulse(x)
    g.interior_view("Bz")[...] = pulse(x_b) / c
    return g


def test_sigma_profile_zero_in_interior():
    g = YeeGrid((64,), (0.0,), (1.0,), guards=3)
    sig = pml_sigma_profile(g, 0, 0, n_pml=8)
    interior = sig[g.guards + 8 : g.guards + 64 - 8]
    assert np.all(interior == 0.0)
    assert sig[0] > 0 and sig[-1] > 0
    # grows monotonically outward
    assert np.all(np.diff(sig[: g.guards + 9]) <= 0)


def test_pml_reduces_to_vacuum_fdtd_in_interior():
    """With sigma = 0 everywhere the split scheme equals plain FDTD."""
    g1 = gaussian_pulse_1d(n=128)
    g2 = g1.copy()
    dt = cfl_dt(g1.dx, 0.8)
    plain = MaxwellSolver(g1, dt)
    # a PML whose axes list is empty has sigma = 0 identically
    split = PMLMaxwellSolver(g2, dt, n_pml=8, axes=())
    for _ in range(40):
        plain.step()
        split.step()
    np.testing.assert_allclose(
        g1.interior_view("Ey"), g2.interior_view("Ey"), atol=1e-12
    )


def test_pml_absorbs_outgoing_pulse():
    g = gaussian_pulse_1d(n=256, center=0.5)
    dt = cfl_dt(g.dx, 0.8)
    solver = PMLMaxwellSolver(g, dt, n_pml=12)
    e0 = g.field_energy()
    steps = int(1.5 / (c * dt))
    for _ in range(steps):
        solver.step()
    # pulse exits through the layer: residual energy is tiny
    assert g.field_energy() < 1e-4 * e0


def test_pml_outperforms_hard_wall():
    """Reflection from the PML is orders of magnitude below a bare wall."""

    def residual_energy(use_pml):
        g = gaussian_pulse_1d(n=256, center=0.75, width=0.02)
        dt = cfl_dt(g.dx, 0.8)
        solver = (
            PMLMaxwellSolver(g, dt, n_pml=12)
            if use_pml
            else MaxwellSolver(g, dt)
        )
        # run until the pulse has hit the right edge and any reflection
        # has travelled back into the interior
        steps = int(0.5 / (c * dt))
        for _ in range(steps):
            solver.step()
        sl = g.valid_slices("Ey")[0]
        interior = g.Ey[sl][20:-20]
        return float(np.sum(interior**2))

    assert residual_energy(True) < 1e-4 * residual_energy(False)


def test_pml_2d_absorbs_cylindrical_wave():
    n = 96
    g = YeeGrid((n, n), (0, 0), (1, 1), guards=3)
    x = g.axis_coords(0, "Ez")
    y = g.axis_coords(1, "Ez")
    r2 = (x[:, None] - 0.5) ** 2 + (y[None, :] - 0.5) ** 2
    g.interior_view("Ez")[...] = np.exp(-r2 / 0.001)
    dt = cfl_dt(g.dx, 0.7)
    solver = PMLMaxwellSolver(g, dt, n_pml=10)
    e0 = g.field_energy()
    steps = int(1.5 / (c * dt))
    for _ in range(steps):
        solver.step()
    assert g.field_energy() < 1e-3 * e0


def test_pml_carries_preexisting_field():
    g = gaussian_pulse_1d(n=64)
    before = g.interior_view("Ey").copy()
    PMLMaxwellSolver(g, cfl_dt(g.dx, 0.8), n_pml=8)
    np.testing.assert_allclose(g.interior_view("Ey"), before)


def test_pml_cfl_check():
    from repro.exceptions import StabilityError

    g = YeeGrid((32,), (0.0,), (1.0,), guards=2)
    with pytest.raises(StabilityError):
        PMLMaxwellSolver(g, dt=10 * cfl_dt(g.dx), n_pml=4)


# -- the native entry against the NumPy split-field pushes ---------------------

from repro.exceptions import ConfigurationError  # noqa: E402
from tests.conftest import (  # noqa: E402
    assert_same_arrays,
    needs_compiled,
    numpy_fields,
    random_grid,
)


def seeded_grid(ndim, dtype):
    return random_grid((10, 8, 7)[:ndim], dtype)


def layer_cases(ndim):
    """Axis subsets x sides: all axes, the first, the last, none."""
    for axes in (None, (0,), (ndim - 1,), ()):
        for sides in ("both", "low", "high"):
            yield axes, sides


@needs_compiled
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("ndim", [1, 2, 3])
def test_native_pml_step_is_the_numpy_step_bit_for_bit(ndim, dtype):
    for axes, sides in layer_cases(ndim):
        native, oracle = seeded_grid(ndim, dtype), seeded_grid(ndim, dtype)
        dt = cfl_dt(native.dx, 0.7)
        mine = PMLMaxwellSolver(native, dt, n_pml=3, axes=axes, sides=sides)
        ref = PMLMaxwellSolver(oracle, dt, n_pml=3, axes=axes, sides=sides)
        for _ in range(3):
            mine.step()
        ref.push_b(0.5)
        ref.push_e(1.0)
        ref.push_b(0.5)
        with numpy_fields():
            for _ in range(2):
                ref.step()
        what = f"{ndim}D {dtype.__name__} axes={axes} sides={sides}"
        assert_same_arrays(native.fields, oracle.fields, what)
        assert_same_arrays(
            {str(k): v for k, v in mine.split.items()},
            {str(k): v for k, v in ref.split.items()}, what + " split",
        )


@needs_compiled
def test_native_pml_refuses_a_bad_split_part_and_writes_nothing():
    grid = seeded_grid(2, np.float64)
    solver = PMLMaxwellSolver(grid, cfl_dt(grid.dx, 0.7), n_pml=3)
    fields = {name: arr.copy() for name, arr in grid.fields.items()}
    key = ("Ez", 0)
    good = solver.split[key]
    solver.split[key] = np.asfortranarray(good)
    with pytest.raises(ConfigurationError, match="pml_step"):
        solver.step()
    assert_same_arrays(grid.fields, fields)
    assert np.array_equal(solver.split[key], good)
    solver.split[key] = good
    solver.step()


@pytest.mark.parametrize("sides", ["Low", "", "left", None])
def test_unknown_pml_sides_are_refused(sides):
    g = YeeGrid((16,), (0.0,), (1.0,), guards=3)
    with pytest.raises(ConfigurationError, match="sides"):
        pml_sigma_profile(g, 0, 0, n_pml=4, sides=sides)
    with pytest.raises(ConfigurationError, match="sides"):
        PMLMaxwellSolver(g, cfl_dt(g.dx, 0.5), n_pml=4, sides=sides)
    # no axis carries a layer, and the value is still checked
    with pytest.raises(ConfigurationError, match="sides"):
        PMLMaxwellSolver(g, cfl_dt(g.dx, 0.5), n_pml=4, axes=(), sides=sides)
