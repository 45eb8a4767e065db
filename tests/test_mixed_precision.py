"""Float32 mixed-precision mode (the paper's Table III "MP" rows):
grid precision switching, dtype preservation through the gather/deposit
and solver hot paths, the per-kernel float32 error budget asserted by
``validate_kernel_set``, explicit dtype threading through the PSATD
spectral pipeline, and the ``Simulation``/``MRSimulation`` precision
policy plumbing."""

import numpy as np
import pytest

from repro.constants import c, m_e, plasma_wavelength, q_e
from repro.core.simulation import Simulation
from repro.exceptions import ConfigurationError, PrecisionError
from repro.grid.boundary import apply_periodic
from repro.grid.maxwell import MaxwellSolver, cfl_dt
from repro.grid.psatd import PSATDMaxwellSolver
from repro.grid.yee import YeeGrid
from repro.particles import kernels as kernels_mod
from repro.particles.deposit import (
    deposit_charge,
    deposit_current_direct,
    deposit_current_esirkepov,
)
from repro.particles.gather import gather_fields
from repro.particles.injection import UniformProfile
from repro.particles.kernels import (
    FLOAT32_ERROR_BUDGET,
    available_kernel_variants,
    validate_kernel_set,
)
from repro.particles.species import Species

FIELD_COMPONENTS = ("Ex", "Ey", "Ez", "Bx", "By", "Bz",
                    "Jx", "Jy", "Jz", "rho")


def make_grid(ndim, n=10, guards=5, dtype=np.float64):
    grid = YeeGrid((n,) * ndim, (0.0,) * ndim, (float(n),) * ndim,
                   guards=guards)
    if dtype is not np.float64:
        grid.set_precision(dtype)
    return grid


# -- grid precision switching ------------------------------------------------

def test_set_precision_converts_every_field():
    grid = make_grid(2)
    grid.fields["Ex"][...] = 1.25
    grid.set_precision(np.float32)
    assert grid.dtype == np.float32
    for comp in FIELD_COMPONENTS:
        assert grid.fields[comp].dtype == np.float32, comp
    assert float(grid.fields["Ex"][0, 0]) == 1.25  # exactly representable
    grid.set_precision(np.float64)
    assert grid.dtype == np.float64
    for comp in FIELD_COMPONENTS:
        assert grid.fields[comp].dtype == np.float64, comp


def test_set_precision_rejects_non_float():
    grid = make_grid(1)
    with pytest.raises(ConfigurationError):
        grid.set_precision(np.int32)
    with pytest.raises(ConfigurationError):
        grid.set_precision(np.complex128)


def test_geometry_stays_double_on_float32_grid():
    grid = make_grid(2, dtype=np.float32)
    for comp in ("Ex", "Bz", "rho"):
        assert grid.axis_coords(0, comp).dtype == np.float64


# -- dtype preservation through the kernel hot path --------------------------

def rand_particles(grid, n=50, seed=2):
    rng = np.random.default_rng(seed)
    lo = np.asarray(grid.lo) + 2.0
    hi = np.asarray(grid.hi) - 2.0
    pos = lo + (hi - lo) * rng.random((n, grid.ndim))
    vel = rng.standard_normal((n, 3))
    wts = 1.0 + rng.random(n)
    return pos, vel, wts


@pytest.mark.parametrize("ndim", [1, 2, 3])
def test_deposits_preserve_float32_fields(ndim):
    grid = make_grid(ndim, dtype=np.float32)
    pos, vel, wts = rand_particles(grid)
    deposit_charge(grid, pos, wts, charge=-q_e, order=2)
    deposit_current_esirkepov(grid, pos, pos + 0.25, vel, wts,
                              charge=-q_e, dt=0.1, order=2)
    for comp in ("rho", "Jx", "Jy", "Jz"):
        assert grid.fields[comp].dtype == np.float32, comp


def test_gather_from_float32_grid_returns_double():
    grid = make_grid(2, dtype=np.float32)
    rng = np.random.default_rng(0)
    for comp in ("Ex", "Ey", "Ez", "Bx", "By", "Bz"):
        grid.fields[comp][...] = rng.standard_normal(
            grid.shape).astype(np.float32)
    pos, _, _ = rand_particles(grid)
    e, b = gather_fields(grid, pos, order=2)
    # particle-side quantities stay DP under the mixed-precision policy
    assert e.dtype == np.float64 and b.dtype == np.float64
    assert np.all(np.isfinite(e)) and np.all(np.isfinite(b))


def test_maxwell_fdtd_preserves_float32():
    grid = make_grid(2, n=16, guards=2, dtype=np.float32)
    grid.fields["Ey"][...] = np.float32(1e-3)
    solver = MaxwellSolver(grid, dt=0.9 * cfl_dt(grid.dx))
    for _ in range(3):
        solver.step()
    for comp in ("Ex", "Ey", "Ez", "Bx", "By", "Bz"):
        assert grid.fields[comp].dtype == np.float32, comp


# -- float32 error budget ----------------------------------------------------

def budget_variants():
    names = ["vectorized"]
    if "compiled" in available_kernel_variants():
        names.append("compiled")
    return names


@pytest.mark.parametrize("name", budget_variants())
@pytest.mark.parametrize("ndim", [1, 2, 3])
def test_float32_within_documented_budget(name, ndim):
    errors = validate_kernel_set(name, ndim=ndim, order=2,
                                 precision="float32")
    for kernel, err in errors.items():
        assert err <= FLOAT32_ERROR_BUDGET[kernel], (kernel, err)


def test_budget_breach_raises_precision_error(monkeypatch):
    tight = {k: 1.0e-12 for k in FLOAT32_ERROR_BUDGET}
    monkeypatch.setattr(kernels_mod, "FLOAT32_ERROR_BUDGET", tight)
    with pytest.raises(PrecisionError):
        validate_kernel_set("vectorized", ndim=2, order=2, precision="float32")


def test_float64_validation_unchanged_by_precision_param():
    name = budget_variants()[-1]  # compiled, or vectorized without it
    a = validate_kernel_set(name, ndim=2, order=2)
    b = validate_kernel_set(name, ndim=2, order=2, precision="float64")
    assert a == b


#: DESIGN.md, "Float32 error budget": the nodal deposits (charge, direct
#: current) on a float32 grid, relative L2 against the float64 grid
NODAL_FLOAT32_BUDGET = 2.0e-6


@pytest.mark.parametrize("kernel", ["charge", "direct"])
@pytest.mark.parametrize("ndim", [1, 2, 3])
def test_nodal_deposits_within_documented_float32_budget(ndim, kernel):
    """The nodal deposits are no kernel-set slot, so ``validate_kernel_set``
    no longer covers them: the same budget, asserted here."""
    grids = {dtype: make_grid(ndim, dtype=dtype)
             for dtype in (np.float32, np.float64)}
    pos, vel, wts = rand_particles(grids[np.float64], n=203, seed=ndim)
    for grid in grids.values():
        if kernel == "charge":
            deposit_charge(grid, pos, wts, charge=-q_e, order=2)
        else:
            deposit_current_direct(grid, pos, vel, wts, charge=-q_e, order=2)
    comps = ("rho",) if kernel == "charge" else ("Jx", "Jy", "Jz")
    for comp in comps:
        single = grids[np.float32].fields[comp]
        double = grids[np.float64].fields[comp]
        assert single.dtype == np.float32
        err = np.linalg.norm(single - double) / np.linalg.norm(double)
        assert 0.0 < err <= NODAL_FLOAT32_BUDGET, (comp, err)


def test_validate_rejects_unknown_precision():
    with pytest.raises(ConfigurationError, match="precision"):
        validate_kernel_set("vectorized", precision="float16")


# -- PSATD explicit dtype threading ------------------------------------------

def plane_wave_grid(n=32, wavelengths=4, dtype=np.float64):
    length = 1.0
    g = YeeGrid((n,), (0.0,), (length,), guards=2)
    if dtype is not np.float64:
        g.set_precision(dtype)
    k = 2 * np.pi * wavelengths / length
    x_e = g.axis_coords(0, "Ey")
    x_b = g.axis_coords(0, "Bz")
    g.interior_view("Ey")[...] = np.sin(k * x_e).astype(g.dtype)
    g.interior_view("Bz")[...] = (np.sin(k * x_b) / c).astype(g.dtype)
    apply_periodic(g, 0)
    return g, k


def test_psatd_dtype_threading_float32():
    g, _ = plane_wave_grid(dtype=np.float32)
    solver = PSATDMaxwellSolver(g, dt=2.0 * cfl_dt(g.dx))
    assert solver.rdtype == np.float32
    assert solver.cdtype == np.complex64
    for tab in solver._phase.values():
        assert tab.dtype == np.complex64
    for _ in range(3):
        solver.step()
    for comp in ("Ex", "Ey", "Ez", "Bx", "By", "Bz"):
        assert g.fields[comp].dtype == np.float32, comp
        assert np.all(np.isfinite(g.fields[comp]))


def test_psatd_dtype_threading_float64_unchanged():
    g, _ = plane_wave_grid()
    solver = PSATDMaxwellSolver(g, dt=2.0 * cfl_dt(g.dx))
    assert solver.rdtype == np.float64
    assert solver.cdtype == np.complex128
    for tab in solver._phase.values():
        assert tab.dtype == np.complex128


def test_psatd_float32_plane_wave_advects():
    """The spectral push stays physically correct in single precision —
    same dispersion test as the float64 suite, at float32 tolerance."""
    g, k = plane_wave_grid(n=32, wavelengths=4, dtype=np.float32)
    dt = 3.0 * cfl_dt(g.dx)
    solver = PSATDMaxwellSolver(g, dt)
    steps = 40
    for _ in range(steps):
        solver.step()
    shift = c * steps * dt
    x_e = g.axis_coords(0, "Ey")
    expected = np.sin(k * (x_e - shift))
    np.testing.assert_allclose(g.interior_view("Ey"), expected, atol=5e-5)


# -- Simulation / MRSimulation precision policy ------------------------------

def build_sim(**kwargs):
    n0 = 1e24
    length = plasma_wavelength(n0)
    g = YeeGrid((16,), (0.0,), (length,), guards=4)
    sim = Simulation(
        g, dt=cfl_dt((length / 16,), 0.9), shape_order=2,
        smoothing_passes=0, **kwargs,
    )
    sim.add_species(Species("electrons", charge=-q_e, mass=m_e, ndim=1),
                    profile=UniformProfile(n0), ppc=4)
    return sim


def test_simulation_mixed_precision_runs_finite():
    sim = build_sim(precision="mixed")
    assert sim.precision == "mixed"
    assert sim.grid.dtype == np.float32
    sim.step(3)
    for comp in ("Ex", "Jx", "rho"):
        arr = sim.grid.fields[comp]
        assert arr.dtype == np.float32, comp
        assert np.all(np.isfinite(arr)), comp
    # particle state stays double
    assert sim.species["electrons"].positions.dtype == np.float64


def test_simulation_default_inherits_grid_dtype():
    sim = build_sim()
    assert sim.precision == "float64"
    assert sim.grid.dtype == np.float64
    n0 = 1e24
    length = plasma_wavelength(n0)
    g32 = YeeGrid((16,), (0.0,), (length,), guards=4)
    g32.set_precision(np.float32)
    sim32 = Simulation(g32, dt=cfl_dt((length / 16,), 0.9))
    assert sim32.precision == "mixed"
    assert sim32.grid.dtype == np.float32


def test_simulation_rejects_unknown_precision():
    n0 = 1e24
    length = plasma_wavelength(n0)
    g = YeeGrid((16,), (0.0,), (length,), guards=4)
    with pytest.raises(ConfigurationError, match="precision"):
        Simulation(g, dt=cfl_dt((length / 16,), 0.9), precision="half")


def test_mixed_vs_double_trajectories_track():
    sim32 = build_sim(precision="mixed")
    sim64 = build_sim(precision="float64")
    sim32.step(5)
    sim64.step(5)
    p32 = sim32.species["electrons"].positions
    p64 = sim64.species["electrons"].positions
    scale = np.max(np.abs(p64))
    assert np.max(np.abs(p32 - p64)) / scale < 1e-4


def test_mr_simulation_mixed_precision_smoke():
    from repro.core.mr_simulation import MRSimulation

    n0 = 1e24
    length = plasma_wavelength(n0)
    g = YeeGrid((16, 16), (0.0, 0.0), (length, length), guards=4)
    dx = length / 16
    sim = MRSimulation(
        g, dt=cfl_dt((dx, dx), 0.9), shape_order=2, smoothing_passes=0,
        precision="mixed",
    )
    sim.add_patch((4, 4), (12, 12), subcycle=True)
    assert sim.grid.dtype == np.float32
    sim.step(2)
    for comp in ("Ex", "Jx"):
        assert sim.grid.fields[comp].dtype == np.float32
        assert np.all(np.isfinite(sim.grid.fields[comp]))
