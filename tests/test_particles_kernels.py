"""Kernel dispatch registry and tiled fast-path tests: registry lookup
and registration errors, machine-precision cross-validation of the tiled
kernels against the vectorized ones (sorted and unsorted), charge
conservation of the tiled Esirkepov deposit, the shape-weight cache, and
the kernel-variant plumbing through ``Simulation``."""

import numpy as np
import pytest

from repro.constants import c, m_e, plasma_wavelength, q_e
from repro.core.simulation import Simulation
from repro.exceptions import ConfigurationError
from repro.grid.maxwell import cfl_dt
from repro.grid.stencils import diff_backward
from repro.grid.yee import YeeGrid
from repro.observability import attach_observability
from repro.observability.tracer import build_tree
from repro.particles.deposit import (
    deposit_charge,
    deposit_current_esirkepov_tiled,
    deposit_current_reference,
    esirkepov_window,
)
from repro.particles.gather import gather_fields, gather_fields_tiled
from repro.particles.injection import UniformProfile
from repro.particles.kernels import (
    KernelSet,
    available_kernel_variants,
    get_kernel_set,
    register_kernel_set,
    validate_kernel_set,
)
from repro.particles.shapes import ShapeWeightCache, shape_weights
from repro.particles.species import Species


def make_grid(ndim, n=10, guards=5):
    return YeeGrid((n,) * ndim, (0.0,) * ndim, (float(n),) * ndim, guards=guards)


def divergence_j(grid):
    div = np.zeros(grid.shape)
    for d, comp in enumerate(("Jx", "Jy", "Jz")[: grid.ndim]):
        div += diff_backward(grid.fields[comp], d, grid.dx[d])
    return div


# -- registry ----------------------------------------------------------------

def test_builtin_variants_registered():
    assert {"reference", "vectorized", "tiled"} <= set(available_kernel_variants())


def test_unknown_variant_raises():
    with pytest.raises(ConfigurationError, match="unknown kernel variant"):
        get_kernel_set("simd")


def test_duplicate_registration_raises():
    tiled = get_kernel_set("tiled")
    with pytest.raises(ConfigurationError, match="duplicate"):
        register_kernel_set(KernelSet(
            name="tiled",
            gather=tiled.gather,
            deposit_charge=tiled.deposit_charge,
            deposit_current=tiled.deposit_current,
            deposit_current_direct=tiled.deposit_current_direct,
        ))


@pytest.mark.parametrize("name", ["reference", "tiled"])
@pytest.mark.parametrize("ndim", [1, 2, 3])
def test_validate_kernel_set_machine_precision(name, ndim):
    errors = validate_kernel_set(name, ndim=ndim, order=3)
    assert max(errors.values()) < 1e-12, errors


# -- tiled deposition: conservation + match to the scalar reference ----------

@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("ndim", [1, 2, 3])
@pytest.mark.parametrize("sort", [False, True])
def test_tiled_esirkepov_matches_reference_and_conserves(order, ndim, sort):
    """The fast path must agree with the per-particle scalar kernel to
    machine precision and keep (rho1 - rho0)/dt + div J = 0, whether or
    not the species was sorted (sorting only changes summation order)."""
    rng = np.random.default_rng(100 * ndim + order)
    n = 25
    pos0 = rng.uniform(3.0, 7.0, size=(n, ndim))
    pos1 = pos0 + rng.uniform(-0.9, 0.9, size=(n, ndim))
    if sort:
        key = np.lexsort(np.floor(pos0).T[::-1])
        pos0, pos1 = pos0[key], pos1[key]
    w = rng.uniform(0.5, 2.0, size=n)
    vel = rng.uniform(-0.5, 0.5, size=(n, 3)) * c
    dt, charge = 1.0e-9, -q_e

    g_tiled = make_grid(ndim)
    g_ref = make_grid(ndim)
    deposit_current_esirkepov_tiled(g_tiled, pos0, pos1, vel, w, charge, dt, order)
    deposit_current_reference(g_ref, pos0, pos1, vel, w, charge, dt, order)
    for comp in ("Jx", "Jy", "Jz"):
        scale = np.max(np.abs(g_ref.fields[comp])) + 1e-300
        assert np.max(np.abs(g_tiled.fields[comp] - g_ref.fields[comp])) / scale < 1e-12

    rho0 = make_grid(ndim)
    rho1 = make_grid(ndim)
    deposit_charge(rho0, pos0, w, charge, order)
    deposit_charge(rho1, pos1, w, charge, order)
    residual = (rho1.fields["rho"] - rho0.fields["rho"]) / dt + divergence_j(g_tiled)
    scale = np.max(np.abs(rho1.fields["rho"] - rho0.fields["rho"]) / dt) + 1e-300
    assert np.max(np.abs(residual)) / scale < 1e-11


def test_tight_window_is_minimal_for_subcell_moves():
    for order in (1, 2, 3):
        assert esirkepov_window(order, 0.9, tight=True) == order + 2
        assert esirkepov_window(order, 0.9) == order + 3
        # beyond one cell the tight window falls back to the widened one
        assert esirkepov_window(order, 1.7, tight=True) == order + 5


# -- gather fast path --------------------------------------------------------

def test_gather_tiled_bit_identical():
    g = make_grid(2)
    rng = np.random.default_rng(3)
    for comp in ("Ex", "Ey", "Ez", "Bx", "By", "Bz"):
        g.fields[comp][...] = rng.normal(size=g.shape)
    pos = rng.uniform(1.0, 9.0, size=(400, 2))
    e0, b0 = gather_fields(g, pos, order=3)
    e1, b1 = gather_fields_tiled(g, pos, order=3)
    assert np.array_equal(e0, e1) and np.array_equal(b0, b1)


def test_shape_weight_cache_shares_stagger_lattices():
    """Six components over ndim axes touch only two stagger offsets per
    axis, so a 2D gather needs 4 evaluations for 12 lookups."""
    rng = np.random.default_rng(5)
    coords = [rng.uniform(2.0, 8.0, size=50) for _ in range(2)]
    cache = ShapeWeightCache(coords, order=2)
    for stag in ((0, 1), (1, 0), (0, 0), (1, 1), (0, 1), (1, 0)):
        for axis in range(2):
            i0, w = cache.get(axis, stag[axis])
            x = coords[axis] - 0.5 * stag[axis]
            i0_ref, w_ref = shape_weights(x, 2)
            assert np.array_equal(i0, i0_ref) and np.array_equal(w, w_ref)
    assert cache.misses == 4
    assert cache.hits == 8


# -- simulation plumbing -----------------------------------------------------

def build_sim(kernels):
    n0 = 1e24
    length = plasma_wavelength(n0)
    n_cells = 16
    g = YeeGrid((n_cells,), (0.0,), (length,), guards=4)
    sim = Simulation(
        g, dt=cfl_dt((length / n_cells,), 0.9), shape_order=2,
        smoothing_passes=0, kernels=kernels,
    )
    e = Species("electrons", charge=-q_e, mass=m_e, ndim=1)
    sim.add_species(e, profile=UniformProfile(n0), ppc=4)
    return sim


def test_simulation_rejects_unknown_variant():
    g = YeeGrid((8,), (0.0,), (1.0,), guards=4)
    with pytest.raises(ConfigurationError, match="unknown kernel variant"):
        Simulation(g, kernels="simd")


def test_simulation_tiled_matches_vectorized_trajectory():
    sim_v = build_sim("vectorized")
    sim_t = build_sim("tiled")
    sim_v.step(5)
    sim_t.step(5)
    pv = sim_v.species["electrons"].positions
    pt = sim_t.species["electrons"].positions
    assert np.max(np.abs(pv - pt)) < 1e-12 * np.max(np.abs(pv))
    for comp in ("Ex", "Jx"):
        a, b = sim_v.grid.fields[comp], sim_t.grid.fields[comp]
        scale = np.max(np.abs(a)) + 1e-300
        assert np.max(np.abs(a - b)) / scale < 1e-12


def test_gather_and_deposit_spans_carry_kernel_attribute():
    sim = build_sim("tiled")
    tracer, _ = attach_observability(sim)
    sim.step(1)
    children = build_tree(tracer.records)
    step = children[-1][0]
    phases = {c.name: c for c in children[step.sid]}
    assert phases["gather"].attrs["kernel"] == "tiled"
    assert phases["deposit"].attrs["kernel"] == "tiled"
