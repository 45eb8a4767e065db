"""Kernel dispatch table and the NumPy path's scatter techniques:
table lookup and unknown-variant errors, machine-precision
cross-validation of the vectorized kernels against the independent
oracles of ``tests/oracles.py`` (textbook Esirkepov, ``np.add.at`` nodal
scatters, scalar gather; sorted and unsorted), charge conservation of the
Esirkepov deposit on the minimal window, the touched-span histogram and
its always-on bounds check, the shape-weight cache, and the
kernel-variant plumbing through ``Simulation``."""

import dataclasses

import numpy as np
import pytest

from repro.constants import c, m_e, plasma_wavelength, q_e
from repro.core.simulation import Simulation
from repro.exceptions import ConfigurationError, SanitizerError
from repro.grid.maxwell import cfl_dt
from repro.grid.stencils import diff_backward
from repro.grid.yee import YeeGrid
from repro.observability import attach_observability
from repro.observability.tracer import build_tree
from repro.particles import deposit as deposit_mod
from repro.particles import kernels
from repro.particles.deposit import (
    deposit_charge,
    deposit_current_direct,
    deposit_current_esirkepov,
    esirkepov_window,
)
from repro.particles.gather import gather_fields
from repro.particles.injection import UniformProfile
from repro.particles.kernels import (
    KernelSet,
    available_kernel_variants,
    get_kernel_set,
    validate_kernel_set,
)
from repro.particles.shapes import ShapeWeightCache, shape_weights
from repro.particles.species import Species
from tests.oracles import (
    deposit_charge_add_at,
    deposit_current_direct_add_at,
    gather_scalar,
    oracle_kernel_set,
    textbook_esirkepov,
)


def make_grid(ndim, n=10, guards=5):
    return YeeGrid((n,) * ndim, (0.0,) * ndim, (float(n),) * ndim, guards=guards)


def divergence_j(grid):
    div = np.zeros(grid.shape)
    for d, comp in enumerate(("Jx", "Jy", "Jz")[: grid.ndim]):
        div += diff_backward(grid.fields[comp], d, grid.dx[d])
    return div


# -- table -------------------------------------------------------------------

def test_builtin_variants_registered():
    names = available_kernel_variants()
    assert names in (("vectorized", "compiled"), ("vectorized",))
    assert [f.name for f in dataclasses.fields(KernelSet)] == [
        "name", "gather", "deposit_current", "advance", "backend",
    ]


def test_retired_tiled_name_is_an_ordinary_unknown_variant():
    for retired in ("tiled", "reference"):
        with pytest.raises(ConfigurationError, match="unknown kernel variant") as exc:
            get_kernel_set(retired)
        assert str(available_kernel_variants()) in str(exc.value)


def test_unknown_variant_raises():
    with pytest.raises(ConfigurationError, match="unknown kernel variant"):
        get_kernel_set("simd")


@pytest.mark.parametrize("name", ["compiled"])
@pytest.mark.parametrize("ndim", [1, 2, 3])
def test_validate_kernel_set_machine_precision(name, ndim):
    if name not in available_kernel_variants():
        pytest.skip(f"{name} tier unavailable on this machine")
    errors = validate_kernel_set(name, ndim=ndim, order=3)
    assert max(errors.values()) < 1e-12, errors


# -- Esirkepov on the minimal window: conservation + match to the oracle ----

@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("ndim", [1, 2, 3])
@pytest.mark.parametrize("sort", [False, True])
def test_tiled_esirkepov_matches_reference_and_conserves(order, ndim, sort):
    """The histogram-scattered minimal-window kernel (once the ``tiled``
    tier, whence the test id) must agree with the textbook Esirkepov —
    per particle, ``np.add.at``, the standard window — to machine
    precision and keep (rho1 - rho0)/dt + div J = 0, whether or not the
    species was sorted (sorting only changes summation order)."""
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
    deposit_current_esirkepov(g_tiled, pos0, pos1, vel, w, charge, dt, order)
    textbook_esirkepov(g_ref, pos0, pos1, vel, w, charge, dt, order)
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
        assert esirkepov_window(order, 0.0) == order + 2
        assert esirkepov_window(order, 0.9) == order + 2
        # from one cell on: the standard window, widened per extra cell
        assert esirkepov_window(order, 1.7) == order + 5
        assert esirkepov_window(order, 2.6) == order + 7


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("ndim", [1, 2, 3])
@pytest.mark.parametrize("sort", [False, True])
def test_nodal_deposits_match_the_add_at_oracle(order, ndim, sort):
    """Charge and direct-current deposits (run-reduced histogram scatters)
    against per-particle ``np.add.at`` of B-splines evaluated around each
    particle: at most 1e-12 of max |rho| / |J|, sorted or not."""
    rng = np.random.default_rng(200 + 10 * ndim + order)
    n = 60
    pos = rng.uniform(2.0, 8.0, size=(n, ndim))
    if sort:
        pos = pos[np.lexsort(np.floor(pos).T[::-1])]
    w = rng.uniform(0.5, 2.0, size=n)
    vel = rng.uniform(-0.5, 0.5, size=(n, 3)) * c
    ours, oracle = make_grid(ndim), make_grid(ndim)
    deposit_charge(ours, pos, w, -q_e, order)
    deposit_charge_add_at(oracle, pos, w, -q_e, order)
    deposit_current_direct(ours, pos, vel, w, -q_e, order)
    deposit_current_direct_add_at(oracle, pos, vel, w, -q_e, order)
    for comp in ("rho", "Jx", "Jy", "Jz"):
        want = oracle.fields[comp]
        assert np.max(np.abs(want)) > 0.0, comp
        err = np.max(np.abs(ours.fields[comp] - want))
        assert err <= 1e-12 * np.max(np.abs(want)), comp


# -- histogram over the touched span + always-on bounds check ----------------

@pytest.mark.parametrize("ndim", [1, 2, 3])
def test_span_histogram_bit_identical_to_whole_array(monkeypatch, ndim):
    """A compact beam on a larger grid: scattering into flat[lo:hi] must
    give the very same bits as histogramming over the whole array."""
    rng = np.random.default_rng(7 + ndim)
    n, cells = 300, 24
    pos0 = rng.uniform(9.0, 13.0, size=(n, ndim))
    pos1 = pos0 + rng.uniform(-0.9, 0.9, size=(n, ndim))
    w = rng.uniform(0.5, 2.0, size=n)
    vel = rng.uniform(-0.5, 0.5, size=(n, 3)) * c

    def deposit_all(grid):
        deposit_charge(grid, pos0, w, -q_e, 3)
        deposit_current_esirkepov(grid, pos0, pos1, vel, w, -q_e, 1e-9, 3)
        return {k: grid.fields[k].copy() for k in ("rho", "Jx", "Jy", "Jz")}

    span = deposit_all(make_grid(ndim, n=cells))
    real = deposit_mod._address_span

    def whole_array_span(base, strides, width, size, kernel, component):
        first, lo, _ = real(base, strides, width, size, kernel, component)
        return first + lo, 0, size

    monkeypatch.setattr(deposit_mod, "_address_span", whole_array_span)
    whole = deposit_all(make_grid(ndim, n=cells))
    for comp in span:
        assert np.max(np.abs(span[comp])) > 0
        assert np.array_equal(span[comp], whole[comp]), comp


@pytest.mark.parametrize("x", [-500.0, 1.0e6])
@pytest.mark.parametrize("kernel", ["charge", "esirkepov", "direct"])
def test_escaped_particle_is_san005_not_a_giant_histogram(monkeypatch, kernel, x):
    """Always on (no REPRO_SANITIZE): an escaped particle used to be an
    opaque ``ValueError`` from ``np.bincount`` — after a 200 MB histogram
    for x = 1e6 — or a ``MemoryError``."""
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    monkeypatch.setattr(
        np, "bincount",
        lambda *a, **k: pytest.fail("histogram allocated before the check"),
    )
    g = YeeGrid((16, 16), (0.0, 0.0), (16.0, 16.0), guards=4)
    pos = np.array([[8.0, 8.0], [x, 8.0]])
    w, vel = np.ones(2), np.zeros((2, 3))
    named = {
        "charge": "deposit_charge for rho",
        "esirkepov": "deposit_current_esirkepov for J",
        "direct": "deposit_current_direct for Jx",
    }[kernel]
    with pytest.raises(SanitizerError, match=f"SAN005.* in {named}:"):
        if kernel == "charge":
            deposit_charge(g, pos, w, -q_e, 3)
        elif kernel == "esirkepov":
            deposit_current_esirkepov(g, pos, pos + 0.25, vel, w, -q_e, 1e-9, 3)
        else:
            deposit_current_direct(g, pos, vel, w, -q_e, 3)
    for comp in ("rho", "Jx", "Jy", "Jz"):
        assert not g.fields[comp].any()


# -- gather: shared shape weights --------------------------------------------

def test_gather_shares_weights_and_matches_reference(monkeypatch):
    """Six components, two sample lattices per axis: a 2D gather evaluates
    ``shape_weights`` 4 times, not 12, and still equals the scalar loop
    bit for bit."""
    from repro.particles import shapes

    g = make_grid(2)
    rng = np.random.default_rng(3)
    for comp in ("Ex", "Ey", "Ez", "Bx", "By", "Bz"):
        g.fields[comp][...] = rng.normal(size=g.shape)
    pos = rng.uniform(1.0, 9.0, size=(40, 2))
    e_r, b_r = gather_scalar(g, pos, order=3)
    calls = []
    real = shapes.shape_weights
    monkeypatch.setattr(
        shapes, "shape_weights",
        lambda x, order: calls.append(order) or real(x, order),
    )
    e_v, b_v = gather_fields(g, pos, order=3)
    assert len(calls) == 4
    assert np.array_equal(e_v, e_r) and np.array_equal(b_v, b_r)


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


def test_simulation_rejects_retired_tiled_variant():
    g = YeeGrid((8,), (0.0,), (1.0,), guards=4)
    for retired in ("tiled", "reference"):
        with pytest.raises(ConfigurationError, match="unknown kernel variant"):
            Simulation(g, kernels=retired)


@pytest.fixture
def oracle_tier(monkeypatch):
    """The oracles registered as a kernel variant for one test only."""
    monkeypatch.setitem(kernels._REGISTRY, "oracle", oracle_kernel_set())
    return "oracle"


def test_simulation_vectorized_matches_reference_trajectory(oracle_tier):
    """``vectorized`` against the scalar gather and the textbook
    Esirkepov, through five steps of a plasma oscillation."""
    sim_v = build_sim(oracle_tier)
    sim_t = build_sim("vectorized")
    sim_v.step(5)
    sim_t.step(5)
    pv = sim_v.species["electrons"].positions
    pt = sim_t.species["electrons"].positions
    assert np.max(np.abs(pv - pt)) < 1e-12 * np.max(np.abs(pv))
    for comp in ("Ex", "Jx"):
        a, b = sim_v.grid.fields[comp], sim_t.grid.fields[comp]
        scale = np.max(np.abs(a)) + 1e-300
        assert np.max(np.abs(a - b)) / scale < 1e-12


def test_gather_and_deposit_spans_carry_kernel_attribute(oracle_tier):
    sim = build_sim(oracle_tier)
    tracer, _ = attach_observability(sim)
    sim.step(1)
    children = build_tree(tracer.records)
    step = children[-1][0]
    phases = {c.name: c for c in children[step.sid]}
    assert phases["gather"].attrs["kernel"] == "oracle"
    assert phases["deposit"].attrs["kernel"] == "oracle"
