"""Tests for charge/current deposition, including the charge-conservation
property test that pins down the Esirkepov scheme at every order and
dimensionality."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import c, q_e
from repro.exceptions import SanitizerError
from repro.grid.stencils import diff_backward
from repro.grid.yee import YeeGrid
from repro.particles import deposit as deposit_mod
from repro.particles.deposit import (
    _CHUNK,
    _esirkepov_shapes,
    deposit_charge,
    deposit_current_direct,
    deposit_current_esirkepov,
    esirkepov_window,
)
from repro.particles.kernels import (
    FLOAT32_ERROR_BUDGET,
    available_kernel_variants,
    get_kernel_set,
)
from tests.oracles import textbook_esirkepov


def make_grid(ndim, n=10, guards=4):
    return YeeGrid((n,) * ndim, (0.0,) * ndim, (float(n),) * ndim, guards=guards)


def total_deposited_charge(grid):
    """Integral of rho over the grid (sum * cell volume)."""
    return float(grid.fields["rho"].sum()) * float(np.prod(grid.dx))


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("ndim", [1, 2, 3])
def test_charge_deposit_conserves_total(order, ndim):
    g = make_grid(ndim)
    rng = np.random.default_rng(9)
    pos = rng.uniform(2.0, 8.0, size=(30, ndim))
    w = rng.uniform(0.5, 2.0, size=30)
    deposit_charge(g, pos, w, charge=-q_e, order=order)
    assert total_deposited_charge(g) == pytest.approx(-q_e * w.sum(), rel=1e-12)


def test_charge_deposit_single_particle_order1():
    g = make_grid(1)
    deposit_charge(g, np.array([[3.25]]), np.array([1.0]), charge=1.0, order=1)
    rho = g.fields["rho"]
    assert rho[g.guards + 3] == pytest.approx(0.75)
    assert rho[g.guards + 4] == pytest.approx(0.25)


def divergence_j(grid):
    """Backward-difference divergence of J at the nodes."""
    div = np.zeros(grid.shape)
    for d, comp in enumerate(("Jx", "Jy", "Jz")[: grid.ndim]):
        div += diff_backward(grid.fields[comp], d, grid.dx[d])
    return div


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("ndim", [1, 2, 3])
def test_esirkepov_charge_conservation(order, ndim):
    """(rho1 - rho0)/dt + div J = 0 exactly, for random sub-cell moves."""
    g = make_grid(ndim)
    rng = np.random.default_rng(10 + order + ndim)
    n = 20
    pos0 = rng.uniform(3.0, 7.0, size=(n, ndim))
    disp = rng.uniform(-0.9, 0.9, size=(n, ndim))  # < 1 cell (dx = 1)
    pos1 = pos0 + disp
    w = rng.uniform(0.5, 2.0, size=n)
    vel = rng.uniform(-0.5, 0.5, size=(n, 3)) * c
    dt = 1.0e-9
    charge = -q_e

    rho0 = make_grid(ndim)
    deposit_charge(rho0, pos0, w, charge, order)
    rho1 = make_grid(ndim)
    deposit_charge(rho1, pos1, w, charge, order)
    deposit_current_esirkepov(g, pos0, pos1, vel, w, charge, dt, order)

    drho_dt = (rho1.fields["rho"] - rho0.fields["rho"]) / dt
    residual = drho_dt + divergence_j(g)
    scale = np.max(np.abs(g.fields["Jx"])) / min(g.dx) + 1e-300
    assert np.max(np.abs(residual)) < 1e-10 * scale


@pytest.mark.parametrize("ndim", [1, 2])
def test_esirkepov_total_current_sign(ndim):
    """A positive charge moving in +x deposits net positive Jx."""
    g = make_grid(ndim)
    pos0 = np.full((1, ndim), 5.0)
    pos1 = pos0.copy()
    pos1[0, 0] += 0.4
    vel = np.zeros((1, 3))
    vel[0, 0] = 0.4 / 1e-9
    deposit_current_esirkepov(g, pos0, pos1, vel, np.array([1.0]), 2.0, 1e-9, order=1)
    assert g.fields["Jx"].sum() > 0.0
    # and the integrated current equals q * v / (transverse area):
    # sum(Jx) * dV = q * w * vx
    total = g.fields["Jx"].sum() * float(np.prod(g.dx))
    assert total == pytest.approx(2.0 * 0.4 / 1e-9, rel=1e-12)


def test_esirkepov_invariant_axis_current_2d():
    """vz in 2D deposits Jz with magnitude q w vz / cell volume."""
    g = make_grid(2)
    pos = np.full((1, 2), 5.0)
    vel = np.array([[0.0, 0.0, 3.0e7]])
    deposit_current_esirkepov(g, pos, pos, vel, np.array([2.0]), -q_e, 1e-9, order=2)
    total_jz = g.fields["Jz"].sum() * float(np.prod(g.dx))
    assert total_jz == pytest.approx(-q_e * 2.0 * 3.0e7, rel=1e-12)
    assert np.max(np.abs(g.fields["Jx"])) == 0.0


def test_esirkepov_static_particle_no_current():
    g = make_grid(2)
    pos = np.array([[4.3, 5.7]])
    vel = np.zeros((1, 3))
    deposit_current_esirkepov(g, pos, pos, vel, np.array([1.0]), q_e, 1e-9, order=3)
    for comp in ("Jx", "Jy", "Jz"):
        assert np.max(np.abs(g.fields[comp])) == 0.0


@pytest.mark.parametrize("order", [1, 3])
def test_reference_matches_vectorized(order):
    """A handful of particles against the textbook Esirkepov oracle."""
    g1 = make_grid(2)
    g2 = make_grid(2)
    rng = np.random.default_rng(11)
    n = 8
    pos0 = rng.uniform(3.0, 7.0, size=(n, 2))
    pos1 = pos0 + rng.uniform(-0.5, 0.5, size=(n, 2))
    vel = rng.normal(size=(n, 3)) * 1e7
    w = rng.uniform(0.5, 2.0, size=n)
    deposit_current_esirkepov(g1, pos0, pos1, vel, w, -q_e, 1e-9, order)
    textbook_esirkepov(g2, pos0, pos1, vel, w, -q_e, 1e-9, order)
    for comp in ("Jx", "Jy", "Jz"):
        np.testing.assert_allclose(
            g1.fields[comp], g2.fields[comp], rtol=1e-10, atol=1e-20
        )


def test_direct_deposition_total_current():
    g = make_grid(2)
    pos = np.array([[5.0, 5.0], [3.5, 6.5]])
    vel = np.array([[1.0e7, 0.0, 0.0], [0.0, -2.0e7, 0.0]])
    w = np.array([1.0, 3.0])
    deposit_current_direct(g, pos, vel, w, charge=q_e, order=2)
    jx_total = g.fields["Jx"].sum() * float(np.prod(g.dx))
    jy_total = g.fields["Jy"].sum() * float(np.prod(g.dx))
    assert jx_total == pytest.approx(q_e * 1.0e7, rel=1e-12)
    assert jy_total == pytest.approx(q_e * 3.0 * -2.0e7, rel=1e-12)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_esirkepov_wide_window_charge_conservation(order):
    """Displacements beyond one cell (subcycled MR fine grids) widen the
    stencil window; continuity must still hold exactly."""
    g = make_grid(2, guards=5)
    rng = np.random.default_rng(77)
    n = 10
    pos0 = rng.uniform(4.0, 6.0, size=(n, 2))
    pos1 = pos0 + rng.uniform(-1.9, 1.9, size=(n, 2))
    w = rng.uniform(0.5, 2.0, size=n)
    vel = np.zeros((n, 3))
    dt = 1e-9
    rho0 = make_grid(2, guards=5)
    rho1 = make_grid(2, guards=5)
    deposit_charge(rho0, pos0, w, 1.0, order)
    deposit_charge(rho1, pos1, w, 1.0, order)
    deposit_current_esirkepov(g, pos0, pos1, vel, w, 1.0, dt, order)
    residual = (rho1.fields["rho"] - rho0.fields["rho"]) / dt + divergence_j(g)
    scale = np.max(np.abs(g.fields["Jx"])) + 1e-300
    assert np.max(np.abs(residual)) < 1e-9 * scale


def test_esirkepov_insufficient_guards_raises():
    from repro.exceptions import ConfigurationError

    g = make_grid(1, guards=4)
    pos0 = np.array([[5.0]])
    pos1 = np.array([[5.0 + 3.2]])  # > 3 cells: needs a 10-point window
    with pytest.raises(ConfigurationError):
        deposit_current_esirkepov(
            g, pos0, pos1, np.zeros((1, 3)), np.ones(1), 1.0, 1e-9, order=3
        )


def test_esirkepov_empty_input_noop():
    g = make_grid(2)
    deposit_current_esirkepov(
        g,
        np.empty((0, 2)),
        np.empty((0, 2)),
        np.empty((0, 3)),
        np.empty(0),
        1.0,
        1e-9,
        order=2,
    )
    assert np.all(g.fields["Jx"] == 0.0)


@settings(max_examples=25, deadline=None)
@given(
    order=st.sampled_from([1, 2, 3]),
    x0=st.floats(3.0, 7.0),
    dxp=st.floats(-0.95, 0.95),
    w=st.floats(0.1, 10.0),
)
def test_continuity_property_1d(order, x0, dxp, w):
    """Hypothesis sweep of the 1D continuity equation."""
    g = make_grid(1)
    pos0 = np.array([[x0]])
    pos1 = np.array([[x0 + dxp]])
    vel = np.array([[dxp / 1e-9, 0.0, 0.0]])
    weights = np.array([w])
    rho0 = make_grid(1)
    rho1 = make_grid(1)
    deposit_charge(rho0, pos0, weights, 1.0, order)
    deposit_charge(rho1, pos1, weights, 1.0, order)
    deposit_current_esirkepov(g, pos0, pos1, vel, weights, 1.0, 1e-9, order)
    residual = (rho1.fields["rho"] - rho0.fields["rho"]) / 1e-9 + divergence_j(g)
    assert np.max(np.abs(residual)) < 1e-6 * (abs(w) / 1e-9)


# -- the factored kernel against a literal textbook evaluation ---------------
#
# ``vectorized`` and ``compiled`` share the factorisation (K-vectors cum / T /
# U, closed-form shapes placed in the window), so neither checks the algebra
# of the other; ``tests.oracles.textbook_esirkepov`` does.

@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("move", [0.9, 1.7, 2.6])
@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("ndim", [1, 2, 3])
def test_esirkepov_matches_textbook_and_conserves(ndim, order, move, dtype):
    rng = np.random.default_rng(1000 * ndim + 10 * order + int(10 * move))
    n = 30
    pos0 = rng.uniform(4.0, 8.0, size=(n, ndim))
    disp = rng.uniform(-move, move, size=(n, ndim))
    disp[0] = move  # the window is as wide as this move makes it
    pos1 = pos0 + disp
    w = rng.uniform(0.5, 2.0, size=n)
    vel = rng.uniform(-0.5, 0.5, size=(n, 3)) * c
    dt, charge = 1.0e-9, -q_e

    def grid(dtype=np.float64):
        return YeeGrid(
            (12,) * ndim, (0.0,) * ndim, (12.0,) * ndim, guards=6, dtype=dtype
        )

    g, book = grid(dtype), grid()
    deposit_current_esirkepov(g, pos0, pos1, vel, w, charge, dt, order)
    textbook_esirkepov(book, pos0, pos1, vel, w, charge, dt, order)
    for comp in ("Jx", "Jy", "Jz"):
        ours = g.fields[comp].astype(np.float64)
        theirs = book.fields[comp]
        assert np.max(np.abs(theirs)) > 0.0
        if dtype is np.float64:
            assert np.max(np.abs(ours - theirs)) <= 1e-12 * np.max(np.abs(theirs))
        else:
            rel_l2 = np.linalg.norm(ours - theirs) / np.linalg.norm(theirs)
            assert rel_l2 < FLOAT32_ERROR_BUDGET["deposit_current"]
    if dtype is np.float64:
        rho0, rho1 = grid(), grid()
        deposit_charge(rho0, pos0, w, charge, order)
        deposit_charge(rho1, pos1, w, charge, order)
        drho_dt = (rho1.fields["rho"] - rho0.fields["rho"]) / dt
        residual = drho_dt + divergence_j(g)
        assert np.max(np.abs(residual)) <= 1e-12 * np.max(np.abs(drho_dt))


@pytest.mark.parametrize("n", [_CHUNK - 1, _CHUNK + 1, 2 * _CHUNK + 3])
def test_esirkepov_equal_pieces_match_one_piece(monkeypatch, n):
    """``n`` just past a multiple of ``_CHUNK`` is cut into equal pieces,
    not into full chunks plus a few-particle remainder; the cut only
    reassociates the histogram sums."""
    rng = np.random.default_rng(n)
    pos0 = rng.uniform(2.0, 8.0, size=(n, 2))
    pos1 = pos0 + rng.uniform(-0.9, 0.9, size=(n, 2))
    w = rng.uniform(0.5, 2.0, size=n)
    vel = rng.uniform(-0.5, 0.5, size=(n, 3)) * c
    sizes = []
    real = deposit_mod._address_span

    def spy(base, *args):
        sizes.append(base[0].size)
        return real(base, *args)

    monkeypatch.setattr(deposit_mod, "_address_span", spy)
    cut = make_grid(2)
    deposit_current_esirkepov(cut, pos0, pos1, vel, w, -q_e, 1e-9, 2)
    pieces = -(-n // _CHUNK)
    assert len(sizes) == pieces and max(sizes) - min(sizes) <= 1
    monkeypatch.setattr(deposit_mod, "_CHUNK", 10 * _CHUNK)
    whole = make_grid(2)
    deposit_current_esirkepov(whole, pos0, pos1, vel, w, -q_e, 1e-9, 2)
    for comp in ("Jx", "Jy", "Jz"):
        scale = np.max(np.abs(whole.fields[comp]))
        assert np.max(np.abs(cut.fields[comp] - whole.fields[comp])) <= 1e-13 * scale


def test_shape_that_does_not_fit_its_window_is_san005():
    """The public deposit sizes its window from the data, so only the
    placement step itself can be handed a window sized for a 0.9-cell move
    and a particle that moved 1.6 cells: an error, never a truncation."""
    x0 = np.array([5.2, 6.4, 7.45])
    x1 = x0 + np.array([0.9, -0.3, 1.6])
    for order in (1, 2, 3):
        window = esirkepov_window(order, 0.9)
        _esirkepov_shapes(x0[:2], x1[:2], order, window)
        with pytest.raises(
            SanitizerError, match="SAN005.*deposit_current_esirkepov for J"
        ):
            _esirkepov_shapes(x0, x1, order, window)


@pytest.mark.parametrize("tier", ["vectorized", "compiled"])
@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_displacement_is_san005_on_every_axis(tier, axis, bad):
    """Sizing the Esirkepov window meets the NaN / infinite position first;
    whichever axis holds it, that is SAN005 naming particle and axis, on
    both tiers, before anything is deposited."""
    if tier not in available_kernel_variants():
        pytest.skip(f"{tier} tier unavailable on this machine")
    g = make_grid(2, n=16)
    pos = np.full((3, 2), 8.0)
    pos[1, axis] = bad
    with pytest.raises(
        SanitizerError, match=f"SAN005.*particle 1 on axis {axis}"
    ):
        get_kernel_set(tier).deposit_current(
            g, pos, pos + 0.25, np.zeros((3, 3)), np.ones(3), -q_e, 1e-9, 3
        )
    for comp in ("Jx", "Jy", "Jz"):
        assert not g.fields[comp].any()
