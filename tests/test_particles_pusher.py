"""Physics tests for the Boris and Vay pushers."""

import numpy as np
import pytest

from repro.constants import c, m_e, q_e
from repro.particles.pusher import (
    lorentz_factor,
    push_boris,
    push_positions,
    push_vay,
    wrap_positions_periodic,
)

Q = -q_e  # electron
M = m_e


def test_lorentz_factor():
    u = np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 4.0]])
    np.testing.assert_allclose(lorentz_factor(u), [1.0, np.sqrt(26.0)])


@pytest.mark.parametrize("push", [push_boris, push_vay])
def test_pure_e_acceleration(push):
    """Constant E accelerates along E: du/dt = qE/(mc)."""
    e = np.array([[1.0e6, 0.0, 0.0]])
    b = np.zeros((1, 3))
    dt = 1.0e-12
    u = np.zeros((1, 3))
    steps = 100
    for _ in range(steps):
        u = push(u, e, b, Q, M, dt)
    expected = Q * e[0, 0] * steps * dt / (M * c)
    assert u[0, 0] == pytest.approx(expected, rel=1e-9)
    assert abs(u[0, 1]) < 1e-15 and abs(u[0, 2]) < 1e-15


@pytest.mark.parametrize("push", [push_boris, push_vay])
def test_magnetic_field_preserves_energy(push):
    """A pure magnetic field cannot change |u|."""
    rng = np.random.default_rng(3)
    u = rng.normal(size=(20, 3))
    b = np.tile([0.0, 0.0, 5.0], (20, 1))
    e = np.zeros((20, 3))
    u0_mag = np.linalg.norm(u, axis=1)
    for _ in range(50):
        u = push(u, e, b, Q, M, dt=1e-13)
    np.testing.assert_allclose(np.linalg.norm(u, axis=1), u0_mag, rtol=1e-12)


def test_boris_gyration_frequency():
    """Circular orbit at omega_c = qB/(gamma m), radius r = u c / omega_c / gamma...

    Track one gyro-period and verify the particle returns to its start."""
    b0 = 1.0  # tesla
    u0 = 0.5
    gamma = np.sqrt(1.0 + u0**2)
    omega_c = q_e * b0 / (gamma * M)
    period = 2 * np.pi / omega_c
    steps = 2000
    dt = period / steps
    u = np.array([[u0, 0.0, 0.0]])
    pos = np.zeros((1, 3))
    b = np.array([[0.0, 0.0, b0]])
    e = np.zeros((1, 3))
    for _ in range(steps):
        u = push_boris(u, e, b, Q, M, dt)
        pos = push_positions(pos, u, dt, ndim=3)
    # after one period the particle is back (Boris phase error ~ (w dt)^2/12)
    gyro_radius = u0 * c / (omega_c * gamma)
    assert np.linalg.norm(pos[0]) < 0.01 * gyro_radius


@pytest.mark.parametrize("push", [push_boris, push_vay])
def test_exb_drift_velocity(push):
    """Crossed E x B fields: drift at v_d = E/B (non-relativistic check)."""
    e_mag, b_mag = 1.0e4, 1.0
    v_d = e_mag / b_mag  # 1e4 m/s << c
    e = np.array([[0.0, e_mag, 0.0]])
    b = np.array([[0.0, 0.0, b_mag]])
    # start at the drift velocity: motion should remain a pure drift
    u = np.array([[v_d / c, 0.0, 0.0]])
    dt = 1e-12
    us = []
    for _ in range(200):
        u = push(u, e, b, Q, M, dt)
        us.append(u[0].copy())
    us = np.array(us)
    # Vay preserves the drift exactly; Boris wobbles but averages to it
    mean_vx = np.mean(us[:, 0]) * c
    assert mean_vx == pytest.approx(v_d, rel=2e-2)


def test_vay_relativistic_exb_forcefree():
    """The Vay pusher keeps a relativistic E x B drift exactly force-free
    (the property Boris lacks, per Vay 2008)."""
    b_mag = 1.0
    beta_d = 0.9
    e_mag = beta_d * c * b_mag
    gamma_d = 1.0 / np.sqrt(1.0 - beta_d**2)
    u = np.array([[gamma_d * beta_d, 0.0, 0.0]])
    e = np.array([[0.0, e_mag, 0.0]])
    b = np.array([[0.0, 0.0, b_mag]])
    dt = 1e-11
    u_vay = u.copy()
    for _ in range(100):
        u_vay = push_vay(u_vay, e, b, Q, M, dt)
    np.testing.assert_allclose(u_vay[0, 0], gamma_d * beta_d, rtol=1e-9)
    assert abs(u_vay[0, 1]) < 1e-9 * gamma_d * beta_d


@pytest.mark.parametrize("push", [push_boris, push_vay])
def test_zero_fields_free_streaming(push):
    u = np.array([[1.0, -2.0, 0.5]])
    out = push(u, np.zeros((1, 3)), np.zeros((1, 3)), Q, M, 1e-12)
    np.testing.assert_allclose(out, u, rtol=1e-14)


def test_push_positions_2d3v():
    """In 2D only the first two velocity components move the particle."""
    u = np.array([[0.6, 0.8, 100.0]])
    pos = np.zeros((1, 2))
    dt = 1.0
    out = push_positions(pos, u, dt, ndim=2)
    gamma = lorentz_factor(u)[0]
    np.testing.assert_allclose(out[0], [0.6 * c / gamma, 0.8 * c / gamma])


def test_boris_vay_agree_weakly_relativistic():
    rng = np.random.default_rng(4)
    u = 0.01 * rng.normal(size=(10, 3))
    e = 1e3 * rng.normal(size=(10, 3))
    b = 0.1 * rng.normal(size=(10, 3))
    dt = 1e-13
    ub = push_boris(u, e, b, Q, M, dt)
    uv = push_vay(u, e, b, Q, M, dt)
    np.testing.assert_allclose(ub, uv, atol=1e-9)


def test_wrap_positions_periodic_is_bit_identical_to_wrapping_everything():
    """``fmod`` only where a coordinate left ``[lo, hi)``; the result is
    the ``np.mod(x - lo, L) + lo`` of every coordinate, bit for bit."""
    rng = np.random.default_rng(11)
    lo, hi = (-3.0, 0.0, 2.5e-6), (9.0, 7.0, 9.5e-6)
    span = np.subtract(hi, lo)
    pos = lo + span * rng.uniform(-2.5, 3.5, size=(4000, 3))
    pos[:5] = [lo, hi, np.add(lo, span * 1e-17), np.subtract(lo, span * 1e-17),
               np.add(lo, 3 * span)]
    want = pos.copy()
    for d in (0, 2):
        want[:, d] = np.mod(pos[:, d] - lo[d], hi[d] - lo[d]) + lo[d]
    wrap_positions_periodic(pos, lo, hi, axes=(0, 2))
    assert np.array_equal(pos, want)  # axis 1 untouched
    assert np.all(pos[:, 0] >= lo[0]) and np.all(pos[:, 0] <= hi[0])
