"""Tests for the Lorentz-boosted-frame utilities."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.constants import c, fs, um
from repro.core.boosted_frame import BoostedFrame
from repro.exceptions import ConfigurationError
from repro.laser.profiles import GaussianLaser


def test_construction():
    bf = BoostedFrame(gamma=10.0)
    assert bf.beta == pytest.approx(np.sqrt(1 - 1e-2))
    bf2 = BoostedFrame(beta=0.6)
    assert bf2.gamma == pytest.approx(1.25)
    with pytest.raises(ConfigurationError):
        BoostedFrame()
    with pytest.raises(ConfigurationError):
        BoostedFrame(gamma=2.0, beta=0.5)
    with pytest.raises(ConfigurationError):
        BoostedFrame(gamma=0.5)
    with pytest.raises(ConfigurationError):
        BoostedFrame(beta=1.0)


@settings(max_examples=50, deadline=None)
@given(
    gamma_boost=st.floats(1.0, 50.0),
    ux=st.floats(-20.0, 20.0),
    uy=st.floats(-5.0, 5.0),
    uz=st.floats(-5.0, 5.0),
)
@example(gamma_boost=48.0, ux=-16.0, uy=0.0, uz=0.0)
def test_mass_shell_invariance(gamma_boost, ux, uy, uz):
    """gamma_p^2 - |u|^2 = 1 in every frame.

    The subtraction cancels two numbers of size ``gamma_p^2``, each
    carrying a rounding error of a few ``eps * gamma_p^2``, so that —
    not ``1e-9`` of the result — is what the difference can be trusted
    to.  The pinned example (found by Hypothesis) has ``gamma_p =
    1537.33``: the invariant reads ``1 - 1.397e-9`` while ``eps *
    gamma_p^2 = 5.2e-10``.  ``BoostedFrame`` is exact to rounding there;
    the old bound, ``rel=1e-9`` alone, was the defect (400k random draws
    from these ranges stay below ``5 eps * gamma_p^2``; the bound is 16).
    """
    bf = BoostedFrame(gamma=gamma_boost)
    u = np.array([[ux, uy, uz]])
    u_prime = bf.transform_momenta(u)
    gamma_prime = bf.transform_gamma(u)
    invariant = gamma_prime[0] ** 2 - np.sum(u_prime[0] ** 2)
    cancellation = 16 * np.finfo(np.float64).eps * gamma_prime[0] ** 2
    assert invariant == pytest.approx(1.0, rel=1e-9, abs=cancellation)


def test_comoving_particle_is_at_rest():
    """A particle moving with the frame has u' = 0."""
    bf = BoostedFrame(gamma=5.0)
    u_lab = np.array([[bf.gamma * bf.beta, 0.0, 0.0]])
    u_prime = bf.transform_momenta(u_lab)
    np.testing.assert_allclose(u_prime[0], 0.0, atol=1e-12)
    assert bf.transform_gamma(u_lab)[0] == pytest.approx(1.0)


def test_static_plasma_streams_backward():
    bf = BoostedFrame(gamma=3.0)
    u_prime = bf.transform_momenta(np.zeros((1, 3)))
    assert u_prime[0, 0] == pytest.approx(-bf.gamma * bf.beta)


def test_density_and_length_transform():
    bf = BoostedFrame(gamma=4.0)
    assert bf.transform_density(1e24) == pytest.approx(4e24)
    assert bf.transform_length(1.0) == pytest.approx(0.25)
    pos = bf.transform_snapshot_positions(np.array([[8.0, 2.0]]))
    np.testing.assert_allclose(pos[0], [2.0, 2.0])


def test_laser_transform_redshift():
    bf = BoostedFrame(gamma=10.0)
    laser = GaussianLaser(0.8 * um, a0=2.0, waist=5 * um, duration=10 * fs)
    boosted = bf.transform_laser(laser)
    stretch = bf.gamma * (1 + bf.beta)
    assert boosted.wavelength == pytest.approx(0.8 * um * stretch)
    assert boosted.duration == pytest.approx(10 * fs * stretch)
    assert boosted.a0 == laser.a0
    assert boosted.waist == laser.waist
    # the photon count proxy omega' tau' is frame-invariant
    assert boosted.omega * boosted.duration == pytest.approx(
        laser.omega * laser.duration
    )


def test_scale_compression_4gamma2():
    bf = BoostedFrame(gamma=10.0)
    assert bf.scale_compression() == pytest.approx(4 * 100, rel=0.01)
    # gamma = 1: no compression
    assert BoostedFrame(gamma=1.0).scale_compression() == pytest.approx(1.0)


def test_steps_estimate_orders_of_magnitude():
    """The paper quotes 'several orders of magnitude speedups': a gamma=30
    boost on a 10 cm stage gives > 3 orders."""
    bf = BoostedFrame(gamma=30.0)
    lab, boosted = bf.steps_estimate(0.1, 0.8e-6)
    assert lab / boosted > 1.0e3
    assert lab > 1e6  # the lab-frame run really is hopeless
