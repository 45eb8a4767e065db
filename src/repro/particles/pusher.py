"""Relativistic particle pushers.

Implements the two standard explicit leapfrog momentum updates used by the
codes in the paper's Table I:

* :func:`push_boris` — the Boris (1970) rotation scheme, the default
  "recipe" pusher of every production PIC code;
* :func:`push_vay` — the Vay (2008) scheme, which preserves the E x B
  drift velocity exactly for relativistic particles (important in the
  Lorentz-boosted-frame extension the paper discusses).

Momenta are the dimensionless ``u = gamma * beta``; fields are SI.  The
position update and the periodic wrap that follows it live here too.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.constants import c


def lorentz_factor(u: np.ndarray) -> np.ndarray:
    """Gamma from normalized momenta ``u`` (n, 3)."""
    return np.sqrt(1.0 + np.einsum("ij,ij->i", u, u))


def push_boris(
    u: np.ndarray,
    e_fields: np.ndarray,
    b_fields: np.ndarray,
    charge: float,
    mass: float,
    dt: float,
) -> np.ndarray:
    """Advance normalized momenta by one step with the Boris rotation.

    Half electric kick, magnetic rotation at the midpoint gamma, half
    electric kick.  Returns a new (n, 3) momentum array.
    """
    k = charge * dt / (2.0 * mass * c)
    u_minus = u + k * e_fields
    gamma_m = lorentz_factor(u_minus)
    # rotation vector t = q B dt / (2 m gamma)
    t = (charge * dt / (2.0 * mass)) * b_fields / gamma_m[:, None]
    t2 = np.einsum("ij,ij->i", t, t)
    s = 2.0 * t / (1.0 + t2)[:, None]
    u_prime = u_minus + np.cross(u_minus, t)
    u_plus = u_minus + np.cross(u_prime, s)
    return u_plus + k * e_fields


def push_vay(
    u: np.ndarray,
    e_fields: np.ndarray,
    b_fields: np.ndarray,
    charge: float,
    mass: float,
    dt: float,
) -> np.ndarray:
    """Advance normalized momenta with the Vay (2008) scheme.

    Unlike Boris, the full Lorentz force is evaluated at the half step,
    which makes the relativistic E x B drift force-free.  Returns a new
    (n, 3) momentum array.
    """
    k = charge * dt / (2.0 * mass * c)
    gamma_n = lorentz_factor(u)
    v = u * (c / gamma_n)[:, None]
    # first half push with the full Lorentz force at the known velocity
    u_half = u + k * (e_fields + np.cross(v, b_fields))
    u_prime = u_half + k * e_fields
    # dimensionless rotation vector tau = q B dt / (2 m)
    tau = (charge * dt / (2.0 * mass)) * b_fields
    tau2 = np.einsum("ij,ij->i", tau, tau)
    u_star = np.einsum("ij,ij->i", u_prime, tau)
    gamma_prime2 = 1.0 + np.einsum("ij,ij->i", u_prime, u_prime)
    sigma = gamma_prime2 - tau2
    gamma_new = np.sqrt(0.5 * (sigma + np.sqrt(sigma**2 + 4.0 * (tau2 + u_star**2))))
    t_vec = tau / gamma_new[:, None]
    s_fac = 1.0 / (1.0 + np.einsum("ij,ij->i", t_vec, t_vec))
    return s_fac[:, None] * (
        u_prime
        + np.einsum("ij,ij->i", u_prime, t_vec)[:, None] * t_vec
        + np.cross(u_prime, t_vec)
    )


#: momentum update by the ``pusher=`` name every driver accepts
PUSHERS = {"boris": push_boris, "vay": push_vay}


def push_positions(
    positions: np.ndarray, u: np.ndarray, dt: float, ndim: int
) -> np.ndarray:
    """Advance positions by ``v dt`` using only the first ``ndim`` velocity
    components (2D3V: particles keep 3 momenta but move in the plane)."""
    gamma = lorentz_factor(u)
    return positions + (u[:, :ndim] / gamma[:, None]) * (c * dt)


def wrap_positions_periodic(
    positions: np.ndarray,
    domain_lo: Sequence[float],
    domain_hi: Sequence[float],
    axes: Sequence[int],
) -> None:
    """In-place periodic wrap of positions along ``axes`` into
    ``[lo, hi)``: ``np.mod(x - lo, L) + lo``, with the ``fmod`` paid only
    by the coordinates that left the domain (for ``0 <= a < L``,
    ``fmod(a, L)`` is ``a`` exactly, so the result is bit-identical to
    wrapping every coordinate).

    The one NumPy spelling of the wrap: the composed route of
    :func:`repro.particles.advance.advance_particles` calls it, for every
    driver, and the compiled ``advance`` kernel does the same arithmetic
    per particle (``repro_wrap``).  A subcycled MR patch's members advance
    without a wrap: they are interior to their patch by construction.
    """
    for d in axes:
        length = domain_hi[d] - domain_lo[d]
        a = positions[:, d] - domain_lo[d]
        np.mod(a, length, out=a, where=(a < 0.0) | (a >= length))
        np.add(a, domain_lo[d], out=positions[:, d])
