"""Pseudo-Spectral Analytical Time-Domain (PSATD) Maxwell solver.

The last capability row of the paper's Table I: WarpX's spectral solver,
key to the boosted-frame extension because its exact vacuum dispersion
removes the numerical Cherenkov instability that plagues FDTD in flowing
plasmas (Lehe et al. 2016, paper ref. [51]).

The update integrates Maxwell's equations *analytically* over one step in
k-space, assuming J constant during the step (Haber et al. 1973):

    E+ = C E + i S k_hat x (cB) - S/(eps0 c k) J
         + (1 - C) k_hat (k_hat . E) + k_hat (k_hat . J) (S/(eps0 c k) - dt/eps0)
    cB+ = C cB - i S k_hat x E + i (1 - C)/(eps0 c k) k_hat x J

with C = cos(c k dt), S = sin(c k dt).  There is **no CFL limit** and the
vacuum dispersion relation is exact at any dt.

Yee staggering is honored spectrally: each component's half-cell offsets
are absorbed into per-component phase factors exp(-i k . s dx/2) before
the update and restored after, so the solver is a drop-in replacement for
the FDTD solver on periodic domains (the particle kernels see the same
staggered real-space data).

Galilean (comoving-current) variant
-----------------------------------
In a Lorentz-boosted frame the plasma streams almost uniformly at
``v_gal = (-beta c, 0, 0)``.  The "J constant over the step" closure is
then poor: the current pattern *advects*.  The Galilean PSATD family
(Lehe et al. 2016; WarpX's comoving-PSATD option) replaces the closure by
a uniformly advected current,

    J_hat(t) = J_hat(t_mid) * exp(-i Omega (t - t_mid)),   Omega = k . v_gal,

with ``t_mid`` the step midpoint where the leapfrog deposits J.  The grid
stays static — only the three J source coefficients change, via the
Galilean phase ``theta = exp(i Omega dt / 2)``; the homogeneous (vacuum)
propagator is *exactly* the standard PSATD one, so vacuum dispersion
stays exact.  Solving ``dE/dt = i c k x (cB)/c - J/eps0`` &c. with the
advected source (particular solution ``E_p = P J_T e^{-i Omega (t-t_mid)}``,
``P = i Omega / (eps0 (omega^2 - Omega^2))``, ``omega = c k``) gives the
transverse-E, longitudinal-E and B source coefficients computed by
:func:`galilean_coefficients`; all three reduce bitwise to the standard
coefficients as ``v_gal -> 0``.

Transform layout
----------------
The fields are real, so the transforms are real-to-complex (``rfftn`` /
``irfftn``): along the last grid axis only the ``n // 2 + 1`` non-negative
wavenumbers are stored, and every coefficient table (``k_hat``, ``cos``,
``sin``, the source coefficients, the staggering phases) is built on
that half spectrum.  For an even transform length the last-axis Nyquist
wavenumber carries the sign ``fftfreq`` gives it (negative), which is
what fixes the staggering phase of that one self-conjugate mode.

Where the update runs
---------------------
A step is nine ``np.fft.rfftn`` (E, B, J), the pointwise k-space update
and six ``np.fft.irfftn``.  With the native library built, the update is
one C call, :meth:`repro.grid.compiled.FieldBackend.psatd_update`, which
writes the new E and cB over the E and B spectra.  Without it
(``REPRO_COMPILED_BACKEND=none``, no compiler) :meth:`step` runs
:meth:`PSATDMaxwellSolver._step_numpy`, the NumPy body that is also the
entry's oracle.  The two agree to rounding, not bit for bit: NumPy's
complex products may use fused multiply-adds (see the numerics contract
of :mod:`repro.grid.compiled`).

Distributed operation (``region="full"``)
-----------------------------------------
The analytic propagator kernel in real space is quasi-local: it has
support ~``c dt`` plus tails decaying with distance.  A tile (the
rectangle of one rank's boxes) with wide guard regions can therefore FFT
its guard-padded array as if it were periodic and still produce a
correct interior update — errors enter only through the fake wrap-around
at the tile edge and decay with guard depth.  ``region="full"`` enables
this mode, with a window per axis.  Along an axis the tile spans for the
whole period (``period_axes``) there is no edge: the transform covers
the ``n`` periodic samples, as ``"valid"`` does.  Along any other it is
WarpX's local-FFT layout, the cell-centred ``n + 2g`` samples: the first
``n + 2g`` of the ``n + 1 + 2g`` array planes.  The last plane is a
guard the solver neither reads nor writes; dropping it keeps the
transform length even for even ``n`` (``n + 1 + 2g`` is odd, and prime
for common box sizes — 89 for a 64-cell box at 12 guards, 3-4x the FFT
cost of 88).  The solver skips the periodic wrap in this mode: the
caller (the distributed driver) refreshes every guard right after the
solve, from neighbours or from the tile's own periodic image.  This is
how WarpX runs PSATD under domain decomposition (11-32 guard cells in
the paper's runs vs. the 1-cell FDTD stencil halo).
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.constants import c, eps0
from repro.exceptions import ConfigurationError
from repro.grid import compiled as native_fields
from repro.grid.boundary import apply_periodic
from repro.grid.yee import FIELD_COMPONENTS, STAGGER, YeeGrid


#: the transformed arrays in the order the native update takes them
_SPECTRA = FIELD_COMPONENTS + ("Jx", "Jy", "Jz")


def galilean_coefficients(
    k_mag: np.ndarray, omega_gal: np.ndarray, dt: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Source coefficients of the Galilean (comoving-current) PSATD update.

    Parameters
    ----------
    k_mag:
        ``|k|`` table [1/m].
    omega_gal:
        ``Omega = k . v_gal`` table [rad/s].
    dt:
        Time step [s].

    Returns
    -------
    (xe_t, xe_lmt, xb):
        Complex float64 tables such that the k-space update reads::

            E+  = C E + i S k_hat x cB + xe_t J
                  + (1-C) k_hat (k_hat.E) + xe_lmt k_hat (k_hat.J)
            cB+ = C cB - i S k_hat x E + xb k_hat x J

        With ``theta = exp(i Omega dt/2)`` (the Galilean phase),
        ``P = i Omega / (eps0 (omega^2 - Omega^2))`` and
        ``Pw = i omega / (eps0 (omega^2 - Omega^2))`` the closed forms are

            xe_t   = P (theta_bar - C theta) + i S theta Pw
            xe_l   = -2 sin(Omega dt/2) / (eps0 Omega)
            xe_lmt = xe_l - xe_t
            xb     = Pw (theta_bar - C theta) + i S theta P

        ``theta_bar - C theta`` is evaluated in the cancellation-free form
        ``2 sin^2(omega dt/2) cos(Omega dt/2) - i (1+C) sin(Omega dt/2)``.
        ``omega^2 > Omega^2`` holds for every ``k != 0`` because
        ``|v_gal| < c``; the ``k = 0`` and ``Omega = 0`` limits are the
        standard PSATD coefficients ``-S/(eps0 omega)``,
        ``S/(eps0 omega) - dt/eps0`` and ``i (1-C)/(eps0 omega)`` (with
        their own ``-dt/eps0`` / ``0`` limits at ``k = 0``), so the whole
        update reduces exactly to the standard one as ``v_gal -> 0``.
    """
    k_mag = np.asarray(k_mag, dtype=np.float64)  # repro: allow(PIC007)
    om = np.asarray(omega_gal, dtype=np.float64)  # repro: allow(PIC007)
    dt = float(dt)
    nz_k = k_mag > 0
    omega = c * k_mag
    nz_o = om != 0.0
    o_safe = np.where(nz_o, om, 1.0)
    cosw = np.cos(omega * dt)
    sinw = np.sin(omega * dt)
    theta = np.exp(0.5j * om * dt)
    # theta_bar - C theta, stable for small angles (no 1 - cos cancellation)
    tmb_ct = (
        2.0 * np.sin(0.5 * omega * dt) ** 2 * np.cos(0.5 * om * dt)
        - 1j * (1.0 + cosw) * np.sin(0.5 * om * dt)
    )
    denom_safe = np.where(nz_k, eps0 * (omega**2 - om**2), 1.0)
    p_coef = np.where(nz_k, 1j * om / denom_safe, 0.0)
    pw_coef = np.where(nz_k, 1j * omega / denom_safe, 0.0)
    xe_t = p_coef * tmb_ct + 1j * sinw * theta * pw_coef
    xe_t = np.where(nz_k, xe_t, -dt / eps0)
    xe_l = np.where(nz_o, -2.0 * np.sin(0.5 * om * dt) / (eps0 * o_safe), -dt / eps0)
    xe_lmt = xe_l - xe_t
    xb = np.where(nz_k, pw_coef * tmb_ct + 1j * sinw * theta * p_coef, 0.0)
    return xe_t, xe_lmt, xb


class PSATDMaxwellSolver:
    """Spectral Maxwell solver on a fully periodic :class:`YeeGrid`.

    Parameters
    ----------
    grid:
        The grid to advance; all axes are treated as periodic.
    dt:
        Time step [s] — unconstrained by any Courant condition.
    v_galilean:
        Galilean velocity [m/s] of the comoving-current closure (scalar =
        x-velocity, or a per-axis sequence).  ``None``/zero selects the
        standard J-constant closure.  Must be finite, with ``|v| < c``.
    region:
        ``"valid"`` (default) FFTs the n unique periodic samples of the
        valid region and wraps the guards periodically afterwards — the
        monolithic mode.  ``"full"`` FFTs the ``n + 2g`` cell-centred
        window of the guard-padded array and leaves guard filling to the
        caller — the per-tile mode of the distributed driver (see module
        docstring).
    period_axes:
        With ``"full"``: the axes the grid spans for the whole period.
    """

    #: PSATD advances E and B together; the leapfrog half-pushes collapse.
    advances_together = True
    #: Guard depth the local-FFT distributed mode needs (the paper's
    #: production runs use 11-32 cells; FDTD stencils need 1).
    guard_cells = 12

    def __init__(
        self,
        grid: YeeGrid,
        dt: float,
        v_galilean: Optional[Union[float, Sequence[float]]] = None,
        region: str = "valid",
        period_axes: Sequence[int] = (),
    ) -> None:
        if grid.ndim < 1:
            raise ConfigurationError("PSATD needs at least one axis")
        if region not in ("valid", "full"):
            raise ConfigurationError(
                f"region must be 'valid' or 'full', got {region!r}"
            )
        self.grid = grid
        self.dt = float(dt)
        self.region = region
        self.v_galilean = self._normalize_velocity(v_galilean, grid.ndim)
        self.galilean = any(v != 0.0 for v in self.v_galilean)
        # explicit precision policy: coefficient tables are *built* in
        # double (cos/sin of c k dt must not lose digits at table-build
        # time) and then *stored* in the grid's real dtype, so that on a
        # float32 grid the whole spectral pipeline — FFTs, phase factors,
        # update coefficients — runs in complex64 instead of silently
        # promoting every full-grid product to complex128
        self.rdtype = grid.dtype
        self.cdtype = np.result_type(self.rdtype, np.complex64)
        g = grid.guards
        local = set() if region == "valid" else set(range(grid.ndim))
        local -= set(period_axes)
        #: samples per axis the transform covers: n (``valid``, or a
        #: ``period_axes`` axis) or the cell-centred n + 2g (``full``)
        self.fft_shape = tuple(
            n + 2 * g if d in local else n for d, n in enumerate(grid.n_cells)
        )
        #: the window of the field arrays the transform covers
        self._window = tuple(
            slice(0, n) if d in local else slice(g, g + n)
            for d, n in enumerate(self.fft_shape)
        )
        self._axes = tuple(range(grid.ndim))
        #: the native update's pointer table over the k-space tables,
        #: built on its first call (:func:`repro.grid.compiled._psatd_tables`)
        self._native_tables: Optional[tuple] = None
        # angular wavenumbers of the FFT samples, one open-mesh vector
        # per axis; the last axis keeps the rfft half spectrum, with the
        # Nyquist sign of fftfreq (not rfftfreq)
        kvec = []
        for d, n in enumerate(self.fft_shape):
            k = 2.0 * np.pi * np.fft.fftfreq(n, d=grid.dx[d])
            if d == grid.ndim - 1:
                k = k[: n // 2 + 1]
            shape = [1] * grid.ndim
            shape[d] = k.size
            kvec.append(k.reshape(shape))
        self.k_mag = np.sqrt(sum(k**2 for k in kvec))
        nz = self.k_mag > 0
        inv_k = np.where(nz, 1.0 / np.where(nz, self.k_mag, 1.0), 0.0)
        #: unit wavevector along the grid axes; it vanishes identically
        #: along the invariant axes of a 1D/2D grid, which carry no entry
        self.k_hat = [k * inv_k for k in kvec]
        theta = c * self.k_mag * self.dt
        self.cos = np.cos(theta)
        self.sin = np.sin(theta)
        # S / (eps0 c k), with the k -> 0 limit dt/eps0
        self.j_coeff = np.where(nz, self.sin * inv_k / (eps0 * c), self.dt / eps0)
        # the longitudinal-J correction (S/(eps0 c k) - dt/eps0, -> 0 as
        # k -> 0) and the B-push source coefficient (1-C)/(eps0 c k)
        self.long_corr = self.j_coeff - self.dt / eps0
        self.b_j_coeff = (1.0 - self.cos) * inv_k / (eps0 * c)
        # source coefficients of the update (galilean_coefficients'
        # notation); the standard closure is their v_gal -> 0 limit
        if self.galilean:
            # Omega = k . v_gal, and its alias: +k_N and -k_N of an
            # even-length axis are one Nyquist mode advected in opposite
            # directions.  Averaging the coefficients over the two keeps
            # the update a real operator (what taking the real part of a
            # complex transform does implicitly)
            omega = np.zeros_like(self.k_mag)
            mirror = np.zeros_like(self.k_mag)
            for k, v, n in zip(kvec, self.v_galilean, self.fft_shape):
                k_alias = k.copy()
                if n % 2 == 0:
                    k_alias.flat[n // 2] *= -1.0
                omega += k * v
                mirror += k_alias * v
            xe_t, xe_lmt, xb = galilean_coefficients(self.k_mag, omega, self.dt)
            nyquist = mirror != omega
            if nyquist.any():
                aliased = galilean_coefficients(
                    self.k_mag[nyquist], mirror[nyquist], self.dt
                )
                for table, alias in zip((xe_t, xe_lmt, xb), aliased):
                    table[nyquist] = 0.5 * (table[nyquist] + alias)
            self.xe_t = xe_t.astype(self.cdtype)
            self.xe_lmt = xe_lmt.astype(self.cdtype)
        else:
            # real, stored as x + 0i: NumPy promotes a real table to that
            # in its product with a spectrum, and the native update reads
            # both closures' tables alike
            self.xe_t = (-self.j_coeff).astype(self.cdtype)
            self.xe_lmt = self.long_corr.astype(self.cdtype)
            xb = 1j * self.b_j_coeff
        self.xb = xb.astype(self.cdtype)
        # per-component staggering phases exp(-i k . s dx / 2); B carries
        # the factor c of the update's (E, cB) variables.  |phase| = 1, so
        # undoing it is a multiplication by the conjugate
        self._phase: Dict[str, np.ndarray] = {}
        self._unphase: Dict[str, np.ndarray] = {}
        for comp in _SPECTRA:
            arg = np.zeros_like(self.k_mag)
            for d, s in enumerate(STAGGER[comp][: grid.ndim]):
                arg = arg + kvec[d] * (0.5 * s * grid.dx[d])
            phase = np.exp(-1j * arg)
            scale = c if comp[0] == "B" else 1.0
            self._phase[comp] = (scale * phase).astype(self.cdtype)
            if comp in FIELD_COMPONENTS:
                self._unphase[comp] = (phase.conj() / scale).astype(self.cdtype)
        # demote the double-built tables to the working precision
        self._isin = (1j * self.sin).astype(self.cdtype)
        self._one_minus_cos = (1.0 - self.cos).astype(self.rdtype)
        self.k_mag = self.k_mag.astype(self.rdtype)
        self.k_hat = [k.astype(self.rdtype) for k in self.k_hat]
        self.cos = self.cos.astype(self.rdtype)
        self.sin = self.sin.astype(self.rdtype)
        self.j_coeff = self.j_coeff.astype(self.rdtype)
        self.long_corr = self.long_corr.astype(self.rdtype)
        self.b_j_coeff = self.b_j_coeff.astype(self.rdtype)

    @staticmethod
    def _normalize_velocity(
        v_galilean: Optional[Union[float, Sequence[float]]], ndim: int
    ) -> Tuple[float, float, float]:
        if v_galilean is None:
            return (0.0, 0.0, 0.0)
        if np.isscalar(v_galilean):
            v = [float(v_galilean)]
        else:
            v = [float(x) for x in v_galilean]
        if len(v) > 3:
            raise ConfigurationError(
                f"v_galilean takes at most 3 components, got {len(v)}"
            )
        v = tuple(v + [0.0] * (3 - len(v)))
        if not all(math.isfinite(x) for x in v):
            # sqrt(nan) >= c is False: the speed check alone lets a NaN
            # through into every source table
            raise ConfigurationError(
                f"v_galilean components must be finite, got {v} m/s"
            )
        if math.sqrt(sum(x * x for x in v)) >= c:
            raise ConfigurationError(
                f"|v_galilean| must be < c, got {v} m/s"
            )
        for d in range(ndim, 3):
            if v[d] != 0.0:
                raise ConfigurationError(
                    f"v_galilean has a component along invariant axis {d} "
                    f"of a {ndim}D grid; it would be silently ignored"
                )
        return v

    # -- real <-> spectral ---------------------------------------------------
    def _raw_spectrum(self, component: str) -> np.ndarray:
        arr = self.grid.fields[component][self._window]
        # NumPy >= 2 transforms float32 in single precision; NumPy 1.x
        # returns complex128 whatever the input, hence the cast.  ``s`` is
        # the window's own shape: the same transform, without the
        # per-call shape lookup rfftn makes when it is not given
        return np.fft.rfftn(arr, s=self.fft_shape, axes=self._axes).astype(
            self.cdtype, copy=False
        )

    def _to_spectral(self, component: str) -> np.ndarray:
        return self._raw_spectrum(component) * self._phase[component]

    def _from_spectral(self, component: str, spec: np.ndarray) -> None:
        self._store(component, spec * self._unphase[component])

    def _store(self, component: str, unphased: np.ndarray) -> None:
        self.grid.fields[component][self._window] = np.fft.irfftn(
            unphased, s=self.fft_shape, axes=self._axes
        )
        if self.region == "valid":
            # the n-sample window skips the duplicated nodal plane
            # (arr[g+n] is the same physical point as arr[g] on a
            # periodic axis): the periodic wrap restores it per the
            # component's staggering, then fills the guards
            for axis in self._axes:
                apply_periodic(self.grid, axis, components=(component,))

    # -- the update ------------------------------------------------------------
    def _k_dot(self, a):
        """``k_hat . a`` (grid axes only: k_hat is zero along the others)."""
        out = self.k_hat[0] * a[0]
        for d in range(1, len(self.k_hat)):
            out += self.k_hat[d] * a[d]
        return out

    def _k_cross(self, a):
        """``k_hat x a``, skipping the identically-zero k_hat components."""
        nd = len(self.k_hat)
        out = []
        for i in range(3):
            j, l = (i + 1) % 3, (i + 2) % 3
            term = 0.0
            if j < nd:
                term = self.k_hat[j] * a[l]
            if l < nd:
                term = term - self.k_hat[l] * a[j]
            out.append(term)
        return out

    def step(self) -> None:
        """Advance E and B by dt (J constant — or advected, if Galilean):
        nine forward transforms, the k-space update, six inverse ones.
        The update is one native call where the library is built, else
        :meth:`_step_numpy`, its oracle."""
        native = native_fields.backend(self.rdtype)
        if native is None:
            self._step_numpy()
            return
        spectra = [self._raw_spectrum(comp) for comp in _SPECTRA]
        native.psatd_update(self, spectra)
        for comp, spec in zip(FIELD_COMPONENTS, spectra):
            self._store(comp, spec)

    def _step_numpy(self) -> None:
        """The update in NumPy: the fallback of :meth:`step` and the
        oracle of the native entry."""
        e_hat = [self._to_spectral(comp) for comp in ("Ex", "Ey", "Ez")]
        cb_hat = [self._to_spectral(comp) for comp in ("Bx", "By", "Bz")]
        j_hat = [self._to_spectral(comp) for comp in ("Jx", "Jy", "Jz")]

        cos, isin, xe_t, xb = self.cos, self._isin, self.xe_t, self.xb
        k_x_cb = self._k_cross(cb_hat)
        # the longitudinal terms share the direction k_hat ...
        longitudinal = (
            self._one_minus_cos * self._k_dot(e_hat)
            + self.xe_lmt * self._k_dot(j_hat)
        )
        # ... and the two B sources one curl:
        # -i S k_hat x E + xb k_hat x J = k_hat x (xb J - i S E)
        k_x_src = self._k_cross(
            [xb * j - isin * e for e, j in zip(e_hat, j_hat)]
        )
        for i, (e_comp, b_comp) in enumerate(
            zip(("Ex", "Ey", "Ez"), ("Bx", "By", "Bz"))
        ):
            new_e = cos * e_hat[i] + isin * k_x_cb[i] + xe_t * j_hat[i]
            if i < len(self.k_hat):
                new_e += self.k_hat[i] * longitudinal
            self._from_spectral(e_comp, new_e)
            self._from_spectral(b_comp, cos * cb_hat[i] + k_x_src[i])

    # drop-in leapfrog-interface compatibility: PSATD advances E and B
    # together, so the half-B pushes collapse into one full step
    def push_b(self, fraction: float = 1.0) -> None:  # pragma: no cover
        raise ConfigurationError(
            "PSATD advances E and B together; call step() instead"
        )

    push_e = push_b
