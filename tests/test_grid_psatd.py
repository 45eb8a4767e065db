"""Tests for the PSATD spectral Maxwell solver."""

import numpy as np
import pytest

from repro.constants import c, eps0
from repro.exceptions import ConfigurationError
from repro.grid.boundary import apply_periodic
from repro.grid.maxwell import MaxwellSolver, cfl_dt
from repro.grid.psatd import PSATDMaxwellSolver, galilean_coefficients
from repro.grid.yee import FIELD_COMPONENTS, STAGGER, YeeGrid


def plane_wave_grid(n=32, wavelengths=4):
    length = 1.0
    g = YeeGrid((n,), (0.0,), (length,), guards=2)
    k = 2 * np.pi * wavelengths / length
    x_e = g.axis_coords(0, "Ey")
    x_b = g.axis_coords(0, "Bz")
    g.interior_view("Ey")[...] = np.sin(k * x_e)
    g.interior_view("Bz")[...] = np.sin(k * x_b) / c
    apply_periodic(g, 0)
    return g, k


def test_vacuum_plane_wave_exact_dispersion():
    """PSATD advects a periodic plane wave at exactly c — even at only 8
    points per wavelength and a time step far beyond the FDTD CFL."""
    g, k = plane_wave_grid(n=32, wavelengths=4)
    dt = 3.0 * cfl_dt(g.dx)  # super-CFL: illegal for FDTD
    solver = PSATDMaxwellSolver(g, dt)
    steps = 40
    for _ in range(steps):
        solver.step()
    shift = c * steps * dt
    x_e = g.axis_coords(0, "Ey")
    expected = np.sin(k * (x_e - shift))
    np.testing.assert_allclose(g.interior_view("Ey"), expected, atol=1e-10)


def test_psatd_beats_fdtd_dispersion():
    """At coarse resolution the FDTD wave lags; the PSATD wave does not."""

    def run(solver_cls, **kw):
        g, k = plane_wave_grid(n=24, wavelengths=3)
        dt = cfl_dt(g.dx, 0.9)
        solver = solver_cls(g, dt, **kw)
        steps = 120
        for _ in range(steps):
            if solver_cls is MaxwellSolver:
                apply_periodic(g, 0)
            solver.step()
        shift = c * steps * dt
        x_e = g.axis_coords(0, "Ey")
        expected = np.sin(k * (x_e - shift))
        return np.max(np.abs(g.interior_view("Ey") - expected))

    err_fdtd = run(MaxwellSolver)
    err_psatd = run(PSATDMaxwellSolver)
    assert err_psatd < 1e-9
    assert err_fdtd > 100 * err_psatd


def test_energy_conserved_exactly_in_vacuum():
    g, _ = plane_wave_grid(n=32)
    solver = PSATDMaxwellSolver(g, dt=2.0 * cfl_dt(g.dx))
    e0 = g.field_energy()
    for _ in range(100):
        solver.step()
    assert g.field_energy() == pytest.approx(e0, rel=1e-12)


def test_uniform_current_drives_e_like_fdtd():
    """The k=0 mode reduces to dE/dt = -J/eps0 exactly."""
    g = YeeGrid((16,), (0.0,), (16.0,), guards=2)
    dt = 1e-10
    solver = PSATDMaxwellSolver(g, dt)
    g.Jy[...] = 3.0
    solver.step()
    np.testing.assert_allclose(
        g.interior_view("Ey"), -3.0 * dt / eps0, rtol=1e-12
    )


def test_2d_pulse_isotropic():
    n = 32
    g = YeeGrid((n, n), (0, 0), (1.0, 1.0), guards=2)
    x = g.axis_coords(0, "Ez")
    y = g.axis_coords(1, "Ez")
    r2 = (x[:, None] - 0.5) ** 2 + (y[None, :] - 0.5) ** 2
    g.interior_view("Ez")[...] = np.exp(-r2 / 0.005)
    apply_periodic(g, 0)
    apply_periodic(g, 1)
    solver = PSATDMaxwellSolver(g, cfl_dt(g.dx, 0.9))
    for _ in range(15):
        solver.step()
    ez = g.interior_view("Ez")
    np.testing.assert_allclose(ez, ez.T, atol=1e-12)
    np.testing.assert_allclose(ez, ez[::-1, :], atol=1e-9)


def test_static_field_is_steady():
    g = YeeGrid((16, 16), (0, 0), (1, 1), guards=2)
    g.Bz[...] = 2.0
    solver = PSATDMaxwellSolver(g, dt=1e-9)
    for _ in range(10):
        solver.step()
    np.testing.assert_allclose(g.interior_view("Bz"), 2.0, rtol=1e-12)


def test_half_push_interface_rejected():
    g = YeeGrid((8,), (0.0,), (1.0,), guards=2)
    solver = PSATDMaxwellSolver(g, dt=1e-10)
    with pytest.raises(ConfigurationError):
        solver.push_b(0.5)


def test_langmuir_with_psatd():
    """Full PIC with the spectral solver: the plasma oscillates at
    omega_pe, demonstrating the drop-in compatibility with the particle
    kernels on the staggered layout."""
    from repro.constants import m_e, plasma_frequency, plasma_wavelength, q_e
    from repro.core.simulation import Simulation
    from repro.particles.injection import UniformProfile
    from repro.particles.species import Species

    n0 = 1e24
    length = plasma_wavelength(n0)
    g = YeeGrid((64,), (0.0,), (length,), guards=4)
    sim = Simulation(g, shape_order=2, smoothing_passes=0,
                     maxwell_solver="psatd")
    e = Species("e", charge=-q_e, mass=m_e, ndim=1)
    sim.add_species(e, profile=UniformProfile(n0), ppc=16)
    k = 2 * np.pi / length
    e.momenta[:, 0] = 1e-3 * np.sin(k * e.positions[:, 0])
    steps = 500
    hist = np.empty(steps)
    for i in range(steps):
        sim.step()
        hist[i] = g.fields["Ex"][g.guards + 16]
    spec = np.abs(np.fft.rfft(hist - hist.mean()))
    freqs = np.fft.rfftfreq(steps, d=sim.dt) * 2 * np.pi
    omega = freqs[np.argmax(spec)]
    assert omega == pytest.approx(plasma_frequency(n0), rel=0.1)


# -- hot-loop hoisting (per-step recompute bugfix) ---------------------------


def test_hot_loop_tables_hoisted_into_init():
    """``long_corr`` and ``b_j_coeff`` used to be rebuilt inside step()
    every step (in float64, whatever the grid precision); they must now be
    construction-time tables stored at the grid's working precision."""
    for dtype, expect in ((np.float64, np.float64), (np.float32, np.float32)):
        g = YeeGrid((16,), (0.0,), (1.0,), guards=2, dtype=dtype)
        solver = PSATDMaxwellSolver(g, dt=1e-10)
        assert solver.long_corr.dtype == np.dtype(expect)
        assert solver.b_j_coeff.dtype == np.dtype(expect)
        # double-built values, demoted: the k -> 0 element vanishes exactly
        k0 = tuple(0 for _ in range(g.ndim))
        assert solver.long_corr[k0] == 0.0
        assert solver.b_j_coeff[k0] == 0.0


def test_float32_pipeline_stays_complex64():
    """Mixed-precision regression: on a float32 grid every spectral table
    is float32/complex64 and a step keeps the fields float32 — no silent
    promotion through per-step float64 rebuilds."""
    g = YeeGrid((32,), (0.0,), (1.0,), guards=2, dtype=np.float32)
    g.interior_view("Ey")[...] = 1.0
    apply_periodic(g, 0)
    solver = PSATDMaxwellSolver(g, dt=1e-10, v_galilean=0.3 * c)
    for table in (solver.cos, solver.sin, solver.j_coeff,
                  solver.long_corr, solver.b_j_coeff, solver.k_mag):
        assert table.dtype == np.float32
    for table in (solver.xe_t, solver.xe_lmt, solver.xb):
        assert table.dtype == np.complex64
    for phase in solver._phase.values():
        assert phase.dtype == np.complex64
    solver.step()
    for comp in FIELD_COMPONENTS:
        assert g.fields[comp].dtype == np.float32


# -- spectral window staggering (nodal-plane bugfix) -------------------------


def test_spectral_round_trip_restores_nodal_plane():
    """``_from_spectral`` writes the n unique periodic samples; the
    duplicated nodal plane ``arr[g+n]`` (same physical point as
    ``arr[g]``) must be restored per the component's staggering — it used
    to be left stale."""
    rng = np.random.default_rng(7)
    g = YeeGrid((12, 8), (0.0, 0.0), (1.0, 1.0), guards=3)
    solver = PSATDMaxwellSolver(g, dt=1e-10)
    gd = g.guards
    for comp in FIELD_COMPONENTS:
        arr = g.fields[comp]
        arr[...] = 0.0
        g.interior_view(comp)[...] = rng.standard_normal(
            g.interior_view(comp).shape
        )
        for axis in range(g.ndim):
            apply_periodic(g, axis, components=[comp])
        before = g.interior_view(comp).copy()
        # corrupt every duplicated nodal plane, then round-trip
        for d, n in enumerate(g.n_cells):
            if STAGGER[comp][d] == 0:
                sl = [slice(None)] * g.ndim
                sl[d] = slice(gd + n, gd + n + 1)
                arr[tuple(sl)] = 1e6
        solver._from_spectral(comp, solver._to_spectral(comp))
        np.testing.assert_allclose(
            g.interior_view(comp), before, atol=1e-12
        )
        for d, n in enumerate(g.n_cells):
            if STAGGER[comp][d] == 0:
                lo = [slice(None)] * g.ndim
                hi = [slice(None)] * g.ndim
                lo[d] = slice(gd, gd + 1)
                hi[d] = slice(gd + n, gd + n + 1)
                np.testing.assert_array_equal(
                    arr[tuple(hi)], arr[tuple(lo)]
                )


# -- capability-flag dispatch (string special-case bugfix) -------------------


def test_solver_capability_flags():
    from repro.grid.pml import PMLMaxwellSolver

    assert PSATDMaxwellSolver.advances_together is True
    assert MaxwellSolver.advances_together is False
    assert PMLMaxwellSolver.advances_together is False
    assert PSATDMaxwellSolver.guard_cells > MaxwellSolver.guard_cells == 1
    assert PMLMaxwellSolver.guard_cells == 1


def test_advance_fields_dispatches_on_solver_capability():
    """The step driver must dispatch on ``solver.advances_together``, not
    on the ``maxwell_solver`` config string: with the string check, any
    consumer holding a PSATD solver under a different label fell into the
    split push_b path, which raises mid-step."""
    from repro.core.simulation import Simulation

    g = YeeGrid((16,), (0.0,), (1.0,), guards=4)
    sim = Simulation(g, smoothing_passes=0, maxwell_solver="psatd")
    sim.maxwell_solver = "not-the-dispatch-key"
    sim.step()  # used to raise ConfigurationError via push_b


def test_mr_rejects_psatd_with_clear_error():
    from repro.core.simulation import Simulation

    g = YeeGrid((16,), (0.0,), (1.0,), guards=4)
    sim = Simulation(g, smoothing_passes=0, maxwell_solver="psatd")
    with pytest.raises(ConfigurationError, match="spectral"):
        sim.add_patch((4,), (12,))


def test_v_galilean_requires_psatd():
    from repro.core.simulation import Simulation

    g = YeeGrid((16,), (0.0,), (1.0,), guards=4)
    with pytest.raises(ConfigurationError, match="psatd"):
        Simulation(g, maxwell_solver="yee", v_galilean=(0.1 * c, 0.0, 0.0))


# -- Galilean (comoving-current) variant -------------------------------------


def test_galilean_config_validation():
    g = YeeGrid((16,), (0.0,), (1.0,), guards=2)
    with pytest.raises(ConfigurationError, match="< c"):
        PSATDMaxwellSolver(g, dt=1e-10, v_galilean=c)
    with pytest.raises(ConfigurationError, match="invariant axis"):
        PSATDMaxwellSolver(g, dt=1e-10, v_galilean=(0.0, 0.1 * c, 0.0))
    with pytest.raises(ConfigurationError, match="region"):
        PSATDMaxwellSolver(g, dt=1e-10, region="interior")


def test_galilean_tables_reduce_to_standard():
    """As v_gal -> 0 every Galilean coefficient reduces to its standard
    PSATD counterpart (same k=0 limits included)."""
    g = YeeGrid((32,), (0.0,), (3.2e-5,), guards=2)
    dt = 2.0 * cfl_dt(g.dx)
    std = PSATDMaxwellSolver(g, dt)
    xe_t, xe_lmt, xb = galilean_coefficients(
        std.k_mag.astype(np.float64), np.zeros(std.k_mag.shape), dt
    )
    np.testing.assert_allclose(xe_t, -std.j_coeff, rtol=1e-12, atol=1e-30)
    np.testing.assert_allclose(xe_lmt, std.long_corr, rtol=1e-10, atol=1e-25)
    np.testing.assert_allclose(xb, 1j * std.b_j_coeff, rtol=1e-10, atol=1e-25)


def test_galilean_vacuum_dispersion_unchanged():
    """The Galilean scheme only modifies the *source* coefficients: with
    J = 0 the propagator is the standard PSATD one, so a vacuum plane
    wave still advects at exactly c (the analytic vacuum relation
    omega = c k) even with a large v_gal.  This is the guard against the
    classic mistake of multiplying the old fields by the Galilean phase,
    which would shift the vacuum dispersion."""
    g, k = plane_wave_grid(n=32, wavelengths=4)
    dt = 3.0 * cfl_dt(g.dx)
    solver = PSATDMaxwellSolver(g, dt, v_galilean=-0.6 * c)
    steps = 40
    for _ in range(steps):
        solver.step()
    shift = c * steps * dt
    x_e = g.axis_coords(0, "Ey")
    expected = np.sin(k * (x_e - shift))
    np.testing.assert_allclose(g.interior_view("Ey"), expected, atol=1e-10)


def test_galilean_advected_current_exact():
    """The defining property of the comoving-current closure: a current
    that really is uniformly advected at v_gal is integrated *exactly*,
    at any dt.  Longitudinal 1D case with the analytic oracle

        Ex(x, t) = -J0/(eps0 k v) [sin(k x) - sin(k (x - v t))],

    with J re-imposed analytically at each step midpoint."""
    n = 48
    length = 4.8e-5
    g = YeeGrid((n,), (0.0,), (length,), guards=2)
    v = -0.6 * c
    k = 2 * np.pi * 3 / length
    j0 = 1.0e7
    dt = 2.7 * cfl_dt(g.dx)  # far beyond the FDTD limit
    solver = PSATDMaxwellSolver(g, dt, v_galilean=v)
    x_j = g.axis_coords(0, "Jx")
    steps = 25
    for m in range(steps):
        t_mid = (m + 0.5) * dt
        g.interior_view("Jx")[...] = j0 * np.cos(k * (x_j - v * t_mid))
        solver.step()
    t_end = steps * dt
    x_e = g.axis_coords(0, "Ex")
    expected = -j0 / (eps0 * k * v) * (
        np.sin(k * x_e) - np.sin(k * (x_e - v * t_end))
    )
    scale = np.max(np.abs(expected))
    np.testing.assert_allclose(
        g.interior_view("Ex"), expected, atol=1e-9 * scale
    )
    # nothing leaks into the transverse fields
    assert np.max(np.abs(g.interior_view("Ey"))) == 0.0
    assert np.max(np.abs(g.interior_view("Bz"))) == 0.0


def test_standard_closure_is_not_exact_for_advected_current():
    """Contrast for the test above: the J-constant closure accumulates an
    O((Omega dt)^2) error per step on the same advected current — the
    error the Galilean scheme exists to remove."""
    n = 48
    length = 4.8e-5
    g = YeeGrid((n,), (0.0,), (length,), guards=2)
    v = -0.6 * c
    k = 2 * np.pi * 3 / length
    j0 = 1.0e7
    dt = 2.7 * cfl_dt(g.dx)
    solver = PSATDMaxwellSolver(g, dt)  # standard closure
    x_j = g.axis_coords(0, "Jx")
    steps = 25
    for m in range(steps):
        t_mid = (m + 0.5) * dt
        g.interior_view("Jx")[...] = j0 * np.cos(k * (x_j - v * t_mid))
        solver.step()
    t_end = steps * dt
    x_e = g.axis_coords(0, "Ex")
    expected = -j0 / (eps0 * k * v) * (
        np.sin(k * x_e) - np.sin(k * (x_e - v * t_end))
    )
    scale = np.max(np.abs(expected))
    err = np.max(np.abs(g.interior_view("Ex") - expected))
    assert err > 1e-4 * scale


def test_boosted_frame_galilean_velocity():
    from repro.core.boosted_frame import BoostedFrame

    f = BoostedFrame(gamma=2.0)
    v = f.galilean_velocity()
    assert v[1] == v[2] == 0.0
    assert v[0] == pytest.approx(-f.beta * c)
    # usable as a solver argument
    g = YeeGrid((16,), (0.0,), (1.0,), guards=2)
    solver = PSATDMaxwellSolver(g, dt=1e-10, v_galilean=v)
    assert solver.galilean


# -- real-to-complex transform layer vs a complex-FFT oracle -----------------


def reference_step(grid, dt, v_gal, region):
    """One PSATD step spelled with full complex transforms in float64:
    the module docstring's update, nothing hoisted, merged or halved.
    Returns the transform window and the new E/B samples inside it."""
    g = grid.guards
    pad, first = (2 * g, 0) if region == "full" else (0, g)
    shape = tuple(n + pad for n in grid.n_cells)
    window = tuple(slice(first, first + n) for n in shape)
    kvec = list(np.meshgrid(
        *[2 * np.pi * np.fft.fftfreq(n, d=dx) for n, dx in zip(shape, grid.dx)],
        indexing="ij",
    )) + [np.zeros(shape)] * (3 - grid.ndim)
    k_mag = np.sqrt(sum(k**2 for k in kvec))
    k_hat = [np.divide(k, k_mag, out=np.zeros(shape), where=k_mag > 0)
             for k in kvec]
    cos, sin = np.cos(c * k_mag * dt), np.sin(c * k_mag * dt)
    xe_t, xe_lmt, xb = galilean_coefficients(
        k_mag, sum(k * v for k, v in zip(kvec, v_gal)), dt
    )
    phase = {
        comp: np.exp(-0.5j * sum(
            kvec[d] * STAGGER[comp][d] * grid.dx[d] for d in range(grid.ndim)
        ))
        for comp in FIELD_COMPONENTS + ("Jx", "Jy", "Jz")
    }

    def hat(prefix, scale=1.0):
        return [
            scale * phase[prefix + x] * np.fft.fftn(
                grid.fields[prefix + x][window].astype(np.float64)
            )
            for x in "xyz"
        ]

    def cross(a, b):
        return [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
                a[0] * b[1] - a[1] * b[0]]

    def dot(a, b):
        return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]

    e, cb, j = hat("E"), hat("B", c), hat("J")
    k_x_cb, k_x_e, k_x_j = cross(k_hat, cb), cross(k_hat, e), cross(k_hat, j)
    out = {}
    for i, x in enumerate("xyz"):
        new_e = (cos * e[i] + 1j * sin * k_x_cb[i] + xe_t * j[i]
                 + (1.0 - cos) * k_hat[i] * dot(k_hat, e)
                 + xe_lmt * k_hat[i] * dot(k_hat, j))
        new_cb = cos * cb[i] - 1j * sin * k_x_e[i] + xb * k_x_j[i]
        out["E" + x] = np.fft.ifftn(new_e / phase["E" + x]).real
        out["B" + x] = np.fft.ifftn(new_cb / phase["B" + x]).real / c
    return window, out


def oracle_mismatch(n_cells, galilean, region, dtype=np.float64):
    """Worst relative deviation of one production step from the oracle on
    white-noise E, B and J (full Nyquist content on every axis)."""
    rng = np.random.default_rng(11)
    nd = len(n_cells)
    grid = YeeGrid(n_cells, (0.0,) * nd, tuple(1e-6 * n for n in n_cells),
                   guards=3, dtype=dtype)
    scales = {"E": 1e9, "B": 1e9 / c, "J": 1e9 * eps0 * c / 1e-6, "r": 1.0}
    for name, arr in grid.fields.items():
        arr[...] = scales[name[0]] * rng.standard_normal(arr.shape)
    dt = 2.3e-6 / c  # 2.3 cells per step: far beyond the FDTD limit
    v_gal = (-0.6 * c, 0.3 * c, 0.2 * c)[:nd] if galilean else (0.0,) * nd
    window, want = reference_step(grid, dt, v_gal, region)
    solver = PSATDMaxwellSolver(
        grid, dt, v_galilean=v_gal if galilean else None, region=region
    )
    solver.step()
    for comp in FIELD_COMPONENTS:
        assert grid.fields[comp].dtype == dtype
    return max(
        np.max(np.abs(grid.fields[comp][window] - ref)) / np.max(np.abs(ref))
        for comp, ref in want.items()
    )


#: {1D, 2D, 3D} x {even, odd, mixed} transform lengths (n, and n + 2g in
#: the full region, share their parity)
ORACLE_SHAPES = [(16,), (15,), (12, 10), (11, 9), (12, 9), (11, 10),
                 (8, 6, 6), (7, 5, 5), (8, 6, 5), (7, 6, 6)]


@pytest.mark.parametrize("region", ["valid", "full"])
@pytest.mark.parametrize("galilean", [False, True], ids=["standard", "galilean"])
@pytest.mark.parametrize("n_cells", ORACLE_SHAPES, ids=str)
def test_step_matches_complex_fft_oracle(n_cells, galilean, region):
    """The half-spectrum tables, the Nyquist sign convention and the
    merged/hoisted terms of step() reproduce the textbook complex-FFT
    update to rounding."""
    assert oracle_mismatch(n_cells, galilean, region) < 1e-12


@pytest.mark.parametrize("numpy1_fft", [False, True])
def test_float32_step_matches_oracle_within_single_precision(
    monkeypatch, numpy1_fft
):
    """complex64 tables in, float32 fields out, within a few ulp of the
    float64 oracle — also when ``np.fft`` hands back double precision
    whatever its input, as NumPy 1.x does."""
    if numpy1_fft:
        rfftn, irfftn = np.fft.rfftn, np.fft.irfftn
        monkeypatch.setattr(
            np.fft, "rfftn",
            lambda a, **kw: rfftn(a, **kw).astype(np.complex128),
        )
        monkeypatch.setattr(
            np.fft, "irfftn",
            lambda a, **kw: irfftn(a, **kw).astype(np.float64),
        )
    budget = 32 * np.finfo(np.float32).eps
    for region in ("valid", "full"):
        assert oracle_mismatch((12, 10), True, region, np.float32) < budget


def test_full_region_transforms_the_cell_centred_window():
    """region="full": the transform covers the first n + 2g of the
    n + 1 + 2g planes per axis, and the plane left out is neither read
    nor written."""
    rng = np.random.default_rng(5)
    grids = []
    for _ in range(2):
        g = YeeGrid((10, 8), (0.0, 0.0), (1e-5, 8e-6), guards=4)
        for arr in g.fields.values():
            arr[...] = rng.standard_normal(arr.shape)
        grids.append(g)
    for name, arr in grids[1].fields.items():
        arr[...] = grids[0].fields[name]
        arr[-1, :] = 1e30
        arr[:, -1] = -1e30
    for g in grids:
        solver = PSATDMaxwellSolver(g, dt=2e-6 / c, region="full")
        assert solver.fft_shape == (18, 16)
        assert g.shape == (19, 17)
        solver.step()
    for comp in FIELD_COMPONENTS:
        poisoned = grids[1].fields[comp]
        assert np.all(poisoned[-1, :-1] == 1e30)
        assert np.all(poisoned[:, -1] == -1e30)
        np.testing.assert_array_equal(
            poisoned[:-1, :-1], grids[0].fields[comp][:-1, :-1]
        )
    valid = PSATDMaxwellSolver(grids[0], dt=2e-6 / c)
    assert valid.fft_shape == grids[0].n_cells


@pytest.mark.parametrize("region", ["valid", "full"])
def test_field_solve_leaves_sources_untouched(region):
    """step() advances E and B only: J and rho — guards included — are
    inputs.  The valid-region periodic wrap used to run over every array
    of the grid and rewrote the source guards."""
    rng = np.random.default_rng(3)
    g = YeeGrid((12, 8), (0.0, 0.0), (1.2e-5, 8e-6), guards=3)
    for arr in g.fields.values():
        arr[...] = rng.standard_normal(arr.shape)
    sources = {name: g.fields[name].copy() for name in ("Jx", "Jy", "Jz", "rho")}
    PSATDMaxwellSolver(g, dt=2e-6 / c, region=region).step()
    for name, before in sources.items():
        np.testing.assert_array_equal(g.fields[name], before, err_msg=name)
