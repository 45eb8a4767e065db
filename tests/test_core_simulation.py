"""Integration tests of the single-level PIC cycle: Langmuir oscillation,
energy conservation, laser injection, moving window, boundaries."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.constants import c, m_e, plasma_frequency, q_e, um, fs
from repro.core.moving_window import MovingWindow
from repro.core.simulation import Simulation, smooth_binomial
from repro.exceptions import ConfigurationError
from repro.grid import compiled as native_fields
from repro.grid.yee import YeeGrid
from repro.laser.antenna import LaserAntenna
from repro.laser.profiles import GaussianLaser
from repro.particles.injection import UniformProfile
from repro.particles.species import Species
from tests.conftest import (
    assert_same_arrays,
    needs_compiled,
    numpy_fields,
    random_fields,
    same_bits,
)


def test_construction_validation():
    g = YeeGrid((16,), (0.0,), (1.0,), guards=4)
    with pytest.raises(ConfigurationError):
        Simulation(g, pusher="rk4")
    with pytest.raises(ConfigurationError):
        Simulation(g, deposition="zigzag")
    with pytest.raises(ConfigurationError):
        Simulation(g, boundaries="magic")
    with pytest.raises(ConfigurationError):
        Simulation(g, boundaries=("periodic", "periodic"))
    g2 = YeeGrid((16,), (0.0,), (1.0,), guards=2)
    with pytest.raises(ConfigurationError):
        Simulation(g2, shape_order=3)  # needs more guards


def test_smooth_binomial_flattens_spike():
    arr = np.zeros(9)
    arr[4] = 1.0
    smooth_binomial(arr, 0, passes=1)
    np.testing.assert_allclose(arr[3:6], [0.25, 0.5, 0.25])
    assert arr.sum() == pytest.approx(1.0)


@pytest.mark.parametrize("name", ["smoothing_passes", "sort_interval"])
@pytest.mark.parametrize("bad", [-1, -3, 1.7, 2.5, "2", None, True])
def test_step_counts_must_be_integers_at_least_zero(name, bad):
    """A negative count is not "never", a float is not truncated and a
    string is not parsed: each is refused, naming the value."""
    g = YeeGrid((16,), (0.0,), (1.0,), guards=4)
    with pytest.raises(ConfigurationError, match=f"{name}.*{bad!r}"):
        Simulation(g, **{name: bad})
    sim = Simulation(g, **{name: np.int64(2)})
    assert getattr(sim, name) == 2 and type(getattr(sim, name)) is int


@pytest.mark.parametrize("bad", [0, 4, -1, 2.7, 2.0, "2", None, True])
def test_shape_order_must_be_an_integer_from_1_to_3(bad):
    """Refused at construction, naming the value: not truncated (2.7
    used to run order 2) and not left to the first step's kernel."""
    g = YeeGrid((16,), (0.0,), (1.0,), guards=4)
    with pytest.raises(ConfigurationError, match=f"shape_order.*{bad!r}"):
        Simulation(g, shape_order=bad)
    for order in (1, 2, np.int64(3)):
        sim = Simulation(g, shape_order=order)
        assert sim.shape_order == order and type(sim.shape_order) is int


@pytest.mark.parametrize("name", ["dt", "cfl"])
@pytest.mark.parametrize("bad", [0.0, -0.5, np.nan, np.inf, "1e-17", True])
def test_dt_and_cfl_must_be_finite_and_positive(name, bad):
    """A zero, negative or non-finite time step (or Courant fraction)
    is refused at construction: it used to divide by zero or run time
    backwards."""
    g = YeeGrid((16,), (0.0,), (1.0,), guards=4)
    with pytest.raises(ConfigurationError, match=f"{name} must be .*{bad!r}"):
        Simulation(g, **{name: bad})
    sim = Simulation(g, dt=np.float64(1e-18), cfl=np.float32(0.5))
    assert sim.dt == 1e-18 and type(sim.dt) is float


# -- the native J filter against smooth_binomial ---------------------------------

def j_grid(shape, dtype, seed=0):
    """A stand-in grid of ``shape`` (any extent, 1 and 2 included) whose
    Jx, Jy, Jz hold normal values, negative zeros and NaNs."""
    rng = np.random.default_rng(seed)
    fields = {}
    for k, name in enumerate(("Jx", "Jy", "Jz")):
        arr = (1e16 * rng.standard_normal(shape)).astype(dtype)
        flat = arr.reshape(-1)
        flat[k::5] = -0.0
        flat[3 + k::11] = np.nan
        fields[name] = arr
    return SimpleNamespace(fields=fields, shape=tuple(shape), ndim=len(shape),
                           dtype=np.dtype(dtype))


@needs_compiled
@pytest.mark.parametrize("passes", [1, 2])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize(
    "shape", [(9,), (2,), (7, 5), (6, 1), (2, 9), (5, 4, 6), (4, 2, 5), (3, 6, 1)],
)
def test_native_smooth_is_smooth_binomial_bit_for_bit(shape, dtype, passes):
    grid = j_grid(shape, dtype)
    oracle = {k: v.copy() for k, v in grid.fields.items()}
    for arr in oracle.values():
        for axis in range(len(shape)):
            smooth_binomial(arr, axis, passes)
    native_fields.backend(grid.dtype).smooth(grid, passes)
    assert_same_arrays(grid.fields, oracle, f"{shape} {dtype.__name__}")


@needs_compiled
def test_smooth_sources_runs_the_native_filter_on_a_grid():
    g = random_fields(YeeGrid((12, 10), (0.0, 0.0), (1.0, 1.0), guards=3), 2)
    sim = Simulation(g, smoothing_passes=2)
    oracle = {k: v.copy() for k, v in g.fields.items()}
    sim._smooth_sources(g)
    native = {k: v.copy() for k, v in g.fields.items()}
    g.fields.update((k, v.copy()) for k, v in oracle.items())
    with numpy_fields():
        sim._smooth_sources(g)
    assert_same_arrays(native, g.fields)
    assert not same_bits(native["Jx"], oracle["Jx"])
    assert_same_arrays({"Ex": native["Ex"], "rho": native["rho"]},
                       {"Ex": oracle["Ex"], "rho": oracle["rho"]})


@needs_compiled
def test_native_smooth_refuses_a_bad_layout_and_writes_nothing():
    grid = j_grid((6, 5), np.float64)
    good = grid.fields["Jy"]
    for bad in (np.asfortranarray(good), good[:, :-1].copy(),
                good.astype(np.float32)):
        grid.fields["Jy"] = bad
        before = {k: v.copy() for k, v in grid.fields.items()}
        with pytest.raises(ConfigurationError, match="smooth"):
            native_fields.backend(grid.dtype).smooth(grid, 1)
        assert_same_arrays(grid.fields, before)


def test_duplicate_species_rejected():
    g = YeeGrid((16,), (0.0,), (1.0,), guards=4)
    sim = Simulation(g)
    sim.add_species(Species("e", ndim=1))
    with pytest.raises(ConfigurationError):
        sim.add_species(Species("e", ndim=1))
    with pytest.raises(ConfigurationError):
        sim.add_species(Species("e2", ndim=2))


def langmuir_sim(n0=1.0e24, n_cells=64, ppc=16, u0=1e-3):
    """1D uniform plasma with a sinusoidal velocity perturbation."""
    from repro.constants import plasma_wavelength

    length = plasma_wavelength(n0)
    g = YeeGrid((n_cells,), (0.0,), (length,), guards=4)
    sim = Simulation(g, shape_order=2, boundaries="periodic", smoothing_passes=0)
    e = Species("electrons", charge=-q_e, mass=m_e, ndim=1)
    sim.add_species(e, profile=UniformProfile(n0), ppc=ppc)
    k = 2 * np.pi / length
    e.momenta[:, 0] = u0 * np.sin(k * e.positions[:, 0])
    return sim, e, length


def test_langmuir_oscillation_frequency():
    """The plasma oscillates at omega_pe — the canonical PIC validation."""
    n0 = 1.0e24
    sim, electrons, length = langmuir_sim(n0=n0)
    omega_pe = plasma_frequency(n0)
    steps = 600
    ex_hist = []
    probe = (sim.grid.guards + 16,)
    for _ in range(steps):
        sim.step()
        ex_hist.append(sim.grid.fields["Ex"][probe])
    ex_hist = np.asarray(ex_hist)
    # frequency from the FFT peak
    spectrum = np.abs(np.fft.rfft(ex_hist - ex_hist.mean()))
    freqs = np.fft.rfftfreq(steps, d=sim.dt) * 2 * np.pi
    omega_measured = freqs[np.argmax(spectrum)]
    assert omega_measured == pytest.approx(omega_pe, rel=0.1)


def test_langmuir_energy_conservation():
    sim, electrons, _ = langmuir_sim(u0=1e-3)
    from repro.diagnostics.energy import EnergyDiagnostic

    diag = EnergyDiagnostic()
    diag.record(sim.time, sim.grid, [electrons])
    sim.step(300)
    diag.record(sim.time, sim.grid, [electrons])
    # Boris + Yee leapfrog is not exactly energy conserving; a few percent
    # over 300 steps at CFL 0.95 is the expected bound (no secular growth)
    assert diag.relative_drift() < 0.05


def test_thermal_plasma_stable():
    """A warm uniform plasma stays quiet (no numerical heating blow-up)."""
    n0 = 1e24
    from repro.constants import plasma_wavelength

    length = plasma_wavelength(n0)
    g = YeeGrid((32,), (0.0,), (length,), guards=4)
    sim = Simulation(g, shape_order=3, smoothing_passes=1)
    e = Species("e", ndim=1)
    sim.add_species(
        e, profile=UniformProfile(n0), ppc=32, temperature_uth=0.01,
        rng=np.random.default_rng(21),
    )
    ke0 = e.kinetic_energy()
    sim.step(200)
    assert e.kinetic_energy() < 1.5 * ke0


def laser_sim(n_cells=512, length=40 * um, boundaries="damped", **laser_kw):
    g = YeeGrid((n_cells,), (0.0,), (length,), guards=4)
    sim = Simulation(g, shape_order=2, boundaries=boundaries, n_absorber=24)
    kw = dict(
        wavelength=0.8 * um, a0=1.0, waist=10 * um, duration=5 * fs, t_peak=15 * fs
    )
    kw.update(laser_kw)
    laser = GaussianLaser(**kw)
    sim.add_laser(LaserAntenna(laser, position=5 * um))
    return sim, laser


def test_laser_antenna_amplitude_and_speed():
    sim, laser = laser_sim()
    # run until the peak should sit at x = 25 um
    t_target = laser.t_peak + 20 * um / c
    sim.run_until(t_target)
    sl = sim.grid.valid_slices("Ey")[0]
    ey = sim.grid.Ey[sl]
    x = sim.grid.axis_coords(0, "Ey")
    peak_amp = np.max(np.abs(ey))
    assert peak_amp == pytest.approx(laser.e_peak, rel=0.2)
    # the pulse peak sits near 25 um (antenna at 5 um + 20 um of flight);
    # use the argmax, not a centroid, which the residual backward-emitted
    # half near the absorber would bias
    peak_pos = float(x[np.argmax(np.abs(ey))])
    assert peak_pos == pytest.approx(25 * um, abs=1.5 * um)


def test_moving_window_keeps_pulse_in_domain():
    sim, laser = laser_sim()
    sim.set_moving_window(MovingWindow(speed=c, start_time=laser.t_peak))
    sim.run_until(laser.t_peak + 60 * um / c)  # would exit a static domain
    sl = sim.grid.valid_slices("Ey")[0]
    ey = sim.grid.Ey[sl]
    assert np.max(np.abs(ey)) > 0.5 * laser.e_peak
    # the domain has moved
    assert sim.grid.lo[0] > 50 * um


def test_moving_window_requires_non_pml_x():
    g = YeeGrid((64,), (0.0,), (1.0,), guards=4)
    sim = Simulation(g, boundaries="pml")
    with pytest.raises(ConfigurationError):
        sim.set_moving_window(MovingWindow())


def test_moving_window_continuous_injection():
    n0 = 1e24
    g = YeeGrid((64,), (0.0,), (64 * um,), guards=4)
    sim = Simulation(g, boundaries="damped")
    e = Species("e", ndim=1)
    sim.add_species(
        e, profile=UniformProfile(n0), ppc=2, continuous_injection=True
    )
    n_before = e.n
    sim.set_moving_window(MovingWindow(speed=c, start_time=0.0))
    sim.step(40)
    # plasma is culled on the left and re-injected on the right: the count
    # stays near the initial fill
    assert e.n == pytest.approx(n_before, rel=0.05)
    assert e.positions[:, 0].max() > 64 * um  # fresh plasma in new cells


def test_open_boundary_removes_particles():
    g = YeeGrid((16,), (0.0,), (16.0,), guards=4)
    sim = Simulation(g, boundaries="open", smoothing_passes=0)
    e = Species("e", ndim=1)
    sim.add_species(e)
    e.add_particles([[15.9]], momenta=[[10.0, 0.0, 0.0]])  # fast, rightward
    sim.step(5)
    assert e.n == 0


def test_periodic_boundary_wraps_particles():
    g = YeeGrid((16,), (0.0,), (16.0,), guards=4)
    sim = Simulation(g, boundaries="periodic", smoothing_passes=0)
    e = Species("e", ndim=1)
    sim.add_species(e)
    e.add_particles([[15.99]], momenta=[[1e-3, 0.0, 0.0]])
    sim.step(50)
    assert e.n == 1
    assert 0.0 <= e.positions[0, 0] < 16.0


def test_sort_interval_runs():
    g = YeeGrid((16, 16), (0, 0), (16.0, 16.0), guards=4)
    sim = Simulation(g, sort_interval=2, smoothing_passes=0)
    e = Species("e", ndim=2)
    sim.add_species(e, profile=UniformProfile(1e20), ppc=2)
    sim.step(4)
    assert "sort" in sim.timers.totals


def test_timers_populated():
    g = YeeGrid((16,), (0.0,), (16.0,), guards=4)
    sim = Simulation(g)
    sim.step(2)
    for key in ("gather", "push", "deposit", "maxwell"):
        assert key not in sim.timers.totals or sim.timers.totals[key] >= 0.0
    assert "maxwell" in sim.timers.totals
    assert len(sim.timers.step_times) == 2
