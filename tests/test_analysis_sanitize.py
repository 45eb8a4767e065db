"""Runtime sanitizer tests: env gating, the three invariants as unit
checks, and end-to-end trips inside real simulation runs."""

import numpy as np
import pytest

from tests.conftest import needs_compiled
from repro.analysis.sanitize import Sanitizer
from repro.constants import m_e, plasma_wavelength, q_e
from repro.core.simulation import Simulation
from repro.exceptions import ReproError, SanitizerError
from repro.grid.boundary import apply_periodic
from repro.grid.yee import YeeGrid
from repro.particles.injection import UniformProfile
from repro.particles.species import Species


# -- env gating --------------------------------------------------------------

@pytest.mark.parametrize("value", ["", "0", "false", "off", "no", "OFF"])
def test_from_env_disabled_values(value):
    assert Sanitizer.from_env({"REPRO_SANITIZE": value}) is None


def test_from_env_unset_is_disabled():
    assert Sanitizer.from_env({}) is None


@pytest.mark.parametrize("value", ["1", "true", "on", "yes"])
def test_from_env_enabled_values(value):
    assert isinstance(Sanitizer.from_env({"REPRO_SANITIZE": value}), Sanitizer)


def test_simulation_picks_up_env(monkeypatch):
    g = YeeGrid((16,), (0.0,), (1.0,), guards=4)
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    assert Simulation(g).sanitizer is None
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    assert isinstance(Simulation(g).sanitizer, Sanitizer)


def test_sanitizer_error_is_repro_error():
    assert issubclass(SanitizerError, ReproError)


# -- SAN001: finite fields ---------------------------------------------------

def test_san001_passes_on_finite_grid():
    g = YeeGrid((8, 8), (0.0, 0.0), (1.0, 1.0), guards=2)
    Sanitizer().check_fields_finite(g, step=0)


def test_san001_names_step_and_field():
    g = YeeGrid((8, 8), (0.0, 0.0), (1.0, 1.0), guards=2)
    g.fields["By"][4, 4] = np.inf
    with pytest.raises(SanitizerError) as excinfo:
        Sanitizer().check_fields_finite(g, step=7)
    msg = str(excinfo.value)
    assert "SAN001" in msg and "step 7" in msg and "By" in msg


# -- SAN002: particles in domain ---------------------------------------------

def test_san002_accepts_interior_and_boundary_particles():
    pos = np.array([[0.0], [0.5], [1.0]])  # hi is inclusive (periodic wrap)
    Sanitizer().check_particles_in_domain("e", pos, (0.0,), (1.0,), step=0)


def test_san002_names_species_axis_and_count():
    pos = np.array([[0.5, 0.5], [0.5, 1.5], [0.5, -0.2]])
    with pytest.raises(SanitizerError) as excinfo:
        Sanitizer().check_particles_in_domain(
            "ions", pos, (0.0, 0.0), (1.0, 1.0), step=3
        )
    msg = str(excinfo.value)
    assert "SAN002" in msg and "step 3" in msg
    assert "'ions'" in msg and "axis 1" in msg and "2 particle(s)" in msg


# -- SAN003: guard-cell write discipline -------------------------------------

def guarded_periodic_grid():
    g = YeeGrid((16,), (0.0,), (1.0,), guards=4)
    rng = np.random.default_rng(0)
    for comp in g.fields:
        g.fields[comp][:] = rng.normal(size=g.fields[comp].shape)
    apply_periodic(g, axis=0)
    return g


def test_san003_passes_after_periodic_exchange():
    g = guarded_periodic_grid()
    Sanitizer().check_guard_consistency(g, axis=0, step=0)


def test_san003_catches_guard_scribble():
    g = guarded_periodic_grid()
    g.fields["Ez"][0] += 1.0  # a kernel wrote into a low guard cell
    with pytest.raises(SanitizerError) as excinfo:
        Sanitizer().check_guard_consistency(g, axis=0, step=5)
    msg = str(excinfo.value)
    assert "SAN003" in msg and "step 5" in msg and "Ez" in msg


# -- end-to-end: sanitizers trip inside real runs ----------------------------

def langmuir_sim(n_cells=32, ppc=4, **options):
    n0 = 1e24
    length = plasma_wavelength(n0)
    g = YeeGrid((n_cells,), (0.0,), (length,), guards=4)
    sim = Simulation(g, shape_order=2, boundaries="periodic", **options)
    e = Species("electrons", charge=-q_e, mass=m_e, ndim=1)
    sim.add_species(e, profile=UniformProfile(n0), ppc=ppc)
    return sim


def test_nan_injected_into_ex_midrun_raises_with_step_and_field(monkeypatch):
    """The ISSUE's canonical scenario: a NaN planted in Ex at step 3 of a
    live run must surface as a SanitizerError naming the step and field."""
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    sim = langmuir_sim()
    assert sim.sanitizer is not None

    def inject(s):
        if s.step_count == 3:  # callbacks run after the counter increments
            s.grid.fields["Ex"][10] = np.nan

    sim.callbacks.append(inject)
    sim.step(2)
    with pytest.raises(SanitizerError) as excinfo:
        sim.step()
    msg = str(excinfo.value)
    assert "SAN001" in msg and "step 3" in msg and "Ex" in msg


def test_escaped_particle_midrun_raises(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    sim = langmuir_sim()
    electrons = sim.entries["electrons"].species

    def eject(s):
        if s.step_count == 1:
            electrons.positions[0, 0] = s.grid.hi[0] + 10.0

    sim.callbacks.append(eject)
    with pytest.raises(SanitizerError) as excinfo:
        sim.step(3)
    msg = str(excinfo.value)
    assert "SAN002" in msg and "'electrons'" in msg


def test_guard_scribble_midrun_raises(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    sim = langmuir_sim()

    def scribble(s):
        if s.step_count == 1:
            s.grid.fields["Ey"][0] += 1.0  # low guard, after the exchange

    sim.callbacks.append(scribble)
    with pytest.raises(SanitizerError) as excinfo:
        sim.step(3)
    assert "SAN003" in str(excinfo.value)


def test_disabled_sanitizer_lets_nan_through(monkeypatch):
    """Without REPRO_SANITIZE the checks really are off on the NumPy
    route: the NaN field is never reported as such (no SAN001).  It only
    surfaces once a gathered NaN has poisoned a push, as the deposit's
    always-on SAN005 for the particle's non-finite move — the particle,
    not the field and step the sanitizer would have named."""
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    sim = langmuir_sim(kernels="vectorized")
    assert sim.sanitizer is None
    sim.step(2)
    sim.grid.fields["Ex"][10] = np.nan
    with pytest.raises(SanitizerError) as excinfo:
        sim.step(2)  # gathered NaN poisons the push, deposit refuses it
    msg = str(excinfo.value)
    assert "SAN005" in msg and "non-finite displacement" in msg
    assert "SAN001" not in msg


@needs_compiled
def test_default_run_refuses_a_nan_particle_with_san005(monkeypatch):
    """The default tier is the fused native pass, whose bounds check is
    always on: the same NaN field is refused as SAN005 naming the
    particle and axis, before the species is touched."""
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    sim = langmuir_sim()
    assert sim.sanitizer is None and sim.kernels == "compiled"
    electrons = sim.entries["electrons"].species
    sim.step(2)
    sim.grid.fields["Ex"][10] = np.nan
    before = electrons.positions.copy(), electrons.momenta.copy()
    # the gathered NaN poisons a push; its move is refused
    with pytest.raises(SanitizerError, match=r"SAN005: .*particle \d+ .* axis \d"):
        sim.step()
    assert np.array_equal(electrons.positions, before[0])
    assert np.array_equal(electrons.momenta, before[1])


def test_mr_simulation_checks_patch_fields(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    n0 = 1e24
    length = plasma_wavelength(n0)
    g = YeeGrid((32,), (0.0,), (length,), guards=4)
    from repro.grid.maxwell import cfl_dt

    sim = Simulation(g, dt=cfl_dt((length / 64,), 0.9), shape_order=2)
    e = Species("electrons", charge=-q_e, mass=m_e, ndim=1)
    sim.add_species(e, profile=UniformProfile(n0), ppc=4)
    sim.add_patch((8,), (24,), ratio=2)
    sim.step(2)

    def poison(s):
        s.patches[0].fine.fields["Bz"][5] = np.inf

    sim.callbacks.append(poison)
    with pytest.raises(SanitizerError) as excinfo:
        sim.step()
    msg = str(excinfo.value)
    assert "SAN001" in msg and "Bz" in msg and "patch 0" in msg and "fine" in msg


# -- SAN005: gather/deposit stencils stay inside the padded arrays -----------

def test_san005_unit_check_passes_in_range():
    base = [np.array([0, 2, 5]), np.array([1, 3, 4])]
    Sanitizer().check_stencil_bounds("gather_fields", "Ex", base, 4, (9, 8))


def test_san005_unit_check_names_kernel_component_axis():
    base = [np.array([2]), np.array([-1])]
    with pytest.raises(SanitizerError) as excinfo:
        Sanitizer().check_stencil_bounds("deposit_charge", "rho", base, 4, (9, 9))
    msg = str(excinfo.value)
    assert "SAN005" in msg and "deposit_charge" in msg and "rho" in msg
    assert "axis 1" in msg


def test_san005_trips_on_gather_outside_padding(monkeypatch):
    """Regression: the flat-address arithmetic wraps a negative base index
    to the far end of the raveled array, so an out-of-range gather used to
    read silently from the wrong cells instead of failing."""
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    from repro.particles.gather import gather_fields

    g = YeeGrid((8,), (0.0,), (8.0,), guards=1)
    pos = np.array([[-3.5]])  # order-3 stencil reaches past the single guard
    with pytest.raises(SanitizerError, match="SAN005"):
        gather_fields(g, pos, order=3)


def test_san005_trips_on_deposit_outside_padding(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    from repro.particles.deposit import deposit_charge
    from tests.oracles import deposit_charge_add_at

    # out of range on the inner axis only: the flat addresses stay inside
    # the array (they wrap into the next row), so only the per-axis
    # sanitizer check can see it
    g = YeeGrid((8, 8), (0.0, 0.0), (8.0, 8.0), guards=1)
    pos = np.array([[4.0, 11.5]])
    with pytest.raises(SanitizerError, match="SAN005.*axis 1"):
        deposit_charge(g, pos, np.ones(1), -q_e, order=3)
    assert not g.fields["rho"].any()
    # the per-axis np.add.at oracle agrees that the stencil leaves axis 1
    with pytest.raises(IndexError, match="on axis 1"):
        deposit_charge_add_at(g, pos, np.ones(1), -q_e, order=3)


def test_san005_silent_without_env(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    from repro.particles.gather import gather_fields

    g = YeeGrid((8,), (0.0,), (8.0,), guards=1)
    e, b = gather_fields(g, np.array([[-3.5]]), order=3)  # wraps, no raise
    assert e.shape == (1, 3)
