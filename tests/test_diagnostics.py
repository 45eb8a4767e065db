"""Unit tests for the diagnostics package."""

import time

import numpy as np
import pytest

from repro.constants import MeV, c, m_e, q_e
from repro.diagnostics.beam import BeamHistory, beam_charge, beam_statistics
from repro.diagnostics.energy import EnergyDiagnostic
from repro.diagnostics.spectrum import energy_spectrum, spectral_peak_and_spread
from repro.diagnostics.timers import Timers
from repro.exceptions import DiagnosticError
from repro.grid.yee import YeeGrid
from repro.particles.species import Species


def beam_species(gammas, weights=None, ndim=2):
    s = Species("beam", charge=-q_e, mass=m_e, ndim=ndim)
    gammas = np.asarray(gammas, dtype=float)
    u = np.sqrt(gammas**2 - 1.0)
    pos = np.zeros((len(gammas), ndim))
    mom = np.zeros((len(gammas), 3))
    mom[:, 0] = u
    s.add_particles(pos, mom, weights)
    return s


def test_beam_charge_threshold():
    # gamma = 3 -> ~1 MeV kinetic; gamma = 1.1 -> ~0.05 MeV
    s = beam_species([3.0, 3.0, 1.1], weights=[1e9, 2e9, 5e9])
    q = beam_charge(s, energy_threshold=0.5 * MeV)
    assert q == pytest.approx(3e9 * q_e)


def test_beam_statistics_empty():
    s = beam_species([1.0001])
    stats = beam_statistics(s, energy_threshold=10 * MeV)
    assert stats["n"] == 0 and stats["charge"] == 0.0


def test_beam_statistics_monoenergetic():
    s = beam_species([10.0] * 50, weights=np.full(50, 1e8))
    stats = beam_statistics(s, energy_threshold=1 * MeV)
    assert stats["energy_spread"] == pytest.approx(0.0, abs=1e-12)
    assert stats["mean_energy"] == pytest.approx(9.0 * m_e * c**2)
    assert stats["n"] == 50


def test_beam_emittance_uncorrelated():
    s = Species("b", ndim=2)
    rng = np.random.default_rng(42)
    n = 5000
    y = rng.normal(0, 1e-6, n)
    uy = rng.normal(0, 0.1, n)
    pos = np.zeros((n, 2))
    pos[:, 1] = y
    mom = np.zeros((n, 3))
    mom[:, 0] = 100.0  # gamma ~ 100: everyone passes the threshold
    mom[:, 1] = uy
    s.add_particles(pos, mom)
    stats = beam_statistics(s, energy_threshold=1 * MeV)
    assert stats["emittance"] == pytest.approx(1e-7, rel=0.1)


def test_beam_history_records():
    hist = BeamHistory(energy_threshold=0.5 * MeV)
    s = beam_species([5.0], weights=[1e9])
    hist.record(0.0, s)
    hist.record(1.0, s)
    assert len(hist.times) == 2
    assert hist.final_charge() == pytest.approx(1e9 * q_e)


def test_energy_spectrum_and_peak():
    rng = np.random.default_rng(3)
    gammas = 1.0 + np.abs(rng.normal(20.0, 1.0, size=4000))
    s = beam_species(gammas)
    centers, dn_de = energy_spectrum(s, bins=60)
    peak, spread = spectral_peak_and_spread(centers, dn_de)
    expected_peak = 20.0 * m_e * c**2
    assert peak == pytest.approx(expected_peak, rel=0.15)
    assert 0.0 < spread < 0.5


def test_energy_spectrum_empty_raises():
    s = Species("e", ndim=1)
    with pytest.raises(DiagnosticError):
        energy_spectrum(s)


def test_spectrum_explicit_range():
    s = beam_species([2.0, 3.0, 4.0])
    centers, dn_de = energy_spectrum(s, bins=10, e_min=0.0, e_max=5 * MeV)
    assert len(centers) == 10
    assert centers[0] > 0.0


def test_energy_diagnostic_drift():
    g = YeeGrid((8,), (0.0,), (8.0,), guards=2)
    s = beam_species([2.0], ndim=1)
    diag = EnergyDiagnostic()
    diag.record(0.0, g, [s])
    diag.record(1.0, g, [s])
    assert diag.relative_drift() == pytest.approx(0.0)
    assert len(diag.total_energy()) == 2


def test_timers_accumulate():
    t = Timers()
    with t.timer("a"):
        time.sleep(0.01)
    with t.timer("a"):
        pass
    with t.timer("b"):
        pass
    assert t.counts["a"] == 2
    assert t.totals["a"] >= 0.01
    assert t.total() == pytest.approx(t.totals["a"] + t.totals["b"])


def test_timers_lap():
    t = Timers()
    t.reset_lap()
    t.lap()
    t.lap()
    assert len(t.step_times) == 2
    assert all(v >= 0 for v in t.step_times)
