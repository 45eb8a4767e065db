"""The end-to-end charge-conservation check: the Gauss-law residual of a
running simulation.

This file is named after the spectral field-initialisation solver it
used to test next to these two; that solver is gone, and the file keeps
its name so the ids of the two tests below stay what they have always
been.
"""

import numpy as np
import pytest

from repro.constants import m_e, plasma_wavelength, q_e
from repro.core.simulation import Simulation
from repro.diagnostics.gauss import GaussLawMonitor, gauss_law_residual
from repro.grid.yee import YeeGrid
from repro.particles.injection import UniformProfile
from repro.particles.species import Species


def test_gauss_residual_constant_during_run():
    """THE end-to-end charge-conservation check: the Gauss residual of a
    running simulation does not drift (Esirkepov + Yee compose exactly)."""
    n0 = 1e24
    length = plasma_wavelength(n0)
    g = YeeGrid((48,), (0.0,), (length,), guards=4)
    sim = Simulation(g, shape_order=2, smoothing_passes=0)
    e = Species("e", charge=-q_e, mass=m_e, ndim=1)
    sim.add_species(e, profile=UniformProfile(n0), ppc=8)
    k = 2 * np.pi / length
    e.momenta[:, 0] = 1e-3 * np.sin(k * e.positions[:, 0])
    monitor = GaussLawMonitor(order=2)
    r0 = monitor.record(sim)
    sim.step(100)
    r1 = monitor.record(sim)
    # the initial (non-neutral deposit vs E=0) residual is frozen in time
    assert r1 == pytest.approx(r0, rel=1e-6)
    assert monitor.drift() == pytest.approx(0.0, abs=1e-6)


def test_gauss_residual_drifts_with_direct_deposition():
    """With the non-conserving direct deposition the residual *field*
    moves — the contrast that motivates Esirkepov.  (The max-norm alone
    hides the drift under the static ppc-noise pedestal, so compare the
    residual patterns directly.)"""

    def run(deposition):
        n0 = 1e24
        length = plasma_wavelength(n0)
        g = YeeGrid((48,), (0.0,), (length,), guards=4)
        sim = Simulation(
            g, shape_order=2, smoothing_passes=0, deposition=deposition
        )
        e = Species("e", charge=-q_e, mass=m_e, ndim=1)
        sim.add_species(e, profile=UniformProfile(n0), ppc=8)
        k = 2 * np.pi / length
        e.momenta[:, 0] = 1e-2 * np.sin(k * e.positions[:, 0])
        res0 = gauss_law_residual(sim.grid, [e], order=2).copy()
        sim.step(100)
        res1 = gauss_law_residual(sim.grid, [e], order=2)
        return float(np.max(np.abs(res1 - res0))), float(np.max(np.abs(res0)))

    drift_esir, scale = run("esirkepov")
    drift_direct, _ = run("direct")
    assert drift_esir < 1e-8 * scale
    assert drift_direct > 1e3 * max(drift_esir, 1e-30 * scale)
