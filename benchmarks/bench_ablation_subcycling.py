"""Ablation: MR subcycling (Sec. V.B's optional feature).

Compares a subcycled MR run (parent at the coarse CFL, fine level at
dt/ratio) against a synchronous MR run (everything at the fine CFL) on the
same physical problem: steps needed, wall-clock, and the physics drift
between the two."""

import numpy as np
import pytest

from repro.constants import plasma_wavelength
from repro.core.simulation import Simulation
from repro.grid.maxwell import cfl_dt
from repro.grid.yee import YeeGrid
from repro.particles.injection import UniformProfile
from repro.particles.species import Species
from repro.constants import m_e, q_e


def build(subcycle: bool, n_cells=64, n0=1e24, ppc=8):
    length = plasma_wavelength(n0)
    g = YeeGrid((n_cells,), (0.0,), (length,), guards=4)
    ratio = 2
    dt = cfl_dt((length / n_cells / (1 if subcycle else ratio),), 0.9)
    sim = Simulation(g, dt=dt, shape_order=2, smoothing_passes=0)
    e = Species("electrons", charge=-q_e, mass=m_e, ndim=1)
    sim.add_species(e, profile=UniformProfile(n0), ppc=ppc)
    k = 2 * np.pi / length
    e.momenta[:, 0] = 1e-3 * np.sin(k * e.positions[:, 0])
    sim.add_patch((n_cells // 4,), (3 * n_cells // 4,), ratio=ratio,
                  subcycle=subcycle)
    return sim


def test_subcycling_ablation(benchmark, table):
    import time

    results = {}
    t_end = None
    for subcycle in (False, True):
        sim = build(subcycle)
        if t_end is None:
            t_end = 120 * sim.dt
        t0 = time.perf_counter()
        sim.run_until(t_end)
        wall = time.perf_counter() - t0
        results[subcycle] = {
            "steps": sim.step_count,
            "wall": wall,
            "ex": sim.grid.interior_view("Ex").copy(),
            "dt": sim.dt,
        }
    benchmark.pedantic(lambda: None, rounds=1)

    a, b = results[False], results[True]
    corr = np.corrcoef(a["ex"].ravel(), b["ex"].ravel())[0, 1]
    amp_ratio = np.max(np.abs(b["ex"])) / np.max(np.abs(a["ex"]))
    table(
        "Ablation: MR subcycling on a Langmuir oscillation",
        ["variant", "dt [s]", "steps", "wall [s]"],
        [
            ["synchronous (fine CFL)", f"{a['dt']:.3e}", a["steps"], f"{a['wall']:.2f}"],
            ["subcycled (coarse CFL)", f"{b['dt']:.3e}", b["steps"], f"{b['wall']:.2f}"],
        ],
    )
    print(f"\nfield-pattern correlation: {corr:.4f}, amplitude ratio: {amp_ratio:.3f}")
    # subcycling halves the parent step count ...
    assert b["steps"] <= a["steps"] // 2 + 1
    # ... while reproducing the same physics
    assert corr > 0.98
    assert 0.8 < amp_ratio < 1.25


def test_bench_step_subcycled(benchmark):
    sim = build(True)
    sim.step(2)
    benchmark(sim.step, 1)


def test_bench_step_synchronous(benchmark):
    sim = build(False)
    sim.step(2)
    benchmark(sim.step, 1)
