"""Sec. V.A.1: gather / deposition kernel optimization speedups.

The paper tuned the two PIC hotspots on A64FX by switching from a scalar
per-particle formulation to one vectorized over particles with the stencil
point fixed, reporting 2.63x (gather) and 4.60x (deposition).  The same
experiment one abstraction level up, across the kernel dispatch registry's
rungs (:mod:`repro.particles.kernels`):

* ``reference`` — one particle per call (vector length 1), scattered with
  ``np.add.at``;
* ``vectorized`` — whole population per stencil point: histogram
  scatters, the minimal Esirkepov window, shared shape weights;
* ``compiled`` — the native tier (generated C via ctypes), when a C
  compiler is present in this environment: the per-particle
  scalar loops the paper actually runs, minus the interpreter.

The *direction and mechanism* match the paper; the reference-to-vectorized
magnitude is larger because the Python interpreter exaggerates per-element
overheads the way an unvectorized in-order core does.  The
compiled-over-vectorized margin is the number the CI perf gate
(``benchmarks/check_kernel_fastpath.py``) enforces.
"""

import time

import numpy as np
import pytest

from repro.constants import q_e
from repro.particles.kernels import available_kernel_variants, get_kernel_set
from repro.particles.sorting import sort_species_by_bin
from repro.scenarios.uniform_plasma import build_uniform_plasma

ORDER = 3  # the paper's experiment uses order-3 shapes (64-point stencils)
N_REFERENCE = 400  # particles given to the scalar reference kernels


@pytest.fixture(scope="module")
def workload():
    sim, electrons = build_uniform_plasma(
        (24, 24), ppc=4, shape_order=ORDER, temperature_uth=0.05
    )
    # cell-granularity Morton order: the layout the sort-aware
    # scatters are designed for (sort_interval in production runs)
    sort_species_by_bin(electrons, sim.grid, tile_cells=1)
    rng = np.random.default_rng(0)
    for comp in ("Ex", "Ey", "Ez", "Bx", "By", "Bz"):
        sim.grid.fields[comp][...] = rng.normal(size=sim.grid.shape)
    return sim, electrons


def _measure(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _per_particle_times(workload, name):
    """(gather, deposition) seconds per particle of registry rung ``name``."""
    sim, electrons = workload
    ks = get_kernel_set(name)
    # the scalar loops get a slice: they are ~100x slower per particle
    n = N_REFERENCE if name == "reference" else electrons.n
    grid, dt = sim.grid, sim.dt
    pos = electrons.positions[:n]
    pos_new = pos + 0.2 * grid.dx[0]
    vel = electrons.velocities()[:n]
    w = electrons.weights[:n]
    t_gather = _measure(lambda: ks.gather(grid, pos, ORDER)) / n
    t_dep = _measure(
        lambda: ks.deposit_current(grid, pos, pos_new, vel, w, -q_e, dt, ORDER)
    ) / n
    return t_gather, t_dep


def test_kernel_optimization(benchmark, workload, table):
    benchmark.pedantic(lambda: None, rounds=1)  # timings measured below
    names = available_kernel_variants()  # reference, vectorized[, compiled]
    times = {name: _per_particle_times(workload, name) for name in names}

    rows = []
    for col, (routine, paper) in enumerate(
        (("Gather", "2.63x"), ("Deposition", "4.60x"))
    ):
        for prev, name in zip((None,) + names, names):
            t = times[name][col]
            backend = get_kernel_set(name).backend
            label = name if backend == "numpy" else f"{name} ({backend})"
            rows.append([
                routine, label, f"{t * 1e6:.3f}",
                "1.0x" if prev is None
                else f"{times[prev][col] / t:.1f}x vs {prev}",
                paper if name == "vectorized" else "",
            ])
    table(
        "Sec. V.A.1: kernel optimization (reference = vector length 1; "
        "each rung's speed up is over the one above it)",
        ["Routine", "Variant", "us/particle", "Speed up", "paper (A64FX)"],
        rows,
    )
    # the optimized kernels must win, by at least the paper's margins ...
    assert times["reference"][0] / times["vectorized"][0] > 2.63
    assert times["reference"][1] / times["vectorized"][1] > 4.60
    # ... and the native tier, when registered, must clearly beat NumPy
    if "compiled" in times:
        assert times["vectorized"][1] / times["compiled"][1] > 3.0


@pytest.mark.parametrize("name", available_kernel_variants())
def test_bench_gather(benchmark, workload, name):
    sim, electrons = workload
    n = N_REFERENCE if name == "reference" else electrons.n
    benchmark(get_kernel_set(name).gather, sim.grid, electrons.positions[:n], ORDER)


@pytest.mark.parametrize("name", available_kernel_variants())
def test_bench_deposit(benchmark, workload, name):
    sim, electrons = workload
    ks = get_kernel_set(name)
    n = N_REFERENCE if name == "reference" else electrons.n
    pos = electrons.positions[:n]
    pos_new = pos + 0.2 * sim.grid.dx[0]
    vel = electrons.velocities()[:n]

    def run():
        sim.grid.zero_sources()
        ks.deposit_current(
            sim.grid, pos, pos_new, vel, electrons.weights[:n], -q_e, sim.dt, ORDER
        )

    benchmark(run)
