"""Sec. V.A.1: gather / deposition kernel optimization speedups.

The paper tuned the two PIC hotspots on A64FX by switching from a scalar
per-particle formulation to one vectorized over particles with the stencil
point fixed, reporting 2.63x (gather) and 4.60x (deposition).  The same
experiment one abstraction level up, across the kernel dispatch registry's
three rungs (:mod:`repro.particles.kernels`):

* ``reference`` — one particle per call (vector length 1);
* ``vectorized`` — whole population per stencil point, scattering through
  the unbuffered ``np.add.at``;
* ``tiled`` — the fast path: histogram/segmented-reduction scatters, the
  minimal Esirkepov window, and the shared shape-weight cache;
* ``compiled`` — the native tier (generated C via ctypes), when a C
  compiler is present in this environment: the per-particle
  scalar loops the paper actually runs, minus the interpreter.

The *direction and mechanism* match the paper; the reference-to-vectorized
magnitude is larger because the Python interpreter exaggerates per-element
overheads the way an unvectorized in-order core does.  The tiled-over-
``np.add.at`` margin is the number the CI perf gate
(``benchmarks/check_kernel_fastpath.py``) enforces.
"""

import time

import numpy as np
import pytest

from repro.constants import q_e
from repro.particles.deposit import (
    deposit_current_esirkepov,
    deposit_current_esirkepov_tiled,
    deposit_current_reference,
)
from repro.particles.gather import (
    gather_fields,
    gather_fields_reference,
    gather_fields_tiled,
)
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
    # cell-granularity Morton order: the layout the sort-aware tiled
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


def test_kernel_optimization(benchmark, workload, table):
    benchmark.pedantic(lambda: None, rounds=1)  # timings measured below
    sim, electrons = workload
    grid = sim.grid
    pos = electrons.positions
    n = electrons.n
    dt = sim.dt

    # gather: per-particle time of each registry rung
    t_ref_gather = _measure(
        lambda: gather_fields_reference(grid, pos[:N_REFERENCE], ORDER)
    ) / N_REFERENCE
    t_vec_gather = _measure(lambda: gather_fields(grid, pos, ORDER)) / n
    t_tiled_gather = _measure(lambda: gather_fields_tiled(grid, pos, ORDER)) / n

    # deposition
    vel = electrons.velocities()
    pos_new = pos + 0.2 * grid.dx[0]
    t_ref_dep = _measure(
        lambda: deposit_current_reference(
            grid, pos[:N_REFERENCE], pos_new[:N_REFERENCE], vel[:N_REFERENCE],
            electrons.weights[:N_REFERENCE], -q_e, dt, ORDER,
        )
    ) / N_REFERENCE
    t_vec_dep = _measure(
        lambda: deposit_current_esirkepov(
            grid, pos, pos_new, vel, electrons.weights, -q_e, dt, ORDER
        )
    ) / n
    t_tiled_dep = _measure(
        lambda: deposit_current_esirkepov_tiled(
            grid, pos, pos_new, vel, electrons.weights, -q_e, dt, ORDER
        )
    ) / n

    compiled_rows = []
    compiled_dep_vs_tiled = None
    if "compiled" in available_kernel_variants():
        ks = get_kernel_set("compiled")
        t_c_gather = _measure(lambda: ks.gather(grid, pos, ORDER)) / n
        t_c_dep = _measure(
            lambda: ks.deposit_current(
                grid, pos, pos_new, vel, electrons.weights, -q_e, dt, ORDER
            )
        ) / n
        compiled_dep_vs_tiled = t_tiled_dep / t_c_dep
        compiled_rows = [
            ["Gather", f"compiled ({ks.backend})", f"{t_c_gather * 1e6:.3f}",
             f"{t_tiled_gather / t_c_gather:.2f}x vs tiled", ""],
            ["Deposition", f"compiled ({ks.backend})", f"{t_c_dep * 1e6:.3f}",
             f"{compiled_dep_vs_tiled:.2f}x vs tiled", ""],
        ]

    speedup_gather = t_ref_gather / t_vec_gather
    speedup_dep = t_ref_dep / t_vec_dep
    tiled_gather_vs_vec = t_vec_gather / t_tiled_gather
    tiled_dep_vs_vec = t_vec_dep / t_tiled_dep
    table(
        "Sec. V.A.1: kernel optimization (reference = vector length 1; "
        "tiled speedups are over the vectorized np.add.at kernels)",
        ["Routine", "Variant", "us/particle", "Speed up", "paper (A64FX)"],
        [
            ["Gather", "reference", f"{t_ref_gather * 1e6:.2f}", "1.0x", ""],
            ["Gather", "vectorized", f"{t_vec_gather * 1e6:.3f}",
             f"{speedup_gather:.1f}x vs reference", "2.63x"],
            ["Gather", "tiled", f"{t_tiled_gather * 1e6:.3f}",
             f"{tiled_gather_vs_vec:.2f}x vs vectorized", ""],
            ["Deposition", "reference", f"{t_ref_dep * 1e6:.2f}", "1.0x", ""],
            ["Deposition", "vectorized", f"{t_vec_dep * 1e6:.3f}",
             f"{speedup_dep:.1f}x vs reference", "4.60x"],
            ["Deposition", "tiled", f"{t_tiled_dep * 1e6:.3f}",
             f"{tiled_dep_vs_vec:.2f}x vs vectorized", ""],
        ] + compiled_rows,
    )
    # the optimized kernels must win, by at least the paper's margins ...
    assert speedup_gather > 2.63
    assert speedup_dep > 4.60
    # ... and the tiled fast path must beat the np.add.at baseline
    assert tiled_dep_vs_vec > 1.0
    # ... and the native tier, when registered, must clearly beat tiled
    if compiled_dep_vs_tiled is not None:
        assert compiled_dep_vs_tiled > 3.0


def test_bench_gather_optimized(benchmark, workload):
    sim, electrons = workload
    benchmark(gather_fields, sim.grid, electrons.positions, ORDER)


def test_bench_deposit_optimized(benchmark, workload):
    sim, electrons = workload
    vel = electrons.velocities()
    pos_new = electrons.positions + 0.2 * sim.grid.dx[0]

    def run():
        sim.grid.zero_sources()
        deposit_current_esirkepov(
            sim.grid, electrons.positions, pos_new, vel,
            electrons.weights, -q_e, sim.dt, ORDER,
        )

    benchmark(run)


def test_bench_deposit_tiled(benchmark, workload):
    sim, electrons = workload
    vel = electrons.velocities()
    pos_new = electrons.positions + 0.2 * sim.grid.dx[0]

    def run():
        sim.grid.zero_sources()
        deposit_current_esirkepov_tiled(
            sim.grid, electrons.positions, pos_new, vel,
            electrons.weights, -q_e, sim.dt, ORDER,
        )

    benchmark(run)


def test_bench_gather_tiled(benchmark, workload):
    sim, electrons = workload
    benchmark(gather_fields_tiled, sim.grid, electrons.positions, ORDER)


def test_bench_gather_reference(benchmark, workload):
    sim, electrons = workload
    benchmark(
        gather_fields_reference, sim.grid, electrons.positions[:N_REFERENCE], ORDER
    )


_COMPILED_MISSING = "compiled" not in available_kernel_variants()


@pytest.mark.skipif(_COMPILED_MISSING, reason="no compiled backend usable")
def test_bench_deposit_compiled(benchmark, workload):
    sim, electrons = workload
    ks = get_kernel_set("compiled")
    vel = electrons.velocities()
    pos_new = electrons.positions + 0.2 * sim.grid.dx[0]

    def run():
        sim.grid.zero_sources()
        ks.deposit_current(
            sim.grid, electrons.positions, pos_new, vel,
            electrons.weights, -q_e, sim.dt, ORDER,
        )

    benchmark(run)


@pytest.mark.skipif(_COMPILED_MISSING, reason="no compiled backend usable")
def test_bench_gather_compiled(benchmark, workload):
    sim, electrons = workload
    ks = get_kernel_set("compiled")
    benchmark(ks.gather, sim.grid, electrons.positions, ORDER)
