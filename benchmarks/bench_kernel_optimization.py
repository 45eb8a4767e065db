"""Sec. V.A.1: gather / deposition kernel optimization speedups.

The paper tuned the two PIC hotspots on A64FX by switching from a scalar
per-particle formulation to one vectorized over particles with the stencil
point fixed, reporting 2.63x (gather) and 4.60x (deposition).  Here that
scalar-vs-SIMD experiment runs inside the native tier, where it is the
same experiment: the fused ``advance`` pass handles particles in blocks of
vector-length lanes over transposed (SoA) stack temporaries, and the
library is rebuilt at 1 / 4 / 8 / 16 lanes (``-DREPRO_RB=n``) — speed-up
vs vector length for the gather + push part (``-DREPRO_GATHER_PUSH_ONLY``:
stencils, gather, push, momentum store) and for the whole pass, orders 1-3
in 2D and order 3 in 3D.  The one-lane build is the blocked code at vector
length 1, which is what the tier's scalar loop (tails, refused blocks)
runs; the paper's two numbers stand next to the 1 -> 8-lane rows, and
``repro.particles.compiled.LANES`` is picked from these rows.

Above them, the kernel table's two rungs
(:mod:`repro.particles.kernels`), per particle:

* ``vectorized`` — the NumPy path, whole population per stencil point:
  histogram scatters, the minimal Esirkepov window, shared shape weights;
* ``compiled`` — the native tier (generated C via ctypes), when a C
  compiler is present in this environment.

The compiled-over-vectorized deposition margin is asserted here (> 3x)
when the table is built; the CI cross-validation gate
(``benchmarks/check_kernel_fastpath.py``) checks agreement only.
"""

import time

import numpy as np
import pytest

from repro.constants import q_e
from repro.exceptions import ConfigurationError
from repro.particles import compiled
from repro.particles.kernels import available_kernel_variants, get_kernel_set
from repro.particles.sorting import sort_species_by_bin
from repro.scenarios.uniform_plasma import build_uniform_plasma

ORDER = 3  # the paper's experiment uses order-3 shapes (64-point stencils)


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


#: (ndim, order, cells, particles per cell) of the vector-length rows: the
#: repo benchmark's `uniform_compiled` deck at each order, and a 3D one
LANE_DECKS = (
    (2, 1, (96, 96), (4, 4)), (2, 2, (96, 96), (4, 4)),
    (2, 3, (96, 96), (4, 4)), (3, 3, (24, 24, 24), (2, 2, 2)),
)
LANE_COUNTS = (1, 4, 8, 16)


def _vector_length_rows():
    """Fused pass per particle at each lane count, interleaved best-of-7."""
    cc = compiled.find_c_compiler()
    rows = []
    for ndim, order, n_cells, ppc in LANE_DECKS:
        sim, electrons = build_uniform_plasma(
            n_cells, ppc=ppc, shape_order=order, kernels="compiled"
        )
        sim.step(3)  # self-consistent fields and a thermalised cloud
        grid = sim.grid
        args = (
            grid, electrons.positions, electrons.momenta, electrons.weights,
            electrons.charge, electrons.mass, sim.dt, order, "boris",
            (grid.lo, grid.hi, tuple(range(ndim))),
        )
        for part, define, paper in (
            ("gather + push", ("-DREPRO_GATHER_PUSH_ONLY",), "2.63x (gather)"),
            ("whole pass", (), "4.60x (deposition)"),
        ):
            backends = {
                lanes: compiled.CBackend(*compiled.compile_c_library(
                    cc, compiled.SIMD_FLAGS + (f"-DREPRO_RB={lanes}",) + define
                ))
                for lanes in LANE_COUNTS
            }
            best = dict.fromkeys(LANE_COUNTS, float("inf"))
            for _ in range(7):
                for lanes, backend in backends.items():
                    grid.zero_sources()
                    t0 = time.perf_counter()
                    compiled.run_advance(backend, "advance", *args)
                    best[lanes] = min(best[lanes], time.perf_counter() - t0)
            for lanes in LANE_COUNTS:
                rows.append([
                    f"Fused {part}, {ndim}D order {order}",
                    f"compiled, {lanes} lane{'s' if lanes > 1 else ''}",
                    f"{best[lanes] / electrons.n * 1e6:.3f}",
                    "1.0x" if lanes == 1
                    else f"{best[1] / best[lanes]:.2f}x vs 1 lane",
                    paper if lanes == compiled.LANES else "",
                ])
    return rows


def _per_particle_times(workload, name):
    """(gather, deposition) seconds per particle of kernel-table rung ``name``."""
    sim, electrons = workload
    ks = get_kernel_set(name)
    n = electrons.n
    grid, dt = sim.grid, sim.dt
    pos = electrons.positions
    pos_new = pos + 0.2 * grid.dx[0]
    vel = electrons.velocities()
    w = electrons.weights
    t_gather = _measure(lambda: ks.gather(grid, pos, ORDER)) / n
    t_dep = _measure(
        lambda: ks.deposit_current(grid, pos, pos_new, vel, w, -q_e, dt, ORDER)
    ) / n
    return t_gather, t_dep


def test_kernel_optimization(benchmark, workload, table):
    benchmark.pedantic(lambda: None, rounds=1)  # timings measured below
    names = available_kernel_variants()  # vectorized[, compiled]
    times = {name: _per_particle_times(workload, name) for name in names}

    rows = []
    for col, routine in enumerate(("Gather", "Deposition")):
        for prev, name in zip((None,) + names, names):
            t = times[name][col]
            backend = get_kernel_set(name).backend
            label = name if backend == "numpy" else f"{name} ({backend})"
            rows.append([
                routine, label, f"{t * 1e6:.3f}",
                "1.0x" if prev is None
                else f"{times[prev][col] / t:.1f}x vs {prev}",
                "",
            ])
    if "compiled" in times:
        try:
            rows += _vector_length_rows()
        except ConfigurationError as exc:  # a compiler without the SIMD flags
            print(f"no vector-length rows: {exc}")
    table(
        "Sec. V.A.1: kernel optimization (registry rungs: speed-up over the "
        "rung above; fused rows: speed-up vs vector length inside the "
        "compiled pass, the paper's scalar-vs-SIMD experiment)",
        ["Routine", "Variant", "us/particle", "Speed up", "paper (A64FX)"],
        rows,
    )
    # the native tier, when built, must clearly beat NumPy
    if "compiled" in times:
        assert times["vectorized"][1] / times["compiled"][1] > 3.0


@pytest.mark.parametrize("name", available_kernel_variants())
def test_bench_gather(benchmark, workload, name):
    sim, electrons = workload
    benchmark(get_kernel_set(name).gather, sim.grid, electrons.positions, ORDER)


@pytest.mark.parametrize("name", available_kernel_variants())
def test_bench_deposit(benchmark, workload, name):
    sim, electrons = workload
    ks = get_kernel_set(name)
    pos = electrons.positions
    pos_new = pos + 0.2 * sim.grid.dx[0]
    vel = electrons.velocities()

    def run():
        sim.grid.zero_sources()
        ks.deposit_current(
            sim.grid, pos, pos_new, vel, electrons.weights, -q_e, sim.dt, ORDER
        )

    benchmark(run)
