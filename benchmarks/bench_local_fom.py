"""The WarpX figure of merit, *measured* on this machine's Python engine.

Table IV tracks FOM across machines; this bench adds the honest local
datum: Eq. (1) evaluated on a real uniform-plasma run of this package
(one "node", 100% of the "machine").  It makes no claim of competing with
Frontier — it anchors where a NumPy PIC engine sits on the same axis and
checks that the FOM accounting plumbing works on measured data."""

import numpy as np
import pytest

from repro.particles.kernels import available_kernel_variants
from repro.perfmodel.fom import figure_of_merit
from repro.scenarios.uniform_plasma import build_uniform_plasma


def run_workload(n_cells=(48, 48), ppc=2, steps=20, **sim_kwargs):
    sim, electrons = build_uniform_plasma(
        n_cells, ppc=ppc, shape_order=2, temperature_uth=0.01, **sim_kwargs
    )
    sim.step(2)  # warm-up
    sim.timers.step_times.clear()
    sim.step(steps)
    avg = float(np.mean(sim.timers.step_times))
    n_c = float(np.prod(n_cells))
    n_p = float(electrons.n)
    return n_c, n_p, avg


def test_local_fom(benchmark, table):
    # the NumPy row names its tier: the default is the native one
    n_c, n_p, avg = benchmark.pedantic(
        run_workload, kwargs=dict(kernels="vectorized"), rounds=1
    )
    fom = figure_of_merit(n_c, n_p, avg, percent_of_system=1.0)
    rows = [
        ["cells", f"{n_c:.0f}"],
        ["macroparticles", f"{n_p:.0f}"],
        ["avg time/step [s]", f"{avg:.4f}"],
        ["FOM (vectorized, float64)", f"{fom:.3e}"],
    ]
    if "compiled" in available_kernel_variants():
        # the engine's own Table-III-style rows: native kernels, then
        # native kernels + float32 field storage
        _, _, avg_c = run_workload(kernels="compiled")
        fom_c = figure_of_merit(n_c, n_p, avg_c, percent_of_system=1.0)
        _, _, avg_mp = run_workload(kernels="compiled", precision="mixed")
        fom_mp = figure_of_merit(n_c, n_p, avg_mp, percent_of_system=1.0)
        rows += [
            ["avg time/step [s] (compiled)", f"{avg_c:.4f}"],
            ["FOM (compiled, float64)", f"{fom_c:.3e}  ({fom_c / fom:.2f}x)"],
            ["avg time/step [s] (compiled, MP)", f"{avg_mp:.4f}"],
            ["FOM (compiled, mixed)", f"{fom_mp:.3e}  ({fom_mp / fom:.2f}x)"],
        ]
        assert fom_c > fom  # the compiled tier must move the local FOM
    rows.append(["Frontier 7/22 (paper)", "1.1e13"])
    table(
        "Local FOM: Eq. (1) on this machine's Python engine (measured)",
        ["quantity", "value"],
        rows,
    )
    print(f"\nFrontier outruns this laptop-class NumPy engine by "
          f"{1.1e13 / fom:.1e}x on the FOM axis — the gap the paper's "
          "three-level parallelization strategy exists to close.")
    assert fom > 0
    assert fom < 1.1e13  # we are, confidently, not Frontier
