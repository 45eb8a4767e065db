"""CI gate: every kernel tier computes the same physics, and the compiled
tier earns its keep over the NumPy path.

The dispatch registry (:mod:`repro.particles.kernels`) holds one NumPy
path (``vectorized``) and one native path (``compiled``); switching
between them must be *safe*, and the native one must be *profitable*.
This script enforces that contract on the Sec. V.A.1 benchmark workload
(2D uniform plasma, order-3 shapes, Morton-sorted at cell granularity):

1. cross-validates ``compiled`` against ``vectorized`` with
   :func:`~repro.particles.kernels.validate_kernel_set` across all
   dimensionalities — any deviation beyond machine precision fails.  The
   independent check of ``vectorized`` itself (its histogram scatters
   against ``np.add.at``, its Esirkepov against a textbook evaluation, its
   gather against a scalar loop) lives in the test suite,
   ``tests/oracles.py``;
2. re-validates every variant on float32 field storage against the
   per-kernel :data:`~repro.particles.kernels.FLOAT32_ERROR_BUDGET`
   (``validate_kernel_set`` raises ``PrecisionError`` on a breach);
3. when the compiled tier is registered (a C compiler was found), times
   the Esirkepov current deposition and the field gather on it and on
   ``vectorized`` and fails (exit 1) if the compiled deposition does not
   beat the NumPy path by :data:`REQUIRED_COMPILED_SPEEDUP`; when no
   backend is usable the tier is reported with its reason and the
   variant ``kernels="compiled"`` falls back to, and the gate still
   passes (exit 0) — the NumPy tiers remain the contract;
4. with the compiled tier, times the fused particle pass against the
   same kernels driven through gather -> push -> deposit
   (``advance_particles`` with the ``advance`` slot stripped) on the
   96^2, 16-per-cell, order-3 deck of the repo benchmark, and fails if
   fusing does not pay :data:`REQUIRED_FUSED_SPEEDUP`.

Run:  PYTHONPATH=src python benchmarks/check_kernel_fastpath.py
"""

import dataclasses
import sys
import time

import numpy as np

from repro.constants import q_e
from repro.particles.advance import advance_particles
from repro.particles.kernels import (
    available_kernel_variants,
    get_kernel_set,
    resolve_kernel_set,
    validate_kernel_set,
)
from repro.particles.sorting import sort_species_by_bin
from repro.scenarios.uniform_plasma import build_uniform_plasma

#: worst scale-normalized deviation any variant may show vs. vectorized
NUMERIC_TOLERANCE = 1e-12
#: required margin of the compiled deposition over vectorized when it is
#: available (measured ~10x; 3x keeps slack for loaded CI boxes)
REQUIRED_COMPILED_SPEEDUP = 3.0
#: required margin of the fused compiled pass over the three-phase pass
#: on the same kernels (measured ~1.7x here)
REQUIRED_FUSED_SPEEDUP = 1.4
ORDER = 3
FUSED_WORKLOAD = dict(n_cells=(96, 96), ppc=(4, 4), shape_order=ORDER,
                      kernels="compiled")
WORKLOAD = dict(n_cells=(24, 24), ppc=4, shape_order=ORDER, temperature_uth=0.05)


def best_of(fn, rounds: int = 7) -> float:
    fn()  # warm-up
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def fused_speedup() -> float:
    """Three-phase over fused time of one particle pass, both compiled."""
    sim, electrons = build_uniform_plasma(**FUSED_WORKLOAD)
    sim.step(3)  # self-consistent fields and a thermalised cloud
    fused = sim.kernel_set
    three_phase = dataclasses.replace(fused, advance=None)
    start = electrons.positions, electrons.momenta

    def one_pass(kernel_set):
        # both routes return new arrays, so rewinding is two assignments
        electrons.positions, electrons.momenta = start
        sim.grid.zero_sources()
        advance_particles(sim.grid, electrons, kernel_set, "boris", sim.dt,
                          ORDER)

    t_fused = best_of(lambda: one_pass(fused))
    t_three = best_of(lambda: one_pass(three_phase))
    print(f"\nfused vs three-phase compiled pass ({electrons.n} particles, "
          f"order {ORDER}):")
    print(f"  {t_three * 1e3:8.3f} ms -> {t_fused * 1e3:8.3f} ms  "
          f"({t_three / t_fused:.2f}x)")
    return t_three / t_fused


def main() -> int:
    failures = 0
    print("kernel variant cross-validation (worst deviation vs vectorized):")
    for name in available_kernel_variants():
        if name == "vectorized":
            continue
        for ndim in (1, 2, 3):
            errors = validate_kernel_set(name, ndim=ndim, order=ORDER)
            worst = max(errors.values())
            status = "ok" if worst < NUMERIC_TOLERANCE else "FAIL"
            if worst >= NUMERIC_TOLERANCE:
                failures += 1
            print(f"  {name:11s} ndim={ndim}: {worst:9.2e}  {status}")

    print("float32 storage vs per-kernel error budget:")
    for name in available_kernel_variants():
        for ndim in (1, 2, 3):
            try:
                errors = validate_kernel_set(
                    name, ndim=ndim, order=ORDER, precision="float32")
            except Exception as exc:  # PrecisionError carries the breach
                failures += 1
                print(f"  {name:11s} ndim={ndim}: FAIL ({exc})")
                continue
            worst = max(errors.values())
            print(f"  {name:11s} ndim={ndim}: {worst:9.2e}  ok")

    compiled_speedup = fused = None
    if "compiled" in available_kernel_variants():
        sim, electrons = build_uniform_plasma(**WORKLOAD)
        sort_species_by_bin(electrons, sim.grid, tile_cells=1)
        rng = np.random.default_rng(0)
        for comp in ("Ex", "Ey", "Ez", "Bx", "By", "Bz"):
            sim.grid.fields[comp][...] = rng.normal(size=sim.grid.shape)
        grid, dt = sim.grid, sim.dt
        pos = electrons.positions
        pos_new = pos + 0.2 * grid.dx[0]
        vel = electrons.velocities()
        w = electrons.weights

        def times(ks):
            return (
                best_of(lambda: ks.deposit_current(
                    grid, pos, pos_new, vel, w, -q_e, dt, ORDER)),
                best_of(lambda: ks.gather(grid, pos, ORDER)),
            )

        v_dep, v_gath = times(get_kernel_set("vectorized"))
        ks = get_kernel_set("compiled")
        c_dep, c_gath = times(ks)
        compiled_speedup = v_dep / c_dep
        print(f"\ncompiled tier ({ks.backend} backend) vs vectorized "
              f"({electrons.n} particles, order {ORDER}):")
        print(f"  deposition: {v_dep * 1e3:8.3f} ms -> {c_dep * 1e3:8.3f} ms  "
              f"({compiled_speedup:.2f}x)")
        print(f"  gather:     {v_gath * 1e3:8.3f} ms -> {c_gath * 1e3:8.3f} ms  "
              f"({v_gath / c_gath:.2f}x, informational)")
        fused = fused_speedup()
    else:
        ks, reason = resolve_kernel_set("compiled")
        print(f"\ncompiled tier unavailable ({reason}): kernels=\"compiled\" "
              f"runs {ks.name}; skipping its timing gates")

    if failures:
        print(f"FAIL: {failures} variant/ndim combination(s) deviate beyond "
              f"{NUMERIC_TOLERANCE:.0e}")
        return 1
    if compiled_speedup is not None and compiled_speedup < REQUIRED_COMPILED_SPEEDUP:
        print(f"FAIL: compiled deposition speedup {compiled_speedup:.2f}x over "
              f"vectorized is under the required {REQUIRED_COMPILED_SPEEDUP:.2f}x")
        return 1
    if fused is not None and fused < REQUIRED_FUSED_SPEEDUP:
        print(f"FAIL: the fused compiled pass is {fused:.2f}x the three-phase "
              f"pass, under the required {REQUIRED_FUSED_SPEEDUP:.2f}x")
        return 1
    print(f"OK: {', '.join(available_kernel_variants())} agree at machine "
          "precision")
    return 0


if __name__ == "__main__":
    sys.exit(main())
