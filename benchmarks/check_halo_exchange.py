"""CI gate: the pairwise halo exchange is correct and weak-scalable.

The pairwise exchange (:mod:`repro.parallel.halo`) replaced the global
assemble/scatter path in the distributed step; this gate enforces the
two properties that justify the replacement:

1. **correctness** — a 4-rank Langmuir run on the pairwise path matches
   the monolithic single-grid run to machine precision (1e-9 of the
   field scale after 40 steps, the same bar as the tier-1 substrate
   test);
2. **surface scaling** — halo traffic is a *surface* term (the
   global-assembly path it replaced moved the whole volume).  A rank's
   fields are one tile, so each step's field fill writes, per rank and
   component, exactly the tile's guard-padded samples minus those it
   owns, never more than per-box field grids wrote (equal when a rank
   holds one box); every applied sample is accounted for by the fold,
   source and field plans.

It also prints the alpha-beta wire time of the measured per-pair bytes
on a reference machine (informational).

Run:  PYTHONPATH=src python benchmarks/check_halo_exchange.py
"""

import sys

import numpy as np

from repro.constants import m_e, plasma_wavelength, q_e
from repro.core.simulation import Simulation
from repro.grid.yee import YeeGrid
from repro.parallel.distributed import DistributedSimulation
from repro.particles.injection import UniformProfile
from repro.particles.species import Species
from repro.perfmodel.machines import get_machine
from repro.perfmodel.network import measured_halo_time

#: relative-to-scale tolerance of the correctness leg (matches tier 1)
CORRECTNESS_TOL = 1e-9
N_STEPS = 40
MAX_GRID = 8


def build_distributed(n_cells, n0, ppc, u0, steps):
    length = plasma_wavelength(n0) * n_cells / 16.0
    dist = DistributedSimulation(
        (n_cells,) * 2, (0.0, 0.0), (length, length),
        n_ranks=4, max_grid_size=MAX_GRID,
        cfl=0.9, shape_order=2, smoothing_passes=0,
    )
    e = Species("electrons", charge=-q_e, mass=m_e, ndim=2)
    k = 2 * np.pi / length

    def perturb(sp):
        sp.momenta[:, 0] = u0 * np.sin(k * sp.positions[:, 0])

    dist.add_species(e, profile=UniformProfile(n0), ppc=ppc,
                     momentum_init=perturb)
    dist.step(steps)
    return dist


def main() -> int:
    failures = 0
    n0, ppc, u0 = 1e24, (2, 2), 1e-3
    length = plasma_wavelength(n0)

    # 1. correctness: pairwise-exchange run vs the monolithic grid
    mono = Simulation(
        YeeGrid((16, 16), (0.0, 0.0), (length, length), guards=4),
        cfl=0.9, shape_order=2, smoothing_passes=0,
    )
    e = Species("electrons", charge=-q_e, mass=m_e, ndim=2)
    mono.add_species(e, profile=UniformProfile(n0), ppc=ppc)
    k = 2 * np.pi / length
    e.momenta[:, 0] = u0 * np.sin(k * e.positions[:, 0])
    mono.step(N_STEPS)

    dist = build_distributed(16, n0, ppc, u0, N_STEPS)
    ex_mono = mono.grid.interior_view("Ex")
    ex_dist = dist.global_field_view("Ex")
    scale = float(np.max(np.abs(ex_mono)))
    worst = float(np.max(np.abs(ex_dist - ex_mono))) / scale
    status = "ok" if worst < CORRECTNESS_TOL else "FAIL"
    print(f"pairwise vs monolithic after {N_STEPS} steps: "
          f"max |dEx|/scale = {worst:.2e}  {status}")
    if worst >= CORRECTNESS_TOL:
        failures += 1

    # 2. surface scaling.  Every rank's fields are one tile, so the field
    #    fill is the tile's surface, not a sum over its boxes: the old
    #    "samples per box constant" no longer holds (a bigger tile moves
    #    fewer samples per box).  Asserted instead: the exact per-rank
    #    field-fill count from the tile's shape, that it does not exceed
    #    the per-box layout's, and that the fold (per box), source and
    #    field plans account for every applied sample.
    def surface(shape, guards):
        return int(np.prod([n + 1 + 2 * guards for n in shape])
                   - np.prod(shape))

    steps = 5
    for n_cells in (16, 32):
        run = build_distributed(n_cells, n0, ppc, u0, steps=steps)
        tiling, g = run.tiling, run.domain.guards
        (fill,) = tiling.fill_overlaps.plans.values()
        plans = [*run.fold_overlaps.plans.values(),
                 *tiling.source_overlaps.plans.values(), fill]
        n_ranks = len(tiling.tiles)
        tile = tiling.tiles[0].shape
        per_rank = fill.samples / n_ranks
        exact = 6 * surface(tile, g)
        per_box = len(run.boxes) // n_ranks * 6 * surface((MAX_GRID,) * 2, g)
        accounted = run.halo_samples == steps * sum(p.samples for p in plans)
        ok = per_rank == exact and per_rank <= per_box and accounted
        print(f"  n_cells={n_cells:3d}: {len(run.boxes):3d} boxes of "
              f"{MAX_GRID}^2 in {n_ranks} tiles of {tile}: field fill "
              f"{per_rank:.0f} samples/rank/step (tile surface {exact}, "
              f"per-box grids {per_box}), {run.halo_payload_bytes} payload "
              f"bytes total  {'ok' if ok else 'FAIL'}")
        if not ok:
            failures += 1
    if not failures:
        print("OK: the field fill per rank is its tile's surface, at most "
              "the per-box layout's")

    # 3. informational: alpha-beta wire time of the measured traffic
    machine = get_machine("frontier")
    t_wire = measured_halo_time(
        machine, dist.comm.pair_bytes, messages_per_pair=2 * N_STEPS
    )
    print(f"measured halo wire time on {machine.name}: "
          f"{t_wire * 1e6:.1f} us for the whole {N_STEPS}-step run")

    if failures:
        print(f"FAIL: {failures} halo-exchange gate(s) failed")
        return 1
    print("OK: pairwise halo exchange is machine-precision correct and "
          "surface-scaling")
    return 0


if __name__ == "__main__":
    sys.exit(main())
