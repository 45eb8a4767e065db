"""CI gate: distributed Galilean PSATD tracks the monolithic solve.

A local-FFT spectral box is *not* bit-identical to the monolithic FFT —
the analytic PSATD propagator has tails beyond any finite guard region —
so the contract this gate enforces is the documented one (DESIGN.md,
``tests/test_psatd_distributed.py``):

1. **guard-width tolerance** — the decomposed boosted-frame LWFA on two
   ranks matches the monolithic Galilean-PSATD run within a per-guard-
   depth tolerance (``repro.scenarios.boosted_lwfa.GUARD_TOLERANCES``,
   the table the test imports too) on every recorded field component
   and on the total kinetic energy, and the deep probe beats the
   shallow one (the property that justifies guard width being a
   solver-declared constant rather than a grid default).
2. **cross-transport bitwise** — across *transports* the computation is
   identical arithmetic, so the loopback and multiprocessing runs of the
   same decomposition must be bit-identical: every box's fields and
   every particle array, equality not machine precision.

Run:  PYTHONPATH=src python benchmarks/check_psatd_distributed.py
"""

import json
import os
import sys
from datetime import datetime, timezone

import numpy as np

from repro.parallel.mp_transport import (
    run_distributed_local,
    run_distributed_mp,
)
from repro.scenarios.boosted_lwfa import (
    GUARD_TOLERANCES,
    BoostedLWFASetup,
    build_monolithic,
    make_distributed_build,
)

SETUP = BoostedLWFASetup(n_cells=64, ppc=2)
N_RANKS = 2
TOLERANCE_STEPS = 30
PARITY_STEPS = 6
COMPONENTS = ("Ex", "Ey", "Bz")
RESULTS_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    "results",
    "BENCH_psatd_distributed.json",
)


def run_pair(guards):
    """Per-component relative field errors + KE error at one guard depth."""
    mono, electrons = build_monolithic(SETUP, guards=max(4, guards))
    dist = make_distributed_build(
        SETUP, n_ranks=N_RANKS, max_grid_size=16, psatd_guards=guards
    )()
    mono.step(TOLERANCE_STEPS)
    dist.step(TOLERANCE_STEPS)
    errs = {}
    for comp in COMPONENTS:
        got = dist.global_field_view(comp)
        want = mono.grid.interior_view(comp)
        errs[comp] = float(np.max(np.abs(got - want)) / np.max(np.abs(want)))
    ke_mono = electrons.kinetic_energy()
    ke_dist = dist.species["electrons"].gather_all().kinetic_energy()
    return errs, abs(ke_dist - ke_mono) / ke_mono


def check_guard_tolerances(results) -> int:
    bad = 0
    for guards, (field_tol, ke_tol) in sorted(GUARD_TOLERANCES.items()):
        errs, ke_err = results[guards]
        for comp, err in errs.items():
            if err >= field_tol:
                print(
                    f"FAIL: guards={guards}: {comp} error {err:.2e} "
                    f">= tolerance {field_tol:.0e}"
                )
                bad += 1
        if ke_err >= ke_tol:
            print(
                f"FAIL: guards={guards}: kinetic-energy error {ke_err:.2e} "
                f">= tolerance {ke_tol:.0e}"
            )
            bad += 1
    depths = sorted(results)
    shallow, deep = results[depths[0]][0], results[depths[-1]][0]
    for comp in COMPONENTS:
        if deep[comp] >= shallow[comp]:
            print(
                f"FAIL: {comp} error did not shrink with guard depth "
                f"({depths[0]}: {shallow[comp]:.2e} -> "
                f"{depths[-1]}: {deep[comp]:.2e})"
            )
            bad += 1
    if bad == 0:
        worst = max(err for errs, _ in results.values() for err in errs.values())
        print(
            f"OK: {TOLERANCE_STEPS}-step decomposed run within tolerance at "
            f"guard depths {depths} (worst field error {worst:.2e}), "
            "improving with depth"
        )
    return bad


def check_cross_transport() -> int:
    build = make_distributed_build(
        SETUP, n_ranks=N_RANKS, max_grid_size=32, psatd_guards=6
    )
    want = run_distributed_local(build, PARITY_STEPS)
    got = run_distributed_mp(build, PARITY_STEPS, N_RANKS, run_timeout=600.0)
    bad = 0
    for i, comps in want.fields.items():
        for comp, arr in comps.items():
            if not np.array_equal(got.fields[i][comp], arr):
                print(f"FAIL: field {comp} of box {i} differs across transports")
                bad += 1
    for name, per_box in want.species.items():
        for i, arrs in per_box.items():
            g = got.species[name][i]
            og, ow = np.argsort(g["ids"]), np.argsort(arrs["ids"])
            for key in ("ids", "positions", "momenta", "weights"):
                if not np.array_equal(g[key][og], arrs[key][ow]):
                    print(
                        f"FAIL: particle {key} in box {i} differ "
                        "across transports"
                    )
                    bad += 1
    if got.halo != want.halo:
        print(f"FAIL: halo totals diverge ({got.halo} vs {want.halo})")
        bad += 1
    if bad == 0:
        print(
            f"OK: {PARITY_STEPS}-step spectral run bit-identical across "
            f"transports ({len(want.fields)} boxes, "
            f"{got.total_particles()} particles)"
        )
    return bad


def main() -> int:
    results = {g: run_pair(g) for g in sorted(GUARD_TOLERANCES)}
    failures = check_guard_tolerances(results)
    parity_failures = check_cross_transport()
    failures += parity_failures
    os.makedirs(os.path.dirname(RESULTS_PATH), exist_ok=True)
    with open(RESULTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "generated": datetime.now(timezone.utc).isoformat(),
                "n_ranks": N_RANKS,
                "n_cells": SETUP.n_cells,
                "steps": TOLERANCE_STEPS,
                "guard_sweep": {
                    str(g): {
                        "field_errors": errs,
                        "kinetic_energy_error": ke,
                        "field_tolerance": GUARD_TOLERANCES[g][0],
                        "kinetic_energy_tolerance": GUARD_TOLERANCES[g][1],
                    }
                    for g, (errs, ke) in results.items()
                },
                "cross_transport_bitwise": parity_failures == 0,
            },
            fh,
            indent=2,
        )
    if failures:
        print(f"FAIL: {failures} distributed-PSATD gate(s) failed")
        return 1
    print("OK: distributed Galilean PSATD within documented tolerance "
          "and transport-independent")
    return 0


if __name__ == "__main__":
    sys.exit(main())
