"""Is the run that was just timed still right?  A fast wrong run is a failure.

Per repeat: fields finite, particle count conserved on periodic decks,
energy drift and Gauss-residual growth over the first ``HORIZON`` timed
steps inside the workload's tolerances, the compiled tier not lost, and the
hybrid target removed its patch once and shifted its window as expected.
Once per invocation (``twin_checks``): the decomposed state after the
warm-up steps against its loopback and monolithic twins, and the compiled
tier against the NumPy reference.
"""

from __future__ import annotations

from typing import Any, Dict, List

import numpy as np

from .workloads import (
    HORIZON, WARMUP_STEPS, is_distributed, owned_boxes, timed_steps,
)

#: decomposed Yee vs monolithic: identical arithmetic up to summation order
YEE_MONO_TOL = 1.0e-10
#: decomposed 12-guard PSATD vs monolithic (benchmarks/check_psatd_distributed.py)
PSATD_FIELD_TOL = 8.0e-3
PSATD_KE_TOL = 3.0e-3
COMPARE_FIELDS = ("Ex", "Ey", "Bz")


# -- Gauss law ----------------------------------------------------------------
def gauss_field(sim) -> np.ndarray:
    """``div E - rho/eps0`` on the interior nodes of the global grid."""
    from repro.diagnostics import gauss_law_residual

    if is_distributed(sim):
        for comp in ("Ex", "Ey"):
            sim.global_field_view(comp)  # assembles into sim.domain
        species = [dsp.gather_all() for dsp in sim.species.values()]
        return gauss_law_residual(sim.domain, species, order=sim.shape_order)
    return gauss_law_residual(
        sim.grid, list(sim.species.values()), order=sim.shape_order
    )


def gauss_growth(g0: np.ndarray, g1: np.ndarray) -> float:
    """Growth of the residual, which charge conservation freezes in time,
    over its own scale (rho/eps0 of the un-neutralised electron plasma)."""
    return float(np.max(np.abs(g1 - g0)) / np.max(np.abs(g0)))


# -- hybrid target ------------------------------------------------------------
def hybrid_regime(sim) -> str:
    if sim.patches:
        return "mr_active"
    if sim.time > sim.moving_window.start_time:
        return "window"
    return "mr_removed"


def hybrid_outcome(sim, total_steps: int) -> Dict[str, Any]:
    """What the run did against what its deck says it must do."""
    from repro.core.moving_window import MovingWindow

    window = sim.moving_window
    twin = MovingWindow(window.speed, window.start_time, window.direction)
    dx = sim.grid.dx[0]
    t = 0.0
    for _ in range(total_steps):
        twin.cells_to_shift(t, sim.dt, dx)
        t += sim.dt
    return {
        "removals": len(sim.removal_log),
        "patches_left": len(sim.patches),
        "cells_shifted": window.cells_shifted,
        "cells_expected": twin.cells_shifted,
        "lo_shift_cells": (sim.grid.lo[0] / dx) * window.direction,
    }


# -- per-repeat verdict -------------------------------------------------------
def verify_run(spec, run: Dict[str, Any]) -> List[str]:
    """Reasons this repeat must be counted as failed (empty: healthy)."""
    bad: List[str] = []
    if run["failure"] is not None:
        bad.append(run["failure"])
    if not run["finite"]:
        bad.append("non-finite field values after the timed steps")
    if spec.periodic and run["n_end"] != run["n0"]:
        bad.append(f"particle count changed {run['n0']} -> {run['n_end']}")
    if spec.compiled and (
        run.get("kernels") != "compiled" or run.get("kernel_fallback_reason")
    ):
        bad.append(
            "compiled tier lost: running "
            f"{run.get('kernels')!r} ({run.get('kernel_fallback_reason')})"
        )
    if spec.periodic and "energy_h" in run:
        drift = abs(run["energy_h"] - run["energy0"]) / run["energy0"]
        run["energy_drift_rel"] = drift
        gauss = run.get("gauss_residual")
        # the tolerances belong to the full-size decks; the tiny smoke decks
        # drift more and only have to stay finite
        if run["smoke"]:
            return bad if np.isfinite(drift) else bad + ["energy is not finite"]
        if not drift <= spec.energy_tol:
            bad.append(f"energy drift {drift:.3e} > {spec.energy_tol:.1e}")
        if gauss is not None and not gauss <= spec.gauss_tol:
            bad.append(f"Gauss residual grew {gauss:.3e} > {spec.gauss_tol:.1e}")
    hybrid = run.get("hybrid")
    if hybrid is not None and run["failure"] is None:
        if hybrid["removals"] != 1 or hybrid["patches_left"] != 0:
            bad.append(f"patch removed {hybrid['removals']} times, expected once")
        if hybrid["cells_shifted"] != hybrid["cells_expected"] or (
            abs(hybrid["lo_shift_cells"] - hybrid["cells_shifted"]) > 1e-6
        ):
            bad.append(
                f"window shifted {hybrid['cells_shifted']} cells (grid moved "
                f"{hybrid['lo_shift_cells']:.3f}), expected {hybrid['cells_expected']}"
            )
    return bad


# -- invocation-level twin checks ---------------------------------------------
def warm_state(sim) -> Dict[str, Any]:
    """What a decomposed run hands the twin checks after its warm-up."""
    state: Dict[str, Any] = {
        "kinetic": sum(
            dsp.per_box[i].kinetic_energy()
            for dsp in sim.species.values()
            for i in owned_boxes(sim)
        )
    }
    if sim.local_rank is None:
        state["global"] = {
            comp: sim.global_field_view(comp).copy() for comp in COMPARE_FIELDS
        }
    else:
        state["boxes"] = {
            i: {c: a.copy() for c, a in sim.box_grids[i].fields.items()}
            for i in owned_boxes(sim)
        }
        state["particles"] = {
            name: {
                i: _sorted_particles(dsp.per_box[i]) for i in owned_boxes(sim)
            }
            for name, dsp in sim.species.items()
        }
    return state


def _sorted_particles(sp) -> Dict[str, np.ndarray]:
    order = np.argsort(sp.ids, kind="stable")
    return {
        "ids": sp.ids[order], "positions": sp.positions[order],
        "momenta": sp.momenta[order], "weights": sp.weights[order],
    }


def _rel_linf(got: Dict[str, np.ndarray], want_grid) -> float:
    """Worst field difference over the largest field (B in units of E).

    One common scale, not one per component: in these 1D-perturbed decks
    Ey and Bz hold only round-off, which has no meaningful relative error.
    """
    from repro.constants import c

    unit = {comp: (c if comp.startswith("B") else 1.0) for comp in got}
    diff = max(
        unit[comp] * float(np.max(np.abs(arr - want_grid.interior_view(comp))))
        for comp, arr in got.items()
    )
    scale = max(
        unit[comp] * float(np.max(np.abs(want_grid.interior_view(comp))))
        for comp in got
    )
    return diff / scale


def twin_checks(spec, opts, run: Dict[str, Any], rec) -> Dict[str, Any]:
    """Compare the measured run's state after warm-up with independent twins.

    Returns the agreement numbers, the list of failed checks and, in the
    traced pass, the twins' step times (they become ratio metrics).
    """
    timed = HORIZON if opts.traced else 0
    out: Dict[str, Any] = {"failures": []}
    if spec.compiled:
        from repro.particles.kernels import validate_kernel_set

        with rec.span("particles.validate_kernel_set"):
            try:
                out["compiled_worst_dev"] = max(
                    validate_kernel_set("compiled").values()
                )
            except Exception as exc:
                out["failures"].append(f"validate_kernel_set: {exc}")
    if spec.kind != "dist" or "warm_state" not in run:
        return out

    states = run["warm_state"]
    states = states if isinstance(states, list) else [states]
    kinetic = sum(s["kinetic"] for s in states)
    if spec.ranks:
        # the same deck on the in-process loopback: must be bit-identical
        with rec.span("parallel.loopback_twin"):
            twin, _ = spec.build(opts.seed, opts.smoke, transport=None)
            twin.step(WARMUP_STEPS)
        mismatched = 0
        for state in states:
            for i, comps in state["boxes"].items():
                mismatched += sum(
                    not np.array_equal(arr, twin.box_grids[i].fields[c])
                    for c, arr in comps.items()
                )
            for name, per_box in state["particles"].items():
                for i, arrays in per_box.items():
                    want = _sorted_particles(twin.species[name].per_box[i])
                    mismatched += sum(
                        not np.array_equal(arrays[k], want[k]) for k in want
                    )
        out["mp_vs_loopback_mismatches"] = mismatched
        if mismatched:
            out["failures"].append(
                f"mp run differs from loopback in {mismatched} arrays"
            )
        got = {c: twin.global_field_view(c).copy() for c in COMPARE_FIELDS}
        with rec.span("parallel.loopback_twin"):
            out["loopback_step_s"] = timed_steps(twin, timed)
    else:
        got = states[0]["global"]

    with rec.span("core.mono_twin"):
        mono = spec.mono_twin(opts.seed, opts.smoke)
        mono.step(WARMUP_STEPS)
    linf = _rel_linf(got, mono.grid)
    out["decomp_vs_mono_linf"] = linf
    ke_mono = sum(sp.kinetic_energy() for sp in mono.species.values())
    out["decomp_vs_mono_ke_rel"] = abs(kinetic - ke_mono) / ke_mono
    with rec.span("core.mono_twin"):
        out["mono_step_s"] = timed_steps(mono, timed)
    spectral = mono.maxwell_solver == "psatd"
    field_tol = PSATD_FIELD_TOL if spectral else YEE_MONO_TOL
    ke_tol = PSATD_KE_TOL if spectral else YEE_MONO_TOL
    if not linf <= field_tol:
        out["failures"].append(
            f"decomposed vs monolithic fields differ {linf:.2e} > {field_tol:.0e}"
        )
    if not out["decomp_vs_mono_ke_rel"] <= ke_tol:
        out["failures"].append(
            "decomposed vs monolithic kinetic energy differ "
            f"{out['decomp_vs_mono_ke_rel']:.2e} > {ke_tol:.0e}"
        )
    return out
