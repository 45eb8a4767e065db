"""From raw repeats to named metrics, the printed report and --compare.

End-to-end metrics come from the untraced repeats only (step time and FOM
from the fastest timing of each step index, set-up as the fastest set-up,
memory as the median).  Per-layer metrics come from the traced repeat: phase
splits are deltas of ``sim.timers``, direct probes cross-check them, twins
and machine probes fill the rest.  Every group of per-layer metrics is
derived in isolation: a group that raises reads ``None`` with the reason.
"""

from __future__ import annotations

import json
import statistics
from typing import Any, Dict, List, Optional, Tuple

from .metrics import BETTER, END_TO_END, PER_LAYER, UNITS

Run = Dict[str, Any]
COMM_PHASES = ("fold_sources", "halo_sources", "halo_fields", "redistribute")


def quartiles(values: List[float]) -> List[float]:
    if len(values) < 2:
        return [values[0]] * 3 if values else []
    return statistics.quantiles(values, n=4)


def spread(values: List[float]) -> Optional[float]:
    """Inter-quartile distance as a share of the median."""
    if len(values) < 2:
        return None
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def step_ms_p50(run: Run) -> float:
    return statistics.median(run["step_s"]) * 1e3


# -- end to end ---------------------------------------------------------------
def quiet_steps(runs: List[Run]) -> List[float]:
    """Wall time [s] of every step index with the host taken out: the
    fastest of the repeats' timings of that step.

    The box is a few vCPUs of a shared host whose neighbours slow a whole
    stretch of steps by 10-40 % for seconds to a minute; that noise only
    ever adds time.  Every repeat runs the same deck from the same seed, so
    step ``k`` is the same work in each of them, and the fastest timing is
    the one the neighbours disturbed least.  Costs that belong to a step
    (the sort every 20th step, the patch-active regime of ``hybrid_mr``)
    stay: they recur at the same index in every repeat.
    """
    timed = [r["step_s"] for r in runs if r["step_s"]]
    return [min(steps) for steps in zip(*timed)]


def end_to_end(runs: List[Run]) -> Dict[str, Dict[str, Any]]:
    """The gated metrics.  Step time and FOM come from the quiet step times
    (median resp. mean over the step indices), set-up time is the fastest of
    the repeats' set-ups (the same one-sided noise), memory the median over
    the repeats; the per-repeat values are kept beside them."""
    from repro.perfmodel.fom import figure_of_merit

    per_repeat: Dict[str, List[float]] = {name: [] for name, _u, _b in END_TO_END}
    for run in runs:
        n = len(run["step_s"])
        per_repeat["step_ms_p50"].append(step_ms_p50(run))
        per_repeat["fom"].append(figure_of_merit(
            run["cells_sum"] / n, run["particles_sum"] / n,
            statistics.fmean(run["step_s"]), 1.0,
        ))
        per_repeat["setup_s"].append(run["setup_s"])
        per_repeat["peak_rss_mb"].append(run["rss_mb"])
    quiet = quiet_steps(runs)
    steps = sum(len(r["step_s"]) for r in runs)
    values = {name: statistics.median(v) for name, v in per_repeat.items()}
    values["step_ms_p50"] = statistics.median(quiet) * 1e3
    values["setup_s"] = min(per_repeat["setup_s"])
    values["fom"] = figure_of_merit(
        sum(r["cells_sum"] for r in runs) / steps,
        sum(r["particles_sum"] for r in runs) / steps,
        statistics.fmean(quiet), 1.0,
    )
    return {
        name: {
            "value": values[name],
            "unit": UNITS[name],
            "per_repeat": per_repeat[name],
            "quartiles": quartiles(per_repeat[name]),
        }
        for name in per_repeat
    }


# -- per layer ----------------------------------------------------------------
def _percentile(sorted_values: List[float], q: float) -> float:
    k = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[k]


def per_layer(
    spec, plain: List[Run], traced: Run, machine: Dict[str, Any],
) -> Tuple[Dict[str, Optional[float]], Dict[str, str]]:
    """Every PER_LAYER metric of one workload; 0 where the layer is idle."""
    from repro.perfmodel import kernels as counts

    values: Dict[str, Optional[float]] = {name: 0.0 for name, _u, _b in PER_LAYER}
    nulls: Dict[str, str] = dict(machine.get("nulls", {}))
    probes: Dict[str, Any] = traced.get("probes", {})
    for key, reason in traced.get("nulls", {}).items():
        nulls[key] = reason
    checks = traced.get("checks", {})
    phases = traced["phases"]
    calls = traced["phase_calls"]
    n = len(traced["step_s"])
    total_s = sum(traced["step_s"])
    pushed = traced["particles_sum"]
    p50 = statistics.median(step_ms_p50(r) for r in plain)
    dist = spec.kind == "dist"

    def group(names: Tuple[str, ...], fn) -> None:
        try:
            values.update(fn())
        except Exception as exc:  # isolation: a renamed phase nulls one group
            for name in names:
                values[name] = None
                nulls[name] = f"{type(exc).__name__}: {exc}"

    def probe(key: str) -> float:
        if probes.get(key) is None:
            raise LookupError(nulls.get(key, f"probe {key} did not run"))
        return probes[key]

    def machine_value(key: str) -> float:
        if machine.get(key) is None:
            raise LookupError(nulls.get(key, f"machine probe {key} did not run"))
        return machine[key]

    def particles() -> Dict[str, float]:
        def ns_pp(phase: str) -> float:
            if phase in phases:
                return phases[phase] / pushed * 1e9
            return probe(f"direct_{phase}_ns_pp")

        variant = "tiled" if traced.get("kernels") in ("tiled", "compiled") else "vectorized"
        order, ndim, itemsize = traced["shape_order"], traced["ndim"], traced["itemsize"]
        gather, deposit = ns_pp("gather"), ns_pp("deposit")
        gather_gbs = counts.gather_counts(order, ndim, itemsize, variant).bytes / gather
        deposit_gbs = counts.deposit_counts(order, ndim, itemsize, variant).bytes / deposit
        sort_ms = (
            phases["sort"] / calls["sort"] * 1e3 if calls.get("sort")
            else probe("direct_sort_ms")
        )
        return {
            "particles.gather_ns_pp": gather,
            "particles.push_ns_pp": ns_pp("push"),
            "particles.deposit_ns_pp": deposit,
            "particles.bc_ns_pp": phases.get("particle_boundaries", 0.0) / pushed * 1e9,
            "particles.sort_ms_per_call": sort_ms,
            "particles.pushed_per_step": pushed / n,
            "particles.gather_gbs_computed": gather_gbs,
            "particles.deposit_gbs_computed": deposit_gbs,
            "particles.deposit_stream_frac": deposit_gbs / machine_value("stream_triad_gbs"),
        }

    def grid() -> Dict[str, float]:
        # all ranks' solver time over all valid cells, so guard padding shows
        maxwell_s = sum(r.get("maxwell", 0.0) for r in traced["rank_phases"])
        ns_per_cell = maxwell_s / traced["cells_sum"] * 1e9
        nbytes = counts.maxwell_counts(traced["ndim"], traced["itemsize"]).bytes
        return {
            "grid.maxwell_ns_per_cell": ns_per_cell,
            "grid.fft_cells_over_valid": probe("fft_cells_over_valid"),
            "grid.source_bc_ms_per_step": phases.get("source_boundaries", 0.0) / n * 1e3,
            "grid.field_bc_ms_per_step": phases.get("field_boundaries", 0.0) / n * 1e3,
            "grid.zero_sources_ms_per_step": phases.get("zero_sources", 0.0) / n * 1e3,
            "grid.maxwell_gbs_computed": nbytes / ns_per_cell,
            "laser.antenna_ms_per_step": phases.get("antenna", 0.0) / n * 1e3,
        }

    def core() -> Dict[str, float]:
        pooled = sorted(s * 1e3 for r in plain for s in r["step_s"])
        glue = max(
            1.0 - sum(rank_phases.values()) / rank_total
            for rank_phases, rank_total in zip(
                traced["rank_phases"], traced["rank_step_total_s"]
            )
        )
        out = {
            "core.step_ms_p90": _percentile(pooled, 0.9),
            "core.step_ms_max": pooled[-1],
            "core.wall_s": statistics.median(sum(r["step_s"]) for r in plain),
            "core.import_s": statistics.median(r["import_s"] for r in plain),
            "core.glue_frac": glue,
        }
        if spec.kind == "mr":
            for regime, name in (
                ("mr_active", "core.mr_active_step_ms"),
                ("mr_removed", "core.mr_removed_step_ms"),
                ("window", "core.window_step_ms"),
            ):
                out[name] = statistics.median(
                    statistics.median(
                        s for s, g in zip(r["step_s"], r["regimes"]) if g == regime
                    ) * 1e3
                    for r in plain
                )
            out["core.mr_finalize_ms_per_step"] = phases["finalize_deposits"] / n * 1e3
            out["core.window_ms_per_step"] = phases.get("moving_window", 0.0) / n * 1e3
            out["core.mr_fine_cells"] = traced["fine_cells"]
        return out

    def parallel() -> Dict[str, float]:
        comm_s = sum(phases.get(k, 0.0) for k in COMM_PHASES)
        comm = traced["comm"]
        busy = traced["rank_busy_s"]
        processes = len(traced["rank_phases"])
        box_ns = max(
            rank_phases["particles"] / rank_pushed * 1e9
            for rank_phases, rank_pushed in zip(
                traced["rank_phases"], traced["rank_particles_sum"]
            )
        )
        out = {
            "parallel.box_particles_ns_pp": box_ns,
            "parallel.fold_ms_per_step": phases["fold_sources"] / n * 1e3,
            "parallel.halo_sources_ms_per_step": phases.get("halo_sources", 0.0) / n * 1e3,
            "parallel.halo_fields_ms_per_step": phases["halo_fields"] / n * 1e3,
            "parallel.redistribute_ms_per_step": phases["redistribute"] / n * 1e3,
            "parallel.comm_frac": comm_s / total_s,
            # time of the slowest rank over the messages one process sends
            "parallel.us_per_msg": comm_s / (comm["msgs"] / processes) * 1e6,
            "parallel.rank_imbalance": max(busy) / statistics.fmean(busy),
            "parallel.msgs_per_step": comm["msgs"] / n,
            "parallel.wire_bytes_per_step": comm["wire_bytes"] / n,
            "parallel.halo_payload_bytes_per_step": comm["halo_payload_bytes"] / n,
            "parallel.boxes": traced["boxes"],
            "parallel.guard_cells": traced["guard_cells"],
            "parallel.decomp_over_mono": p50 / (statistics.median(checks["mono_step_s"]) * 1e3),
            "diagnostics.decomp_vs_mono_linf": checks["decomp_vs_mono_linf"],
        }
        if "wire" in traced:
            out["parallel.wait_ms_per_step"] = traced["wire"]["wait_s"] / n * 1e3
            out["parallel.deliver_ms_per_step"] = traced["wire"]["deliver_s"] / n * 1e3
            out["parallel.mp_speedup_vs_loopback"] = (
                statistics.median(checks["loopback_step_s"]) * 1e3 / p50
            )
        return out

    group(tuple(k for k in values if k.startswith("particles.") and k != "particles.compiled_build_s"), particles)
    group(tuple(k for k in values if k.startswith(("grid.", "laser."))), grid)
    group(tuple(k for k in values if k.startswith("core.") and k != "core.mixed_step_ratio"), core)
    if spec.compiled:
        group(("core.mixed_step_ratio",),
              lambda: {"core.mixed_step_ratio": probe("mixed_step_ms") / p50})
    if dist:
        group(tuple(k for k in values if k.startswith("parallel.") and "pingpong" not in k)
              + ("diagnostics.decomp_vs_mono_linf",), parallel)
        group(("parallel.particles_migrated_per_step",),
              lambda: {"parallel.particles_migrated_per_step": probe("migrated_per_step")})
    if "checkpoint_write_ms" in probes:
        group(("diagnostics.checkpoint_write_ms", "diagnostics.checkpoint_read_ms",
               "diagnostics.checkpoint_bytes"),
              lambda: {f"diagnostics.{k}": probe(k) for k in
                       ("checkpoint_write_ms", "checkpoint_read_ms", "checkpoint_bytes")})
    group(("diagnostics.energy_drift_rel", "diagnostics.gauss_residual"), lambda: {
        "diagnostics.energy_drift_rel": traced.get("energy_drift_rel", 0.0),
        "diagnostics.gauss_residual": traced.get("gauss_residual", 0.0),
    })
    group(("observability.tracer_overhead_frac", "observability.spans_per_step",
           "observability.bench_span_us"), lambda: {
        "observability.tracer_overhead_frac": step_ms_p50(traced) / p50 - 1.0,
        "observability.spans_per_step": traced["tracer_spans"] / n,
        "observability.bench_span_us": traced["bench_span_us"],
    })
    for name, key in (
        ("particles.compiled_build_s", "compiled_build_s"),
        ("parallel.pingpong_alpha_us", "pingpong_alpha_us"),
        ("parallel.pingpong_beta_us_per_mib", "pingpong_beta_us_per_mib"),
        ("perfmodel.stream_triad_gbs", "stream_triad_gbs"),
        ("perfmodel.llc_bytes", "llc_bytes"),
        ("perfmodel.usable_cores", "usable_cores"),
    ):
        group((name,), lambda name=name, key=key: {name: machine_value(key)})
    runs = plain + [traced]
    values["failed_frac"] = sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
    return values, {k: v for k, v in nulls.items() if k in values and values[k] is None}


# -- printing -----------------------------------------------------------------
def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "null"
    if value == 0:
        return "0"
    if abs(value) >= 1e5 or abs(value) < 1e-3:
        return f"{value:.4e}"
    return f"{value:.4f}"


def print_workload(record: Dict[str, Any]) -> None:
    """Every metric by name with its unit, the phase table next to the
    step time it should sum to, and span self times of the traced pass."""
    name = record["workload"]
    plain = sum(not r["traced"] for r in record["repeats"])
    print(f"\n== {name}  (seed {record['seed']}, {record['steps_per_repeat']} timed "
          f"steps x {plain} untraced repeats, {record['particles']} particles)")
    for metric, entry in record["end_to_end"].items():
        raw = ", ".join(_fmt(v) for v in entry["per_repeat"])
        print(f"  {metric:<34s} {_fmt(entry['value']):>12s} {entry['unit']:<7s} [{raw}]")
    print(f"  {'failed_frac':<34s} {_fmt(record['failed'] / record['attempted']):>12s} "
          f"ratio   ({record['failed']} of {record['attempted']} steps)")
    for reason in record["failures"]:
        print(f"  FAILED: {reason}")
    table = record.get("phase_table")
    if table:
        print(f"  -- phases of the {table['source']} pass (ms/step, share of the step)")
        for phase, ms in sorted(table["phases_ms"].items(), key=lambda kv: -kv[1]):
            print(f"     {phase:<22s} {ms:10.3f} {100 * ms / table['step_ms_mean']:6.1f}%")
        total = sum(table["phases_ms"].values())
        print(f"     {'sum of phases':<22s} {total:10.3f} {100 * total / table['step_ms_mean']:6.1f}%"
              f"   step mean {table['step_ms_mean']:.3f} ms (glue "
              f"{100 * (1 - total / table['step_ms_mean']):.1f}%)")
    layer = record.get("per_layer")
    if layer:
        print("  -- per-layer metrics (traced pass)")
        for metric, value in layer.items():
            note = f"  # {record['nulls'][metric]}" if metric in record["nulls"] else ""
            print(f"     {metric:<40s} {_fmt(value):>12s} {UNITS[metric]}{note}")
        cross = record.get("cross_checks", {})
        for key, value in cross.items():
            print(f"     (direct probe) {key:<25s} {_fmt(value):>12s}")
        print("  -- benchmark spans: calls, total ms, self ms")
        for span, agg in sorted(record["span_self"].items()):
            print(f"     {span:<40s} {agg['calls']:5d} {agg['total_s'] * 1e3:10.2f} "
                  f"{agg['self_s'] * 1e3:10.2f}")


# -- compare ------------------------------------------------------------------
def compare(path_a: str, path_b: str, bounds: Dict[str, float]) -> int:
    """B against A under the BENCHMARK.json bounds.

    A pairing whose own run-to-run spread exceeds its bound is *unresolved*
    (not "unchanged") unless every value of B beats every value of A.
    """
    with open(path_a, encoding="utf-8") as fh:
        a = json.load(fh)
    with open(path_b, encoding="utf-8") as fh:
        b = json.load(fh)
    regressed = 0
    print(f"{'workload':<24s}{'metric':<14s}{'A':>12s}{'B':>12s}{'change':>9s}"
          f"{'bound':>7s}{'spread':>8s}  verdict")
    for name, rec_a in a["workloads"].items():
        rec_b = b["workloads"].get(name)
        if rec_b is None:
            continue
        for metric, bound in bounds.items():
            ea, eb = rec_a["end_to_end"][metric], rec_b["end_to_end"][metric]
            sign = 1.0 if BETTER[metric] == "lower" else -1.0
            worse = sign * (eb["value"] - ea["value"]) / ea["value"]
            noise = max(spread(ea["per_repeat"]) or 0.0, spread(eb["per_repeat"]) or 0.0)
            b_wins = all(
                sign * vb < sign * va
                for vb in eb["per_repeat"] for va in ea["per_repeat"]
            )
            if worse > bound:
                verdict, regressed = "REGRESSED", regressed + 1
            elif noise > bound and not b_wins:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(f"{name:<24s}{metric:<14s}{_fmt(ea['value']):>12s}{_fmt(eb['value']):>12s}"
                  f"{100 * worse:>+8.1f}%{100 * bound:>6.0f}%{100 * noise:>7.1f}%  {verdict}")
        for side, rec in (("A", rec_a), ("B", rec_b)):
            if rec["failed"]:
                print(f"{name:<24s}failed_frac   {side}: {rec['failed']} of "
                      f"{rec['attempted']} steps failed  REGRESSED")
                regressed += 1
    return 1 if regressed else 0
