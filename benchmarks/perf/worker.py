"""One fresh process of the benchmark: a repeat of one workload, or a probe.

``python -m perf.worker repeat ...`` builds the deck, warms it up, times
``sim.step(1)`` in a closed loop (one client: the next step starts when the
previous returns), checks the physics and prints one JSON object as its
last line.  The same body runs inside each rank of the multi-process
workload.  Roles ``warm`` and ``machine`` fill the caches / measure the box.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

#: interpreter up, nothing of numpy or repro imported yet (they are imported
#: lazily below, so core.import_s can be told apart from setup_s)
T_START = time.perf_counter()


@dataclass
class Options:
    workload: str
    seed: int
    repeat: int = 0
    seconds: float = 24.0
    traced: bool = False
    checks: bool = False
    smoke: bool = False
    poison: bool = False
    #: directory (inside the checkout) for the span file and probe scratch
    outdir: str = "."


def _plain(value):
    """numpy scalars -> Python numbers for json."""
    return value.item()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _poison(sim) -> None:
    """Test hook: plant a NaN so the run must be counted as failed."""
    from .workloads import is_distributed, owned_boxes

    grid = sim.box_grids[owned_boxes(sim)[0]] if is_distributed(sim) else sim.grid
    g = grid.guards
    grid.fields["Ex"][(g + 2,) * grid.ndim] = float("nan")


def core_run(
    spec, opts: Options, t_ready: float, rank: Optional[int] = None, transport=None,
) -> Dict[str, Any]:
    """Build, warm up, time and inspect one deck in this process.

    ``t_ready`` is when the workload started (imports done, nothing built).
    """
    from . import probes, verify
    from .spans import SpanRecorder
    from .workloads import (
        HORIZON, WARMUP_STEPS, active_cells, fields_finite, is_distributed,
        local_energy, local_particles, steps_per_repeat,
    )

    rec = SpanRecorder(enabled=opts.traced)
    kwargs: Dict[str, Any] = {}
    tracer = None
    if opts.traced:
        from repro.observability import Tracer

        tracer = Tracer(rank=rank)
        kwargs["tracer"] = tracer
    wire = None
    if transport is not None:
        kwargs["transport"] = transport
        if opts.traced:
            wire = probes.time_transport(transport)

    out: Dict[str, Any] = {"rank": rank, "failure": None}
    with rec.span("repeat"):
        with rec.span("scenarios.build"):
            sim, fixed = spec.build(opts.seed, opts.smoke, **kwargs)
        n_steps = steps_per_repeat(spec, fixed, opts.seconds, opts.smoke)
        with rec.span("core.warmup"):
            sim.step(WARMUP_STEPS)
        out["setup_s"] = time.perf_counter() - t_ready

        # -- baseline, read between set-up and the first timed step
        distributed = is_distributed(sim)
        if opts.checks and distributed:
            out["warm_state"] = verify.warm_state(sim)
        gauss0 = None
        if spec.periodic and rank is None:
            with rec.span("diagnostics.gauss"):
                gauss0 = verify.gauss_field(sim)
        out["energy0"] = local_energy(sim)
        out["n0"] = local_particles(sim)
        if spec.kind == "mr":
            out["fine_cells"] = sim.total_fine_cells()
        totals0 = dict(sim.timers.totals)
        counts0 = dict(sim.timers.counts)
        comm0 = probes.comm_counters(sim) if distributed else None
        spans0 = len(tracer.records) if tracer is not None else 0
        wire0 = wire.snapshot() if wire is not None else None

        # -- the timed closed loop
        step_s: List[float] = []
        cells_sum = 0
        particles_sum = 0
        regimes: List[str] = []
        for k in range(n_steps):
            if opts.poison and k == HORIZON:
                _poison(sim)
            try:
                with rec.span("core.step", step=k):
                    t = time.perf_counter()
                    sim.step(1)
                    dt = time.perf_counter() - t
            except Exception as exc:  # counted as a failed run by verify_run
                out["failure"] = f"step {k} raised {type(exc).__name__}: {exc}"
                break
            step_s.append(dt)
            cells_sum += active_cells(sim)
            particles_sum += local_particles(sim)
            if spec.kind == "mr":
                regimes.append(verify.hybrid_regime(sim))
            if k + 1 == HORIZON:
                out["energy_h"] = local_energy(sim)
                if gauss0 is not None:
                    with rec.span("diagnostics.gauss"):
                        out["gauss_residual"] = verify.gauss_growth(
                            gauss0, verify.gauss_field(sim)
                        )
        out["rss_mb"] = _peak_rss_mb()

        grid = sim.domain if distributed else sim.grid
        out["shape_order"] = sim.shape_order
        out["ndim"] = grid.ndim
        out["itemsize"] = grid.dtype.itemsize
        out["planned_steps"] = n_steps
        out["step_s"] = step_s
        out["cells_sum"] = cells_sum
        out["particles_sum"] = particles_sum
        out["n_end"] = local_particles(sim)
        out["finite"] = fields_finite(sim)
        out["phases"] = {
            k: v - totals0.get(k, 0.0) for k, v in sim.timers.totals.items()
        }
        out["phase_calls"] = {
            k: v - counts0.get(k, 0) for k, v in sim.timers.counts.items()
        }
        if distributed:
            out["comm"] = probes.comm_delta(comm0, probes.comm_counters(sim))
            out["boxes"] = len(sim.boxes)
            out["guard_cells"] = sim.domain.guards
            out["rank_busy_s"] = probes.rank_busy(sim, out["phases"])
        else:
            out["kernels"] = sim.kernels
            out["kernel_fallback_reason"] = sim.kernel_fallback_reason
        if spec.kind == "mr":
            out["regimes"] = regimes
            out["hybrid"] = verify.hybrid_outcome(sim, n_steps + WARMUP_STEPS)

        if opts.traced and out["failure"] is None:
            out["tracer_spans"] = len(tracer.records) - spans0
            out["bench_span_us"] = rec.overhead_us()
            if wire is not None:
                out["wire"] = wire.delta(wire0)
            # the live state is disposable from here on: probes may mutate it
            out["probes"], out["nulls"] = probes.layer_probes(
                spec, sim, rec, os.path.join(opts.outdir, "scratch")
            )

    if opts.traced:
        out["span_rows"] = rec.rows
    return out


def merge_ranks(ranks: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold per-rank results into one run: the slowest rank sets a step and
    a phase, memory and counts add; per-rank phase tables are kept."""
    first = ranks[0]
    run = {k: v for k, v in first.items() if k not in ("span_rows", "rank")}
    run["rank_phases"] = [r["phases"] for r in ranks]
    run["rank_step_total_s"] = [sum(r["step_s"]) for r in ranks]
    run["rank_particles_sum"] = [r["particles_sum"] for r in ranks]
    if len(ranks) == 1:
        return run
    n = min(len(r["step_s"]) for r in ranks)
    run["failure"] = next((r["failure"] for r in ranks if r["failure"]), None)
    run["setup_s"] = max(r["setup_s"] for r in ranks)
    run["step_s"] = [max(r["step_s"][k] for r in ranks) for k in range(n)]
    for key in ("particles_sum", "rss_mb", "energy0", "n0", "n_end"):
        run[key] = sum(r[key] for r in ranks)
    run["finite"] = all(r["finite"] for r in ranks)
    run.pop("energy_h", None)
    if all("energy_h" in r for r in ranks):
        run["energy_h"] = sum(r["energy_h"] for r in ranks)
    names = set().union(*(r["phases"] for r in ranks))
    run["phases"] = {k: max(r["phases"].get(k, 0.0) for r in ranks) for k in names}
    run["comm"] = {k: sum(r["comm"][k] for r in ranks) for k in first["comm"]}
    run["rank_busy_s"] = [r["rank_busy_s"][0] for r in ranks]
    if all("warm_state" in r for r in ranks):
        run["warm_state"] = [r["warm_state"] for r in ranks]
    if all("probes" in r for r in ranks):
        from . import probes

        run["tracer_spans"] = max(r["tracer_spans"] for r in ranks)
        run["bench_span_us"] = max(r["bench_span_us"] for r in ranks)
        run["wire"] = {k: max(r["wire"][k] for r in ranks) for k in first["wire"]}
        run["probes"], run["nulls"] = probes.merge_rank_probes(ranks)
    return run


def run_repeat(opts: Options) -> Dict[str, Any]:
    """One repeat in this process: run, merge ranks, verify, twin-check."""
    from . import probes, verify
    from .spans import SpanRecorder
    from .workloads import WORKLOADS

    spec = WORKLOADS[opts.workload]
    rec = SpanRecorder(enabled=opts.traced)
    # the workload starts here: numpy and repro are imported (which loads
    # the compiled kernels from the warm cache), nothing is built yet
    t_ready = time.perf_counter()
    if spec.ranks:
        from repro.parallel.mp_transport import run_spmd

        def rank_main(rank, transport):
            return core_run(spec, opts, t_ready, rank, transport)

        with rec.span("parallel.run_spmd", ranks=spec.ranks):
            ranks = run_spmd(spec.ranks, rank_main, run_timeout=150.0)
    else:
        ranks = [core_run(spec, opts, t_ready)]
    run = merge_ranks(ranks)
    run.update(workload=spec.name, seed=opts.seed, repeat=opts.repeat,
               traced=opts.traced, smoke=opts.smoke, import_s=t_ready - T_START)

    failures = verify.verify_run(spec, run)
    if opts.checks and run["failure"] is None:
        run["checks"] = verify.twin_checks(spec, opts, run, rec)
        failures += run["checks"].pop("failures")
    run.pop("warm_state", None)
    if opts.traced and "probes" in run:
        twins, nulls = probes.twin_probes(spec, opts, rec)
        run["probes"].update(twins)
        run["nulls"].update(nulls)
    run["failures"] = failures
    run["attempted"] = run["planned_steps"]
    if failures == [run["failure"]]:
        # only a raised step: the steps completed before it still count
        run["failed"] = run["attempted"] - len(run["step_s"])
    else:
        run["failed"] = run["attempted"] if failures else 0

    if opts.traced:
        # the one write of the span file, at exit
        path = os.path.join(opts.outdir, "spans.jsonl")
        SpanRecorder.write_rows(path, rec.rows, spec.name, opts.repeat)
        for r in ranks:
            SpanRecorder.write_rows(
                path, r["span_rows"], spec.name, opts.repeat, r["rank"]
            )
        run["span_self"] = SpanRecorder.self_times(ranks[0]["span_rows"])
        run["span_self"].update(SpanRecorder.self_times(rec.rows))
    return run


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="perf.worker")
    parser.add_argument("role", choices=("repeat", "warm", "machine"))
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeat", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--traced", type=int, default=0)
    parser.add_argument("--checks", type=int, default=0)
    parser.add_argument("--smoke", type=int, default=0)
    parser.add_argument("--poison", type=int, default=0)
    parser.add_argument("--outdir", default=".")
    args = parser.parse_args(argv)

    if args.role == "warm":
        import repro  # noqa: F401  builds the kernel cache and the .pyc files

        result: Dict[str, Any] = {"import_s": time.perf_counter() - T_START}
    elif args.role == "machine":
        from . import probes

        result = probes.machine_probes(
            bool(args.smoke), os.path.join(args.outdir, "scratch")
        )
    else:
        result = run_repeat(Options(
            workload=args.workload, seed=args.seed, repeat=args.repeat,
            seconds=args.seconds,
            traced=bool(args.traced), checks=bool(args.checks),
            smoke=bool(args.smoke), poison=bool(args.poison),
            outdir=args.outdir,
        ))
    sys.stdout.flush()
    print(json.dumps(result, default=_plain))
    return 0


if __name__ == "__main__":
    sys.exit(main())
