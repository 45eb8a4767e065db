"""Per-layer probes of the traced pass, and the machine probes.

Each probe calls a layer's public functions directly on the workload's own
state (disposable once the timed steps and checks are done), inside a span
of the benchmark's recorder.  Probes are isolated: one that raises yields
``None`` for its values plus the reason, never a failed workload.
"""

from __future__ import annotations

import os
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from .workloads import WARMUP_STEPS, is_distributed, owned_boxes, timed_steps

#: direct-probe repetitions (the median is reported)
PROBE_REPS = 3
#: timed steps of the mixed-precision twin
MIXED_TWIN_STEPS = 20

Nulls = Dict[str, str]


def _guard(out: Dict[str, Any], nulls: Nulls, names: Tuple[str, ...], fn: Callable[[], Dict[str, Any]]) -> None:
    """Run one probe; on any exception its values read None with the reason."""
    try:
        out.update(fn())
    except Exception as exc:  # the isolation boundary of a probe
        for name in names:
            out[name] = None
            nulls[name] = f"{type(exc).__name__}: {exc}"


def _timed(rec, name: str, fn: Callable[[], Any]) -> Tuple[Any, float]:
    with rec.span(name):
        t = time.perf_counter()
        result = fn()
        return result, time.perf_counter() - t


# -- communicator accounting --------------------------------------------------
def comm_counters(sim) -> Dict[str, int]:
    return {
        "msgs": sim.comm.total_messages(),
        "wire_bytes": sim.comm.total_bytes(),
        "halo_payload_bytes": int(sim.halo_payload_bytes),
        "halo_messages": int(sim.halo_messages),
    }


def comm_delta(before: Dict[str, int], after: Dict[str, int]) -> Dict[str, int]:
    return {k: after[k] - before[k] for k in after}


def rank_busy(sim, phases: Dict[str, float]) -> List[float]:
    """Box-loop seconds per rank: this rank's ``particles`` phase under
    SPMD, else the measured per-box cost summed over each rank's boxes."""
    if sim.local_rank is not None:
        return [phases.get("particles", 0.0)]
    costs = sim.cost_model.measured(range(len(sim.boxes)))
    assignment = np.asarray(sim.dm.assignment)
    return [float(costs[assignment == r].sum()) for r in range(sim.comm.n_ranks)]


class TransportTimer:
    """Accumulates the time spent inside an endpoint's wait/deliver."""

    def __init__(self) -> None:
        self.seconds = {"wait": 0.0, "deliver": 0.0}
        self.calls = {"wait": 0, "deliver": 0}

    def wrap(self, transport, name: str) -> None:
        inner = getattr(transport, name)

        def timed(*args, **kwargs):
            t = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                self.seconds[name] += time.perf_counter() - t
                self.calls[name] += 1

        setattr(transport, name, timed)

    def snapshot(self) -> Dict[str, float]:
        return {
            "wait_s": self.seconds["wait"], "deliver_s": self.seconds["deliver"],
            "wait_calls": self.calls["wait"], "deliver_calls": self.calls["deliver"],
        }

    def delta(self, before: Dict[str, float]) -> Dict[str, float]:
        now = self.snapshot()
        return {k: now[k] - before[k] for k in now}


def time_transport(transport) -> TransportTimer:
    """Wrap the wait/deliver of the endpoint the benchmark's own worker
    function received (measured from outside: repro is not patched)."""
    timer = TransportTimer()
    timer.wrap(transport, "wait")
    timer.wrap(transport, "deliver")
    return timer


# -- direct layer probes --------------------------------------------------------
def _particle_sets(sim):
    """(grid, species) pairs this process pushes, and the kernels it uses."""
    from repro.particles.kernels import get_kernel_set

    if is_distributed(sim):
        pairs = [
            (sim.box_grids[i], dsp.per_box[i])
            for dsp in sim.species.values()
            for i in owned_boxes(sim)
            if dsp.per_box[i].n
        ]
        # the decomposed driver hard-codes the default NumPy kernels
        return pairs, get_kernel_set("vectorized")
    pairs = [(sim.grid, sp) for sp in sim.species.values() if sp.n]
    return pairs, sim.kernel_set


def probe_particles(sim, rec) -> Dict[str, Any]:
    """gather / push / deposit / sort called directly on the final state."""
    from repro.constants import c
    from repro.particles.pusher import lorentz_factor, push_boris, push_positions
    from repro.particles.sorting import sort_species_by_bin

    pairs, kernels = _particle_sets(sim)
    n = sum(sp.n for _g, sp in pairs)
    order, dt = sim.shape_order, sim.dt
    scratch = [grid.copy() for grid, _sp in pairs]
    totals: Dict[str, List[float]] = {k: [] for k in ("gather", "push", "deposit", "sort")}
    for _ in range(PROBE_REPS):
        acc = dict.fromkeys(totals, 0.0)
        for (grid, sp), target in zip(pairs, scratch):
            (e_f, b_f), dt_g = _timed(
                rec, "particles.gather",
                lambda: kernels.gather(grid, sp.positions, order),
            )

            def push():
                mom = push_boris(sp.momenta, e_f, b_f, sp.charge, sp.mass, dt)
                return mom, push_positions(sp.positions, mom, dt, grid.ndim)

            (mom, x_new), dt_p = _timed(rec, "particles.push", push)
            vel = mom * (c / lorentz_factor(mom))[:, None]
            target.zero_sources()
            _, dt_d = _timed(
                rec, "particles.deposit",
                lambda: kernels.deposit_current(
                    target, sp.positions, x_new, vel, sp.weights, sp.charge,
                    dt, order,
                ),
            )
            unsorted = sp.copy()
            _, dt_s = _timed(
                rec, "particles.sort", lambda: sort_species_by_bin(unsorted, grid)
            )
            acc["gather"] += dt_g
            acc["push"] += dt_p
            acc["deposit"] += dt_d
            acc["sort"] += dt_s
        for k in totals:
            totals[k].append(acc[k])
    med = {k: statistics.median(v) for k, v in totals.items()}
    return {
        "probe_particles": n,
        "direct_gather_ns_pp": med["gather"] / n * 1e9,
        "direct_push_ns_pp": med["push"] / n * 1e9,
        "direct_deposit_ns_pp": med["deposit"] / n * 1e9,
        "direct_sort_ms": med["sort"] * 1e3,
    }


def _solvers(sim):
    if is_distributed(sim):
        return [(sim.box_grids[i], sim.box_solvers[i]) for i in owned_boxes(sim)]
    return [(sim.grid, sim.solver)]


def probe_solver(sim, rec) -> Dict[str, Any]:
    """``solver.step()`` called directly; FFT cells over valid cells."""
    pairs = _solvers(sim)
    times = []
    for _ in range(PROBE_REPS):
        total = 0.0
        for _grid, solver in pairs:
            _, dt = _timed(rec, "grid.solver_step", solver.step)
            total += dt
        times.append(total)
    valid = sum(int(np.prod(g.n_cells)) for g, _s in pairs)
    fft = 0
    for grid, solver in pairs:
        region = getattr(solver, "region", None)
        if region == "full":
            fft += int(np.prod(grid.shape))
        elif region == "valid":
            fft += int(np.prod(grid.n_cells))
    return {
        "direct_maxwell_ns_per_cell": statistics.median(times) / valid * 1e9,
        "fft_cells_over_valid": fft / valid,
    }


def probe_parallel(sim, rec) -> Dict[str, Any]:
    """exchange_halos / fold_sources_pairwise / redistribute_particles
    called the way the driver calls them (every rank in lockstep)."""
    from repro.grid.yee import FIELD_COMPONENTS
    from repro.parallel.halo import exchange_halos, fold_sources_pairwise
    from repro.parallel.redistribute import (
        redistribute_particles, wrap_positions_periodic,
    )
    from repro.particles.pusher import push_positions

    guards = sim.domain.guards
    common = dict(guards=guards, local_rank=sim.local_rank)
    ndim = sim.domain.ndim
    axes = tuple(range(ndim))
    halo, fold, redis, moved = [], [], [], []
    for _ in range(PROBE_REPS):
        _, dt = _timed(rec, "parallel.exchange_halos", lambda: exchange_halos(
            sim.comm, sim.box_grids, sim.boxes, sim.fill_overlaps,
            sim.dm.assignment, components=FIELD_COMPONENTS, **common,
        ))
        halo.append(dt)
        _, dt = _timed(rec, "parallel.fold_sources_pairwise", lambda: fold_sources_pairwise(
            sim.comm, sim.box_grids, sim.boxes, sim.fold_overlaps,
            sim.dm.assignment, **common,
        ))
        fold.append(dt)
        n_moved, dt_total = 0, 0.0
        for dsp in sim.species.values():
            # one step's worth of motion, so the call has real movers
            for i in owned_boxes(sim):
                sp = dsp.per_box[i]
                if sp.n:
                    sp.positions = push_positions(sp.positions, sp.momenta, sim.dt, ndim)
                    wrap_positions_periodic(
                        sp.positions, sim.domain.lo, sim.domain.hi, axes
                    )
            n, dt = _timed(rec, "parallel.redistribute_particles", lambda: redistribute_particles(
                dsp.per_box, sim.boxes, sim.box_lookup, sim.domain.lo,
                sim.domain.dx, comm=sim.comm, rank_of_box=sim.dm.assignment,
                local_rank=sim.local_rank,
            ))
            n_moved += n
            dt_total += dt
        redis.append(dt_total)
        moved.append(n_moved)
    return {
        "direct_halo_fields_ms": statistics.median(halo) * 1e3,
        "direct_fold_ms": statistics.median(fold) * 1e3,
        "direct_redistribute_ms": statistics.median(redis) * 1e3,
        # a cold stream crosses box faces a whole column at a time, on some
        # steps only: the mean over the probed steps, not the median
        "migrated_per_step": statistics.fmean(moved),
    }


def probe_checkpoint(sim, rec, scratch: str) -> Dict[str, Any]:
    """Checkpoint write + read of the final state, into the scratch dir."""
    from repro.diagnostics import io

    os.makedirs(scratch, exist_ok=True)
    target = os.path.join(scratch, f"ckpt-{os.getpid()}")
    try:
        if is_distributed(sim):
            _, dt_w = _timed(rec, "diagnostics.save_distributed_checkpoint",
                             lambda: io.save_distributed_checkpoint(sim, target))
            files = [os.path.join(target, f) for f in os.listdir(target)]
            _, dt_r = _timed(rec, "diagnostics.load_distributed_checkpoint",
                             lambda: io.load_distributed_checkpoint(sim, target))
        else:
            path = target + ".npz"
            _, dt_w = _timed(rec, "diagnostics.save_checkpoint",
                             lambda: io.save_checkpoint(sim, path))
            files = [path]
            _, dt_r = _timed(rec, "diagnostics.load_checkpoint",
                             lambda: io.load_checkpoint(sim, path))
        nbytes = sum(os.path.getsize(f) for f in files)
    finally:
        shutil.rmtree(target, ignore_errors=True)
        if os.path.exists(target + ".npz"):
            os.remove(target + ".npz")
    return {
        "checkpoint_write_ms": dt_w * 1e3,
        "checkpoint_read_ms": dt_r * 1e3,
        "checkpoint_bytes": nbytes,
    }


def layer_probes(spec, sim, rec, scratch: str) -> Tuple[Dict[str, Any], Nulls]:
    """Every direct probe that applies to this workload, each isolated."""
    out: Dict[str, Any] = {}
    nulls: Nulls = {}
    # checkpoint first: it must see the state the run produced, not what
    # the mutating probes below leave behind
    # (an SPMD endpoint holds one rank only and cannot checkpoint)
    if spec.checkpoint and getattr(sim, "local_rank", None) is None:
        _guard(out, nulls,
               ("checkpoint_write_ms", "checkpoint_read_ms", "checkpoint_bytes"),
               lambda: probe_checkpoint(sim, rec, scratch))
    _guard(out, nulls,
           ("direct_gather_ns_pp", "direct_push_ns_pp", "direct_deposit_ns_pp",
            "direct_sort_ms", "probe_particles"),
           lambda: probe_particles(sim, rec))
    _guard(out, nulls, ("direct_maxwell_ns_per_cell", "fft_cells_over_valid"),
           lambda: probe_solver(sim, rec))
    if is_distributed(sim):
        _guard(out, nulls,
               ("direct_halo_fields_ms", "direct_fold_ms",
                "direct_redistribute_ms", "migrated_per_step"),
               lambda: probe_parallel(sim, rec))
    return out, nulls


def merge_rank_probes(ranks: List[Dict[str, Any]]) -> Tuple[Dict[str, Any], Nulls]:
    """The slowest rank sets a time; particle counts add over ranks."""
    summed = ("probe_particles", "migrated_per_step")
    out: Dict[str, Any] = {}
    nulls: Nulls = {}
    for r in ranks:
        nulls.update(r["nulls"])
    for key in ranks[0]["probes"]:
        values = [r["probes"].get(key) for r in ranks]
        if any(v is None for v in values):
            out[key] = None
        elif key in summed:
            out[key] = sum(values)
        else:
            out[key] = max(values)
    return out, nulls


def twin_probes(spec, opts, rec) -> Tuple[Dict[str, Any], Nulls]:
    """Twins only the traced pass runs: the mixed-precision deck."""
    out: Dict[str, Any] = {}
    nulls: Nulls = {}
    if spec.compiled:
        def mixed() -> Dict[str, Any]:
            with rec.span("core.mixed_twin"):
                sim, _ = spec.build(opts.seed, opts.smoke, precision="mixed")
                sim.step(WARMUP_STEPS)
                times = timed_steps(sim, MIXED_TWIN_STEPS)
            return {"mixed_step_ms": statistics.median(times) * 1e3}

        _guard(out, nulls, ("mixed_step_ms",), mixed)
    return out, nulls


# -- machine probes -----------------------------------------------------------
def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def llc_bytes() -> int:
    """Size of the largest cache level the OS reports for cpu0."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    best = 0
    for entry in sorted(os.listdir(base)):
        try:
            with open(os.path.join(base, entry, "size"), encoding="ascii") as fh:
                text = fh.read().strip()
        except OSError:
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1], 1)
        best = max(best, int(text.rstrip("KMG")) * scale)
    if best == 0:
        raise OSError(f"no cache sizes under {base}")
    return best


#: cap of one triad array: first-touching memory costs seconds per GiB in
#: the sandbox VM, whose reported LLC (the host's whole L3) would ask for
#: 1 GiB arrays; the measured rate is flat from 64 MiB up
STREAM_ARRAY_CAP = 64 << 20


def stream_triad(llc: int, smoke: bool) -> Dict[str, Any]:
    """NumPy triad ``a = b + s*c`` on arrays of 4x the LLC (capped; both
    sizes are reported).

    NumPy makes two passes (multiply, then add), moving 5 array-lengths
    where a fused STREAM triad moves 3; the rate counts the 5.
    """
    nbytes = (8 << 20) if smoke else min(4 * llc, STREAM_ARRAY_CAP)
    n = nbytes // 8
    b = np.full(n, 1.5)
    c_ = np.full(n, 2.5)
    a = np.empty(n)
    best = float("inf")
    for _ in range(3):
        t = time.perf_counter()
        np.multiply(c_, 3.0, out=a)
        np.add(a, b, out=a)
        best = min(best, time.perf_counter() - t)
    return {
        "stream_triad_gbs": 5 * n * 8 / best / 1e9,
        "stream_array_bytes": n * 8,
        "llc_bytes": llc,
    }


def _pingpong_rank(rank: int, transport, sizes: Tuple[int, ...], trips: int):
    from repro.parallel.comm import SimComm

    comm = SimComm(2, transport=transport)
    peer = 1 - rank
    out = {}
    for nbytes in sizes:
        payload = np.zeros(nbytes // 8)
        tag = f"pingpong:{nbytes}"
        samples = []
        for k in range(trips + 2):
            t = time.perf_counter()
            if rank == 0:
                comm.send(0, 1, payload, tag=tag)
                comm.recv(1, 0, tag=tag)
            else:
                comm.recv(0, 1, tag=tag)
                comm.send(1, 0, payload, tag=tag)
            if k >= 2:  # the first trips pay queue start-up
                samples.append(time.perf_counter() - t)
        out[nbytes] = statistics.median(samples) / 2.0
    return out


def pingpong(smoke: bool) -> Dict[str, Any]:
    """One-way time of a 1 KiB (queue pipe) and a 4 MiB (shared memory)
    message between two worker processes, through run_spmd + SimComm."""
    from repro.parallel.mp_transport import run_spmd

    small, large = 1 << 10, 4 << 20
    trips = 10 if smoke else 40

    def rank_main(rank, transport):
        return _pingpong_rank(rank, transport, (small, large), trips)

    one_way = run_spmd(2, rank_main, run_timeout=60.0)[0]
    alpha = one_way[small]
    return {
        "pingpong_alpha_us": alpha * 1e6,
        "pingpong_beta_us_per_mib": (one_way[large] - alpha) * 1e6 / (large / (1 << 20)),
    }


def compiled_build(scratch: str) -> Dict[str, Any]:
    """Cold build time of the compiled kernel tier: import with an empty
    kernel cache minus import with the warm one."""
    code = (
        "import time; t = time.perf_counter(); import repro.particles.kernels as k; "
        "print(time.perf_counter() - t, k.kernel_tier_status()['compiled'])"
    )

    def timed_import(env) -> Tuple[float, str]:
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, check=True,
            capture_output=True, text=True, timeout=300,
        )
        seconds, status = done.stdout.strip().split(" ", 1)
        return float(seconds), status

    cold_dir = os.path.join(scratch, f"cold-{os.getpid()}")
    os.makedirs(cold_dir, exist_ok=True)
    try:
        cold, status = timed_import(dict(os.environ, TMPDIR=cold_dir))
    finally:
        shutil.rmtree(cold_dir, ignore_errors=True)
    warm, _ = timed_import(dict(os.environ))
    return {"compiled_build_s": cold - warm, "compiled_backend": status}


def machine_probes(smoke: bool, scratch: Optional[str]) -> Dict[str, Any]:
    """The measured machine row plus run provenance, each probe isolated."""
    import platform

    out: Dict[str, Any] = {
        "usable_cores": usable_cores(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    nulls: Nulls = {}
    _guard(out, nulls, ("stream_triad_gbs", "stream_array_bytes", "llc_bytes"),
           lambda: stream_triad(llc_bytes(), smoke))
    _guard(out, nulls, ("pingpong_alpha_us", "pingpong_beta_us_per_mib"),
           lambda: pingpong(smoke))
    _guard(out, nulls, ("compiled_build_s", "compiled_backend"),
           lambda: compiled_build(scratch or "."))
    out["nulls"] = nulls
    return out
