"""Checkpoint / restart I/O.

The paper's reported timings are "whole application including I/O"; long
production runs live and die by checkpointing.  State is written as a
single compressed ``.npz``: grid fields and bounds, every species' arrays,
the moving-window phase, and — for mesh-refined runs — each patch's fine /
coarse / auxiliary fields *including the PML split sub-fields*, so a
restarted run continues bit-for-bit.

Restore targets a freshly *constructed* simulation of identical
configuration (grids, species, patches); only array contents and scalar
state are loaded.  This mirrors production PIC practice, where the input
deck rebuilds the topology and the checkpoint supplies the data.
"""

from __future__ import annotations

import os
from dataclasses import astuple
from typing import Dict, Mapping

import numpy as np

from repro.exceptions import ConfigurationError


def _require_shape(name: str, arr: np.ndarray, expected) -> np.ndarray:
    """Validate a checkpoint array's shape *before* unpacking it.

    A checkpoint written from a differently sized grid must fail as a
    :class:`ConfigurationError` naming the offending array, not as a raw
    NumPy broadcast error halfway through a partially mutated restore.
    """
    if tuple(arr.shape) != tuple(expected):
        raise ConfigurationError(
            f"checkpoint array {name!r} has shape {tuple(arr.shape)}, "
            f"the target simulation expects {tuple(expected)} — the "
            "checkpoint was written from a differently configured run"
        )
    return arr


def _pack_species(prefix: str, sp, out: Dict[str, np.ndarray]) -> None:
    out[f"{prefix}/positions"] = sp.positions
    out[f"{prefix}/momenta"] = sp.momenta
    out[f"{prefix}/weights"] = sp.weights
    out[f"{prefix}/ids"] = sp.ids
    out[f"{prefix}/next_id"] = np.array(sp._next_id)


def _unpack_species(prefix: str, sp, data) -> None:
    positions = data[f"{prefix}/positions"]
    n = positions.shape[0]
    _require_shape(f"{prefix}/positions", positions, (n, sp.ndim))
    momenta = _require_shape(f"{prefix}/momenta", data[f"{prefix}/momenta"], (n, 3))
    weights = _require_shape(f"{prefix}/weights", data[f"{prefix}/weights"], (n,))
    ids = _require_shape(f"{prefix}/ids", data[f"{prefix}/ids"], (n,))
    sp.positions = positions.copy()
    sp.momenta = momenta.copy()
    sp.weights = weights.copy()
    sp.ids = ids.copy()
    sp._next_id = int(data[f"{prefix}/next_id"])


def _pack_grid(prefix: str, grid, out: Dict[str, np.ndarray]) -> None:
    out[f"{prefix}/lo"] = np.array(grid.lo)
    out[f"{prefix}/hi"] = np.array(grid.hi)
    for name, arr in grid.fields.items():
        out[f"{prefix}/field/{name}"] = arr


def _validate_grid(prefix: str, grid, data) -> None:
    """Shape-check every stored field of a grid against the target."""
    for name, arr in grid.fields.items():
        key = f"{prefix}/field/{name}"
        if key not in data:
            raise ConfigurationError(f"checkpoint lacks field {key!r}")
        _require_shape(key, data[key], arr.shape)


def _unpack_grid(prefix: str, grid, data) -> None:
    _validate_grid(prefix, grid, data)
    grid.lo = tuple(float(v) for v in data[f"{prefix}/lo"])
    grid.hi = tuple(float(v) for v in data[f"{prefix}/hi"])
    for name in grid.fields:
        grid.fields[name][...] = data[f"{prefix}/field/{name}"]


def _pack_pml(prefix: str, solver, out: Dict[str, np.ndarray]) -> None:
    for (comp, axis), arr in solver.split.items():
        out[f"{prefix}/split/{comp}/{axis}"] = arr


def _unpack_pml(prefix: str, solver, data) -> None:
    for (comp, axis), arr in solver.split.items():
        key = f"{prefix}/split/{comp}/{axis}"
        arr[...] = _require_shape(key, data[key], arr.shape)


def save_checkpoint(sim, path: str) -> None:
    """Write the full state of a :class:`~repro.core.simulation.Simulation`."""
    out: Dict[str, np.ndarray] = {
        "meta/time": np.array(sim.time),
        "meta/step_count": np.array(sim.step_count),
    }
    if sim.moving_window is not None:
        out["meta/window_pending"] = np.array(sim.moving_window.pending)
        out["meta/window_shifted"] = np.array(sim.moving_window.cells_shifted)
    _pack_grid("grid", sim.grid, out)
    if hasattr(sim.solver, "split"):
        _pack_pml("solver", sim.solver, out)
    for name, entry in sim.entries.items():
        _pack_species(f"species/{name}", entry.species, out)
    out["meta/n_patches"] = np.array(len(sim.patches))
    # the surviving patches by construction position, and the removals:
    # a restore drops the rebuilt deck's patches that are gone
    out["meta/patch_positions"] = np.array(
        [patch.position for patch in sim.patches], dtype=np.int64
    )
    out["meta/removal_log"] = np.array(
        sim.removal_log, dtype=np.float64
    ).reshape(-1, 2)
    for i, patch in enumerate(sim.patches):
        p = f"patch{i}"
        out[f"{p}/region_lo"] = np.array(patch.region_lo)
        out[f"{p}/region_hi"] = np.array(patch.region_hi)
        _pack_grid(f"{p}/fine", patch.fine, out)
        _pack_grid(f"{p}/coarse", patch.coarse, out)
        _pack_grid(f"{p}/aux", patch.aux, out)
        _pack_pml(f"{p}/fine_solver", patch.fine_solver, out)
        _pack_pml(f"{p}/coarse_solver", patch.coarse_solver, out)
        # subcycling state: the external field of the previous parent step
        # (its valid samples) and the hysteresis membership ids — both
        # needed for a bit-identical subcycled restart
        if patch._external_prev is not None:
            for comp, arr in patch._external_prev.items():
                out[f"{p}/external_prev/{comp}"] = arr[patch.fine.valid_slices(comp)]
        for name, ids in patch._member_ids.items():
            out[f"{p}/members/{name}"] = ids
    np.savez_compressed(path, **out)


def load_checkpoint(sim, path: str) -> None:
    """Restore a checkpoint into an identically configured simulation.

    Array shapes are validated against the target *before* anything is
    unpacked, so a checkpoint from a differently sized run fails with a
    :class:`ConfigurationError` instead of dying mid-restore.  Moving
    window state is restored into ``sim.moving_window`` when one is
    attached; if the window will only be attached *after* the restore,
    the state is parked and ``set_moving_window`` applies it.  MR patches
    the run removed before the checkpoint are dropped from the rebuilt
    deck, and its ``removal_log`` is restored.
    """
    if not os.path.exists(path):
        raise ConfigurationError(f"no checkpoint at {path!r}")
    data = np.load(path)
    _validate_grid("grid", sim.grid, data)
    sim.time = float(data["meta/time"])
    sim.step_count = int(data["meta/step_count"])
    if "meta/window_pending" in data:
        window_state = (
            float(data["meta/window_pending"]),
            int(data["meta/window_shifted"]),
        )
        if sim.moving_window is not None:
            sim.moving_window.pending = window_state[0]
            sim.moving_window.cells_shifted = window_state[1]
        else:
            # window not attached yet: park the state; set_moving_window
            # picks it up so attach-after-restore still restarts exactly
            sim._deferred_window_state = window_state
    _unpack_grid("grid", sim.grid, data)
    if hasattr(sim.solver, "split"):
        _unpack_pml("solver", sim.solver, data)
    for name, entry in sim.entries.items():
        key = f"species/{name}/positions"
        if key not in data:
            raise ConfigurationError(f"checkpoint lacks species {name!r}")
        _unpack_species(f"species/{name}", entry.species, data)
    patches = sim.patches
    if "meta/patch_positions" in data:
        built = {patch.position: patch for patch in patches}
        try:
            patches = [built[int(i)] for i in data["meta/patch_positions"]]
        except KeyError as missing:
            raise ConfigurationError(
                f"checkpoint holds patch {missing.args[0]}, which the "
                f"simulation never built ({len(built)} patches)"
            ) from None
        sim.removal_log = [(float(t), int(n)) for t, n in data["meta/removal_log"]]
    elif int(data["meta/n_patches"]) != len(patches):
        # no positions stored: every patch of the deck survived
        raise ConfigurationError(
            f"checkpoint has {int(data['meta/n_patches'])} patches, "
            f"simulation has {len(patches)}"
        )
    sim.patches = patches
    for i, patch in enumerate(patches):
        p = f"patch{i}"
        patch.region_lo = [int(v) for v in data[f"{p}/region_lo"]]
        patch.region_hi = [int(v) for v in data[f"{p}/region_hi"]]
        _unpack_grid(f"{p}/fine", patch.fine, data)
        _unpack_grid(f"{p}/coarse", patch.coarse, data)
        _unpack_grid(f"{p}/aux", patch.aux, data)
        _unpack_pml(f"{p}/fine_solver", patch.fine_solver, data)
        _unpack_pml(f"{p}/coarse_solver", patch.coarse_solver, data)
        # exactly what the checkpoint holds, none included: a restore into
        # a stepped simulation must not keep its live subcycling state
        patch._external_prev = None
        for key in data.files:
            if key.startswith(f"{p}/external_prev/"):
                comp = key.rsplit("/", 1)[1]
                held = patch.held_external()[comp][patch.fine.valid_slices(comp)]
                held[...] = _require_shape(key, data[key], held.shape)
        patch._member_ids = {
            k.rsplit("/", 1)[1]: data[k].copy()
            for k in data.files if k.startswith(f"{p}/members/")
        }


# -- distributed checkpoint/restart -----------------------------------------
#
# A DistributedSimulation checkpoints the way production AMReX codes do:
# every box writes its own chunk (grid fields + resident particles), and a
# small meta record holds the global scalars — time, step, the
# distribution mapping, and the communicator counters, so a restarted run
# resumes both the physics *and* the accounting bit-for-bit.  On disk the
# layout is one ``boxNNNN.npz`` per box plus ``meta.npz`` in a checkpoint
# directory; in memory (the fast path of the resilience manager) the same
# keys live in one flat dict.

def _box_prefix(i: int) -> str:
    return f"box{i:04d}"


def pack_distributed_state(sim) -> Dict[str, np.ndarray]:
    """The full state of a ``DistributedSimulation`` as a flat dict.

    Arrays are referenced, not copied — callers that need an immutable
    checkpoint (the in-memory restore point) must copy.
    """
    out: Dict[str, np.ndarray] = {
        "meta/time": np.array(sim.time),
        "meta/step_count": np.array(sim.step_count),
        "meta/assignment": np.asarray(sim.dm.assignment, dtype=np.intp),
        "meta/lb_events": np.asarray(sim.lb_events, dtype=np.int64),
        "meta/dead_ranks": np.asarray(sorted(sim.dead_ranks), dtype=np.intp),
        "meta/n_boxes": np.array(len(sim.boxes)),
        # the exchange accumulators roll back with the counters they
        # reconcile against (HaloExchangeStats fields, in order)
        "meta/halo_stats": np.array(astuple(sim.halo_stats), dtype=np.int64),
        "meta/lb_moved_bytes": np.array(sim.lb_moved_bytes),
        "comm/bytes_sent": sim.comm.bytes_sent,
        "comm/messages_sent": sim.comm.messages_sent,
        "comm/collective_calls": np.array(sim.comm.collective_calls),
    }
    pairs = sorted(sim.comm.pair_bytes.items())
    out["comm/pair_keys"] = np.array(
        [k for k, _ in pairs], dtype=np.int64
    ).reshape(len(pairs), 2)
    out["comm/pair_values"] = np.array([v for _, v in pairs], dtype=np.int64)
    box_ids = range(len(sim.boxes))
    out["meta/measured_costs"] = sim.cost_model.measured(box_ids, default=-1.0)
    for i, bg in enumerate(sim.box_grids):
        _pack_grid(f"{_box_prefix(i)}/grid", bg, out)
        for name, dsp in sim.species.items():
            _pack_species(f"{_box_prefix(i)}/species/{name}", dsp.per_box[i], out)
    return out


def unpack_distributed_state(sim, data: Mapping[str, np.ndarray]) -> None:
    """Restore packed distributed state into a configured simulation.

    Validates the box count and every grid shape before mutating
    anything, so a checkpoint from a different decomposition fails as a
    :class:`ConfigurationError`.  Keys this layout no longer reads (the
    communicator counters older versions also wrote, such as
    ``comm/barrier_calls``) are ignored.
    """
    n_boxes = int(data["meta/n_boxes"])
    if n_boxes != len(sim.boxes):
        raise ConfigurationError(
            f"checkpoint has {n_boxes} boxes, the simulation has "
            f"{len(sim.boxes)} — decompositions differ"
        )
    for i, bg in enumerate(sim.box_grids):
        _validate_grid(f"{_box_prefix(i)}/grid", bg, data)
        for name in sim.species:
            key = f"{_box_prefix(i)}/species/{name}/positions"
            if key not in data:
                raise ConfigurationError(
                    f"checkpoint lacks species {name!r} for box {i}"
                )
    sim.time = float(data["meta/time"])
    sim.step_count = int(data["meta/step_count"])
    sim.dm.assignment = np.asarray(
        data["meta/assignment"], dtype=np.intp
    ).copy()
    sim.lb_events = [int(v) for v in data["meta/lb_events"]]
    sim.dead_ranks = set(int(r) for r in data["meta/dead_ranks"])
    sim.halo_stats = type(sim.halo_stats)(
        *(int(v) for v in data["meta/halo_stats"])
    )
    sim.lb_moved_bytes = int(data["meta/lb_moved_bytes"])
    sim.comm.bytes_sent[...] = data["comm/bytes_sent"]
    sim.comm.messages_sent[...] = data["comm/messages_sent"]
    sim.comm.collective_calls = int(data["comm/collective_calls"])
    sim.comm.pair_bytes.clear()
    for (src, dst), nbytes in zip(
        data["comm/pair_keys"], data["comm/pair_values"]
    ):
        sim.comm.pair_bytes[(int(src), int(dst))] = int(nbytes)
    costs = data["meta/measured_costs"]
    sim.cost_model._measured = {
        i: float(c) for i, c in enumerate(costs) if c >= 0.0
    }
    for i, bg in enumerate(sim.box_grids):
        _unpack_grid(f"{_box_prefix(i)}/grid", bg, data)
        for name, dsp in sim.species.items():
            _unpack_species(
                f"{_box_prefix(i)}/species/{name}", dsp.per_box[i], data
            )


def save_distributed_checkpoint(sim, directory: str) -> int:
    """Write a per-box checkpoint directory for a distributed run;
    returns the bytes of the state it packed."""
    os.makedirs(directory, exist_ok=True)
    state = pack_distributed_state(sim)
    per_file: Dict[str, Dict[str, np.ndarray]] = {"meta": {}}
    for key, arr in state.items():
        head = key.split("/", 1)[0]
        fname = head if head.startswith("box") else "meta"
        per_file.setdefault(fname, {})[key] = arr
    for fname, chunk in per_file.items():
        np.savez_compressed(os.path.join(directory, f"{fname}.npz"), **chunk)
    return sum(arr.nbytes for arr in state.values())


def load_distributed_checkpoint(sim, directory: str) -> int:
    """Restore a per-box checkpoint directory into a configured run;
    returns the bytes of the arrays it read."""
    meta_path = os.path.join(directory, "meta.npz")
    if not os.path.isdir(directory) or not os.path.exists(meta_path):
        raise ConfigurationError(f"no distributed checkpoint at {directory!r}")
    data: Dict[str, np.ndarray] = {}
    for fname in sorted(os.listdir(directory)):
        if not fname.endswith(".npz"):
            continue
        with np.load(os.path.join(directory, fname)) as chunk:
            for key in chunk.files:
                data[key] = chunk[key]
    unpack_distributed_state(sim, data)
    return sum(arr.nbytes for arr in data.values())
