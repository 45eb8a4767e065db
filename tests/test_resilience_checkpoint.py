"""Checkpoint/restart round trips for both step drivers.

The resilience contract rests on one property: k steps, checkpoint,
restore into a *fresh* object, continue == uninterrupted run,
bit-identical.  These tests pin that property for the monolithic,
mesh-refined (with PML and subcycling state, and after a patch
removal) and distributed simulations, plus the validation fixes (shape
mismatch is a ConfigurationError, window state survives
attach-after-restore).
"""

import numpy as np
import pytest

from repro.constants import c, m_e, plasma_wavelength, q_e, um
from repro.core.moving_window import MovingWindow
from repro.core.simulation import Simulation
from repro.diagnostics.io import (
    load_checkpoint,
    load_distributed_checkpoint,
    pack_distributed_state,
    save_checkpoint,
    save_distributed_checkpoint,
    unpack_distributed_state,
)
from repro.exceptions import ConfigurationError
from repro.grid.maxwell import cfl_dt
from repro.grid.yee import YeeGrid
from repro.parallel.distributed import DistributedSimulation
from repro.particles.injection import UniformProfile
from repro.particles.species import Species


def build_monolithic(n_cells=48):
    n0 = 1e24
    length = plasma_wavelength(n0)
    g = YeeGrid((n_cells,), (0.0,), (length,), guards=4)
    sim = Simulation(g, shape_order=2, smoothing_passes=0)
    e = Species("e", charge=-q_e, mass=m_e, ndim=1)
    sim.add_species(e, profile=UniformProfile(n0), ppc=8)
    k = 2 * np.pi / length
    e.momenta[:, 0] = 1e-3 * np.sin(k * e.positions[:, 0])
    return sim, e


def build_mr_subcycled():
    n0 = 1e24
    length = plasma_wavelength(n0)
    g = YeeGrid((48,), (0.0,), (length,), guards=4)
    dt = cfl_dt((length / 48 / 2,), 0.9)
    sim = Simulation(g, dt=dt, shape_order=2, smoothing_passes=0)
    e = Species("e", charge=-q_e, mass=m_e, ndim=1)
    sim.add_species(e, profile=UniformProfile(n0), ppc=8)
    k = 2 * np.pi / length
    e.momenta[:, 0] = 1e-3 * np.sin(k * e.positions[:, 0])
    sim.add_patch((12,), (36,), ratio=2, subcycle=True, n_pml=4)
    return sim, e


def build_distributed(**options):
    n0 = 1e24
    length = plasma_wavelength(n0)
    sim = DistributedSimulation(
        (16, 16), (0.0, 0.0), (length, length), n_ranks=4, max_grid_size=8,
        **options,
    )
    e = Species("electrons", charge=-q_e, mass=m_e, ndim=2)
    k = 2 * np.pi / length

    def perturb(sp):
        sp.momenta[:, 0] += 1e-3 * np.sin(k * sp.positions[:, 0])

    sim.add_species(
        e, profile=UniformProfile(n0), ppc=(2, 2), momentum_init=perturb,
        temperature_uth=0.05, rng_seed=7,
    )
    return sim


def test_monolithic_roundtrip_bitwise(tmp_path):
    path = str(tmp_path / "ckpt.npz")
    sim_a, e_a = build_monolithic()
    sim_a.step(8)
    save_checkpoint(sim_a, path)
    sim_a.step(8)

    sim_b, e_b = build_monolithic()
    load_checkpoint(sim_b, path)
    assert sim_b.step_count == 8
    sim_b.step(8)

    np.testing.assert_array_equal(sim_a.grid.fields["Ex"], sim_b.grid.fields["Ex"])
    np.testing.assert_array_equal(e_a.positions, e_b.positions)
    np.testing.assert_array_equal(e_a.momenta, e_b.momenta)
    np.testing.assert_array_equal(e_a.ids, e_b.ids)


def test_mr_subcycled_roundtrip_bitwise(tmp_path):
    """Subcycling state (frozen external fields, membership hysteresis)
    must survive the round trip, or the restarted fine push diverges."""
    path = str(tmp_path / "ckpt.npz")
    sim_a, e_a = build_mr_subcycled()
    sim_a.step(9)
    save_checkpoint(sim_a, path)
    sim_a.step(9)

    sim_b, e_b = build_mr_subcycled()
    load_checkpoint(sim_b, path)
    sim_b.step(9)

    np.testing.assert_array_equal(sim_a.grid.fields["Ex"], sim_b.grid.fields["Ex"])
    patch_a, patch_b = sim_a.patches[0], sim_b.patches[0]
    np.testing.assert_array_equal(
        patch_a.fine.fields["Ex"], patch_b.fine.fields["Ex"]
    )
    for (comp, axis), arr in patch_a.fine_solver.split.items():
        np.testing.assert_array_equal(
            arr, patch_b.fine_solver.split[(comp, axis)]
        )
    np.testing.assert_array_equal(e_a.positions, e_b.positions)
    np.testing.assert_array_equal(e_a.momenta, e_b.momenta)


def build_mr_removed_at_step_3(with_patch=True):
    n0 = 1e24
    length = plasma_wavelength(n0)
    g = YeeGrid((32, 32), (0.0, 0.0), (length, length), guards=4)
    dt = cfl_dt((length / 64, length / 64), 0.9)
    sim = Simulation(g, dt=dt, shape_order=2, smoothing_passes=0)
    e = Species("e", charge=-q_e, mass=m_e, ndim=2)
    sim.add_species(e, profile=UniformProfile(n0), ppc=(1, 1))
    e.momenta[:, 0] = 1e-3 * np.sin(2 * np.pi * e.positions[:, 0] / length)
    if with_patch:
        sim.add_patch((8, 8), (24, 24), ratio=2, remove_time=3 * dt)
    return sim, e


def assert_same_state(sim_a, e_a, sim_b, e_b):
    for comp in ("Ex", "Ey", "Bz"):
        np.testing.assert_array_equal(sim_a.grid.fields[comp], sim_b.grid.fields[comp])
    np.testing.assert_array_equal(e_a.positions, e_b.positions)
    np.testing.assert_array_equal(e_a.momenta, e_b.momenta)


def test_restore_after_patch_removal_bitwise(tmp_path):
    """A checkpoint written after its patch was removed restores into the
    deck that wrote it (it used to raise "checkpoint has 0 patches,
    simulation has 1") and continues bit for bit."""
    path = str(tmp_path / "ckpt.npz")
    sim_a, e_a = build_mr_removed_at_step_3()
    sim_a.step(6)
    assert not sim_a.patches and len(sim_a.removal_log) == 1
    save_checkpoint(sim_a, path)
    sim_a.step(4)

    sim_b, e_b = build_mr_removed_at_step_3()
    load_checkpoint(sim_b, path)
    assert sim_b.patches == [] and sim_b.removal_log == sim_a.removal_log
    sim_b.step(4)
    assert_same_state(sim_a, e_a, sim_b, e_b)


def test_restore_refuses_a_patch_the_deck_never_built(tmp_path):
    path = str(tmp_path / "ckpt.npz")
    sim_a, _ = build_mr_removed_at_step_3()
    sim_a.step(1)
    save_checkpoint(sim_a, path)
    sim_b, _ = build_mr_removed_at_step_3(with_patch=False)
    with pytest.raises(ConfigurationError, match="patch 0, which the simulation never built"):
        load_checkpoint(sim_b, path)


def test_checkpoint_without_patch_positions_loads_every_patch(tmp_path):
    """No position keys (a checkpoint from before they were stored) means
    every patch of the deck survived."""
    path, legacy = str(tmp_path / "ckpt.npz"), str(tmp_path / "legacy.npz")
    sim_a, e_a = build_mr_removed_at_step_3()
    sim_a.step(2)
    save_checkpoint(sim_a, path)
    with np.load(path) as data:
        np.savez_compressed(legacy, **{
            k: data[k] for k in data.files
            if k not in ("meta/patch_positions", "meta/removal_log")
        })
    sim_a.step(3)

    sim_b, e_b = build_mr_removed_at_step_3()
    load_checkpoint(sim_b, legacy)
    assert len(sim_b.patches) == 1
    sim_b.step(3)
    assert not sim_b.patches
    assert_same_state(sim_a, e_a, sim_b, e_b)
    with pytest.raises(ConfigurationError, match="checkpoint has 1 patches"):
        load_checkpoint(build_mr_removed_at_step_3(with_patch=False)[0], legacy)


def _distributed_roundtrip_bitwise(tmp_path, **options):
    ckpt_dir = str(tmp_path / "ckpt")
    sim_a = build_distributed(**options)
    sim_a.step(6)
    save_distributed_checkpoint(sim_a, ckpt_dir)
    sim_a.step(6)

    sim_b = build_distributed(**options)
    load_distributed_checkpoint(sim_b, ckpt_dir)
    assert sim_b.step_count == 6
    sim_b.step(6)

    for i in range(len(sim_a.boxes)):
        for comp, arr in sim_a.box_grids[i].fields.items():
            restored = sim_b.box_grids[i].fields[comp]
            assert restored.dtype == arr.dtype
            np.testing.assert_array_equal(arr, restored)
        sp_a = sim_a.species["electrons"].per_box[i]
        sp_b = sim_b.species["electrons"].per_box[i]
        np.testing.assert_array_equal(sp_a.positions, sp_b.positions)
        np.testing.assert_array_equal(sp_a.momenta, sp_b.momenta)
        np.testing.assert_array_equal(sp_a.ids, sp_b.ids)
    # the accounting resumes bit-for-bit too
    np.testing.assert_array_equal(sim_a.comm.bytes_sent, sim_b.comm.bytes_sent)
    np.testing.assert_array_equal(
        sim_a.comm.messages_sent, sim_b.comm.messages_sent
    )
    assert sim_a.comm.pair_bytes == sim_b.comm.pair_bytes
    assert sim_a.time == sim_b.time
    return sim_b


def test_distributed_roundtrip_bitwise(tmp_path):
    _distributed_roundtrip_bitwise(tmp_path)


def test_distributed_roundtrip_bitwise_compiled_vay_mixed(tmp_path):
    """The same contract in float32 box fields, on the options the
    decomposed driver inherited from ``StepDriver``."""
    sim = _distributed_roundtrip_bitwise(
        tmp_path, kernels="compiled", pusher="vay", precision="mixed",
        shape_order=3,
    )
    assert sim.box_grids[0].dtype == np.float32 and sim.pusher == "vay"


def test_distributed_roundtrip_in_memory():
    """The fast path the resilience manager uses: pack/unpack, no disk."""
    sim_a = build_distributed()
    sim_a.step(4)
    state = {
        k: np.array(v, copy=True)
        for k, v in pack_distributed_state(sim_a).items()
    }
    sim_a.step(4)

    sim_b = build_distributed()
    unpack_distributed_state(sim_b, state)
    sim_b.step(4)
    np.testing.assert_array_equal(
        sim_a.global_field_view("Ex"), sim_b.global_field_view("Ex")
    )
    assert sim_a.total_particles() == sim_b.total_particles()


@pytest.mark.parametrize("on_disk", [True, False], ids=["disk", "memory"])
def test_distributed_checkpoint_restores_exchange_accumulators(
    tmp_path, on_disk
):
    """``halo_stats`` and ``lb_moved_bytes`` roll back with the ``comm/*``
    counters they reconcile against (they used to keep the pre-restore
    totals), on both checkpoint paths; a checkpoint without them fails
    like one missing any other array."""
    from tests.conftest import make_skewed_lb_build

    build = make_skewed_lb_build()
    sim_a = build()
    sim_a.step(4)
    if on_disk:
        save_distributed_checkpoint(sim_a, str(tmp_path / "ckpt"))
    else:
        state = {
            k: np.array(v, copy=True)
            for k, v in pack_distributed_state(sim_a).items()
        }
    at_checkpoint = (sim_a.halo_stats, sim_a.lb_moved_bytes)
    assert at_checkpoint[0].payload_bytes > 0 and at_checkpoint[1] > 0
    # (the driver merges into the stats object in place: keep a copy)
    sim_a.halo_stats = type(sim_a.halo_stats)(**vars(sim_a.halo_stats))
    sim_a.step(4)

    sim_b = build()
    sim_b.step(6)  # a different past: the restore must overwrite it
    if on_disk:
        load_distributed_checkpoint(sim_b, str(tmp_path / "ckpt"))
    else:
        unpack_distributed_state(sim_b, state)
    assert (sim_b.halo_stats, sim_b.lb_moved_bytes) == at_checkpoint
    sim_b.step(4)
    assert sim_b.halo_stats == sim_a.halo_stats
    assert sim_b.lb_moved_bytes == sim_a.lb_moved_bytes

    if not on_disk:
        del state["meta/halo_stats"]
        with pytest.raises(KeyError, match="halo_stats"):
            unpack_distributed_state(build(), state)


def test_distributed_checkpoint_restores_measured_costs(tmp_path):
    ckpt_dir = str(tmp_path / "ckpt")
    sim_a = build_distributed()
    sim_a.step(3)
    save_distributed_checkpoint(sim_a, ckpt_dir)
    costs_a = dict(sim_a.cost_model._measured)
    assert costs_a  # populated by the per-box stopwatches

    sim_b = build_distributed()
    load_distributed_checkpoint(sim_b, ckpt_dir)
    assert dict(sim_b.cost_model._measured) == costs_a


def test_shape_mismatch_is_configuration_error(tmp_path):
    """A checkpoint from a different grid must fail with a typed error
    naming the offending array — not a raw NumPy broadcast error after
    half the state was already mutated."""
    path = str(tmp_path / "ckpt.npz")
    sim, _ = build_monolithic(n_cells=48)
    save_checkpoint(sim, path)

    other, _ = build_monolithic(n_cells=32)
    before = other.grid.fields["Ex"].copy()
    with pytest.raises(ConfigurationError, match="shape"):
        load_checkpoint(other, path)
    # validation happened before any mutation
    np.testing.assert_array_equal(other.grid.fields["Ex"], before)


def test_distributed_box_count_mismatch_raises(tmp_path):
    ckpt_dir = str(tmp_path / "ckpt")
    sim = build_distributed()
    save_distributed_checkpoint(sim, ckpt_dir)
    n0 = 1e24
    length = plasma_wavelength(n0)
    other = DistributedSimulation(
        (16, 16), (0.0, 0.0), (length, length), n_ranks=4, max_grid_size=4,
    )
    other.add_species(Species("electrons", ndim=2))
    with pytest.raises(ConfigurationError, match="boxes"):
        load_distributed_checkpoint(other, ckpt_dir)
    with pytest.raises(ConfigurationError, match="no distributed checkpoint"):
        load_distributed_checkpoint(other, str(tmp_path / "missing"))


def test_window_state_applies_when_attached_after_restore(tmp_path):
    """Restore before set_moving_window must still restart exactly."""
    path = str(tmp_path / "ckpt.npz")

    def build():
        g = YeeGrid((64,), (0.0,), (64 * um,), guards=4)
        sim = Simulation(g, boundaries="damped")
        e = Species("e", ndim=1)
        sim.add_species(e, profile=UniformProfile(1e24), ppc=1,
                        continuous_injection=True)
        return sim

    sim_a = build()
    sim_a.set_moving_window(MovingWindow(speed=c, start_time=0.0))
    sim_a.step(15)
    save_checkpoint(sim_a, path)
    sim_a.step(5)

    sim_b = build()
    load_checkpoint(sim_b, path)  # no window attached yet: state parked
    assert sim_b._deferred_window_state is not None
    sim_b.set_moving_window(MovingWindow(speed=c, start_time=0.0))
    assert sim_b._deferred_window_state is None
    sim_b.step(5)
    assert sim_b.moving_window.cells_shifted == sim_a.moving_window.cells_shifted
    np.testing.assert_array_equal(
        sim_a.grid.fields["Ey"], sim_b.grid.fields["Ey"]
    )
