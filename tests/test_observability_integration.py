"""End-to-end observability: attach_observability on the real simulation
classes, and the acceptance contracts — span hierarchy per rank, metrics
that match the communicator/load-balancer internals exactly, and a trace
that survives the export → CLI round trip."""

import io
import json

import numpy as np
import pytest

from repro.constants import fs, m_e, plasma_wavelength, q_e, um
from repro.core.simulation import Simulation
from repro.diagnostics.io import pack_distributed_state, unpack_distributed_state
from repro.diagnostics.timers import now
from repro.grid.maxwell import cfl_dt
from repro.grid.yee import YeeGrid
from repro.observability import (
    MetricsRegistry,
    RunReport,
    Tracer,
    attach_observability,
)
from repro.observability.cli import main as cli_main
from repro.observability.tracer import NULL_TRACER, build_tree, read_jsonl
from repro.parallel.distributed import DistributedSimulation
from repro.particles.injection import UniformProfile
from repro.particles.species import Species
from repro.scenarios.hybrid_target import HybridTargetSetup, build_hybrid_target
from repro.scenarios.uniform_plasma import build_uniform_plasma


def make_distributed(n_ranks=2, n_cells=8, **kwargs):
    n0 = 1e24
    length = plasma_wavelength(n0)
    sim = DistributedSimulation(
        (n_cells, n_cells), (0.0, 0.0), (length, length),
        n_ranks=n_ranks, max_grid_size=n_cells // 2, cfl=0.9, shape_order=2,
        **kwargs,
    )
    proto = Species("electrons", charge=-q_e, mass=m_e, ndim=2)
    sim.add_species(proto, profile=UniformProfile(n0), ppc=(1, 1))
    return sim


def test_simulations_default_to_null_tracer():
    sim, _ = build_uniform_plasma((8, 8), ppc=1)
    assert sim.tracer is NULL_TRACER and sim.metrics is None
    sim.step(1)  # instrumented step code runs fine without a recorder
    assert sim.tracer.records == []


#: the particle phases of one step on each tier: one ``particles`` phase
#: per species, whichever kernel ran in it
PARTICLE_PHASES = {
    "vectorized": ("particles",),
    "compiled": ("particles",),
}


def test_traced_single_simulation_has_step_phase_hierarchy():
    for kernels in PARTICLE_PHASES:
        sim, _ = build_uniform_plasma((8, 8), ppc=1, kernels=kernels)
        tracer, metrics = attach_observability(sim)
        assert sim.tracer is tracer and sim.metrics is metrics
        sim.step(3)

        children = build_tree(tracer.records)
        roots = children[-1]
        assert [r.name for r in roots] == ["step"] * 3
        assert [r.attrs["step"] for r in roots] == [0, 1, 2]
        step_phases = children[roots[0].sid]
        names = {c.name for c in step_phases}
        # the tier that actually ran (compiled falls back where absent)
        expected = PARTICLE_PHASES[sim.kernels]
        assert names & {"particles", "gather", "push", "deposit"} == (
            set(expected)
        )
        assert "maxwell" in names
        first = next(c for c in step_phases if c.name == expected[0])
        assert first.attrs["species"] == "electrons"
        assert first.attrs["kernel"] == sim.kernels
        # phase spans and the legacy timers see the same intervals
        assert sim.timers.counts["maxwell"] == 3

        snap = metrics.snapshot()
        assert snap["particles.pushed"] == 3 * sim.total_particles()
        assert snap["step.seconds"]["count"] == 3


def subcycled_hybrid_mr():
    """The reduced hybrid solid-gas deck with its subcycled MR patch."""
    setup = HybridTargetSetup(
        cells_per_wavelength=4, x_max=8 * um, y_half=3 * um,
        gas_lo=2 * um, gas_hi=4.5 * um, solid_lo=4.5 * um, solid_hi=5.5 * um,
        solid_nc=20, a0=2.5, duration=3 * fs, waist=1.5 * um,
    )
    return build_hybrid_target(setup, mode="mr", subcycle=True)[0]


STEP_CLOCK_DECKS = {
    "simulation": lambda: build_uniform_plasma((16, 16), ppc=2)[0],
    "mr_subcycled": subcycled_hybrid_mr,
    "distributed": lambda: make_distributed(n_ranks=2, n_cells=16),
}


@pytest.mark.parametrize("deck", sorted(STEP_CLOCK_DECKS))
def test_step_clock_covers_the_whole_step(deck):
    """``step_times`` laps whole steps, and each step's timed phases fit
    inside its lap.  A subcycled MR step's lap used to leave out the
    patch substeps: 0.43 of the wall time, with ``mr_subcycle`` alone
    larger than the lap."""
    sim = STEP_CLOCK_DECKS[deck]()
    sim.step(2)
    timers, walls = sim.timers, []
    for _ in range(5):
        before = dict(timers.totals)
        start = now()
        sim.step(1)
        walls.append(now() - start)
        phases = sum(v - before.get(k, 0.0) for k, v in timers.totals.items())
        assert phases <= timers.step_times[-1]
    assert sum(timers.step_times[-5:]) >= 0.9 * sum(walls)
    assert len(timers.step_times) == 7
    if deck == "mr_subcycled":
        assert timers.counts["mr_subcycle"] == 7


def mr_across_removal():
    """A 1D plasma whose patch is removed in step 3: one pass per level
    while it is active (three-phase on the NumPy tier), the plain
    particle pass after."""
    n0 = 1e24
    length = plasma_wavelength(n0)
    dt = cfl_dt((length / 64,), 0.9)
    sim = Simulation(YeeGrid((32,), (0.0,), (length,), guards=4), dt=dt)
    e = Species("electrons", charge=-q_e, mass=m_e, ndim=1)
    sim.add_species(e, profile=UniformProfile(n0), ppc=4)
    sim.add_patch((8,), (24,), ratio=2, remove_time=2.5 * dt)
    return sim


_SINGLE = {
    "antenna", "field_boundaries", "finalize_deposits", "maxwell",
    "particle_boundaries", "source_boundaries", "zero_sources",
}
_DECOMPOSED = {
    "fold_sources", "halo_sources", "halo_fields", "maxwell", "particles",
    "redistribute",
}
#: ``timers.totals`` keys after five steps, per configuration and kernel
#: tier: the phase names ``benchmarks/perf/report.py`` splits the step on,
#: so a driver change must neither rename nor drop one
PHASE_KEYS = {
    ("simulation", "compiled"): _SINGLE | {"particles"},
    ("simulation", "vectorized"): _SINGLE | {"particles"},
    ("mr_removal", "compiled"): _SINGLE | {"particles"},
    ("mr_removal", "vectorized"): _SINGLE | {"particles"},
    ("mr_subcycled", "compiled"): (
        _SINGLE | {"particles", "moving_window", "mr_subcycle"}
    ),
    ("mr_subcycled", "vectorized"): (
        _SINGLE | {"particles", "moving_window", "mr_subcycle"}
    ),
    ("distributed", "compiled"): _DECOMPOSED,
    ("distributed", "vectorized"): _DECOMPOSED,
}
PHASE_DECKS = dict(STEP_CLOCK_DECKS, mr_removal=mr_across_removal)


@pytest.mark.parametrize("deck", sorted(PHASE_DECKS))
def test_phase_names_per_driver_configuration(deck):
    sim = PHASE_DECKS[deck]()
    sim.step(5)
    assert set(sim.timers.totals) == PHASE_KEYS[deck, sim.kernels]
    if deck == "mr_removal":
        assert not sim.patches and len(sim.removal_log) == 1
    if deck == "mr_subcycled":
        assert len(sim.patches) == 1


def test_traced_mr_simulation_emits_level_spans():
    n0 = 1e24
    length = plasma_wavelength(n0)
    n_cells = 32
    g = YeeGrid((n_cells,), (0.0,), (length,), guards=4)
    sim = Simulation(
        g, dt=cfl_dt((length / n_cells,), 0.9), shape_order=2,
        smoothing_passes=0,
    )
    e = Species("electrons", charge=-q_e, mass=m_e, ndim=1)
    sim.add_species(e, profile=UniformProfile(n0), ppc=4)
    sim.add_patch((n_cells // 4,), (3 * n_cells // 4,), ratio=2, subcycle=True)
    tracer, _ = attach_observability(sim)
    sim.step(2)

    children = build_tree(tracer.records)
    by_id = {r.sid: r for r in tracer.records}
    steps = children[-1]
    assert [r.name for r in steps] == ["step", "step"]
    # the subcycled patch advance is a direct step phase...
    sub = next(c for c in children[steps[0].sid] if c.name == "mr_subcycle")
    assert sub.attrs == {"level": 1, "patch": 0, "ratio": 2}
    # ...while restriction/fine-fields nest inside their coarse phases
    restrict = next(r for r in tracer.records if r.name == "mr_restrict")
    assert by_id[restrict.parent].name == "finalize_deposits"
    assert restrict.attrs["level"] == 1
    fine = next(r for r in tracer.records if r.name == "mr_fields")
    assert by_id[fine.parent].name == "maxwell"


def test_distributed_metrics_match_comm_and_lb_internals():
    """Acceptance: comm bytes per rank pair and the imbalance gauge equal
    the SimComm / DistributionMapping numbers exactly."""
    sim = make_distributed(n_ranks=2, dynamic_lb=True, lb_interval=3)
    tracer, metrics = attach_observability(sim, snapshot_interval=2)
    sim.step(6)

    snap = metrics.snapshot()
    for (src, dst), nbytes in sim.comm.pair_bytes.items():
        mid = f"comm.pair_bytes{{dst={dst},src={src}}}"
        assert snap[mid] == pytest.approx(float(nbytes))
    assert snap["comm.messages"] == float(sim.comm.messages_sent.sum())
    assert snap["comm.collectives"] == float(sim.comm.collective_calls)
    assert snap["particles.pushed"] == 6 * sim.total_particles()
    # halo counters mirror the pairwise exchange's honest accounting
    assert snap["halo.guard_cells"] == float(sim.halo_samples)
    assert snap["halo.bytes"] == float(sim.halo_payload_bytes)
    assert snap["halo.messages"] == float(sim.halo_messages)
    assert sim.halo_payload_bytes > 0

    costs = sim.cost_model.measured(range(len(sim.boxes)), default=0.0)
    assert snap["lb.imbalance"] == pytest.approx(
        sim.dm.imbalance(costs, exclude_ranks=sim.dead_ranks)
    )
    # snapshot_interval=2 over 6 steps -> 3 interleaved snapshots
    assert [m["step"] for m in tracer.metric_records] == [2, 4, 6]


def live_accounting(sim):
    """The run's own books under their metric ids."""
    live = {
        "comm.messages": float(sim.comm.messages_sent.sum()),
        "halo.bytes": float(sim.halo_payload_bytes),
    }
    for (src, dst), nbytes in sim.comm.pair_bytes.items():
        live[f"comm.pair_bytes{{dst={dst},src={src}}}"] = float(nbytes)
    return live


def read_back(snapshot, live):
    """The snapshot's values of ``live``'s ids, plus any pair it adds."""
    ids = set(live) | {m for m in snapshot if m.startswith("comm.pair_bytes")}
    return {m: snapshot.get(m) for m in ids}


def test_metrics_equal_the_accounting_at_any_time():
    """Metrics attached mid-run, or read right after a restore, equal the
    live accounting.  Attached after 3 of 5 steps they used to read
    ``comm.messages`` 12 against 30 and ``halo.bytes`` 102,192 against
    255,480: only the steps they had watched."""
    sim = make_distributed(n_ranks=2)
    sim.step(3)
    _, metrics = attach_observability(sim)
    sim.step(2)
    live = live_accounting(sim)
    assert read_back(metrics.snapshot(), live) == live
    assert live["halo.bytes"] > 0 and len(live) > 2

    state = {k: np.array(v, copy=True)
             for k, v in pack_distributed_state(sim).items()}
    restored = make_distributed(n_ranks=2)
    _, metrics = attach_observability(restored)
    unpack_distributed_state(restored, state)
    assert read_back(metrics.snapshot(), live) == live
    assert live_accounting(restored) == live


def test_distributed_spans_carry_rank_and_box():
    sim = make_distributed(n_ranks=2)
    tracer, _ = attach_observability(sim)
    sim.step(2)

    children = build_tree(tracer.records)
    steps = children[-1]
    assert [r.name for r in steps] == ["step", "step"]
    # box spans nest inside the "particles" phase of their step
    particles = next(c for c in children[steps[0].sid] if c.name == "particles")
    boxes = [c for c in children[particles.sid] if c.name == "box"]
    assert len(boxes) == len(sim.boxes)
    for span in boxes:
        assert span.rank == sim.dm.rank_of(span.attrs["box"])
    assert len(sim.timers.step_times) == 2  # lap history now populated


def test_distributed_trace_round_trips_through_cli(tmp_path):
    """Acceptance: traced run -> JSONL -> CLI summary renders; Chrome
    export is valid trace_event JSON with one lane per rank."""
    sim = make_distributed(n_ranks=2, dynamic_lb=True, lb_interval=2)
    tracer, _ = attach_observability(sim, snapshot_interval=2)
    sim.step(4)

    jsonl = str(tmp_path / "run.jsonl")
    chrome = str(tmp_path / "run.json")
    tracer.to_jsonl(jsonl)
    tracer.to_chrome(chrome)

    spans, mrecs = read_jsonl(jsonl)
    assert len(spans) == len(tracer.records)
    assert build_tree(spans).keys() == build_tree(tracer.records).keys()

    stream = io.StringIO()
    assert cli_main([jsonl, "--tree"], stream=stream) == 0
    out = stream.getvalue()
    assert "top spans (by self time):" in out
    assert "comm bytes (src -> dst):" in out
    assert "span hierarchy" in out

    with open(chrome) as fh:
        events = json.load(fh)["traceEvents"]
    assert {e["pid"] for e in events if e["name"] == "box"} == {0, 1}


def test_run_report_from_distributed():
    sim = make_distributed(n_ranks=2)
    attach_observability(sim)
    sim.step(3)
    report = RunReport.from_distributed(sim)
    assert report.comm_matrix.shape == (2, 2)
    assert report.comm_matrix.sum() == float(sim.comm.total_bytes())
    assert report.imbalance >= 1.0
    text = report.render()
    assert "rank balance" in text and "comm bytes (src -> dst):" in text
    assert "imbalance (max/mean):" in text


def test_attach_accepts_preconfigured_recorders():
    sim = make_distributed(n_ranks=2)
    mine_t, mine_m = Tracer(enabled=True, rank=0), MetricsRegistry()
    tracer, metrics = attach_observability(sim, tracer=mine_t, metrics=mine_m)
    assert tracer is mine_t and metrics is mine_m


def test_resilience_checkpoint_metrics():
    sim = make_distributed(n_ranks=2, checkpoint_interval=50)
    _, metrics = attach_observability(sim)
    sim.step(2)
    before = metrics.snapshot()
    sim.resilience.save_checkpoint(sim)
    delta = metrics.delta(before)
    assert delta["checkpoint.saves"] == 1.0
    assert delta["checkpoint.bytes"] > 0
