"""The correctness contract of the parallel substrate: a decomposed run
reproduces the monolithic run to machine precision, particles migrate
between boxes correctly, and communication/LB accounting is populated."""

import gc

import numpy as np
import pytest

from repro.analysis.commcheck import check_comm
from repro.constants import m_e, plasma_wavelength, q_e
from repro.core.simulation import Simulation
from repro.exceptions import ConfigurationError
from repro.grid.yee import YeeGrid
from repro.observability.commlog import CommLogReplay
from repro.parallel.box import chop_domain
from repro.parallel.distributed import DistributedSimulation
from repro.parallel.mp_transport import (
    run_distributed_local,
    run_distributed_mp,
)
from repro.parallel.redistribute import (
    build_box_lookup,
    redistribute_particles,
    wrap_positions_periodic,
)
from repro.parallel.transport import pair_bytes_for_tag
from repro.particles.injection import UniformProfile
from repro.particles.kernels import FLOAT32_ERROR_BUDGET
from repro.particles.species import Species

from tests.conftest import (
    assert_runs_equal,
    langmuir_perturbation,
    make_langmuir_build,
)


def test_build_box_lookup_tiles():
    boxes = chop_domain((8, 8), 4)
    lookup = build_box_lookup(boxes, (8, 8))
    assert lookup.shape == (8, 8)
    assert set(np.unique(lookup)) == {0, 1, 2, 3}


def test_build_box_lookup_gap_raises():
    from repro.exceptions import DecompositionError
    from repro.parallel.box import Box

    with pytest.raises(DecompositionError):
        build_box_lookup([Box((0, 0), (4, 8))], (8, 8))


def test_wrap_positions_periodic():
    pos = np.array([[-0.5, 3.0], [8.5, -1.0]])
    wrap_positions_periodic(pos, (0.0, 0.0), (8.0, 8.0), axes=(0, 1))
    np.testing.assert_allclose(pos, [[7.5, 3.0], [0.5, 7.0]])


def test_redistribute_moves_to_owner():
    boxes = chop_domain((8, 8), 4)
    lookup = build_box_lookup(boxes, (8, 8))
    per_box = [Species("e", ndim=2) for _ in boxes]
    # a particle sitting in box 0's container but physically in box 3
    per_box[0].add_particles([[6.0, 6.0]])
    moved = redistribute_particles(
        per_box, boxes, lookup, (0.0, 0.0), (1.0, 1.0)
    )
    assert moved == 1
    assert per_box[0].n == 0
    owner = lookup[6, 6]
    assert per_box[owner].n == 1


def langmuir_setup_monolithic(
    n0, n_cells, length, ppc, u0, uy=0.0, uz=0.0, smoothing_passes=0,
    **options
):
    """The monolithic twin of ``conftest.make_langmuir_build``."""
    g = YeeGrid((n_cells,) * 2, (0.0, 0.0), (length, length), guards=4)
    sim = Simulation(
        g, cfl=0.9, shape_order=2, smoothing_passes=smoothing_passes,
        **options,
    )
    e = Species("electrons", charge=-q_e, mass=m_e, ndim=2)
    sim.add_species(e, profile=UniformProfile(n0), ppc=ppc)
    langmuir_perturbation(length, u0, uy, uz)(e)
    return sim, e


def test_distributed_matches_monolithic():
    """THE substrate test: 2x2 boxes over 4 ranks == single grid."""
    n0 = 1e24
    length = plasma_wavelength(n0)
    n_cells = 16
    ppc = (2, 2)
    u0 = 1e-3

    mono, e_mono = langmuir_setup_monolithic(n0, n_cells, length, ppc, u0)

    dist = DistributedSimulation(
        (n_cells,) * 2,
        (0.0, 0.0),
        (length, length),
        n_ranks=4,
        max_grid_size=8,
        cfl=0.9,
        shape_order=2,
        smoothing_passes=0,
    )
    e_proto = Species("electrons", charge=-q_e, mass=m_e, ndim=2)
    k = 2 * np.pi / length

    def perturb(sp):
        sp.momenta[:, 0] = u0 * np.sin(k * sp.positions[:, 0])

    dist.add_species(e_proto, profile=UniformProfile(n0), ppc=ppc,
                     momentum_init=perturb)

    assert dist.total_particles() == e_mono.n
    assert dist.dt == pytest.approx(mono.dt)

    steps = 40
    mono.step(steps)
    dist.step(steps)

    ex_mono = mono.grid.interior_view("Ex")
    ex_dist = dist.global_field_view("Ex")
    scale = np.max(np.abs(ex_mono))
    assert scale > 0
    np.testing.assert_allclose(ex_dist, ex_mono, atol=1e-9 * scale)
    # particle populations agree
    assert dist.total_particles() == e_mono.n
    merged = dist.species["electrons"].gather_all()
    assert merged.kinetic_energy() == pytest.approx(
        e_mono.kinetic_energy(), rel=1e-9
    )
    # the whole run's message traffic obeys the protocol
    check_comm(dist.comm).raise_if_failed()


def test_distributed_comm_accounting_populates():
    n0 = 1e24
    length = plasma_wavelength(n0)
    dist = DistributedSimulation(
        (16, 16), (0.0, 0.0), (length, length), n_ranks=4, max_grid_size=8,
    )
    e = Species("e", ndim=2)
    dist.add_species(e, profile=UniformProfile(n0), ppc=1)
    dist.step(3)
    assert dist.comm.total_bytes() > 0
    assert dist.comm.total_messages() > 0
    # halo traffic between distinct ranks only
    for (src, dst), nbytes in dist.comm.pair_bytes.items():
        assert src != dst
    # and the recorded event log passes the protocol checker
    report = check_comm(dist.comm)
    assert report.ok, report.format()
    assert report.n_events > 0


def test_dynamic_lb_triggers_on_imbalance():
    """A particle distribution concentrated in one corner triggers the
    dynamic load balancer, which reduces the measured-cost imbalance."""
    n0 = 1e24
    length = plasma_wavelength(n0)
    dist = DistributedSimulation(
        (16, 16), (0.0, 0.0), (length, length),
        n_ranks=4, max_grid_size=4,  # 16 boxes over 4 ranks
        dynamic_lb=True, lb_interval=3, lb_threshold=1.05,
        strategy="sfc",
    )
    e = Species("e", ndim=2)
    # plasma only in one quadrant: heavily imbalanced
    dist.add_species(e, profile=UniformProfile(n0), ppc=4)
    for i, sp in enumerate(dist.species["e"].per_box):
        if dist.boxes[i].lo[0] >= 8 or dist.boxes[i].lo[1] >= 8:
            sp.remove(np.ones(sp.n, dtype=bool))
    dist.step(6)
    assert len(dist.lb_events) >= 1
    costs = dist.cost_model.measured(range(len(dist.boxes)))
    assert dist.dm.imbalance(costs) < 2.0


def test_box_costs_are_timed_without_the_collector(monkeypatch):
    """Regression: a full cyclic collection (~15 ms in a test process)
    landed in one box's measured cost about one run in seven, and the
    balancer chasing it left ``imbalance`` at 3.75 in the test above.
    Every box's particle pass runs with the collector paused, and the
    collector runs again after the step."""
    import repro.parallel.distributed as distributed

    seen = []
    real = distributed.advance_particles

    def spy(*args, **kwargs):
        seen.append(gc.isenabled())
        return real(*args, **kwargs)

    monkeypatch.setattr(distributed, "advance_particles", spy)
    n0 = 1e24
    length = plasma_wavelength(n0)
    dist = DistributedSimulation(
        (16, 16), (0.0, 0.0), (length, length), n_ranks=2, max_grid_size=8,
        dynamic_lb=True, lb_interval=1,
    )
    dist.add_species(Species("e", ndim=2), profile=UniformProfile(n0), ppc=1)
    dist.step(2)
    assert len(seen) == 2 * len(dist.boxes) and not any(seen)
    assert gc.isenabled()


# -- halo accounting, dead-rank LB, and migration payload regressions --------


def test_halo_send_log_reconciles_with_pair_bytes():
    """Acceptance: every halo send carries a real payload, at most one
    aggregated message flows per (src, dst) per phase, and the event log
    agrees with both the simulation counters and SimComm.pair_bytes."""
    from collections import Counter

    n0 = 1e24
    length = plasma_wavelength(n0)
    dist = DistributedSimulation(
        (16, 16), (0.0, 0.0), (length, length), n_ranks=4, max_grid_size=8,
    )
    e = Species("e", ndim=2)
    dist.add_species(e, profile=UniformProfile(n0), ppc=2)
    dist.step(2)  # warm up past initialization
    dist.comm.clear_log()
    pair_before = dict(dist.comm.pair_bytes)
    bytes_before = dist.halo_payload_bytes
    msgs_before = dist.halo_messages

    dist.step(1)

    halo_sends = [
        ev for ev in dist.comm.log
        if ev.kind == "send" and ev.tag.startswith("halo")
    ]
    assert halo_sends and all(ev.nbytes > 0 for ev in halo_sends)
    counts = Counter((ev.src, ev.dst, ev.tag) for ev in halo_sends)
    assert max(counts.values()) == 1  # one aggregated message per pair+phase
    # log == simulation counters == communicator pair accounting
    logged = dist.comm.pair_bytes_for_tag("halo")
    halo_logged = sum(ev.nbytes for ev in halo_sends)
    assert sum(logged.values()) == halo_logged
    assert halo_logged == dist.halo_payload_bytes - bytes_before
    assert len(halo_sends) == dist.halo_messages - msgs_before
    # and every byte pair_bytes advanced by this step is in the event log
    pair_delta = sum(
        n - pair_before.get(p, 0) for p, n in dist.comm.pair_bytes.items()
    )
    all_send_bytes = sum(
        ev.nbytes for ev in dist.comm.log if ev.kind == "send"
    )
    assert pair_delta == all_send_bytes


def test_lb_never_resurrects_dead_rank():
    """Regression: after a rank failure the dynamic load balancer must
    keep the dead rank out of every subsequent assignment."""
    from repro.resilience import FaultSchedule, FaultSpec, RecoveryPolicy

    schedule = FaultSchedule([FaultSpec(kind="rank_failure", step=2, rank=1)])
    n0 = 1e24
    length = plasma_wavelength(n0)
    dist = DistributedSimulation(
        (16, 16), (0.0, 0.0), (length, length),
        n_ranks=4, max_grid_size=4,  # 16 boxes over 4 ranks
        dynamic_lb=True, lb_interval=2, lb_threshold=1.01,
        fault_schedule=schedule, recovery=RecoveryPolicy(),
        checkpoint_interval=1,
    )
    e = Species("e", ndim=2)
    dist.add_species(e, profile=UniformProfile(n0), ppc=4)
    for i, sp in enumerate(dist.species["e"].per_box):
        if dist.boxes[i].lo[0] >= 8 or dist.boxes[i].lo[1] >= 8:
            sp.remove(np.ones(sp.n, dtype=bool))
    dist.step(8)
    assert dist.dead_ranks == {1}
    assert len(dist.lb_events) >= 1  # the balancer did run after the death
    assert 1 not in set(dist.dm.assignment)


def test_lb_migration_ships_real_payloads():
    """Regression: a rebalance moves the boxes' fields and particles as
    real messages; lb_moved_bytes equals the tagged wire traffic."""
    n0 = 1e24
    length = plasma_wavelength(n0)
    dist = DistributedSimulation(
        (16, 16), (0.0, 0.0), (length, length),
        n_ranks=4, max_grid_size=4,
        dynamic_lb=True, lb_interval=3, lb_threshold=1.05,
        strategy="sfc",
    )
    e = Species("e", ndim=2)
    dist.add_species(e, profile=UniformProfile(n0), ppc=4)
    for i, sp in enumerate(dist.species["e"].per_box):
        if dist.boxes[i].lo[0] >= 8 or dist.boxes[i].lo[1] >= 8:
            sp.remove(np.ones(sp.n, dtype=bool))
    dist.step(6)
    assert any(m > 0 for m in dist.lb_events)
    assert dist.lb_moved_bytes > 0
    migrate_bytes = dist.comm.pair_bytes_for_tag("lb:migrate")
    assert sum(migrate_bytes.values()) == dist.lb_moved_bytes
    assert all(src != dst for src, dst in migrate_bytes)
    check_comm(dist.comm).raise_if_failed()


# -- cross-transport parity (see tests/conftest.py) --------------------------


def test_redistribute_cross_transport(transport_runner, golden_langmuir):
    """Particle redistribution is transport-invariant: cross-rank movers
    travel as real messages on the multiprocessing backend and every box
    ends with bit-identical particles; the 'particles' wire traffic in
    the replayable log matches the loopback bytes exactly."""
    want = golden_langmuir(n_steps=8, uy=0.3)
    got = transport_runner(make_langmuir_build(uy=0.3), 8)
    assert_runs_equal(got, want)
    got_pairs = pair_bytes_for_tag(got.merged_log, "particles")
    want_pairs = pair_bytes_for_tag(want.merged_log, "particles")
    assert got_pairs == want_pairs
    # the protocol really moved particle payloads between ranks
    assert sum(got_pairs.values()) > 0


def test_measured_lb_costs_cross_transport_collectives():
    """Measured LB costs take the same allreduce on both transports: the
    per-box timings differ between runs, the collective accounting must
    not (loopback used to skip the call every mp worker makes)."""
    build = make_langmuir_build(
        n_ranks=2, dynamic_lb=True, lb_interval=2, lb_cost_source="measured"
    )
    local = run_distributed_local(build, 4)
    over_mp = run_distributed_mp(build, 4, 2, run_timeout=120.0)
    assert local.counters.collective_calls == 2
    assert over_mp.counters.collective_calls == local.counters.collective_calls


# -- one driver base: every shared option runs decomposed ---------------------

#: hot enough that the pushers differ: on the u0 = 1e-3 Langmuir deck Vay
#: and Boris agree to the last bit, so it cannot catch a hard-coded one
HOT = dict(u0=0.3, uy=0.2, uz=0.1)
PARITY_STEPS = 20
_MONO_EX_KE = {}


def _hot_monolithic(**options):
    """(Ex, kinetic energy) of the hot deck on one grid, once per option set."""
    key = tuple(sorted(options.items()))
    if key not in _MONO_EX_KE:
        length = plasma_wavelength(1e24)
        sim, e = langmuir_setup_monolithic(
            1e24, 16, length, (2, 2), **HOT, **options
        )
        sim.step(PARITY_STEPS)
        _MONO_EX_KE[key] = (
            sim.grid.interior_view("Ex").astype(np.float64),
            e.kinetic_energy(),
            sim.kernels,
            sim.grid.dtype,
        )
    return _MONO_EX_KE[key]


@pytest.mark.parametrize("smoothing_passes", [0, 1])
@pytest.mark.parametrize("deposition", ["esirkepov", "direct"])
@pytest.mark.parametrize("precision", ["float64", "mixed"])
@pytest.mark.parametrize("pusher", ["boris", "vay"])
@pytest.mark.parametrize("kernels", ["vectorized", "compiled"])
def test_decomposed_parity_matrix(
    kernels, pusher, precision, deposition, smoothing_passes
):
    """Every shared option, in every combination, gives the monolithic
    answer on 2x2 boxes over 4 ranks.  (Without a compiled backend both
    sides fall back to ``vectorized``: the comparison still holds.)"""
    options = dict(
        kernels=kernels, pusher=pusher, precision=precision,
        deposition=deposition, smoothing_passes=smoothing_passes,
    )
    ex_mono, ke_mono, tier, dtype = _hot_monolithic(**options)
    scale = np.max(np.abs(ex_mono))
    # the deck tells the pushers apart, so a hard-coded one cannot pass
    other = dict(options, pusher="vay" if pusher == "boris" else "boris")
    assert np.max(np.abs(_hot_monolithic(**other)[0] - ex_mono)) > 1e-9 * scale

    dist = make_langmuir_build(**HOT, **options)()
    assert (dist.kernels, dist.pusher, dist.deposition) == (
        tier, pusher, deposition
    )
    assert {bg.dtype for bg in dist.box_grids} == {dtype}
    dist.step(PARITY_STEPS)
    ex_tol, ke_tol = (
        (1e-10, 1e-9) if precision == "float64"
        else (FLOAT32_ERROR_BUDGET["advance"],) * 2
    )
    ex_dist = dist.global_field_view("Ex").astype(np.float64)
    assert np.max(np.abs(ex_dist - ex_mono)) <= ex_tol * scale
    ke_dist = dist.species["electrons"].gather_all().kinetic_energy()
    assert ke_dist == pytest.approx(ke_mono, rel=ke_tol)


@pytest.mark.parametrize(
    "bad, guards",
    [
        (dict(pusher="leap"), 4), (dict(deposition="nearest"), 4),
        (dict(precision="half"), 4), (dict(kernels="simd"), 4),
        (dict(maxwell_solver="fdtd"), 4), (dict(v_galilean=(1.0, 0.0)), 4),
        (dict(shape_order=3), 2),
    ],
    ids=lambda v: next(iter(v)) if isinstance(v, dict) else "",
)
def test_shared_options_are_refused_identically(bad, guards):
    """One parser: an unknown value of any shared option (or too few
    guards for the shape order) raises the same ``ConfigurationError``
    from either constructor."""
    with pytest.raises(ConfigurationError) as mono:
        Simulation(YeeGrid((8, 8), (0.0, 0.0), (8.0, 8.0), guards=guards), **bad)
    with pytest.raises(ConfigurationError) as dist:
        DistributedSimulation(
            (8, 8), (0.0, 0.0), (8.0, 8.0), n_ranks=1, guards=guards, **bad
        )
    assert str(dist.value) == str(mono.value)


@pytest.mark.parametrize(
    "bad",
    [dict(shape_order=0), dict(shape_order=4), dict(shape_order=2.7),
     dict(dt=0.0), dict(dt=-1e-17), dict(dt=float("nan")), dict(cfl=-0.5),
     dict(cfl=float("inf"))],
    ids=lambda v: "-".join(f"{k}={val}" for k, val in v.items()),
)
def test_shape_order_dt_and_cfl_are_refused_identically(bad):
    """A shape order outside 1-3 (or not an integer), a time step or a
    Courant fraction that is not finite and > 0: the same
    ``ConfigurationError`` naming the value from either constructor."""
    (name, value), = bad.items()
    with pytest.raises(ConfigurationError, match=f"{name}.*{value!r}") as mono:
        Simulation(YeeGrid((8, 8), (0.0, 0.0), (8.0, 8.0), guards=4), **bad)
    with pytest.raises(ConfigurationError) as dist:
        DistributedSimulation((8, 8), (0.0, 0.0), (8.0, 8.0), n_ranks=1, **bad)
    assert str(dist.value) == str(mono.value)


@pytest.mark.parametrize(
    "option, value",
    [("max_grid_size", 2.5), ("max_grid_size", True), ("max_grid_size", 0),
     ("max_grid_size", "8"), ("lb_threshold", float("nan")),
     ("lb_threshold", float("inf")), ("lb_threshold", True),
     ("lb_threshold", "1.1")],
)
def test_decomposition_options_refused_at_construction(option, value):
    """``max_grid_size=2.5`` died in a TypeError and ``True`` chopped
    one-cell boxes; ``lb_threshold=nan`` was kept, and ``imbalance > nan``
    never fires, so the balancer was silently off.  Each is a
    ``ConfigurationError`` naming the option."""
    with pytest.raises(ConfigurationError, match=f"{option}.*{value!r}"):
        DistributedSimulation(
            (8, 8), (0.0, 0.0), (8.0, 8.0), n_ranks=2, dynamic_lb=True,
            **{option: value},
        )


@pytest.mark.parametrize("bad", [-1, 1.7, "2"], ids=["negative", "float", "str"])
def test_smoothing_passes_are_refused_identically(bad):
    """``smoothing_passes`` takes integers >= 0 only, on both drivers,
    with the same error naming the value."""
    with pytest.raises(ConfigurationError, match=repr(bad)) as mono:
        Simulation(YeeGrid((8, 8), (0.0, 0.0), (8.0, 8.0), guards=4),
                   smoothing_passes=bad)
    with pytest.raises(ConfigurationError) as dist:
        DistributedSimulation((8, 8), (0.0, 0.0), (8.0, 8.0), n_ranks=1,
                              smoothing_passes=bad)
    assert str(dist.value) == str(mono.value)


def test_compiled_vay_mixed_cross_transport(transport_runner):
    """ROADMAP 1(i)'s target configuration — compiled tier, Vay pusher,
    float32 fields — over 16 boxes on 2 ranks: float32 box fields,
    particles and counters are bit-identical on both transports, the
    merged log holds the same events (the merge interleaves the ranks'
    receives within a phase its own way) and replays clean."""
    build = make_langmuir_build(
        n_ranks=2, n_cells=32, max_grid_size=8, shape_order=3, **HOT,
        kernels="compiled", pusher="vay", precision="mixed",
    )
    want = run_distributed_local(build, 12)
    got = transport_runner(build, 12, n_ranks=2, run_timeout=120.0)
    assert {a.dtype for comps in got.fields.values() for a in comps.values()} == {
        np.dtype(np.float32)
    }
    assert_runs_equal(got, want)
    assert sorted(e[1:] for e in got.merged_log) == sorted(
        e[1:] for e in want.merged_log
    )
    report = check_comm(CommLogReplay(got.merged_log, 2))
    assert report.ok, report.format()


# -- 3D: a 2 x 2 x 2 box array over two ranks ---------------------------------

#: the deck's momentum init, shared by the monolithic twin
_PERTURB_3D = langmuir_perturbation(plasma_wavelength(1e24), 1e-3, 0.3, 0.1)


def _build_3d(transport=None):
    """(16, 16, 16) cells, ``max_grid_size=8``: eight 8^3 boxes, four
    guards each, on two ranks (a pure function of ``transport``)."""
    length = plasma_wavelength(1e24)
    sim = DistributedSimulation(
        (16,) * 3, (0.0,) * 3, (length,) * 3, n_ranks=2, max_grid_size=8,
        cfl=0.9, shape_order=2, smoothing_passes=0, transport=transport,
    )
    sim.add_species(
        Species("electrons", charge=-q_e, mass=m_e, ndim=3),
        profile=UniformProfile(1e24), ppc=1, momentum_init=_PERTURB_3D,
    )
    return sim


def test_3d_decomposed_matches_monolithic():
    """Twenty steps of the 3D deck equal the monolithic ``Simulation`` to
    1e-10 of each field's scale, and every exchange phase of a step moves
    one message per direction between the two ranks.

    Each rank's fields are one 16 x 16 x 8 tile (4 guards): the field
    fill receives the 4 guard planes below it and the top valid plane
    plus 4 guard planes above it, each 25 x 25 samples — 9 * 625 * 6 =
    33,750 samples (62,424 when each box was its own field grid) — and
    the source fill the top valid plane of J, 17 * 17 * 3 = 867; the
    fold stays per box (53,276)."""
    length = plasma_wavelength(1e24)
    mono = Simulation(
        YeeGrid((16,) * 3, (0.0,) * 3, (length,) * 3, guards=4),
        cfl=0.9, shape_order=2, smoothing_passes=0,
    )
    electrons = Species("electrons", charge=-q_e, mass=m_e, ndim=3)
    mono.add_species(electrons, profile=UniformProfile(1e24), ppc=1)
    _PERTURB_3D(electrons)
    dist = _build_3d()
    # periodic 2 x 2 x 2: each box has exactly 26 (source, image) neighbours
    assert len(dist.fold_overlaps) == len(dist.fill_overlaps) == 8 * 26
    dist.step(1)
    sends = [ev for ev in dist.comm.log if ev.kind == "send"]
    per_phase = {
        tag: sorted((ev.src, ev.dst) for ev in sends if ev.tag == tag)
        for tag in ("halo:fold", "halo:sources", "halo:fields", "particles")
    }
    assert per_phase == {tag: [(0, 1), (1, 0)] for tag in per_phase}
    assert len(sends) == dist.comm.total_messages() == 8
    # one float64 buffer + the 8 B plan digest per halo message
    assert {ev.tag: ev.nbytes for ev in sends if ev.tag.startswith("halo")} == {
        "halo:fold": 53_276 * 8 + 8, "halo:sources": 867 * 8 + 8,
        "halo:fields": 33_750 * 8 + 8,
    }
    dist.step(19)
    mono.step(19 + 1)
    for group in (("Ex", "Ey", "Ez"), ("Bx", "By", "Bz")):
        scale = max(
            np.max(np.abs(mono.grid.interior_view(comp))) for comp in group
        )
        assert scale > 0
        for comp in group:
            err = np.max(np.abs(
                dist.global_field_view(comp) - mono.grid.interior_view(comp)
            ))
            assert err <= 1e-10 * scale, comp
    assert dist.total_particles() == electrons.n
    assert dist.species["electrons"].gather_all().kinetic_energy() == (
        pytest.approx(electrons.kinetic_energy(), rel=1e-10)
    )


def test_3d_decomposed_cross_transport(transport_runner):
    """The 3D deck is bit-identical on both transports: fields,
    particles, counters, and the merged log, which replays clean."""
    want = run_distributed_local(_build_3d, 20)
    got = transport_runner(_build_3d, 20, n_ranks=2, run_timeout=120.0)
    assert_runs_equal(got, want)
    assert sorted(e[1:] for e in got.merged_log) == sorted(
        e[1:] for e in want.merged_log
    )
    report = check_comm(CommLogReplay(got.merged_log, 2))
    assert report.ok, report.format()


# -- add_species: per-box samples, and the refusals of Simulation.add_species --


def _thermal(rng_seed):
    dist = DistributedSimulation(
        (16, 16), (0.0, 0.0), (16.0, 16.0), n_ranks=4, max_grid_size=8,
    )
    return dist.add_species(
        Species("e", ndim=2), profile=UniformProfile(1.0), ppc=2,
        temperature_uth=0.05, rng_seed=rng_seed,
    ).per_box


def test_thermal_boxes_draw_their_own_sample():
    """Regression: every box drew from ``default_rng(rng_seed)``, so a
    thermal plasma was one sample tiled at the box size."""
    boxes = _thermal(rng_seed=3)
    assert len({sp.n for sp in boxes}) == 1 and boxes[0].n > 0
    for sp in boxes[1:]:
        assert not np.array_equal(sp.momenta, boxes[0].momenta)
    # still a pure function of the arguments: SPMD workers agree
    for sp, twin in zip(boxes, _thermal(rng_seed=3)):
        assert np.array_equal(sp.momenta, twin.momenta)
    assert not np.array_equal(boxes[0].momenta, _thermal(rng_seed=4)[0].momenta)


def test_add_species_refuses_duplicates_and_wrong_ndim():
    """Same two errors, same wording, as ``Simulation.add_species``."""
    dist = DistributedSimulation(
        (8, 8), (0.0, 0.0), (8.0, 8.0), n_ranks=1,
    )
    mono = Simulation(YeeGrid((8, 8), (0.0, 0.0), (8.0, 8.0), guards=4))
    for sim in (mono, dist):
        sim.add_species(Species("e", ndim=2))
    for sp in (Species("e", ndim=2), Species("ions", ndim=3)):
        with pytest.raises(ConfigurationError) as want:
            mono.add_species(sp)
        with pytest.raises(ConfigurationError) as got:
            dist.add_species(sp)
        assert str(got.value) == str(want.value)
    assert list(dist.species) == ["e"]
