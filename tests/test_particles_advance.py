"""The box-level particle advance and the fused compiled pass behind it:
fused vs composed agreement, the Esirkepov window contract (NumPy
fallback, guard shortfall), bounds safety of every native kernel (run in
subprocesses: a regression here is a segfault, not an exception), routing
in both step drivers (with and without an MR patch), phases and
dispatch counters."""

import os
import subprocess
import sys

import numpy as np
import pytest

from tests.conftest import (
    assert_runs_equal,
    make_langmuir_build,
    needs_compiled,
    record_calls,
    unfused,
)
from repro.constants import c, m_e, plasma_wavelength, q_e
from repro.core.simulation import Simulation
from repro.diagnostics import gauss_law_residual
from repro.diagnostics.io import load_checkpoint, save_checkpoint
from repro.exceptions import ConfigurationError, PrecisionError, SanitizerError
from repro.grid.maxwell import cfl_dt
from repro.grid.yee import YeeGrid
from repro.observability import attach_observability
from repro.parallel.distributed import DistributedSimulation
from repro.parallel.mp_transport import run_distributed_local, run_distributed_mp
from repro.particles import kernels
from repro.particles.advance import advance_particles
from repro import native
from repro.particles import compiled
from repro.particles.compiled import KMAX, LANES
from repro.particles.deposit import esirkepov_window
from repro.particles.injection import UniformProfile
from repro.particles.kernels import (
    FLOAT32_ERROR_BUDGET,
    available_kernel_variants,
    get_kernel_set,
    validate_kernel_set,
)
from repro.particles.pusher import wrap_positions_periodic
from repro.particles.species import Species
from repro.scenarios import build_uniform_plasma

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def langmuir(kernels="compiled", n=24, **kwargs):
    sim, electrons = build_uniform_plasma(
        (n, n), ppc=(2, 2), shape_order=3, temperature_uth=0.0,
        kernels=kernels, **kwargs,
    )
    k = 2 * np.pi / (sim.grid.hi[0] - sim.grid.lo[0])
    electrons.momenta[:, 0] = 1e-2 * np.sin(k * electrons.positions[:, 0])
    return sim, electrons


def rel(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def advance_species(kernel_set, grid, sp, dt, order, deposition="esirkepov",
                    pusher="boris", **where):
    """``advance_particles`` on a species' arrays, written back."""
    sp.positions, sp.momenta, leaving = advance_particles(
        kernel_set, grid, sp.positions, sp.momenta, sp.weights, sp.charge,
        sp.mass, dt, order, pusher, deposition, **where,
    )
    return leaving


# -- (a) cross-validation through the kernel table ----------------------------

@needs_compiled
@pytest.mark.parametrize("ndim", [1, 2, 3])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_validate_kernel_set_covers_the_fused_advance(ndim, order):
    # both pushers run inside; positions, momenta and J all count
    errors = validate_kernel_set("compiled", ndim=ndim, order=order)
    assert errors["advance"] < 1e-12, errors
    mixed = validate_kernel_set(
        "compiled", ndim=ndim, order=order, precision="float32"
    )
    assert 0.0 < mixed["advance"] <= FLOAT32_ERROR_BUDGET["advance"]


@needs_compiled
def test_float32_advance_budget_is_enforced(monkeypatch):
    monkeypatch.setitem(FLOAT32_ERROR_BUDGET, "advance", 1e-12)
    with pytest.raises(PrecisionError, match="advance"):
        validate_kernel_set("compiled", precision="float32")


def test_validate_skips_advance_for_unfused_variants():
    assert "advance" not in validate_kernel_set("vectorized")


# -- (b) a physics run on the fused path --------------------------------------

@needs_compiled
@pytest.mark.parametrize("pusher", ["boris", "vay"])
def test_fused_langmuir_matches_vectorized(pusher):
    fused, e_f = langmuir("compiled", pusher=pusher)
    ref, e_r = langmuir("vectorized", pusher=pusher)
    g0 = gauss_law_residual(fused.grid, [e_f], order=3)
    fused.step(20)
    ref.step(20)
    # one scale per family: Ey and Bz are round-off of an x-directed wave
    e_scale = np.max(np.abs(ref.grid.fields["Ex"]))
    for comp, scale in (("Ex", e_scale), ("Ey", e_scale), ("Bz", e_scale / c)):
        diff = fused.grid.fields[comp] - ref.grid.fields[comp]
        assert np.max(np.abs(diff)) < 1e-11 * scale, comp
    assert rel(fused.grid.fields["Jx"], ref.grid.fields["Jx"]) < 1e-11
    assert rel(e_f.momenta, e_r.momenta) < 1e-11
    assert rel(e_f.positions, e_r.positions) < 1e-13
    # charge conservation: the Gauss residual is frozen at round-off
    g1 = gauss_law_residual(fused.grid, [e_f], order=3)
    assert np.max(np.abs(g1 - g0)) / np.max(np.abs(g0)) < 1e-12
    assert "particles" in fused.timers.totals
    assert "gather" not in fused.timers.totals


@needs_compiled
def test_fused_checkpoint_restart_is_bit_identical(tmp_path):
    straight, e_s = langmuir()
    straight.step(20)
    first, _ = langmuir()
    first.step(10)
    path = str(tmp_path / "half.npz")
    save_checkpoint(first, path)
    resumed, e_r = langmuir()
    load_checkpoint(resumed, path)
    resumed.step(10)
    for comp, arr in straight.grid.fields.items():
        assert np.array_equal(resumed.grid.fields[comp], arr), comp
    assert np.array_equal(e_r.positions, e_s.positions)
    assert np.array_equal(e_r.momenta, e_s.momenta)


@needs_compiled
def test_fused_and_three_phase_routes_agree():
    """The fused slot against the composed route on the same C gather
    and deposit; both time one ``particles`` phase."""
    fused, e_f = langmuir()
    split, e_s = langmuir()
    split.kernel_set = unfused(split.kernel_set)
    split.kernel_set, gathers = record_calls(split.kernel_set, "gather")
    fused.step(5)
    split.step(5)
    # only NumPy's einsum rounding in the pushers separates the two
    assert rel(e_f.momenta, e_s.momenta) < 1e-13
    assert rel(fused.grid.fields["Jx"], split.grid.fields["Jx"]) < 1e-13
    assert len(gathers) == 5
    for sim in (fused, split):
        assert sim.timers.counts["particles"] == 5
        assert not {"gather", "push", "deposit"} & set(sim.timers.totals)


@needs_compiled
def test_direct_deposition_takes_the_three_phase_route():
    """``deposition="direct"`` on the native tier: the composed route
    (C gather, NumPy direct deposit), never the fused slot."""
    sim, _ = langmuir(deposition="direct")
    sim.kernel_set, advances = record_calls(sim.kernel_set, "advance")
    sim.kernel_set, gathers = record_calls(sim.kernel_set, "gather")
    sim.step(2)
    assert advances == [] and len(gathers) == 2
    assert sim.timers.counts["particles"] == 2
    assert "gather" not in sim.timers.totals


def test_advance_particles_rejects_unknown_names():
    grid = YeeGrid((8,), (0.0,), (8.0,), guards=4)
    sp = Species("e", ndim=1)
    ks = get_kernel_set("vectorized")
    with pytest.raises(ConfigurationError, match="pusher"):
        advance_species(ks, grid, sp, 0.1, 1, pusher="euler")
    with pytest.raises(ConfigurationError, match="deposition"):
        advance_species(ks, grid, sp, 0.1, 1, deposition="cic")


# -- (c) the Esirkepov window contract through advance_particles ---------------

def streaming_species(grid, displacement_cells, n=20, seed=3):
    """Ultra-relativistic +x streamers and the dt that moves them
    ``displacement_cells`` in one step (fields are zero: u is constant)."""
    rng = np.random.default_rng(seed)
    sp = Species("beam", charge=-q_e, mass=m_e, ndim=grid.ndim)
    mid = 0.5 * (np.asarray(grid.lo) + np.asarray(grid.hi))
    sp.add_particles(
        mid + rng.random((n, grid.ndim)) * grid.dx[0],
        momenta=np.tile([1e4, 0.0, 0.0], (n, 1)),
        weights=1.0 + rng.random(n),
    )
    return sp, displacement_cells * grid.dx[0] / c


@needs_compiled
def test_wide_displacement_takes_the_three_phase_route():
    """``c dt >= min(dx)``: the fused pass (window ``order + 2`` by
    construction) is not taken; the composed route sizes the window from
    the data and, at K > KMAX, lands on the NumPy Esirkepov kernel."""
    grid_f = YeeGrid((24, 24), (0.0, 0.0), (24.0, 24.0), guards=10)
    grid_r = grid_f.copy()
    assert esirkepov_window(3, 3.2) > KMAX
    sp_f, dt = streaming_species(grid_f, 3.2)
    sp_r, _ = streaming_species(grid_r, 3.2)
    ks, advances = record_calls(get_kernel_set("compiled"), "advance")
    advance_species(ks, grid_f, sp_f, dt, 3)
    advance_species(get_kernel_set("vectorized"), grid_r, sp_r, dt, 3)
    assert advances == []
    assert np.max(np.abs(grid_r.fields["Jx"])) > 0
    for comp in ("Jx", "Jy", "Jz"):
        np.testing.assert_allclose(
            grid_f.fields[comp], grid_r.fields[comp], rtol=0,
            atol=1e-12 * np.max(np.abs(grid_r.fields["Jx"])),
        )
    np.testing.assert_allclose(sp_f.positions, sp_r.positions, rtol=1e-15)


@needs_compiled
def test_guard_shortfall_raises_through_advance_particles():
    grid = YeeGrid((16, 16), (0.0, 0.0), (16.0, 16.0), guards=3)
    # 1.5 cells at order 3: an 8-point window, four guard cells needed
    assert esirkepov_window(3, 1.5) == KMAX
    sp, dt = streaming_species(grid, 1.5)
    with pytest.raises(ConfigurationError, match="guard"):
        advance_species(get_kernel_set("compiled"), grid, sp, dt, 3)


# -- bounds safety of the native kernels (satellite bugfix) -------------------

_STRAY_PARTICLE_SCRIPT = """
import sys
import numpy as np
from repro.exceptions import SanitizerError
from repro.grid.yee import YeeGrid
from repro.particles.kernels import get_kernel_set

bad = float(sys.argv[1])
ks = get_kernel_set("compiled")
grid = YeeGrid((16, 16), (0.0, 0.0), (16.0, 16.0), guards=4)
pos = np.array([[8.0, 8.0], [bad, 8.0]])
vel = np.zeros((2, 3))
w = np.ones(2)
calls = {
    "gather": lambda: ks.gather(grid, pos, 3),
    # a sub-cell move far outside the grid: only the kernel can object (a
    # NaN or infinite one is refused while the window is sized)
    "deposit_current":
        lambda: ks.deposit_current(grid, pos, pos + 0.25, vel, w, -1.0, 0.1, 3),
    "advance": lambda: ks.advance(grid, pos, vel, w, -1.0, 1.0, 0.1, 3),
}
for name, call in calls.items():
    print("trying", name, flush=True)
    try:
        call()
    except SanitizerError as exc:
        assert "SAN005" in str(exc) and "particle 1" in str(exc), exc
        assert "axis 0" in str(exc), exc
    else:
        raise SystemExit(f"{name}: no error for x = {bad}")

# the fused pass works on blocks of LANES particles: an offender in the
# first, a middle and the last lane of the first, a middle and the tail
# block must be the particle, on the axis, with the partial J, of the
# per-particle loop (the exported scalar entry), the inputs untouched
import re
from repro.native import compile_library, find_c_compiler
from repro.particles.compiled import LANES, CBackend, run_advance

backend = CBackend(*compile_library(find_c_compiler()))
n = 3 * LANES + 5
rng = np.random.default_rng(11)
good = rng.uniform(2.0, 14.0, size=(n, 2))
mom = 0.3 * rng.normal(size=(n, 3))
w = 1.0 + rng.random(n)
for comp in ("Ex", "Ey", "Ez", "Bx", "By", "Bz"):
    grid.fields[comp][...] = rng.normal(size=grid.shape)


def refusal(entry, pos, mom):
    target = grid.copy()
    target.zero_sources()  # the calls above left partial deposits
    try:
        run_advance(backend, entry, target, pos, mom, w, -1.0, 1.0, 1e-9, 3)
    except SanitizerError as exc:
        found = re.search("SAN005: stencil of particle ([0-9]+) .* on axis ([0-9])", str(exc))
        return (int(found[1]), int(found[2])), [target.fields[c] for c in ("Jx", "Jy", "Jz")]
    raise SystemExit(f"{entry}: no error")


for block in (0, LANES, 3 * LANES):
    lanes = (0, LANES // 2, LANES - 1) if block < 3 * LANES else (0, 2, 4)
    for lane in lanes:
        p = block + lane
        for kind in ("position", "momentum"):
            print("trying", kind, "of particle", p, flush=True)
            pos_p, mom_p = good.copy(), mom.copy()
            if kind == "position":
                axis = p % 2
                pos_p[p, axis] = bad
            else:
                axis = 0  # gamma is NaN: no component of the move survives
                mom_p[p, 1 + p % 2] = np.nan
            before = pos_p.copy(), mom_p.copy()
            where, currents = refusal("advance", pos_p, mom_p)
            assert where == (p, axis), (where, p, axis)
            where_scalar, currents_scalar = refusal("advance_scalar", pos_p, mom_p)
            assert where_scalar == where
            assert np.array_equal(pos_p, before[0], equal_nan=True)
            assert np.array_equal(mom_p, before[1], equal_nan=True)
            for mine, ref in zip(currents, currents_scalar):
                assert np.array_equal(mine, ref)
            assert (p == 0) == (not any(np.any(j) for j in currents))
print("all clean")
"""


@needs_compiled
@pytest.mark.parametrize("bad", ["1e9", "-500", "nan", "inf", "-inf"])
def test_stray_particle_raises_san005_not_a_signal(bad):
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("REPRO_SANITIZE", None)
    done = subprocess.run(
        [sys.executable, "-c", _STRAY_PARTICLE_SCRIPT, bad],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, (done.returncode, done.stdout, done.stderr)
    assert done.stdout.strip().endswith("all clean")


@needs_compiled
def test_stray_particle_error_names_kernel_component_particle_axis():
    ks = get_kernel_set("compiled")
    grid = YeeGrid((16, 16), (0.0, 0.0), (16.0, 16.0), guards=4)
    pos = np.array([[8.0, 8.0], [8.0, 8.0], [8.0, -500.0]])
    with pytest.raises(SanitizerError) as err:
        ks.gather(grid, pos, 2)
    msg = str(err.value)
    assert "SAN005" in msg and "compiled gather" in msg and "Ex" in msg
    assert "particle 2" in msg and "axis 1" in msg
    vel, w = np.zeros((3, 3)), np.ones(3)
    with pytest.raises(SanitizerError) as err:
        ks.deposit_current(grid, pos, pos + 0.25, vel, w, -1.0, 0.1, 2)
    msg = str(err.value)
    assert "SAN005" in msg and "deposit_esirkepov" in msg and "Jx" in msg
    assert "particle 2" in msg and "axis 1" in msg
    # a stencil that merely touches the last guard point is still legal
    edge = np.array([[-3.0, 19.9]])
    ks.gather(grid, edge, 1)


@needs_compiled
def test_sanitized_fused_step_reports_san005(monkeypatch):
    # (d) under REPRO_SANITIZE=1 a particle planted outside the padded
    # domain trips SAN005 in the fused pass and the species is untouched.
    # J is not asserted clean: one loop per particle finds the offender
    # after particles 0-6 of the call have deposited
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    sim, electrons = langmuir()
    assert sim.sanitizer is not None
    before = electrons.momenta.copy()
    electrons.positions[7, 0] = sim.grid.hi[0] + 40 * sim.grid.dx[0]
    with pytest.raises(SanitizerError, match="SAN005.*particle 7 .*advance"):
        sim.step()
    assert np.array_equal(electrons.momenta, before)


# -- (e) mesh refinement: one call per level, crossers to the deposit hook ----

def mr_1d(kernels, remove_after=None, uth=0.0):
    """A 1D plasma under one patch, removed after ``remove_after`` steps
    if given."""
    n0 = 1e24
    length = plasma_wavelength(n0)
    grid = YeeGrid((32,), (0.0,), (length,), guards=4)
    dt = cfl_dt((length / 32 / 2,), 0.9)
    sim = Simulation(grid, dt=dt, shape_order=2, smoothing_passes=0,
                     kernels=kernels)
    sim.add_species(Species("electrons", charge=-q_e, mass=m_e, ndim=1),
                    profile=UniformProfile(n0), ppc=4, temperature_uth=uth,
                    rng=np.random.default_rng(4))
    sim.add_patch((8,), (24,), ratio=2, remove_time=(
        None if remove_after is None else remove_after * dt
    ))
    return sim


def test_mr_routes_through_level_hooks_until_patch_removal():
    """On the NumPy tier an active patch splits every step's pass into
    one call per level — the patch members gather its auxiliary grid,
    everyone else the parent — inside one ``particles`` phase; once it is
    removed a single call runs on the parent."""
    sim = mr_1d("vectorized", remove_after=2.5)
    aux = sim.patches[0].aux
    sim.kernel_set, gathers = record_calls(sim.kernel_set, "gather")
    sim.step(3)
    assert not sim.patches and len(sim.removal_log) == 1
    assert [grid for grid, _, _ in gathers] == [aux, sim.grid] * 3
    sim.step(2)  # no patch left: the parent alone
    assert [grid for grid, _, _ in gathers[6:]] == [sim.grid] * 2
    assert sim.timers.counts["particles"] == 5
    assert "gather" not in sim.timers.counts


@needs_compiled
def test_mr_fused_route_hands_only_crossers_to_the_deposit_hook(monkeypatch):
    """On the native tier an active patch runs one fused pass per level
    in one ``particles`` phase: no standalone gather runs, and the level
    deposit sees only the patch members whose move left the patch
    interior."""
    sim = mr_1d("compiled", uth=0.3)
    patch = sim.patches[0]
    tracer, metrics = attach_observability(sim)
    seen = []
    deposit = sim._deposit

    def spy_deposit(sp, x_old, x_new, vel):
        seen.append((x_old.copy(), x_new.copy()))
        return deposit(sp, x_old, x_new, vel)

    monkeypatch.setattr(sim, "_deposit", spy_deposit)
    sim.kernel_set, gathers = record_calls(sim.kernel_set, "gather")
    sim.step(10)
    assert sim.patches
    assert sim.timers.counts["particles"] == 10
    assert not {"gather", "push", "deposit"} & set(sim.timers.counts)
    assert sum(len(x) for x, _ in seen) >= 3
    for x_old, x_new in seen:
        assert np.all(patch.interior_mask(x_old))
        assert not np.any(patch.interior_mask(x_new))
    # one advance per level per step, no standalone kernel
    snap = metrics.snapshot()
    assert snap["kernel.dispatch{phase=advance,variant=compiled}"] == 20.0
    assert not any("phase=gather" in key for key in snap)
    assert gathers == []


# -- (f) phases and dispatch counters ------------------------------------------

@needs_compiled
def test_fused_step_counts_one_advance_dispatch_per_species():
    sim, _ = langmuir(n=8)
    tracer, metrics = attach_observability(sim)
    sim.step(3)
    snap = metrics.snapshot()
    assert snap["kernel.dispatch{phase=advance,variant=compiled}"] == 3.0
    assert not any("phase=gather" in key or "phase=deposit" in key
                   for key in snap)
    spans = [r for r in tracer.records if r.name == "particles"]
    assert len(spans) == 3
    assert spans[0].attrs["kernel"] == "compiled"
    assert spans[0].attrs["species"] == "electrons"


# -- the decomposed driver runs the same pass ----------------------------------

@needs_compiled
def test_distributed_compiled_matches_default_and_is_transport_exact():
    """The default build runs the native tier; it matches the NumPy
    route at round-off and is bit-identical over both transports."""
    default_build = make_langmuir_build(n_ranks=2)
    numpy_build = make_langmuir_build(n_ranks=2, kernels="vectorized")
    assert default_build().kernels == "compiled"
    assert numpy_build().kernels == "vectorized"
    got = run_distributed_local(default_build, 20)
    want = run_distributed_local(numpy_build, 20)
    # one scale per family: Ey and Bz are round-off of an x-directed wave
    e_scale = max(np.max(np.abs(f["Ex"])) for f in want.fields.values())
    for i, comps in want.fields.items():
        for comp, scale in (("Ex", e_scale), ("Ey", e_scale), ("Bz", e_scale / c)):
            assert np.max(np.abs(got.fields[i][comp] - comps[comp])) <= (
                1e-12 * scale
            ), (i, comp)
    for i, arrs in want.species["electrons"].items():
        mine = got.species["electrons"][i]
        assert np.array_equal(mine["ids"], arrs["ids"])
        assert rel(mine["positions"], arrs["positions"]) <= 1e-12
        assert np.max(np.abs(mine["momenta"] - arrs["momenta"])) <= 1e-12 * 1e-3
    over_mp = run_distributed_mp(default_build, 20, 2, run_timeout=120.0)
    assert_runs_equal(over_mp, got)


def test_distributed_surfaces_kernel_fallback_reason(monkeypatch):
    monkeypatch.setitem(kernels._REGISTRY, "compiled", "probe failed")
    sim = DistributedSimulation(
        (8, 8), (0.0, 0.0), (8.0, 8.0), n_ranks=1, kernels="compiled"
    )
    assert sim.kernels == "vectorized"
    assert sim.kernel_fallback_reason == "probe failed"
    with pytest.raises(ConfigurationError, match="unknown kernel variant"):
        DistributedSimulation(
            (8, 8), (0.0, 0.0), (8.0, 8.0), n_ranks=1, kernels="simd"
        )


def default_drivers():
    """A plain, a mesh-refined (active patch) and a decomposed driver,
    each holding a plasma, built without ``kernels=``."""
    n0 = 1e24
    length = plasma_wavelength(n0)
    single, _ = build_uniform_plasma((8, 8), density=n0, ppc=1)
    mr = Simulation(
        YeeGrid((32,), (0.0,), (length,), guards=4),
        dt=cfl_dt((length / 64,), 0.9),
    )
    mr.add_species(
        Species("electrons", charge=-q_e, mass=m_e, ndim=1),
        profile=UniformProfile(n0), ppc=4,
    )
    mr.add_patch((8,), (24,), ratio=2)
    decomposed = make_langmuir_build(n_ranks=2, n_cells=8, max_grid_size=4)()
    return single, mr, decomposed


_DEFAULT_DRIVERS_SCRIPT = """
from tests.test_particles_advance import default_drivers
for sim in default_drivers():
    sim.step(2)
    print(sim.kernels, sim.kernel_fallback_reason, sep="|")
"""


@needs_compiled
def test_default_kernel_tier_is_native_when_available():
    """Built without ``kernels=`` every driver runs the native tier;
    where it is absent, ``resolve_kernel_set`` lands them on the NumPy
    route with the reason, and they still step."""
    for sim in default_drivers():
        assert sim.kernels == "compiled"
        assert sim.kernel_fallback_reason is None
        sim.step(2)
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    env = dict(
        os.environ, PYTHONPATH=os.pathsep.join([root, SRC]),
        REPRO_COMPILED_BACKEND="none",
    )
    done = subprocess.run(
        [sys.executable, "-c", _DEFAULT_DRIVERS_SCRIPT],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, (done.stdout, done.stderr)
    rows = [line.split("|") for line in done.stdout.splitlines()]
    assert len(rows) == 3
    for tier, reason in rows:
        assert tier == "vectorized"
        assert reason and reason != "None"


@pytest.mark.parametrize("variant", ["vectorized", "compiled"])
def test_distributed_counts_kernel_dispatches(variant, monkeypatch):
    """One ``kernel.dispatch`` bump per advance, box and step on either
    tier, as in ``Simulation`` (the decomposed driver used to drop them)
    — and the box advance stays *untimed* inside the one ``particles``
    phase: no gather / push / deposit (or a second ``particles``,
    counted twice) nests under it."""
    if variant not in available_kernel_variants():
        pytest.skip(f"{variant} tier unavailable on this machine")
    # the phase set below is an unsanitized step's (a sanitized one adds
    # its own `sanitize` phase), also in the CI leg that sets the variable
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    sim = make_langmuir_build(n_ranks=2, kernels=variant)()
    _, metrics = attach_observability(sim)
    sim.step(3)
    snap = metrics.snapshot()
    dispatched = {
        key: val for key, val in snap.items() if key.startswith("kernel.dispatch")
    }
    assert dispatched == {
        f"kernel.dispatch{{phase=advance,variant={variant}}}": 3.0 * len(sim.boxes)
    }
    assert set(sim.timers.totals) == {
        "particles", "fold_sources", "halo_sources", "maxwell", "halo_fields",
        "redistribute",
    }
    assert sim.timers.counts["particles"] == 3


# -- the single pass: wrap folded in, crossings conserve charge, precondition ----

def edge_cloud(ndim, n=64, seed=5):
    """A grid with a negative ``lo`` and particles within 0.4 cell of
    *both* periodic faces on every axis, moving fast in all directions."""
    rng = np.random.default_rng(seed)
    grid = YeeGrid((12,) * ndim, (-3.0,) * ndim, (9.0,) * ndim, guards=4)
    near_lo = rng.random((n, ndim)) < 0.5
    offset = 0.4 * rng.random((n, ndim))
    pos = np.where(near_lo, grid.lo[0] + offset, grid.hi[0] - offset)
    pos[0] = grid.lo  # exactly on the lower face: stays put if at rest
    mom = rng.normal(size=(n, 3)) * 2.0
    mom[0] = 0.0
    return grid, pos, mom, 1.0 + rng.random(n)


@needs_compiled
@pytest.mark.parametrize("ndim", [1, 2, 3])
@pytest.mark.parametrize("order", [1, 3])
def test_fused_wrap_is_the_numpy_wrap(ndim, order):
    ks = get_kernel_set("compiled")
    grid, pos, mom, w = edge_cloud(ndim)
    open_grid = grid.copy()
    dt = 0.9 * grid.dx[0] / c
    axes = tuple(range(ndim))
    args = (pos, mom, w, -q_e, m_e, dt, order, "boris")
    x_open, u_open, _ = ks.advance(open_grid, *args)
    x_wrapped, u_wrapped, _ = ks.advance(
        grid, *args, (grid.lo, grid.hi, axes)
    )
    outside = (x_open < grid.lo[0]) | (x_open >= grid.hi[0])
    assert outside[:, 0].sum() > 5 and (~outside[:, 0]).sum() > 5
    assert np.any(x_open < grid.lo[0]) and np.any(x_open >= grid.hi[0])
    wrap_positions_periodic(x_open, grid.lo, grid.hi, axes)
    assert np.array_equal(x_wrapped, x_open)
    assert np.all(x_wrapped >= grid.lo[0]) and np.all(x_wrapped < grid.hi[0])
    assert np.array_equal(x_wrapped[0], grid.lo)
    # the wrap touches nothing else, and only the axes it is given
    assert np.array_equal(u_wrapped, u_open)
    assert np.array_equal(grid.fields["Jx"], open_grid.fields["Jx"])
    x_last, _, _ = ks.advance(grid, *args, (grid.lo, grid.hi, axes[-1:]))
    assert np.array_equal(x_last[:, -1], x_wrapped[:, -1])
    if ndim > 1:
        assert np.any(x_last[:, 0] != x_wrapped[:, 0])


@needs_compiled
@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("precision, bound", [
    ("float64", 1e-12),
    ("mixed", FLOAT32_ERROR_BUDGET["advance"]),  # measured 2.5-4.6e-7
])
def test_fused_pass_conserves_charge_through_cell_and_edge_crossings(
    order, precision, bound
):
    sim, electrons = build_uniform_plasma(
        (12, 12), ppc=(3, 3), shape_order=order, temperature_uth=0.5,
        kernels="compiled", precision=precision,
    )
    length = sim.grid.hi[0] - sim.grid.lo[0]
    g0 = gauss_law_residual(sim.grid, [electrons], order=order)
    cells0 = np.floor(electrons.positions / sim.grid.dx[0])
    wrapped = np.zeros(electrons.n, dtype=bool)
    for _ in range(20):
        before = electrons.positions.copy()
        sim.step()
        wrapped |= np.any(np.abs(electrons.positions - before) > 0.5 * length, axis=1)
    assert "particles" in sim.timers.totals and "gather" not in sim.timers.totals
    assert wrapped.sum() > 20  # periodic faces were crossed ...
    moved = np.floor(electrons.positions / sim.grid.dx[0]) != cells0
    assert moved.any(axis=1).mean() > 0.5  # ... and cell faces by most
    g1 = gauss_law_residual(sim.grid, [electrons], order=order)
    assert np.max(np.abs(g1 - g0)) / np.max(np.abs(g0)) <= bound


@needs_compiled
@pytest.mark.parametrize("ndim", [1, 2])
def test_a_time_step_of_a_cell_or_more_takes_the_three_phase_route(ndim):
    """``c dt >= min(dx)``: a move may span a cell, the ``order + 2``
    window of the fused pass no longer holds, so ``advance_particles``
    sizes windows from the data (the composed route) — and wraps
    afterwards."""
    def run(name, dt_over_cell):
        grid, pos, mom, w = edge_cloud(ndim)
        sp = Species("e", charge=-q_e, mass=m_e, ndim=ndim)
        sp.add_particles(pos, momenta=mom, weights=w)
        ks, advances = record_calls(get_kernel_set(name), "advance")
        advance_species(
            ks, grid, sp, dt_over_cell * grid.dx[0] / c, 3,
            periodic=(grid.lo, grid.hi, tuple(range(ndim))),
        )
        assert np.all(sp.positions >= grid.lo[0])
        assert np.all(sp.positions < grid.hi[0])
        return advances, grid, sp

    # exactly one cell per step at |v| -> c
    fused_c, grid_c, sp_c = run("compiled", 1.0)
    fused_v, grid_v, sp_v = run("vectorized", 1.0)
    assert fused_c == fused_v == []
    assert rel(sp_c.positions, sp_v.positions) < 1e-12
    assert rel(sp_c.momenta, sp_v.momenta) < 1e-12
    for comp in ("Jx", "Jy", "Jz"):
        assert rel(grid_c.fields[comp], grid_v.fields[comp]) < 1e-12, comp
    # just under the bound the same call fuses
    assert len(run("compiled", 0.999)[0]) == 1


@needs_compiled
def test_a_move_wider_than_the_fused_window_is_refused_not_truncated():
    """Calling the slot directly with ``c dt > dx`` (``advance_particles``
    never does): a shape would be placed outside the ``order + 2``
    window, which is reported like any stray stencil."""
    ks = get_kernel_set("compiled")
    grid = YeeGrid((16, 16), (0.0, 0.0), (16.0, 16.0), guards=4)
    pos = np.full((3, 2), 8.25)
    mom = np.zeros((3, 3))
    mom[2, 1] = 50.0  # particle 2 moves 2.6 cells along axis 1
    with pytest.raises(SanitizerError, match="SAN005.*particle 2 .*axis 1"):
        ks.advance(grid, pos, mom, np.ones(3), -q_e, m_e, 2.6 / c, 3)
    assert not np.any(grid.fields["Jy"])  # the two at rest deposit no Jy
    # the same in every lane position of the blocked loop: first, middle
    # and last lane of the first, a middle and the tail block
    n = 3 * LANES + 5
    pos = np.full((n, 2), 8.25)
    for p in (0, LANES // 2, LANES - 1, LANES, 2 * LANES - 1, 3 * LANES, n - 1):
        mom = np.zeros((n, 3))
        mom[p, 1] = 50.0
        grid.zero_sources()
        with pytest.raises(SanitizerError, match=f"SAN005.*particle {p} .*axis 1"):
            ks.advance(grid, pos, mom, np.ones(n), -q_e, m_e, 2.6 / c, 3)
        assert not np.any(grid.fields["Jy"])


# -- blocks of lanes: the blocked entry is the per-particle loop -----------------

@pytest.fixture(scope="module")
def lane_backends():
    """The library as the tier builds it, and one from the plain flags."""
    cc = native.find_c_compiler()
    return (
        compiled.CBackend(*native.compile_library(cc)),
        compiled.CBackend(*native.compile_library(cc, native.PLAIN_FLAGS)),
    )


@needs_compiled
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("pusher", ["boris", "vay"])
@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("ndim", [1, 2, 3])
def test_blocked_advance_is_the_scalar_loop_bit_for_bit(
    lane_backends, ndim, order, pusher, dtype
):
    """`advance` handles LANES particles at a time in vectorised lane
    loops; every lane must do the IEEE operations of the per-particle loop
    (exported as `advance_scalar`), with the SIMD flags or without them —
    `array_equal`, not a tolerance, for every tail length, across the
    periodic wrap, and for the MR patch pass: the current on a second
    grid, a keep box, and the flags of the particles that left it."""
    built, plain = lane_backends
    rng = np.random.default_rng(100 * ndim + 10 * order)
    grid = YeeGrid((12,) * ndim, (-3.0,) * ndim, (9.0,) * ndim, guards=4,
                   dtype=dtype)
    for comp in ("Ex", "Ey", "Ez", "Bx", "By", "Bz"):
        scale = 1e9 if comp[0] == "E" else 3.0  # both bend u ~ 1 electrons
        grid.fields[comp][...] = scale * rng.standard_normal(grid.shape)
    dt = 0.9 * grid.dx[0] / c
    wrap = (grid.lo, grid.hi, tuple(range(ndim)))
    currents = ("Jx", "Jy", "Jz")
    # half a cell inside the faces: some blocks keep every lane, some not
    box = (tuple(lo + 0.5 for lo in grid.lo), tuple(hi - 0.5 for hi in grid.hi))
    for n in (0, 1, LANES - 1, LANES, LANES + 1, 3 * LANES + 5, 4099):
        # up to the faces: the fast ones leave and are wrapped, or flagged
        pos = rng.uniform(grid.lo[0], grid.hi[0], size=(n, ndim))
        mom = 2.0 * rng.normal(size=(n, 3))
        w = 1.0 + rng.random(n)
        for periodic, keep in ((None, None), (wrap, None), (None, "box")):
            results = []
            for backend, entry in (
                (built, "advance_scalar"), (built, "advance"), (plain, "advance")
            ):
                source = grid.copy()
                # the fields live on `source` only: the patch pass gathers
                # there and deposits here
                target = source if keep is None else YeeGrid(
                    grid.n_cells, grid.lo, grid.hi, guards=4, dtype=dtype
                )
                x, u, leaving = compiled.run_advance(
                    backend, entry, source, pos, mom, w, -q_e, m_e, dt, order,
                    pusher, periodic, target,
                    None if keep is None else box,
                )
                results.append(
                    [x, u] + [target.fields[comp] for comp in currents]
                    + ([] if leaving is None else [leaving])
                )
                if keep is not None:
                    assert not any(np.any(source.fields[j]) for j in currents)
            for other in results[1:]:
                assert len(other) == len(results[0])
                for mine, ref in zip(other, results[0]):
                    assert np.array_equal(mine, ref), (n, periodic, keep)
            if n > LANES and periodic is not None:
                assert np.any(results[0][2]) and np.all(results[0][0] >= grid.lo[0])
            if keep is not None:
                x, leaving = results[0][0], results[0][5]
                # the box test is MRPatch.contains on the new positions
                inside = np.all((x >= box[0][0]) & (x < box[1][0]), axis=1)
                assert np.array_equal(leaving, ~inside)
                if n == 4099:
                    per_block = leaving[: n - n % LANES].reshape(-1, LANES)
                    left = per_block.sum(axis=1)
                    assert np.any(left == 0)  # blocks that stay vector code
                    assert np.any((left > 0) & (left < LANES))  # mixed ones
                    # a flagged particle deposited nothing: the same pass
                    # over the stayers alone gives the same current
                    alone = YeeGrid(grid.n_cells, grid.lo, grid.hi, guards=4,
                                    dtype=dtype)
                    compiled.run_advance(
                        built, "advance", grid.copy(), pos[inside],
                        mom[inside], w[inside], -q_e, m_e, dt, order, pusher,
                        None, alone,
                    )
                    for j, comp in enumerate(currents):
                        assert np.array_equal(
                            results[0][2 + j], alone.fields[comp]
                        )


@needs_compiled
def test_fused_pass_refuses_a_deposit_grid_laid_out_differently():
    ks = get_kernel_set("compiled")
    grid = YeeGrid((8, 8), (0.0, 0.0), (8.0, 8.0), guards=4)
    pos, mom, w = np.full((3, 2), 4.25), np.zeros((3, 3)), np.ones(3)
    args = (pos, mom, w, -q_e, m_e, 0.5 / c, 2, "boris", None)
    others = {
        "shape": YeeGrid((8, 9), (0.0, 0.0), (8.0, 9.0), guards=4),
        "dtype": YeeGrid((8, 8), (0.0, 0.0), (8.0, 8.0), guards=4,
                         dtype=np.float32),
        "placement": YeeGrid((8, 8), (1.0, 0.0), (9.0, 8.0), guards=4),
    }
    for what, other in others.items():
        with pytest.raises(ConfigurationError, match="deposit grid"):
            ks.advance(grid, *args, other)
        assert not any(np.any(other.fields[j]) for j in ("Jx", "Jy", "Jz"))
    same = YeeGrid((8, 8), (0.0, 0.0), (8.0, 8.0), guards=4)
    ks.advance(grid, *args, same)  # a twin is accepted
