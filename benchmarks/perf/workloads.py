"""The five workloads: decks built through repro's public builders only.

Every deck takes the workload seed; nothing else is random.  Sizes are the
issue's decks rescaled so that one benchmark run (five fresh-process
repeats plus set-up) fits the driver's time cap on a 2-core box while every
step still costs >= 50 ms (``hybrid_mr`` excepted: its unit is the whole
run).  ``nominal_step_s`` is the step time measured on the reference box;
it only converts ``--seconds`` into a fixed step count, so both sides of a
comparison do the same work.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from repro.constants import c, fs, m_e, plasma_wavelength, q_e, um
from repro.parallel.distributed import DistributedSimulation
from repro.particles.injection import UniformProfile
from repro.particles.species import Species
from repro.scenarios import (
    HybridTargetSetup,
    build_hybrid_target,
    build_uniform_plasma,
)

DENSITY = 1.0e24
#: gamma = 2 boosted-frame stream: u_x = -gamma*beta, v = -0.866 c
STREAM_U = -1.732
V_GALILEAN = (-0.866 * c, 0.0, 0.0)
#: steps the hybrid target keeps running after its moving window starts
HYBRID_WINDOW_STEPS = 50

#: fresh-process repeats of one run.  Every step index is timed once per
#: repeat and the fastest timing is kept (report.quiet_steps), so the repeats
#: are as many chances to catch the shared host quiet at that step
REPEATS = 5
#: fewest repeats of a fixed-length run
MIN_REPEATS = 3
#: warm-up steps of every repeat (inside setup_s)
WARMUP_STEPS = 5
#: timed steps after which energy, Gauss residual and twin agreement are read
HORIZON = 10
#: fewest timed steps of a repeat
MIN_STEPS = 20


@dataclass(frozen=True)
class Workload:
    """One named deck plus what the harness needs to time and check it."""

    name: str
    why: str
    #: "mono" (Simulation), "mr" (MRSimulation) or "dist" (DistributedSimulation)
    kind: str
    #: build(seed, smoke, **driver_kwargs) -> (sim, fixed_steps or None)
    build: Callable[..., Tuple[Any, Optional[int]]]
    nominal_step_s: float
    #: nominal wall time of the whole run when its length is fixed by the deck
    #: (0: the step count follows ``--seconds``)
    fixed_run_s: float = 0.0
    #: SPMD worker processes on the multiprocessing transport (0: in-process)
    ranks: int = 0
    #: the run must keep the compiled kernel tier (no fallback)
    compiled: bool = False
    #: periodic deck: particle count, energy and Gauss residual are checked
    periodic: bool = True
    #: checkpoint write/read is probed in the traced pass
    checkpoint: bool = False
    #: limits on |E(HORIZON) - E0| / E0 and on the Gauss-residual growth:
    #: 5x the value measured on the tree this benchmark was defined on
    #: (values at round-off level get a 1e-12 floor instead)
    energy_tol: float = 0.0
    gauss_tol: float = 0.0
    #: listed in BENCHMARK.json, i.e. run and gated by the driver
    gated: bool = True
    #: mono_twin(seed, smoke) -> the monolithic Simulation of a decomposed deck
    mono_twin: Optional[Callable[..., Any]] = None


def _seeded_momentum(seed: int, length: float, drift: float):
    """Momentum init as a pure function of position: drift plus a 1e-3
    sinusoid whose phase comes from the seed, so decomposed and monolithic
    runs of one seed start from identical particles."""
    phase = float(np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi))
    k = 2.0 * np.pi / length

    def init(sp) -> None:
        sp.momenta[:, 0] = drift + 1.0e-3 * np.sin(k * sp.positions[:, 0] + phase)

    return init


# -- monolithic decks ---------------------------------------------------------
def build_uniform_compiled(seed: int, smoke: bool = False, **sim_kwargs):
    n, ppc = (32, (2, 2)) if smoke else (96, (4, 4))
    sim, _ = build_uniform_plasma(
        (n, n), ppc=ppc, shape_order=3, kernels="compiled",
        sort_interval=20, seed=seed, **sim_kwargs,
    )
    return sim, None


def build_psatd_galilean(seed: int, smoke: bool = False, **sim_kwargs):
    n = 64 if smoke else 256
    sim, electrons = build_uniform_plasma(
        (n, n), ppc=(1, 1), shape_order=2, kernels="compiled",
        maxwell_solver="psatd", v_galilean=V_GALILEAN, cfl=0.9, seed=seed,
        **sim_kwargs,
    )
    electrons.momenta[:, 0] += STREAM_U
    return sim, None


def hybrid_setup(seed: int, smoke: bool = False) -> HybridTargetSetup:
    if smoke:
        return HybridTargetSetup(
            cells_per_wavelength=4, x_max=8 * um, y_half=3 * um,
            gas_lo=2 * um, gas_hi=4.5 * um, solid_lo=4.5 * um,
            solid_hi=5.5 * um, solid_nc=20, a0=2.5, duration=3 * fs,
            waist=1.5 * um, seed=seed,
        )
    return HybridTargetSetup(
        cells_per_wavelength=6, x_max=12 * um, y_half=3 * um,
        gas_lo=2.5 * um, gas_hi=7 * um, solid_lo=7 * um, solid_hi=8.5 * um,
        solid_nc=20, a0=2.5, duration=4 * fs, waist=2.5 * um, seed=seed,
    )


def build_hybrid_mr(seed: int, smoke: bool = False, tracer=None):
    setup = hybrid_setup(seed, smoke)
    sim, _solid, _gas = build_hybrid_target(setup, mode="mr", subcycle=False)
    if tracer is not None:
        sim.tracer = tracer  # the builder forwards no tracer= argument
    # through patch removal and HYBRID_WINDOW_STEPS of backward window
    steps = math.ceil(setup.window_start_time() / sim.dt) + (
        15 if smoke else HYBRID_WINDOW_STEPS
    )
    return sim, steps


# -- decomposed decks ---------------------------------------------------------
def _build_decomposed(seed, n, max_grid_size, drift, tracer, transport, **kw):
    length = plasma_wavelength(DENSITY)
    sim = DistributedSimulation(
        (n, n), (0.0, 0.0), (length, length), n_ranks=2,
        max_grid_size=max_grid_size, cfl=0.9, shape_order=2,
        smoothing_passes=0, tracer=tracer, transport=transport, **kw,
    )
    electrons = Species("electrons", charge=-q_e, mass=m_e, ndim=2)
    sim.add_species(
        electrons, profile=UniformProfile(DENSITY), ppc=(1, 1),
        momentum_init=_seeded_momentum(seed, length, drift), rng_seed=seed,
    )
    return sim, None


def _mono_twin(seed, n, drift, **solver_kw):
    """The monolithic ``Simulation`` of a decomposed deck: same cells, same
    particles, same NumPy kernels (the decomposed driver's only tier)."""
    sim, electrons = build_uniform_plasma(
        (n, n), density=DENSITY, ppc=(1, 1), shape_order=2,
        temperature_uth=0.0, kernels="vectorized", cfl=0.9, **solver_kw,
    )
    _seeded_momentum(seed, plasma_wavelength(DENSITY), drift)(electrons)
    return sim


#: smoke -> (cells per axis, max_grid_size) of the two decomposed decks
YEE_SIZE = {False: (128, 16), True: (32, 8)}
PSATD_SIZE = {False: (128, 64), True: (64, 32)}
PSATD_KW = {"maxwell_solver": "psatd", "v_galilean": V_GALILEAN}


def build_decomp_yee(seed: int, smoke: bool = False, tracer=None, transport=None):
    n, mgs = YEE_SIZE[smoke]
    return _build_decomposed(seed, n, mgs, 0.0, tracer, transport)


def yee_mono_twin(seed: int, smoke: bool = False):
    return _mono_twin(seed, YEE_SIZE[smoke][0], 0.0)


def build_decomp_psatd(seed: int, smoke: bool = False, tracer=None, transport=None):
    n, mgs = PSATD_SIZE[smoke]
    return _build_decomposed(seed, n, mgs, STREAM_U, tracer, transport, **PSATD_KW)


def psatd_mono_twin(seed: int, smoke: bool = False):
    return _mono_twin(seed, PSATD_SIZE[smoke][0], STREAM_U, **PSATD_KW)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="uniform_compiled",
            why="The paper's FOM deck: gather+push+deposit on the compiled "
            "tier are >80% of the step, Maxwell <2%; a fused particle "
            "kernel must show here, a field-solver change must not.",
            kind="mono", build=build_uniform_compiled, nominal_step_s=0.090,
            compiled=True, checkpoint=True, energy_tol=1.5e-3, gauss_tol=1e-12,
        ),
        Workload(
            name="hybrid_mr",
            why="Fig. 6(a) time-to-solution: MR patch, antenna, damped "
            "walls, patch removal, moving window, two species on the NumPy "
            "tier at 1-4k particles (call-overhead regime), fixed length.",
            kind="mr", build=build_hybrid_mr, nominal_step_s=0.016,
            fixed_run_s=4.5, periodic=False, checkpoint=True,
        ),
        Workload(
            name="psatd_galilean",
            why="Boosted-frame Galilean PSATD: grid.psatd FFTs are ~60% of "
            "the step, particles ~35%; spectral-solver and field-storage "
            "changes show here, particle kernels move it by <=1/3.",
            kind="mono", build=build_psatd_galilean, nominal_step_s=0.085,
            compiled=True, energy_tol=5e-3, gauss_tol=0.2,
            # the driver's total-time cap fixes runs x run length; on this
            # shared host the step slows by 1.2-1.5x for half a minute at a
            # time, and only a run that outlasts such a stretch reads the
            # same twice.  Three gated workloads leave each run ~36 s, four
            # ~28 s.  This deck's layers are each gated elsewhere (grid.psatd
            # in decomp_psatd_loopback, the compiled tier in
            # uniform_compiled), so it is the one measured but not gated.
            gated=False,
        ),
        Workload(
            name="decomp_yee_mp2",
            why="64 small boxes on 2 real worker processes: box loop, "
            "pack/apply, wire and wait are >90% of the step; comm and "
            "box-loop changes show here, monolithic workloads must not move.",
            kind="dist", build=build_decomp_yee, nominal_step_s=0.108,
            ranks=2, energy_tol=0.1, gauss_tol=1e-12, mono_twin=yee_mono_twin,
            # two busy ranks on this 2-vCPU guest flip for minutes between a
            # ~115 ms and a ~185 ms mode (the vCPUs contend whenever both are
            # busy): the run-to-run spread, 0.11-0.28 over four sets of ten
            # runs, does not fit under the contract's largest bound (0.25).
            # Measured and checked by the full report; not gated.
            gated=False,
        ),
        Workload(
            name="decomp_psatd_loopback",
            why="In-process loopback with 12-cell halos, three field "
            "exchanges per step and local FFTs on guard-padded boxes (1.9x "
            "the valid cells): deep-halo and decomposed-PSATD costs show here.",
            kind="dist", build=build_decomp_psatd, nominal_step_s=0.090,
            checkpoint=True, energy_tol=2.5e-2, gauss_tol=1e-6,
            mono_twin=psatd_mono_twin,
        ),
    )
}


def repeats_per_run(workload: Workload, seconds: float) -> int:
    """Repeats that fill ``--seconds``: a fixed-length run is repeated as
    often as it fits, every other deck ``REPEATS`` times."""
    if workload.fixed_run_s:
        return max(MIN_REPEATS, round(seconds / workload.fixed_run_s))
    return REPEATS


def steps_per_repeat(
    workload: Workload, fixed: Optional[int], seconds: float, smoke: bool,
) -> int:
    """Timed steps of one repeat: the fixed run length, else the share of
    ``--seconds`` this repeat gets over the nominal step time."""
    if fixed is not None:
        return fixed
    if smoke:
        return MIN_STEPS
    return max(MIN_STEPS, round(seconds / REPEATS / workload.nominal_step_s))


def timed_steps(sim, n: int):
    """Wall time [s] of each of ``n`` single steps."""
    out = []
    for _ in range(n):
        t = time.perf_counter()
        sim.step(1)
        out.append(time.perf_counter() - t)
    return out


# -- accessors over the three driver kinds (public attributes only) ----------
def is_distributed(sim) -> bool:
    return hasattr(sim, "box_grids")


def owned_boxes(sim):
    return [i for i in range(len(sim.boxes)) if sim.owns_box(i)]


def active_cells(sim) -> int:
    """N_c of Eq. (1): valid cells plus active fine-patch cells."""
    if is_distributed(sim):
        return int(np.prod(sim.domain.n_cells))
    n = int(np.prod(sim.grid.n_cells))
    if hasattr(sim, "total_fine_cells"):
        n += sim.total_fine_cells()
    return n


def local_particles(sim) -> int:
    """Particles this process pushes (per-rank values sum to the total)."""
    if is_distributed(sim):
        return sim.local_particles()
    return sim.total_particles()


def local_energy(sim) -> float:
    """Field + kinetic energy of what this process owns.  Decomposed runs
    sum per-box valid regions (shared faces counted twice, consistently),
    which is all a *relative* drift needs and works without a global grid."""
    if is_distributed(sim):
        boxes = owned_boxes(sim)
        field = sum(sim.box_grids[i].field_energy() for i in boxes)
        kinetic = sum(
            dsp.per_box[i].kinetic_energy()
            for dsp in sim.species.values()
            for i in boxes
        )
        return field + kinetic
    kinetic = sum(sp.kinetic_energy() for sp in sim.species.values())
    return sim.grid.field_energy() + kinetic


def fields_finite(sim) -> bool:
    if is_distributed(sim):
        grids = [sim.box_grids[i] for i in owned_boxes(sim)]
    else:
        grids = [sim.grid]
        for patch in getattr(sim, "patches", []):
            grids += [patch.fine, patch.coarse, patch.aux]
    return all(
        bool(np.isfinite(arr).all()) for g in grids for arr in g.fields.values()
    )
