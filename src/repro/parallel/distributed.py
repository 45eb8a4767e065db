"""A domain-decomposed PIC simulation over simulated ranks.

Runs the *same* PIC cycle as :class:`repro.core.simulation.Simulation`,
but on a box decomposition: every box owns a guard-padded grid and the
particles inside it; deposits are folded across box boundaries, fields are
halo-exchanged after the Maxwell push, and particles are redistributed
after the position push.  All communication is accounted through a
:class:`SimComm` so a run yields both physics *and* the per-step message
volumes the performance model consumes.

An integration test verifies that a decomposed run reproduces the
monolithic run to machine precision — the correctness contract of the
whole substrate.

Scope: every option of the shared :class:`~repro.core.simulation.
StepDriver` (kernel tier, pusher, deposition, precision, solver) runs
decomposed; still periodic-only are the boundaries (no absorbing wall or
PML on domain-edge boxes), and there is no antenna, moving window or MR
patch on boxes yet.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Set

import numpy as np

from repro.core.costs import CostModel
from repro.core.simulation import StepDriver
from repro.exceptions import ConfigurationError
from repro.grid.maxwell import MaxwellSolver
from repro.grid.yee import FIELD_COMPONENTS, YeeGrid
from repro.parallel.box import chop_domain
from repro.parallel.comm import SimComm
from repro.parallel.distribution import DistributionMapping
from repro.grid.psatd import PSATDMaxwellSolver
from repro.parallel.halo import (
    HALO_TAG_PREFIX,
    HaloExchangeStats,
    assemble_global,
    exchange_halos,
    fold_sources_pairwise,
    neighbor_overlaps,
)
from repro.parallel.redistribute import (
    build_box_lookup,
    migrate_boxes,
    redistribute_particles,
)
from repro.particles.injection import DensityProfile, inject_plasma
from repro.particles.species import Species

if TYPE_CHECKING:  # imported lazily: repro.resilience sits above this layer
    from repro.resilience.faults import FaultSchedule
    from repro.resilience.recovery import RecoveryPolicy, ResilienceManager


class DistributedSpecies:
    """One logical species scattered over the boxes."""

    def __init__(self, prototype: Species, n_boxes: int) -> None:
        self.prototype = prototype
        self.per_box: List[Species] = [
            Species(prototype.name, prototype.charge, prototype.mass, prototype.ndim)
            for _ in range(n_boxes)
        ]

    def total_n(self) -> int:
        return sum(sp.n for sp in self.per_box)

    def kinetic_energy(self) -> float:
        return sum(sp.kinetic_energy() for sp in self.per_box)

    def gather_all(self) -> Species:
        """All particles merged into one container (diagnostics only)."""
        out = Species(
            self.prototype.name,
            self.prototype.charge,
            self.prototype.mass,
            self.prototype.ndim,
        )
        for sp in self.per_box:
            out.extend(sp)
        return out


class DistributedSimulation(StepDriver):
    """The PIC cycle of ``Simulation`` on an AMReX-style box decomposition.

    ``options`` are :class:`~repro.core.simulation.StepDriver`'s — ``dt``,
    ``shape_order``, ``pusher``, ``deposition``, ``kernels``,
    ``precision``, ``v_galilean``, ``tracer`` — with the meanings,
    defaults and errors documented on ``Simulation`` (``kernels``
    defaults to the native ``"compiled"`` tier, whose fused pass each
    box then runs, falling back to ``"vectorized"`` where it cannot be
    built); every box advances with them.  ``cfl`` and
    ``smoothing_passes`` are declared here for
    their different defaults, ``maxwell_solver`` because it sets the
    guard depth (``psatd_guards`` overrides the spectral solver's
    declared halo) before the domain grid exists.
    """

    def __init__(
        self,
        n_cells: Sequence[int],
        lo: Sequence[float],
        hi: Sequence[float],
        n_ranks: int,
        max_grid_size: int = 32,
        strategy: str = "sfc",
        cfl: float = 0.9,
        smoothing_passes: int = 0,
        guards: int = 4,
        dynamic_lb: bool = False,
        lb_interval: int = 10,
        lb_threshold: float = 1.1,
        lb_cost_source: str = "measured",
        fault_schedule: Optional["FaultSchedule"] = None,
        recovery: Optional["RecoveryPolicy"] = None,
        checkpoint_interval: int = 0,
        checkpoint_dir: Optional[str] = None,
        transport=None,
        maxwell_solver: str = "yee",
        psatd_guards: Optional[int] = None,
        **options,
    ) -> None:
        # guard width is a *solver* property: the spectral local-FFT mode
        # needs a deep halo (accuracy grows with depth; the paper's runs
        # use 11-32 cells), FDTD stencils one cell.  Boxes are built with
        # the larger of the user's particle-shape guards and the solver's
        # declared requirement.
        if maxwell_solver == "psatd":
            solver_guards = (
                int(psatd_guards)
                if psatd_guards is not None
                else PSATDMaxwellSolver.guard_cells
            )
            if solver_guards < 1:
                raise ConfigurationError("psatd_guards must be >= 1")
            guards = max(int(guards), solver_guards)
        elif psatd_guards is not None:
            raise ConfigurationError(
                "psatd_guards only applies to maxwell_solver='psatd'"
            )
        #: the global grid: geometry, guard depth and precision of every
        #: box; its arrays are filled only by diagnostics and sanitizers
        self.domain = YeeGrid(n_cells, lo, hi, guards=guards)
        super().__init__(
            self.domain, cfl=cfl, smoothing_passes=smoothing_passes,
            maxwell_solver=maxwell_solver, **options,
        )
        self.boxes = chop_domain(n_cells, max_grid_size)
        if maxwell_solver == "psatd":
            for b in self.boxes:
                for d in range(b.ndim):
                    if b.shape[d] + 2 * guards > n_cells[d]:
                        raise ConfigurationError(
                            f"PSATD box {b.shape} with {guards} guards "
                            f"spans more than one period of the "
                            f"{tuple(n_cells)} domain along axis {d}; "
                            "shrink max_grid_size, lower psatd_guards, "
                            "or grow the domain"
                        )
        self.dm = DistributionMapping(self.boxes, n_ranks, strategy)
        self.comm = SimComm(n_ranks, transport=transport)
        #: SPMD rank of this process (None: all ranks live here)
        self.local_rank = self.comm.local_rank
        self.box_grids: List[YeeGrid] = []
        self.box_solvers: List[MaxwellSolver] = []
        for b in self.boxes:
            b_lo = tuple(lo[d] + b.lo[d] * self.domain.dx[d] for d in range(b.ndim))
            b_hi = tuple(lo[d] + b.hi[d] * self.domain.dx[d] for d in range(b.ndim))
            bg = YeeGrid(
                b.shape, b_lo, b_hi, guards=guards, dtype=self.domain.dtype
            )
            self.box_grids.append(bg)
            # region="full": a spectral box FFTs its guard-padded array;
            # the per-step guard refresh supplies the true neighbor data
            # the fake wrap-around would otherwise corrupt
            self.box_solvers.append(self._make_solver(bg, region="full"))
        self.box_lookup = build_box_lookup(self.boxes, n_cells)
        periodic_axes = range(self.domain.ndim)
        #: deposit-folding overlaps (valid regions receiving guard deposits)
        self.fold_overlaps = neighbor_overlaps(
            self.boxes, n_cells, guards, periodic_axes, kind="fold"
        )
        #: field-guard fill overlaps (the canonical-owner partition)
        self.fill_overlaps = neighbor_overlaps(
            self.boxes, n_cells, guards, periodic_axes, kind="fill"
        )
        #: cumulative stats of every fold / halo exchange of the run
        #: (the ``halo.*`` metrics read them)
        self.halo_stats = HaloExchangeStats()
        self.lb_moved_bytes = 0
        self.species: Dict[str, DistributedSpecies] = {}
        self.dynamic_lb = bool(dynamic_lb)
        self.lb_interval = int(lb_interval)
        self.lb_threshold = float(lb_threshold)
        if lb_cost_source not in ("measured", "heuristic"):
            raise ConfigurationError(
                f"lb_cost_source must be 'measured' or 'heuristic', "
                f"got {lb_cost_source!r}"
            )
        self.lb_cost_source = lb_cost_source
        self.cost_model = CostModel()
        self.lb_events: List[int] = []
        #: ranks lost to a hard failure (their boxes were evacuated)
        self.dead_ranks: Set[int] = set()
        #: fault-injection / checkpoint / recovery orchestration (optional)
        self.resilience: Optional["ResilienceManager"] = None
        if self.local_rank is not None:
            # SPMD: each worker holds one rank, so the whole-simulation
            # services (checkpoint/restore, rank-failure evacuation)
            # cannot run inside a worker; a dead worker surfaces as a
            # recv timeout (ResilienceError) instead.  Message-level
            # fault injection and recovery stay fully supported.
            if checkpoint_interval > 0 or checkpoint_dir is not None:
                raise ConfigurationError(
                    "checkpointing is not supported on a per-process "
                    "transport: run checkpoints on the loopback transport"
                )
            if fault_schedule is not None and fault_schedule.rank_failures():
                raise ConfigurationError(
                    "rank_failure faults are not supported on a "
                    "per-process transport (a dead worker raises a recv "
                    "timeout); use message-level faults here"
                )
            if fault_schedule is not None:
                from repro.resilience.faults import FaultInjector

                self.comm.attach_resilience(
                    FaultInjector(fault_schedule), recovery
                )
        elif (
            fault_schedule is not None
            or checkpoint_interval > 0
            or checkpoint_dir is not None
        ):
            from repro.resilience.recovery import ResilienceManager

            self.resilience = ResilienceManager(
                schedule=fault_schedule,
                policy=recovery,
                checkpoint_interval=checkpoint_interval,
                checkpoint_dir=checkpoint_dir,
            )
            self.resilience.attach(self)

    # -- setup -----------------------------------------------------------
    def add_species(
        self,
        species: Species,
        profile: Optional[DensityProfile] = None,
        ppc=None,
        momentum_init: Optional[Callable[[Species], None]] = None,
        temperature_uth: float = 0.0,
        rng_seed: int = 0,
    ) -> DistributedSpecies:
        """Register a species and fill every box from ``profile``.

        ``momentum_init`` is called per box container after injection —
        make it a pure function of position so the decomposed and
        monolithic initializations agree.  Thermal momenta are drawn per
        box from ``(rng_seed, box index)``: a pure function of the
        arguments, so every SPMD worker and any assignment builds the
        same particles, and no two boxes share a sample.
        """
        self._check_new_species(species, self.species)
        dsp = DistributedSpecies(species, len(self.boxes))
        for i, (bg, sp) in enumerate(zip(self.box_grids, dsp.per_box)):
            if profile is not None and ppc is not None:
                inject_plasma(
                    sp,
                    bg,
                    profile,
                    ppc,
                    temperature_uth=temperature_uth,
                    rng=np.random.default_rng([rng_seed, i]),
                )
            if momentum_init is not None and sp.n:
                momentum_init(sp)
        self.species[species.name] = dsp
        return dsp

    def init_fields(self, fn: Callable[[YeeGrid], None]) -> None:
        """Apply an initial-field fill ``fn(grid)`` to every box grid.

        ``fn`` must be a pure, periodic function of physical position
        writing the *entire* guard-padded arrays (use the grid's
        ``lo``/``dx``/``guards`` to compute coordinates): every box —
        and a monolithic grid filled with the same ``fn`` — then starts
        from identical data, guards included, with no communication.
        """
        for i, bg in enumerate(self.box_grids):
            if self.owns_box(i):
                fn(bg)

    def owns_box(self, i: int) -> bool:
        """Does this endpoint compute box ``i``?  (Always true when every
        rank is local; under SPMD, grids of unowned boxes stay stale.)"""
        return self.local_rank is None or self.dm.rank_of(i) == self.local_rank

    # -- the decomposed PIC cycle ------------------------------------------
    def _step_body(self) -> None:
        """Per-box particle work, then fold sources, advance fields,
        exchange halos, redistribute, balance load.

        All field data moves pairwise through the communicator; the
        global grid is touched only by diagnostics (and the sanitizers).
        """
        if self.resilience is not None:
            self.resilience.begin_step(self)
        elif self.comm.fault_injector is not None:
            self.comm.fault_injector.begin_step(self.step_count)
        periodic = (
            self.domain.lo, self.domain.hi, tuple(range(self.domain.ndim))
        )
        with self._phase("particles"):
            for i, bg in enumerate(self.box_grids):
                if not self.owns_box(i):
                    continue
                bg.zero_sources()
                with self.tracer.span(
                    "box", cat="box", rank=self.dm.rank_of(i), box=i
                ), self.timers.stopwatch() as sw:
                    for dsp in self.species.values():
                        if dsp.per_box[i].n:
                            # phase=None: one interval of ``particles`` and
                            # its ``box`` span, not a phase nested in them
                            self._advance_on(
                                bg, dsp.per_box[i], phase=None,
                                periodic=periodic,
                            )
                self.cost_model.record_measured(i, sw.elapsed)
                if self.metrics is not None:
                    self.metrics.histogram("lb.box_cost").observe(sw.elapsed)

        with self._phase("fold_sources"):
            # smooth each box's raw deposits (guards included) before
            # folding, mirroring the monolithic smooth-then-fold order
            for i, bg in enumerate(self.box_grids):
                if self.owns_box(i):
                    self._smooth_sources(bg)
            self.halo_stats.merge(fold_sources_pairwise(
                self.comm,
                self.box_grids,
                self.boxes,
                self.fold_overlaps,
                self.dm.assignment,
                guards=self.domain.guards,
                local_rank=self.local_rank,
            ))

        if self.maxwell_solver == "psatd":
            # the local-FFT spectral push reads J in the guards (FDTD
            # only reads valid J), so after folding the deposits to
            # their owners, fill every box's guard J from the owners —
            # a distinct phase tag keeps the schedule verifier's
            # per-phase accounting exact
            with self._phase("halo_sources"):
                self.halo_stats.merge(exchange_halos(
                    self.comm,
                    self.box_grids,
                    self.boxes,
                    self.fill_overlaps,
                    self.dm.assignment,
                    guards=self.domain.guards,
                    components=("Jx", "Jy", "Jz"),
                    tag=HALO_TAG_PREFIX + ":sources",
                    local_rank=self.local_rank,
                ))

        with self._phase("maxwell"):
            for i, solver in enumerate(self.box_solvers):
                if self.owns_box(i):
                    solver.step()

        with self._phase("halo_fields"):
            self.halo_stats.merge(exchange_halos(
                self.comm,
                self.box_grids,
                self.boxes,
                self.fill_overlaps,
                self.dm.assignment,
                guards=self.domain.guards,
                components=FIELD_COMPONENTS,
                local_rank=self.local_rank,
            ))

        with self._phase("redistribute"):
            for dsp in self.species.values():
                redistribute_particles(
                    dsp.per_box,
                    self.boxes,
                    self.box_lookup,
                    self.domain.lo,
                    self.domain.dx,
                    comm=self.comm,
                    rank_of_box=self.dm.assignment,
                    local_rank=self.local_rank,
                )

        if (
            self.dynamic_lb
            and self.step_count % self.lb_interval == self.lb_interval - 1
        ):
            with self._phase("load_balance"):
                costs = self._lb_costs()
                imb = self.dm.imbalance(costs, exclude_ranks=self.dead_ranks)
                if imb > self.lb_threshold:
                    old_assignment = self.dm.assignment.copy()
                    moved = self.dm.rebalance(
                        costs, strategy="knapsack",
                        exclude_ranks=self.dead_ranks,
                    )
                    if moved:
                        _, nbytes = migrate_boxes(
                            self.comm,
                            self.box_grids,
                            self.species,
                            old_assignment,
                            self.dm.assignment,
                            local_rank=self.local_rank,
                        )
                        self.lb_moved_bytes += nbytes
                    self.lb_events.append(moved)

        self.time += self.dt
        self.step_count += 1
        if self.resilience is not None:
            self.resilience.finish_step(self)
        elif self.comm.fault_injector is not None:
            self.comm.finish_step()

    def _lb_costs(self) -> np.ndarray:
        """Per-box cost vector driving the rebalance decision.

        ``"measured"`` uses the wall-clock EMA of the cost model — the
        paper's measured-runtime mode, inherently run-dependent.
        ``"heuristic"`` is a pure function of cell and live particle
        counts, so every transport produces the same vector — the mode
        the cross-transport parity tests pin.  Either way, under SPMD a
        rank contributes only the boxes it owns, and one allreduce
        assembles the global vector; on loopback the same call, with
        ``rank=None``, does the matching accounting, so the counters do
        not depend on the transport.
        """
        n = len(self.boxes)
        if self.lb_cost_source == "heuristic":
            cells = np.array(
                [b.n_cells for b in self.boxes], dtype=np.float64
            )
            parts = np.array(
                [
                    sum(d.per_box[i].n for d in self.species.values())
                    for i in range(n)
                ],
                dtype=np.float64,
            )
            costs = self.cost_model.heuristic(cells, parts)
        else:
            costs = self.cost_model.measured(range(n), default=0.0)
        if self.local_rank is not None:
            owned = np.array([self.owns_box(i) for i in range(n)], dtype=bool)
            costs = np.where(owned, costs, 0.0)
        return np.asarray(
            self.comm.allreduce_sum(costs, rank=self.local_rank),
            dtype=np.float64,
        )

    @property
    def halo_samples(self) -> int:
        """Array samples applied by all exchanges, local copies included."""
        return self.halo_stats.samples

    @property
    def halo_payload_bytes(self) -> int:
        """Bytes of all cross-rank fold / halo messages received."""
        return self.halo_stats.payload_bytes

    @property
    def halo_messages(self) -> int:
        """Cross-rank fold / halo messages received."""
        return self.halo_stats.messages

    def _run_sanitizers(self) -> None:
        """Per-step invariant checks (opt-in via ``REPRO_SANITIZE=1``)."""
        step = self.step_count
        san = self.sanitizer
        if self.local_rank is None:
            # the step loop no longer maintains the global grid — refresh
            # it here (diagnostics-only) so the global invariants stay
            # meaningful.  Under SPMD no process holds the global state
            # (unowned grids are stale), so only per-box checks run.
            self._assembled(FIELD_COMPONENTS)
            san.check_fields_finite(self.domain, step, label=" (global)")
            for axis in range(self.domain.ndim):
                san.check_guard_consistency(
                    self.domain, axis, step, label=" (global)"
                )
        for i, bg in enumerate(self.box_grids):
            if self.owns_box(i):
                san.check_fields_finite(bg, step, label=f" (box {i})")
        for name, dsp in self.species.items():
            for i, sp in enumerate(dsp.per_box):
                if sp.n and self.owns_box(i):
                    san.check_particles_in_domain(
                        name,
                        sp.positions,
                        self.domain.lo,
                        self.domain.hi,
                        step,
                        where="redistribute",
                    )
        if self.local_rank is None:
            # an SPMD endpoint may legitimately hold early arrivals from
            # a rank that already entered the next step
            san.check_comm_quiescent(self.comm, step)

    # -- diagnostics -------------------------------------------------------
    def _require_global(self, what: str) -> None:
        if self.local_rank is not None:
            raise ConfigurationError(
                f"{what} needs the global grid, which no SPMD worker "
                "holds; gather per-box state through the transport runner "
                "instead (repro.parallel.mp_transport.run_distributed_mp)"
            )

    def _assembled(self, components: Sequence[str]) -> YeeGrid:
        """The global grid with ``components`` refreshed from the boxes."""
        assemble_global(
            self.domain, self.box_grids, self.boxes, components,
            periodic_axes=tuple(range(self.domain.ndim)),
        )
        return self.domain

    def global_field_view(self, component: str) -> np.ndarray:
        """The assembled global field (valid region)."""
        self._require_global("global_field_view")
        return self._assembled((component,)).interior_view(component)

    def total_particles(self) -> int:
        return sum(d.total_n() for d in self.species.values())

    def local_particles(self) -> int:
        """Particles in boxes this endpoint owns.

        Equal to :meth:`total_particles` when all ranks are local; on an
        SPMD endpoint it skips the stale unowned containers, so per-rank
        values sum to the global count.
        """
        return sum(
            dsp.per_box[i].n
            for dsp in self.species.values()
            for i in range(len(self.boxes))
            if self.owns_box(i)
        )

    def field_energy(self) -> float:
        self._require_global("field_energy")
        return self._assembled(FIELD_COMPONENTS).field_energy()
