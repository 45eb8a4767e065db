"""The explicit electromagnetic PIC cycle (paper Fig. 3).

One :class:`Simulation` owns a Yee grid, a set of species, optional laser
antennas, MR patches and a moving window, and advances them with the
standard leapfrog ordering:

1. gather E, B at particle positions (fields and positions at step n),
2. momentum push (u: n-1/2 -> n+1/2), position push (x: n -> n+1),
3. charge-conserving current deposition over the motion (J at n+1/2),
4. laser antenna currents, current smoothing, boundary folds,
5. Maxwell field advance (E, B: n -> n+1),
6. field and particle boundaries, moving window shift.

Steps 1-3 are one call to :func:`repro.particles.advance.
advance_particles` per species (fused into a single native pass on the
``compiled`` kernel tier).  Mesh refinement (Sec. V.B) is a list of
patches on the same cycle: each step phase loops over
``Simulation.patches``, and with none it is the single-level cycle.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.sanitize import Sanitizer
from repro.diagnostics.timers import Timers
from repro.exceptions import ConfigurationError
from repro.grid.boundary import (
    accumulate_periodic_sources,
    apply_damping,
    apply_periodic,
)
from repro.grid.maxwell import MaxwellSolver, cfl_dt
from repro.grid.pml import PMLMaxwellSolver
from repro.grid.yee import FIELD_COMPONENTS, SOURCE_COMPONENTS, YeeGrid
from repro.core.moving_window import MovingWindow
from repro.core.mr_level import MRPatch
from repro.observability.tracer import NULL_TRACER, phase_span
from repro.laser.antenna import LaserAntenna
from repro.particles.injection import DensityProfile, inject_plasma
from repro.particles.advance import DEPOSITIONS, advance_particles
from repro.particles.kernels import resolve_kernel_set
from repro.particles.pusher import PUSHERS
from repro.particles.shapes import required_guards
from repro.particles.sorting import sort_species_by_bin
from repro.particles.species import Species

VALID_BOUNDARIES = ("periodic", "pml", "damped", "open")


def smooth_binomial(arr: np.ndarray, axis: int, passes: int = 1) -> None:
    """In-place (1,2,1)/4 binomial smoothing along ``axis``.

    The standard current filter of electromagnetic PIC codes: damps the
    short-wavelength noise that drives the finite-grid instability in
    dense plasmas.
    """
    for _ in range(passes):
        lo = [slice(None)] * arr.ndim
        hi = [slice(None)] * arr.ndim
        mid = [slice(None)] * arr.ndim
        lo[axis] = slice(0, -2)
        mid[axis] = slice(1, -1)
        hi[axis] = slice(2, None)
        arr[tuple(mid)] = (
            0.25 * arr[tuple(lo)] + 0.5 * arr[tuple(mid)] + 0.25 * arr[tuple(hi)]
        )


class SpeciesEntry:
    """A species plus its continuous-injection configuration."""

    def __init__(
        self,
        species: Species,
        profile: Optional[DensityProfile] = None,
        ppc=None,
        continuous: bool = False,
        temperature_uth: float = 0.0,
    ) -> None:
        self.species = species
        self.profile = profile
        self.ppc = ppc
        self.continuous = continuous
        self.temperature_uth = temperature_uth


class StepDriver:
    """What every step driver owns, written once.

    The option set (``dt`` ... ``v_galilean``, documented on
    :class:`Simulation`), parsed and refused here so every driver takes
    the same values with the same errors; the clocks (timers, tracer,
    metrics, sanitizer, ``time`` / ``step_count``, and :meth:`step`,
    which times a subclass's whole ``_step_body``); and the physics of
    one box —
    :meth:`_advance_on`, :meth:`_smooth_sources`, :meth:`_make_solver` —
    on whichever grid it is handed: a :class:`Simulation`'s, an MR
    patch's, one box of a decomposition.  ``grid`` is what the options
    are checked against and what ``precision`` converts.
    """

    def __init__(
        self,
        grid: YeeGrid,
        dt: Optional[float] = None,
        cfl: float = 0.95,
        shape_order: int = 2,
        pusher: str = "boris",
        deposition: str = "esirkepov",
        kernels: str = "compiled",
        smoothing_passes: int = 1,
        maxwell_solver: str = "yee",
        tracer=None,
        precision: Optional[str] = None,
        v_galilean=None,
    ) -> None:
        self.grid = grid
        if precision is not None:
            if precision in ("mixed", "float32"):
                # convert before any solver captures grid.dtype
                grid.set_precision(np.float32)
            elif precision == "float64":
                grid.set_precision(np.float64)
            else:
                raise ConfigurationError(
                    f"unknown precision {precision!r}; expected float64, "
                    "mixed or float32"
                )
        #: the active field-precision policy ("mixed" = float32 fields +
        #: float64 particle ops); None in the constructor inherits the
        #: grid's dtype as built
        self.precision = "mixed" if grid.dtype == np.float32 else "float64"
        self.dt = float(dt) if dt is not None else cfl_dt(grid.dx, cfl)
        self.shape_order = int(shape_order)
        if grid.guards < required_guards(self.shape_order) + 1:
            raise ConfigurationError(
                f"shape order {shape_order} needs at least "
                f"{required_guards(self.shape_order) + 1} guard cells"
            )
        if pusher not in PUSHERS:
            raise ConfigurationError(f"unknown pusher {pusher!r}")
        self.pusher = pusher
        if deposition not in DEPOSITIONS:
            raise ConfigurationError(f"unknown deposition {deposition!r}")
        self.deposition = deposition
        #: gather/deposit kernel variant, resolved against the registry;
        #: a requested-but-unavailable tier (e.g. "compiled" with no
        #: backend) degrades to the vectorized path and records why
        self.kernel_set, self.kernel_fallback_reason = resolve_kernel_set(
            kernels
        )
        self.kernels = self.kernel_set.name
        self.smoothing_passes = int(smoothing_passes)
        if maxwell_solver not in ("yee", "psatd"):
            raise ConfigurationError(f"unknown Maxwell solver {maxwell_solver!r}")
        self.maxwell_solver = maxwell_solver
        if maxwell_solver != "psatd" and v_galilean is not None:
            raise ConfigurationError(
                "v_galilean is a property of the spectral solver; "
                "use maxwell_solver='psatd'"
            )
        self.v_galilean = v_galilean
        self.timers = Timers()
        #: span recorder; the shared no-op unless observability is attached
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: metrics registry set by repro.observability.attach_observability
        self.metrics = None
        #: steps between metrics snapshots interleaved into the trace
        self._snapshot_interval = 0
        self.time = 0.0
        self.step_count = 0
        #: opt-in runtime invariant checks (None unless REPRO_SANITIZE=1)
        self.sanitizer: Optional[Sanitizer] = Sanitizer.from_env()

    def _check_new_species(self, species: Species, registered) -> None:
        """Refuse a species the driver cannot hold, before any injection."""
        if species.ndim != self.grid.ndim:
            raise ConfigurationError("species and grid dimensionality differ")
        if species.name in registered:
            raise ConfigurationError(f"duplicate species {species.name!r}")

    # -- the physics of one box ----------------------------------------------
    def _make_solver(self, grid: YeeGrid, pml_axes=(), n_pml: int = 0, **psatd):
        """The solver the options name, on ``grid``: spectral (``psatd``
        is its ``region=``), PML along ``pml_axes``, or plain Yee."""
        if self.maxwell_solver == "psatd":
            from repro.grid.psatd import PSATDMaxwellSolver

            return PSATDMaxwellSolver(
                grid, self.dt, v_galilean=self.v_galilean, **psatd
            )
        if pml_axes:
            return PMLMaxwellSolver(grid, self.dt, n_pml=n_pml, axes=pml_axes)
        return MaxwellSolver(grid, self.dt)

    def _advance_on(self, grid: YeeGrid, species: Species, **route) -> None:
        """Gather, push and deposit ``species`` on ``grid`` with this
        driver's kernels, pusher, ``dt``, order and deposition; ``route``
        is ``advance_particles``' phase= / periodic= / gather= / deposit=."""
        dispatched = advance_particles(
            grid, species, self.kernel_set, self.pusher, self.dt,
            self.shape_order, self.deposition, **route,
        )
        if self.metrics is not None:
            for name in dispatched:
                self.metrics.counter(
                    "kernel.dispatch", variant=self.kernels, phase=name
                ).add(1)

    def _smooth_sources(self, grid: YeeGrid) -> None:
        """Binomial-filter the current deposited on ``grid``, guards
        included (so it runs before any fold of guard deposits)."""
        if self.smoothing_passes > 0:
            for comp in ("Jx", "Jy", "Jz"):
                for axis in range(grid.ndim):
                    smooth_binomial(
                        grid.fields[comp], axis, self.smoothing_passes
                    )

    # -- the clocks ------------------------------------------------------------
    def step(self, n: int = 1) -> None:
        """Advance ``n`` steps, counted by target step number: a driver
        rolled back to a checkpoint mid-run (a rank failure) replays
        until it genuinely reaches ``step_count + n``."""
        target = self.step_count + n
        while self.step_count < target:
            self._single_step()

    def _phase(self, name: str, **attrs):
        """Timer accumulation for one PIC phase, plus a span when tracing.

        With the tracer disabled this is exactly ``timers.timer(name)``
        (one attribute check of overhead); enabled, the same interval is
        also recorded as a span nested under the current step.
        """
        if self.tracer.enabled:
            return phase_span(self.timers, self.tracer, name, **attrs)
        return self.timers.timer(name)

    def _single_step(self) -> None:
        """One step on the one step clock: the lap spans the subclass's
        whole ``_step_body`` (MR patch work, resilience, callbacks) and
        the sanitizers, so every phase timed in a step fits inside it."""
        with self.tracer.span("step", cat="step", step=self.step_count):
            self.timers.reset_lap()
            self._step_body()
            # last, so anything the whole step (callbacks included) left
            # behind is caught before the next gather consumes it
            if self.sanitizer is not None:
                with self._phase("sanitize"):
                    self._run_sanitizers()
            lap = self.timers.lap()
            if self.metrics is not None:
                self.metrics.counter("particles.pushed").add(
                    self.local_particles()
                )
                self.metrics.histogram("step.seconds").observe(lap)
                interval = self._snapshot_interval
                if interval > 0 and self.step_count % interval == 0:
                    self.tracer.add_metrics_snapshot(
                        self.metrics.snapshot(), step=self.step_count
                    )

    def _step_body(self) -> None:
        raise NotImplementedError

    def local_particles(self) -> int:
        """Particles this endpoint pushes: all of them unless a
        decomposition spreads its boxes over processes."""
        return self.total_particles()


class Simulation(StepDriver):
    """Electromagnetic PIC simulation, mesh-refined by a list of patches.

    Parameters
    ----------
    grid:
        The :class:`YeeGrid` to simulate on.
    dt:
        Time step [s]; defaults to ``cfl`` times the Courant limit.
    cfl:
        Courant fraction used when ``dt`` is not given.
    shape_order:
        B-spline order for gather and deposition (1-3).
    pusher:
        ``"boris"`` or ``"vay"``.
    deposition:
        ``"esirkepov"`` (charge-conserving, default) or ``"direct"``.
    kernels:
        Gather/deposit kernel variant from :mod:`repro.particles.kernels`
        (``"compiled"``, the native generated-C tier with its fused
        particle pass, is the default; ``"vectorized"`` for the NumPy
        path, its fallback and oracle).  Both compute the same physics,
        to round-off; the active name is
        recorded on the particle-phase tracer spans.  Requesting a tier
        whose backend is unavailable on this machine (e.g. ``"compiled"``
        without a C compiler) falls back to ``"vectorized"``;
        ``self.kernels`` always names the variant actually running and
        ``self.kernel_fallback_reason`` says why, if a fallback happened.
    precision:
        ``"float64"`` (default) or ``"mixed"`` (alias ``"float32"``):
        the paper's MP mode — field storage, deposition and the Maxwell
        solve in single precision, particle quantities, shape weights
        and geometry in double.  The grid's field arrays are converted
        in place; the per-kernel error budget is documented and asserted
        by ``validate_kernel_set(..., precision="float32")``.
    smoothing_passes:
        Binomial current-filter passes per step (0 disables).
    maxwell_solver:
        ``"yee"`` (explicit FDTD, the paper's production solver) or
        ``"psatd"`` (spectral; requires fully periodic boundaries).
    v_galilean:
        Galilean velocity [m/s] of the comoving-current PSATD closure
        (NCI suppression in boosted frames; see
        :meth:`repro.core.boosted_frame.BoostedFrame.galilean_velocity`).
        Only valid with ``maxwell_solver="psatd"``.
    boundaries:
        Per-axis boundary family from ``("periodic", "pml", "damped",
        "open")``; a single string applies to every axis.
    n_absorber:
        Thickness (cells) of the PML / damping layers.
    sort_interval:
        Steps between Morton re-sorts of the particles (0 disables).

    All but the last three are :class:`StepDriver`'s, shared with
    ``DistributedSimulation``.

    Mesh refinement (paper Sec. V.B) is data, not a driver type:
    :meth:`add_patch` appends an :class:`~repro.core.mr_level.MRPatch`
    over parent cells ``[region_lo, region_hi)`` (``ratio``, ``subcycle``,
    ``n_pml``, ``n_transition``, ``remove_time`` as documented there) to
    ``patches``, and each phase of the step loops over that list; with no
    patch the step is the single-level cycle.  While a patch is active the
    particle pass takes the three-phase route with the level-aware
    :meth:`_gather` / :meth:`_deposit`: particles well inside a patch
    gather its auxiliary field and deposit on its fine grid, whose current
    is restricted onto the parent and the coarse companion before the
    field advance; everyone else uses the parent.  Every grid advances each
    step, then the auxiliary fields are reassembled.  Patches stay fixed
    in the lab frame under the moving window and are removed, after the
    callbacks, once their ``remove_time`` passes or they leave the domain
    (the Fig. 6 star; ``removal_log`` holds ``(time, patches left)``).
    """

    def __init__(
        self,
        grid: YeeGrid,
        *,
        boundaries="periodic",
        n_absorber: int = 8,
        sort_interval: int = 0,
        **options,
    ) -> None:
        super().__init__(grid, **options)
        if isinstance(boundaries, str):
            boundaries = (boundaries,) * grid.ndim
        if len(boundaries) != grid.ndim:
            raise ConfigurationError("need one boundary family per axis")
        for b in boundaries:
            if b not in VALID_BOUNDARIES:
                raise ConfigurationError(f"unknown boundary {b!r}")
        self.boundaries = tuple(boundaries)
        self.n_absorber = int(n_absorber)
        self.sort_interval = int(sort_interval)
        if self.maxwell_solver == "psatd" and any(
            b != "periodic" for b in self.boundaries
        ):
            raise ConfigurationError(
                "the PSATD solver requires fully periodic boundaries"
            )
        self.solver = self._make_solver(
            grid,
            tuple(d for d, b in enumerate(self.boundaries) if b == "pml"),
            self.n_absorber,
        )

        self.entries: Dict[str, SpeciesEntry] = {}
        self.antennas: List[LaserAntenna] = []
        self.moving_window: Optional[MovingWindow] = None
        #: window (pending, cells_shifted) parked by a checkpoint restore
        #: that ran before the window was attached
        self._deferred_window_state: Optional[Tuple[float, int]] = None
        #: hooks called as f(sim) after each completed step
        self.callbacks: List[Callable[["Simulation"], None]] = []
        self.patches: List[MRPatch] = []
        self.removal_log: List[Tuple[float, int]] = []

    # -- configuration ----------------------------------------------------
    @property
    def species(self) -> Dict[str, Species]:
        return {name: e.species for name, e in self.entries.items()}

    def add_species(
        self,
        species: Species,
        profile: Optional[DensityProfile] = None,
        ppc=None,
        continuous_injection: bool = False,
        temperature_uth: float = 0.0,
        lo=None,
        hi=None,
        rng: Optional[np.random.Generator] = None,
    ) -> Species:
        """Register a species; optionally fill the grid from ``profile``."""
        self._check_new_species(species, self.entries)
        self.entries[species.name] = SpeciesEntry(
            species, profile, ppc, continuous_injection, temperature_uth
        )
        if profile is not None and ppc is not None:
            inject_plasma(
                species,
                self.grid,
                profile,
                ppc,
                lo=lo,
                hi=hi,
                temperature_uth=temperature_uth,
                rng=rng,
            )
        return species

    def add_laser(self, antenna: LaserAntenna) -> None:
        self.antennas.append(antenna)

    def set_moving_window(self, window: MovingWindow) -> None:
        if self.boundaries[0] == "pml":
            raise ConfigurationError(
                "the moving window requires non-PML x boundaries "
                "(use 'damped' or 'open'); split PML state cannot be shifted"
            )
        self.moving_window = window
        if self._deferred_window_state is not None:
            # a checkpoint restored before the window existed parked the
            # window phase here; apply it so the restart is still exact
            window.pending, window.cells_shifted = self._deferred_window_state
            self._deferred_window_state = None

    def add_patch(
        self,
        region_lo: Sequence[int],
        region_hi: Sequence[int],
        ratio: int = 2,
        subcycle: bool = False,
        n_pml: int = 4,
        n_transition: Optional[int] = None,
        remove_time: Optional[float] = None,
    ) -> MRPatch:
        """Create and register a refinement patch over parent cells
        ``[region_lo, region_hi)``."""
        if self.deposition != "esirkepov":
            raise ConfigurationError(
                "mesh refinement requires the charge-conserving "
                "Esirkepov deposition"
            )
        if getattr(self.solver, "advances_together", False):
            raise ConfigurationError(
                "mesh refinement requires a split-push (FDTD-family) "
                "solver, not the spectral PSATD tier: the substitution "
                "cancels in-patch sources only when the parent and the "
                "coarse companion apply the identical discrete operator"
            )
        patch = MRPatch(
            self.grid, region_lo, region_hi, ratio=ratio, dt=self.dt,
            subcycle=subcycle, n_pml=n_pml, n_transition=n_transition,
            shape_order=self.shape_order, remove_time=remove_time,
        )
        # construction order (every removal logs one entry): what a
        # checkpoint names a surviving patch by
        patch.position = len(self.patches) + len(self.removal_log)
        self.patches.append(patch)
        return patch

    # -- mesh-refinement levels ----------------------------------------------
    def _advance_species(self, species: Species) -> None:
        """Gather, push, deposit and periodically wrap one species (it
        times itself), level-aware only while there is a level to route to."""
        g = self.grid
        axes = tuple(d for d, b in enumerate(self.boundaries) if b == "periodic")
        hooks = (
            dict(gather=self._gather, deposit=self._deposit)
            if self.patches else {}
        )
        self._advance_on(
            g, species, phase=self._phase,
            periodic=(g.lo, g.hi, axes) if axes else None, **hooks,
        )

    def _route(self, inside):
        """Send every particle to exactly one grid: yields ``(patch,
        selector)`` for the first non-subcycled patch whose ``inside(patch)``
        mask holds it and ``(None, selector)`` for the rest, the parent's.
        With nobody in a patch that selector is ``slice(None)``: views,
        not masked copies."""
        remaining = None
        for patch in self.patches:
            if patch.subcycle:
                continue  # in-patch particles were extracted for substeps
            mask = inside(patch)
            if remaining is not None:
                mask &= remaining
            if np.any(mask):
                yield patch, mask
                remaining = ~mask if remaining is None else remaining & ~mask
        if remaining is None:
            yield None, slice(None)
        elif np.any(remaining):
            yield None, remaining

    def _gather(self, species: Species):
        positions = species.positions
        e_f = np.empty((positions.shape[0], 3), dtype=positions.dtype)
        b_f = np.empty_like(e_f)
        for patch, sel in self._route(lambda p: p.interior_mask(positions)):
            e_f[sel], b_f[sel] = self.kernel_set.gather(
                self.grid if patch is None else patch.aux,
                positions[sel], self.shape_order,
            )
        return e_f, b_f

    def _deposit(self, species, x_old, x_new, velocities) -> None:
        def inside(patch: MRPatch) -> np.ndarray:
            margin = patch.n_transition * patch.fine.dx[0]
            return patch.contains(x_old, margin) & patch.contains(x_new, margin)

        for patch, sel in self._route(inside):
            self.kernel_set.deposit_current(
                self.grid if patch is None else patch.fine,
                x_old[sel], x_new[sel], velocities[sel], species.weights[sel],
                species.charge, self.dt, self.shape_order,
            )

    def _advance_subcycled_patches(self) -> List[Dict[str, Species]]:
        """Advance the fine fields and the resident particles of every
        subcycled patch ``ratio`` substeps of ``dt/ratio``; returns the
        extracted particles (per patch, per species) to re-insert.

        Subcycling (Sec. V.B) keeps the refined level on its own Courant
        and plasma-frequency limits — a dense solid inside the patch would
        be unstable if pushed with the coarse step — while the parent runs
        at the coarse CFL, the source of the post-removal speedup in
        Fig. 6.
        """
        extracted = []
        for k, patch in enumerate(self.patches):
            if not patch.subcycle:
                continue
            dt_sub = self.dt / patch.ratio
            holders = patch.extract_members(self.species)

            def deposit_fine(sp, x_old, x_new, vel):
                self.kernel_set.deposit_current(
                    patch.fine, x_old, x_new, vel, sp.weights, sp.charge,
                    dt_sub, self.shape_order,
                )

            with self._phase("mr_subcycle", level=1, patch=k, ratio=patch.ratio):
                for external in patch.substep_externals():
                    patch.assemble_aux_with_external(external)
                    patch.fine.zero_sources()
                    for holder in holders.values():
                        if holder.n:
                            # gather the auxiliary field, deposit on the
                            # fine grid
                            advance_particles(
                                patch.aux, holder, self.kernel_set,
                                self.pusher, dt_sub, self.shape_order,
                                deposit=deposit_fine,
                            )
                    self._smooth_sources(patch.fine)
                    patch.accumulate_restricted_currents(1.0 / patch.ratio)
                    patch.substep_fields()
            extracted.append(holders)
        return extracted

    # -- the PIC cycle ------------------------------------------------------
    def _step_body(self) -> None:
        g = self.grid
        for patch in self.patches:
            patch.zero_sources()
            patch.begin_step()
        extracted = self._advance_subcycled_patches()
        with self._phase("zero_sources"):
            g.zero_sources()

        for entry in self.entries.values():
            if entry.species.n:
                self._advance_species(entry.species)

        with self._phase("finalize_deposits"):
            # combine the level deposits before the parent field advance
            for k, patch in enumerate(self.patches):
                with self.tracer.span("mr_restrict", cat="level", level=1, patch=k):
                    if patch.subcycle:
                        patch.apply_accumulated_currents_to_parent()
                    else:
                        self._smooth_sources(patch.fine)
                        patch.restrict_currents_to_parent()
            for holders in extracted:
                for name, holder in holders.items():
                    self.entries[name].species.extend(holder)

        with self._phase("antenna"):
            for antenna in self.antennas:
                antenna.add_current(g, self.time + 0.5 * self.dt)

        with self._phase("source_boundaries"):
            self._smooth_sources(g)
            for axis, b in enumerate(self.boundaries):
                if b == "periodic":
                    accumulate_periodic_sources(g, axis)

        with self._phase("maxwell"):
            # every solver's step() is its own full advance: half B, full E,
            # half B for the FDTD family, one spectral update for PSATD
            self.solver.step()
            for k, patch in enumerate(self.patches):
                with self.tracer.span("mr_fields", cat="level", level=1, patch=k):
                    patch.advance_fields()
                    # reassemble against the advanced parent solution
                    patch.assemble_aux()

        with self._phase("field_boundaries"):
            for axis, b in enumerate(self.boundaries):
                if b == "periodic":
                    apply_periodic(g, axis)
                elif b == "damped":
                    apply_damping(g, axis, self.n_absorber, strength=0.04)

        with self._phase("particle_boundaries"):
            self._apply_particle_boundaries()

        if self.moving_window is not None:
            with self._phase("moving_window"):
                shifts = self.moving_window.cells_to_shift(
                    self.time, self.dt, g.dx[0]
                )
                for _ in range(shifts):
                    self._shift_window_one_cell()

        if (
            self.sort_interval > 0
            and self.step_count % self.sort_interval == self.sort_interval - 1
        ):
            with self._phase("sort"):
                for entry in self.entries.values():
                    if entry.species.n:
                        sort_species_by_bin(entry.species, g)

        self.time += self.dt
        self.step_count += 1
        for cb in self.callbacks:
            cb(self)
        survivors = []
        for patch in self.patches:
            if patch.should_remove(self.time):
                self.removal_log.append((self.time, len(self.patches) - 1))
                self.tracer.instant(
                    "mr_patch_removed", t=self.time, remaining=len(self.patches) - 1
                )
            else:
                survivors.append(patch)
        self.patches = survivors

    def _run_sanitizers(self) -> None:
        """Per-step invariant checks (opt-in via ``REPRO_SANITIZE=1``).

        SAN001: fields finite after the solve, on the parent and on every
        patch grid.  SAN002: particles inside the domain after push +
        boundaries.  SAN003: guard cells on periodic axes hold the
        periodic image of the valid data (skipped on the moving-window
        axis, whose roll legitimately shifts guards).
        """
        g = self.grid
        step = self.step_count
        san = self.sanitizer
        san.check_fields_finite(g, step)
        san.check_species_map(self.species, g.lo, g.hi, step)
        window_axis = 0 if self.moving_window is not None else None
        for axis, b in enumerate(self.boundaries):
            if b == "periodic" and axis != window_axis:
                san.check_guard_consistency(g, axis, step)
        for k, patch in enumerate(self.patches):
            for label in ("fine", "coarse", "aux"):
                san.check_fields_finite(
                    getattr(patch, label), step, label=f" (patch {k} {label})"
                )

    # -- boundaries / window -------------------------------------------------
    def _apply_particle_boundaries(self) -> None:
        """Remove what left through a non-periodic face (the periodic
        wrap is part of ``advance_particles``)."""
        g = self.grid
        for entry in self.entries.values():
            sp = entry.species
            for axis, b in enumerate(self.boundaries):
                if b != "periodic" and sp.n:
                    x = sp.positions[:, axis]
                    out = (x < g.lo[axis]) | (x >= g.hi[axis])
                    if np.any(out):
                        sp.remove(out)

    def _shift_window_one_cell(self) -> None:
        """Move the domain one cell along the window direction: roll
        fields, cull trailing particles, inject fresh plasma in the
        leading cells."""
        g = self.grid
        sign = self.moving_window.direction
        for name in FIELD_COMPONENTS + SOURCE_COMPONENTS:
            arr = g.fields[name]
            arr[...] = np.roll(arr, -sign, axis=0)
            if sign > 0:
                arr[-1, ...] = 0.0
            else:
                arr[0, ...] = 0.0
        g.lo = (g.lo[0] + sign * g.dx[0],) + g.lo[1:]
        g.hi = (g.hi[0] + sign * g.dx[0],) + g.hi[1:]
        for entry in self.entries.values():
            sp = entry.species
            if sp.n:
                if sign > 0:
                    sp.remove(sp.positions[:, 0] < g.lo[0])
                else:
                    sp.remove(sp.positions[:, 0] >= g.hi[0])
            if entry.continuous and entry.profile is not None:
                if sign > 0:
                    lead_lo = (g.hi[0] - g.dx[0],) + g.lo[1:]
                    lead_hi = g.hi
                else:
                    lead_lo = g.lo
                    lead_hi = (g.lo[0] + g.dx[0],) + g.hi[1:]
                inject_plasma(
                    sp,
                    g,
                    entry.profile,
                    entry.ppc,
                    lo=lead_lo,
                    hi=lead_hi,
                    temperature_uth=entry.temperature_uth,
                )
        for patch in self.patches:
            patch.shift_region(sign)

    # -- convenience ---------------------------------------------------------
    def run_until(self, t_end: float) -> None:
        while self.time < t_end - 1e-30:
            self._single_step()

    def total_particles(self) -> int:
        return sum(e.species.n for e in self.entries.values())

    def total_fine_cells(self) -> int:
        return sum(p.n_fine_cells() for p in self.patches)
