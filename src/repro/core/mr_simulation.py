"""Mesh-refined PIC simulation: :class:`Simulation` plus MR patches.

Overrides the particle-advance and field-advance hooks of the
single-level PIC cycle with the level-aware versions of the paper's
Sec. V.B (while a patch is active the particle pass takes the
three-phase route of :func:`repro.particles.advance.advance_particles`
with the level-aware gather and deposit below; once the last patch is
removed it is the plain single-level — on the compiled tier, fused —
pass again):

* particles well inside a patch gather the substituted auxiliary field;
  particles in the transition zone or outside gather the parent field;
* the same partition decides where current is deposited (fine grid vs.
  parent); fine currents are restricted onto the parent and the coarse
  companion before the field advance;
* all grids advance each step, after which the auxiliary fields are
  reassembled;
* patches follow the moving window in the lab frame and are removed when
  their removal time passes or they fall off the domain — the point where
  the time-to-solution drops in the paper's Fig. 6.

Subcycling (Sec. V.B "an option has been implemented to subcycle the
operations at the refined levels"): a subcycled patch advances *both* its
fields and its resident particles ``ratio`` substeps of ``dt/ratio`` per
parent step.  This keeps the refined level on its own Courant and
plasma-frequency limits (a dense solid inside the patch would be unstable
if its particles were pushed with the coarse step) while the parent runs
at the coarse CFL — the source of the post-removal speedup in Fig. 6.
The in-patch particles are extracted from their species for the substep
loop and re-inserted afterwards; the external (parent) contribution to the
auxiliary field is held at the beginning-of-step value during substeps,
the one-sided time coupling the paper's omitted algorithm refines with
time interpolation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.mr_level import MRPatch
from repro.core.simulation import Simulation
from repro.exceptions import ConfigurationError
from repro.particles.advance import advance_particles
from repro.particles.species import Species


class MRSimulation(Simulation):
    """A :class:`Simulation` (same options) with electromagnetic MR patches."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.patches: List[MRPatch] = []
        #: history of (time, n_patches) patch-removal events
        self.removal_log: List[Tuple[float, int]] = []
        #: holders of extracted in-patch particles during a subcycled step
        self._holders: List[Tuple[MRPatch, Dict[str, Species]]] = []

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
            self.grid,
            region_lo,
            region_hi,
            ratio=ratio,
            dt=self.dt,
            subcycle=subcycle,
            n_pml=n_pml,
            n_transition=n_transition,
            shape_order=self.shape_order,
            remove_time=remove_time,
        )
        self.patches.append(patch)
        return patch

    # -- level-aware hooks ---------------------------------------------------
    def _advance_species(self, species: Species) -> None:
        # level-aware routing only while there is a level to route to
        hooks = (
            dict(gather=self._gather, deposit=self._deposit)
            if self.patches else {}
        )
        super()._advance_species(species, **hooks)

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

    def _advance_subcycled_patches(self) -> None:
        """Extract in-patch particles and run the substep loop of every
        subcycled patch (particles + fine/coarse fields at dt/ratio).

        Membership uses hysteresis: a particle *joins* the subcycled
        population only once it is well inside the patch, but *stays* in
        it until it crosses the (closer-to-the-edge) deposit-safe margin.
        Without this, electrons quivering in the laser field at the patch
        boundary would switch populations every step, and each switch
        teleports their charge between grids — a noise source that was
        observed to destabilize the fine grid.
        """
        self._holders = []
        for patch_index, patch in enumerate(self.patches):
            if not patch.subcycle:
                continue
            dt_sub = self.dt / patch.ratio
            margin_stay = patch.extraction_margin()
            # join threshold: deeper inside by more than a quiver amplitude
            margin_join = margin_stay + 8 * patch.fine.dx[0]
            if not hasattr(patch, "_member_ids"):
                patch._member_ids = {}
            holders: Dict[str, Species] = {}
            for name, entry in self.entries.items():
                sp = entry.species
                if sp.n == 0:
                    continue
                mask = patch.contains(sp.positions, margin_join)
                members = patch._member_ids.get(name)
                if members is not None and members.size:
                    was_member = np.isin(sp.ids, members, assume_unique=False)
                    mask |= was_member & patch.contains(sp.positions, margin_stay)
                if np.any(mask):
                    holders[name] = sp.remove(mask)
            patch._member_ids = {
                name: np.sort(holder.ids.copy())
                for name, holder in holders.items()
            }

            def deposit_fine(sp, x_old, x_new, vel):
                self.kernel_set.deposit_current(
                    patch.fine, x_old, x_new, vel, sp.weights, sp.charge,
                    dt_sub, self.shape_order,
                )

            with self._phase(
                "mr_subcycle", level=1, patch=patch_index, ratio=patch.ratio
            ):
                # external field at substep times: linear extrapolation
                # from the last two parent steps (the paper's algorithm
                # interpolates the coarse fields in time)
                ext_now = patch.frozen_external()
                ext_prev = getattr(patch, "_external_prev", None)
                if ext_prev is None:
                    ext_prev = ext_now
                for k in range(patch.ratio):
                    s = k / patch.ratio
                    ext_k = {
                        comp: ext_now[comp]
                        + s * (ext_now[comp] - ext_prev[comp])
                        for comp in ext_now
                    }
                    patch.assemble_aux_with_external(ext_k)
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
                patch._external_prev = ext_now
            self._holders.append((patch, holders))

    def _finalize_deposits(self) -> None:
        """Combine per-level deposits before the parent field advance.

        Non-subcycled patches: smooth the fine current and restrict it to
        the parent and coarse companion.  Subcycled patches: add the
        substep-averaged restricted current and re-insert the extracted
        particles into their species.
        """
        for k, patch in enumerate(self.patches):
            with self.tracer.span("mr_restrict", cat="level", level=1, patch=k):
                if patch.subcycle:
                    patch.apply_accumulated_currents_to_parent()
                else:
                    self._smooth_sources(patch.fine)
                    patch.restrict_currents_to_parent()
        for patch, holders in self._holders:
            for name, holder in holders.items():
                self.entries[name].species.extend(holder)
        self._holders = []

    def _advance_fields(self) -> None:
        super()._advance_fields()
        for k, patch in enumerate(self.patches):
            with self.tracer.span("mr_fields", cat="level", level=1, patch=k):
                if patch.subcycle:
                    # the fine grid already took its substeps; advance the
                    # coarse companion in lockstep with the parent operator
                    patch.coarse_solver.step()
                else:
                    patch.advance_fields()
                # reassemble against the advanced parent solution (for
                # subcycled patches this refreshes the external contribution)
                patch.assemble_aux()

    # -- step bookkeeping ------------------------------------------------------
    def _step_body(self) -> None:
        # overriding _step_body (not _single_step) keeps the patch prep,
        # subcycling and removal inside the step span and the step's lap
        for patch in self.patches:
            patch.zero_sources()
            patch.begin_step()
        self._advance_subcycled_patches()
        super()._step_body()
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

    def _shift_window_one_cell(self) -> None:
        super()._shift_window_one_cell()
        for patch in self.patches:
            patch.shift_region(self.moving_window.direction)

    def _run_sanitizers(self) -> None:
        """Parent-level checks plus NaN/Inf scans of every patch grid."""
        super()._run_sanitizers()
        san = self.sanitizer
        step = self.step_count
        for k, patch in enumerate(self.patches):
            for label, grid in (
                ("fine", patch.fine),
                ("coarse", patch.coarse),
                ("aux", patch.aux),
            ):
                san.check_fields_finite(
                    grid, step, label=f" (patch {k} {label})"
                )

    def total_fine_cells(self) -> int:
        return sum(p.n_fine_cells() for p in self.patches)
