"""One electromagnetic mesh-refinement patch (paper Sec. V.B, Fig. 4).

A patch owns three grids over the same physical region:

* the **fine** grid ``f`` — refinement ratio ``r`` times the parent
  resolution, terminated by a Berenger PML so waves generated inside leave
  without reflecting off the patch boundary;
* the **coarse companion** grid ``c`` — the *parent's* resolution, also
  PML-terminated, driven by exactly the same (restricted) sources as the
  fine grid;
* the **auxiliary** grid ``a`` — fine resolution, assembled every step by
  the substitution

      F(a) = F(f) + I[ F(s) - F(c) ]

  where ``F(s)`` is the parent solution over the patch region and ``I``
  interpolates parent -> fine.  Because ``c`` contains exactly the
  patch-internal sources at coarse resolution, the bracket cancels them
  out of ``F(s)`` and the interpolation adds only the *external* field —
  the construction that avoids the spurious reflections plain
  interpolation MR suffers from in electromagnetic PIC.

The patch's members (:meth:`MRPatch.members`, a mask over a species)
gather from ``a``; their current is deposited on ``f``, restricted to the
parent resolution into ``c``'s current, and added from there to the
parent grid: once a step on a synchronous patch, once per substep (with
weight ``1/r``) on a subcycled one, which assembles ``a`` only at each
substep, its external term extrapolated in time (between steps its ``a``
holds the last substep's field).

The patch is *fixed in the lab frame*: when the parent's moving window
shifts, only the patch's parent-index region is updated, and the patch is
removed once the region leaves the domain (or at a configured time) — the
moment the paper marks with a star in Fig. 6.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError, StabilityError
from repro.grid import compiled as native_fields
from repro.grid.interpolation import prolong, region_sample_counts, restrict
from repro.grid.maxwell import cfl_dt
from repro.grid.pml import PMLMaxwellSolver
from repro.grid.yee import FIELD_COMPONENTS, STAGGER, YeeGrid
from repro.particles.species import Species

#: How much deeper than its stay margin a particle joins a subcycled
#: patch, in fine cells of axis 0: more than the quiver amplitude of an
#: electron in the laser field at the patch edge.  Without it such
#: electrons switch levels every step, and each switch teleports their
#: charge between grids: a noise source that destabilized the fine grid.
JOIN_DEPTH_CELLS = 8


class MRPatch:
    """A two-grid (fine + coarse-companion) refinement patch.

    Parameters
    ----------
    parent:
        The parent :class:`YeeGrid`.
    region_lo, region_hi:
        Patch extent in parent *cell indices* (hi exclusive).
    ratio:
        Integer refinement ratio (2 is the paper's choice).
    dt:
        The parent time step [s].
    subcycle:
        If True the fine grid advances ``ratio`` substeps of ``dt/ratio``
        per parent step; otherwise one step of ``dt`` (which then must
        satisfy the fine-grid CFL).
    n_pml:
        PML thickness of the patch grids [cells of each grid].
    n_transition:
        Width of the transition zone, counted in cells of the fine grid's
        axis 0: the margin is ``n_transition * fine.dx[0]`` on *every*
        axis (so on an axis with a finer or coarser fine spacing it is a
        fractional number of that axis's cells).  Particles closer than
        this to the patch edge gather the parent field only.
    remove_time:
        Simulation time [s] after which the patch reports itself removable.
    """

    def __init__(
        self,
        parent: YeeGrid,
        region_lo: Sequence[int],
        region_hi: Sequence[int],
        ratio: int = 2,
        dt: float = 0.0,
        subcycle: bool = False,
        n_pml: int = 4,
        n_transition: Optional[int] = None,
        shape_order: int = 2,
        remove_time: Optional[float] = None,
    ) -> None:
        self.parent = parent
        self.region_lo = list(int(v) for v in region_lo)
        self.region_hi = list(int(v) for v in region_hi)
        if len(self.region_lo) != parent.ndim or len(self.region_hi) != parent.ndim:
            raise ConfigurationError("patch region must match parent dimensionality")
        for d in range(parent.ndim):
            if not (0 <= self.region_lo[d] < self.region_hi[d] <= parent.n_cells[d]):
                raise ConfigurationError(
                    f"patch region {self.region_lo}..{self.region_hi} outside "
                    f"parent domain {parent.n_cells}"
                )
        if ratio < 2:
            raise ConfigurationError("refinement ratio must be >= 2")
        self.ratio = int(ratio)
        self.dt = float(dt)
        self.subcycle = bool(subcycle)
        self.shape_order = int(shape_order)
        self.n_transition = (
            int(n_transition) if n_transition is not None else shape_order + 1
        )
        self.n_pml = int(n_pml)
        self.remove_time = remove_time

        n_cells_region = tuple(
            h - l for l, h in zip(self.region_lo, self.region_hi)
        )
        # physical bounds are fixed for the life of the patch (lab frame)
        self.lo = tuple(
            parent.lo[d] + self.region_lo[d] * parent.dx[d]
            for d in range(parent.ndim)
        )
        self.hi = tuple(
            parent.lo[d] + self.region_hi[d] * parent.dx[d]
            for d in range(parent.ndim)
        )
        self.fine = YeeGrid(
            tuple(n * self.ratio for n in n_cells_region),
            self.lo,
            self.hi,
            guards=parent.guards,
            dtype=parent.dtype,
        )
        self.coarse = YeeGrid(
            n_cells_region, self.lo, self.hi, guards=parent.guards, dtype=parent.dtype
        )
        self.aux = YeeGrid(
            self.fine.n_cells, self.lo, self.hi, guards=parent.guards, dtype=parent.dtype
        )

        fine_dt = self.dt / self.ratio if self.subcycle else self.dt
        self.fine_dt = fine_dt
        limit = cfl_dt(self.fine.dx, cfl=1.0)
        if fine_dt > limit * (1.0 + 1e-12):
            raise StabilityError(
                f"patch fine grid needs dt <= {limit:.3e}s "
                f"(got {fine_dt:.3e}s); enable subcycling or reduce dt"
            )
        # start from the parent solution: the coarse companion is its
        # section, the fine grid its prolongation, so the first substitution
        # returns exactly the interpolated parent
        for comp in FIELD_COMPONENTS:
            section = self._parent_section(comp)
            self.coarse.interior_view(comp)[...] = section
            fine_counts = region_sample_counts(self.fine.n_cells, STAGGER[comp])
            self.fine.interior_view(comp)[...] = prolong(
                section, self.ratio, STAGGER[comp], fine_counts
            )
        # the PML split state carries the initial field in its first part
        self.fine_solver = PMLMaxwellSolver(self.fine, fine_dt, n_pml=n_pml)
        # the coarse companion always advances with the PARENT time step:
        # the substitution cancels in-patch sources out of F(s) - F(c) only
        # if both grids apply the *identical* discrete operator (same
        # resolution, same dt) to the identical restricted sources
        self.coarse_solver = PMLMaxwellSolver(self.coarse, self.dt, n_pml=n_pml)
        #: whether this parent step's restricted fine J is in the coarse
        #: companion's J yet: the first restriction assigns, later ones add
        self._restricted = False
        #: subcycling state a restart needs: the sorted ids of the members
        #: per species (:meth:`members`), and the external term of the last
        #: parent step (:meth:`assemble_aux`)
        self._member_ids: Dict[str, np.ndarray] = {}
        self._external_prev: Optional[Dict[str, np.ndarray]] = None
        #: transfer maps of the native entries, for one region_lo
        self._transfer_plan: Optional[native_fields.TransferPlan] = None
        self.assemble_aux()

    # -- setup -------------------------------------------------------------
    def _parent_section(self, component: str) -> np.ndarray:
        """View of the parent's samples of ``component`` over the region."""
        g = self.parent.guards
        stag = STAGGER[component]
        slices = tuple(
            slice(g + self.region_lo[d], g + self.region_hi[d] + 1 - stag[d])
            for d in range(self.parent.ndim)
        )
        return self.parent.fields[component][slices]

    # -- subcycling support ---------------------------------------------------
    def begin_step(self) -> None:
        """Start a parent step: the next restriction assigns the coarse
        companion's J instead of adding to it."""
        self._restricted = False

    def accumulate_restricted_currents(self, weight: float) -> None:
        """Fold ``weight`` times the restriction of the current fine J into
        the coarse companion's J interior — the running (substep-averaged)
        current that drives it and the parent for this parent step.

        The first call of a step assigns and later ones add: adding to the
        zeroed array would turn a -0.0 into +0.0.  With the native library
        the three components are one call of the C entry
        ``restrict_currents`` over the patch's :meth:`transfer_plan`, bit
        for bit what :func:`~repro.grid.interpolation.restrict` computes
        here without it; that stays the fallback and the oracle.
        """
        first = not self._restricted
        native = native_fields.backend(self.parent.dtype)
        if native is not None:
            native.restrict_currents(self, self.transfer_plan(), weight, first)
        else:
            for comp in ("Jx", "Jy", "Jz"):
                coarse_counts = region_sample_counts(
                    self.coarse.n_cells, STAGGER[comp]
                )
                j_coarse = weight * restrict(
                    self.fine.interior_view(comp), self.ratio, STAGGER[comp],
                    coarse_counts,
                )
                target = self.coarse.interior_view(comp)
                if first:
                    target[...] = j_coarse
                else:
                    target += j_coarse
        self._restricted = True

    def apply_accumulated_currents_to_parent(self) -> None:
        """Add the step's restricted current, held in the coarse
        companion's J interior, to the parent grid, so both advance from
        exactly the same in-patch sources."""
        if self._restricted:
            for comp in ("Jx", "Jy", "Jz"):
                section = self._parent_section(comp)
                section += self.coarse.interior_view(comp)

    def margins(self) -> Tuple[float, float]:
        """``(join, stay)`` [m] of :meth:`members`: the transition margin
        twice on a synchronous patch; on a subcycled one the extraction
        margin to stay, :data:`JOIN_DEPTH_CELLS` fine cells more to join."""
        if not self.subcycle:
            return (self.transition_margin(),) * 2
        stay = self.extraction_margin()
        return stay + JOIN_DEPTH_CELLS * self.fine.dx[0], stay

    def members(self, species: Species, free: np.ndarray) -> np.ndarray:
        """Mask of the particles of ``species``, of those the mask ``free``
        holds, that advance on this patch this step; removes nothing.

        One rule for both patch kinds: a particle joins the join margin
        inside the patch and stays while it is the stay margin inside
        (:meth:`margins`).  A synchronous patch's margins coincide (its
        members are :meth:`interior_mask`); a subcycled patch remembers
        its members' ids for the next step.
        """
        join, stay = self.margins()
        x = species.positions
        mask = self.contains(x, join) & free
        if join == stay:  # one margin: no hysteresis to remember
            return mask
        was = self._member_ids.get(species.name)
        if was is not None:  # sorted, non-empty: a binary search
            band = np.flatnonzero(~mask & free & self.contains(x, stay))
            ids = species.ids[band]
            mask[band] = was[np.searchsorted(was[:-1], ids)] == ids
        if np.any(mask):
            self._member_ids[species.name] = np.sort(species.ids[mask])
        else:
            self._member_ids.pop(species.name, None)
        return mask

    # -- geometry helpers ----------------------------------------------------
    def contains(self, positions: np.ndarray, margin: float = 0.0) -> np.ndarray:
        """Mask of particles inside the patch, shrunk by ``margin`` [m]."""
        mask = np.ones(positions.shape[0], dtype=bool)
        for d in range(positions.shape[1]):
            mask &= (positions[:, d] >= self.lo[d] + margin) & (
                positions[:, d] < self.hi[d] - margin
            )
        return mask

    def transition_margin(self) -> float:
        """Width [m] of the transition zone: ``n_transition * fine.dx[0]``,
        the same length on every axis — ``n_transition`` fine cells only
        along axis 0 (1.47 fine y-cells on the hybrid deck, where
        ``n_transition`` is 3)."""
        return self.n_transition * self.fine.dx[0]

    def interior_mask(self, positions: np.ndarray) -> np.ndarray:
        """Particles that gather from the auxiliary grid (inside the patch,
        outside the transition zone)."""
        return self.contains(positions, margin=self.transition_margin())

    def interior_box(self):
        """``(lo, hi)`` of the region :meth:`interior_mask` accepts,
        ``[lo, hi)`` per axis: the bounds it compares against, as the
        fused particle pass takes its keep box."""
        margin = self.transition_margin()
        return (
            tuple(lo + margin for lo in self.lo),
            tuple(hi - margin for hi in self.hi),
        )

    # -- the MR coupling -------------------------------------------------------
    def advance_fields(self) -> None:
        """Advance the patch grids one parent step.

        A subcycled patch's fine grid already took its substeps (its
        ``fine_solver`` steps once per substep), so only its coarse
        companion advances, in lockstep with the parent operator.
        """
        if not self.subcycle:
            self.fine_solver.step()
        self.coarse_solver.step()

    def extraction_margin(self) -> float:
        """Margin [m] inside which a subcycled patch's members stay.

        Wide enough that a member moving at c for one parent
        step (``ratio`` fine cells) still deposits its whole stencil
        outside the patch PML — plasma currents inside an absorbing layer
        violate Gauss's law and destabilize dense plasmas.  Subcycled
        patches should therefore enclose their high-density region with at
        least this much underdense margin (the paper's patches conform to
        the target for the same reason).
        """
        window_half = (self.shape_order + 2) // 2 + 1
        return (self.n_pml + self.ratio + window_half) * self.fine.dx[0]

    def assemble_aux(self, substep: Optional[int] = None) -> None:
        """Build the auxiliary field F(a) = F(f) + e, e = I[F(s) - F(c)].

        At ``substep`` k of a subcycled parent step e is extrapolated in
        time, ``e + k / ratio * (e - prev)`` (the paper interpolates the
        coarse fields in time), ``prev`` being the e the patch held at its
        last parent step (:meth:`held_external`; e itself on its first);
        the last substep holds this step's e.

        With the native library all six components are one call of the C
        entry ``assemble_aux`` (:mod:`repro.grid.compiled`) over the
        patch's :meth:`transfer_plan`, bit for bit the NumPy body below,
        which stays the fallback and the oracle.
        """
        prev, t, seed, hold = None, 0.0, False, False
        if substep is not None:
            seed = self._external_prev is None
            prev, t = self.held_external(), substep / self.ratio
            hold = substep == self.ratio - 1
        native = native_fields.backend(self.parent.dtype)
        if native is not None:
            native.assemble_aux(self, self.transfer_plan(), prev, t, seed, hold)
            return
        for comp in FIELD_COMPONENTS:
            diff = self._parent_section(comp) - self.coarse.interior_view(comp)
            fine_counts = region_sample_counts(self.fine.n_cells, STAGGER[comp])
            ext = prolong(diff, self.ratio, STAGGER[comp], fine_counts)
            if prev is not None:
                held = prev[comp][self.fine.valid_slices(comp)]
                if seed:
                    held[...] = ext
                now, ext = ext, ext + t * (ext - held)
                if hold:
                    held[...] = now
            aux = self.aux.fields[comp]
            aux.fill(0.0)
            aux[self.aux.valid_slices(comp)] = self.fine.interior_view(comp) + ext

    def held_external(self) -> Dict[str, np.ndarray]:
        """The external term held per component: float64 at the fine
        grid's shape (valid samples used), made on first use."""
        if self._external_prev is None:
            self._external_prev = {
                comp: np.zeros(self.fine.shape, dtype=np.float64)
                for comp in FIELD_COMPONENTS
            }
        return self._external_prev

    def transfer_plan(self) -> "native_fields.TransferPlan":
        """The maps of the native prolongation and restriction, built once
        per ``region_lo`` (so again after a window shift or a checkpoint
        restore)."""
        plan = self._transfer_plan
        if plan is None or plan.region_lo != tuple(self.region_lo):
            plan = self._transfer_plan = native_fields.TransferPlan(self)
        return plan

    def zero_sources(self) -> None:
        self.fine.zero_sources()
        self.coarse.zero_sources()

    # -- moving window ----------------------------------------------------------
    def shift_region(self, cells: int = 1) -> None:
        """The parent window moved ``cells`` cells: the lab-fixed patch now
        sits ``cells`` earlier in the parent's index space."""
        self.region_lo[0] -= cells
        self.region_hi[0] -= cells

    def is_outside_parent(self) -> bool:
        """True once any part of the region has left the parent domain."""
        return self.region_lo[0] < 0 or any(
            self.region_hi[d] > self.parent.n_cells[d]
            for d in range(self.parent.ndim)
        )

    def should_remove(self, time: float) -> bool:
        if self.remove_time is not None and time >= self.remove_time:
            return True
        return self.is_outside_parent()

    def n_fine_cells(self) -> int:
        return int(np.prod(self.fine.n_cells))
