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

Particles inside the patch (outside a transition zone of a few fine cells
at the patch edge) gather from ``a``; their current is deposited on ``f``,
restricted to the parent resolution, and added both to the parent grid and
to ``c``.

The patch is *fixed in the lab frame*: when the parent's moving window
shifts, only the patch's parent-index region is updated, and the patch is
removed once the region leaves the domain (or at a configured time) — the
moment the paper marks with a star in Fig. 6.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError, StabilityError
from repro.grid.interpolation import prolong, region_sample_counts, restrict
from repro.grid.maxwell import cfl_dt
from repro.grid.pml import PMLMaxwellSolver
from repro.grid.yee import FIELD_COMPONENTS, STAGGER, YeeGrid


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
        Width of the transition zone in *fine* cells: particles closer
        than this to the patch edge gather the parent field only.
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
        self.fine_solver = PMLMaxwellSolver(self.fine, fine_dt, n_pml=n_pml)
        # the coarse companion always advances with the PARENT time step:
        # the substitution cancels in-patch sources out of F(s) - F(c) only
        # if both grids apply the *identical* discrete operator (same
        # resolution, same dt) to the identical restricted sources
        self.coarse_solver = PMLMaxwellSolver(self.coarse, self.dt, n_pml=n_pml)
        #: running average of the restricted substep currents (subcycling)
        self._accumulated_j: Dict[str, np.ndarray] = {}
        self._init_fields_from_parent()

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

    def _init_fields_from_parent(self) -> None:
        """Start the patch from the parent solution: fine fields are the
        prolongation, the coarse companion is the parent section, so the
        initial substitution returns exactly the interpolated parent."""
        for comp in FIELD_COMPONENTS:
            section = self._parent_section(comp)
            self.coarse.interior_view(comp)[...] = section
            fine_counts = region_sample_counts(self.fine.n_cells, STAGGER[comp])
            self.fine.interior_view(comp)[...] = prolong(
                section, self.ratio, STAGGER[comp], fine_counts
            )
        # the PML split state carries the initial field in its first part;
        # re-seed the solvers so their splits match the injected fields
        self.fine_solver = PMLMaxwellSolver(
            self.fine, self.fine_solver.dt, n_pml=self.fine_solver.n_pml
        )
        self.coarse_solver = PMLMaxwellSolver(
            self.coarse, self.coarse_solver.dt, n_pml=self.coarse_solver.n_pml
        )
        self.assemble_aux()

    # -- subcycling support ---------------------------------------------------
    def begin_step(self) -> None:
        """Reset the per-step accumulator of restricted substep currents."""
        self._accumulated_j = {}

    def accumulate_restricted_currents(self, weight: float) -> None:
        """Fold ``weight`` times the restriction of the current fine J into
        the running average that will drive the parent and the coarse
        companion for this parent step."""
        for comp in ("Jx", "Jy", "Jz"):
            coarse_counts = region_sample_counts(self.coarse.n_cells, STAGGER[comp])
            j_coarse = restrict(
                self.fine.interior_view(comp), self.ratio, STAGGER[comp], coarse_counts
            )
            if comp in self._accumulated_j:
                self._accumulated_j[comp] += weight * j_coarse
            else:
                self._accumulated_j[comp] = weight * j_coarse

    def apply_accumulated_currents_to_parent(self) -> None:
        """Feed the substep-averaged restricted current to the parent grid
        *and* to the coarse companion, so both advance from exactly the
        same in-patch sources."""
        for comp, j in self._accumulated_j.items():
            self._parent_section(comp)[...] += j
            self.coarse.interior_view(comp)[...] = j

    def substep_fields(self) -> None:
        """One fine-grid field substep (subcycling mode).

        Only the fine grid advances inside the substep loop; the coarse
        companion advances once per parent step, in lockstep with the
        parent operator.
        """
        self.fine_solver.step()

    def frozen_external(self) -> Dict[str, np.ndarray]:
        """The external contribution I[F(s) - F(c)] at the current time,
        on the fine lattice — held fixed during the substeps of one parent
        step (the paper's full algorithm interpolates it in time)."""
        out = {}
        for comp in FIELD_COMPONENTS:
            diff = self._parent_section(comp) - self.coarse.interior_view(comp)
            fine_counts = region_sample_counts(self.fine.n_cells, STAGGER[comp])
            out[comp] = prolong(diff, self.ratio, STAGGER[comp], fine_counts)
        return out

    def assemble_aux_with_external(self, external: Dict[str, np.ndarray]) -> None:
        """Rebuild the auxiliary field from the current fine solution plus a
        precomputed (frozen) external contribution."""
        for comp in FIELD_COMPONENTS:
            aux = self.aux.fields[comp]
            aux.fill(0.0)
            aux[self.aux.valid_slices(comp)] = (
                self.fine.interior_view(comp) + external[comp]
            )

    # -- geometry helpers ----------------------------------------------------
    def contains(self, positions: np.ndarray, margin: float = 0.0) -> np.ndarray:
        """Mask of particles inside the patch, shrunk by ``margin`` [m]."""
        mask = np.ones(positions.shape[0], dtype=bool)
        for d in range(positions.shape[1]):
            mask &= (positions[:, d] >= self.lo[d] + margin) & (
                positions[:, d] < self.hi[d] - margin
            )
        return mask

    def interior_mask(self, positions: np.ndarray) -> np.ndarray:
        """Particles that gather from the auxiliary grid (inside the patch,
        outside the transition zone)."""
        margin = self.n_transition * self.fine.dx[0]
        return self.contains(positions, margin=margin)

    # -- the MR coupling -------------------------------------------------------
    def restrict_currents_to_parent(self) -> None:
        """Restrict the fine-grid J to the parent and the coarse companion.

        Must run after all species have deposited and before the field
        advance.  Only particles a transition-zone margin inside the patch
        deposit on the fine grid (margin >= stencil reach, so nothing
        lands in the fine guards); particles in the margin deposit on the
        parent directly and reach the patch interior as *external* sources
        through the substitution.
        """
        self.begin_step()
        self.accumulate_restricted_currents(1.0)
        self.apply_accumulated_currents_to_parent()

    def advance_fields(self) -> None:
        """Advance the patch grids one parent step (non-subcycled mode).

        Subcycled patches advance via :meth:`substep_fields` inside the
        particle substep loop of the MR simulation instead.
        """
        self.fine_solver.step()
        self.coarse_solver.step()

    def extraction_margin(self) -> float:
        """Margin [m] inside which particles join the subcycled loop.

        Wide enough that an extracted particle moving at c for one parent
        step (``ratio`` fine cells) still deposits its whole stencil
        outside the patch PML — plasma currents inside an absorbing layer
        violate Gauss's law and destabilize dense plasmas.  Subcycled
        patches should therefore enclose their high-density region with at
        least this much underdense margin (the paper's patches conform to
        the target for the same reason).
        """
        window_half = (self.shape_order + 2) // 2 + 1
        return (self.n_pml + self.ratio + window_half) * self.fine.dx[0]

    def assemble_aux(self) -> None:
        """Build the auxiliary field F(a) = F(f) + I[F(s) - F(c)]."""
        self.assemble_aux_with_external(self.frozen_external())

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
