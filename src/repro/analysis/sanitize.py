"""Runtime invariant sanitizers for the PIC step (opt-in, ``REPRO_SANITIZE=1``).

Invariants the paper's production runs rely on, checked live:

======  ==================================================================
SAN001  fields stay finite after every solve (no silent NaN/Inf
        propagation through the Maxwell push)
SAN002  particles stay inside the domain after push + boundaries /
        redistribution
SAN003  guard cells on periodic axes hold the exact periodic image of
        the valid data after the halo/boundary exchange (guard-cell
        write discipline: nothing scribbled outside its valid region)
SAN004  the communicator is quiescent between steps: no undelivered
        messages and no unrecovered in-flight faults (lost or delayed
        messages left over by the resilient transport)
SAN005  gather/deposit stencils stay inside the padded field arrays:
        the flat-address arithmetic of the kernels would wrap a negative
        base index around to the far end of the array and silently
        corrupt fields for particles outside the guard region
======  ==================================================================

Violations raise :class:`~repro.exceptions.SanitizerError` with the step
and the offending field/species named.  The hooks are wired into
:class:`~repro.core.simulation.Simulation` (every MR patch grid
included) and
:class:`~repro.parallel.distributed.DistributedSimulation`; they cost
one pass over the data per step and are disabled unless the
``REPRO_SANITIZE`` environment variable is set to a truthy value.
"""

from __future__ import annotations

import os
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from repro.exceptions import SanitizerError
from repro.grid.yee import FIELD_COMPONENTS, STAGGER, YeeGrid


def _axis_slice(ndim: int, axis: int, sl: slice):
    out = [slice(None)] * ndim
    out[axis] = sl
    return tuple(out)


class Sanitizer:
    """The runtime invariant checks, as one hookable object.

    Simulations hold ``self.sanitizer`` (``None`` when disabled) and call
    the ``check_*`` methods at the matching points of the step; tests may
    construct a :class:`Sanitizer` directly to check a grid or a species
    on demand.
    """

    ENV_VAR = "REPRO_SANITIZE"
    _FALSY = ("", "0", "false", "off", "no")

    @classmethod
    def enabled_in_env(cls, env: Optional[Mapping[str, str]] = None) -> bool:
        mapping = os.environ if env is None else env
        return mapping.get(cls.ENV_VAR, "").strip().lower() not in cls._FALSY

    @classmethod
    def from_env(
        cls, env: Optional[Mapping[str, str]] = None
    ) -> Optional["Sanitizer"]:
        """A :class:`Sanitizer` if ``REPRO_SANITIZE`` is truthy, else None."""
        return cls() if cls.enabled_in_env(env) else None

    # -- SAN001 ------------------------------------------------------------
    def check_fields_finite(
        self,
        grid: YeeGrid,
        step: int,
        components: Sequence[str] = FIELD_COMPONENTS,
        where: str = "field solve",
        label: str = "",
    ) -> None:
        """Raise if any listed component contains NaN/Inf."""
        for comp in components:
            arr = grid.fields[comp]
            finite = np.isfinite(arr)
            if not finite.all():
                bad = int(arr.size - np.count_nonzero(finite))
                raise SanitizerError(
                    f"SAN001 step {step}: non-finite values in field {comp}"
                    f"{label} after {where} ({bad} of {arr.size} samples)"
                )

    # -- SAN002 ------------------------------------------------------------
    def check_particles_in_domain(
        self,
        name: str,
        positions: np.ndarray,
        lo: Sequence[float],
        hi: Sequence[float],
        step: int,
        where: str = "particle boundaries",
    ) -> None:
        """Raise if any particle sits outside ``[lo, hi]`` on any axis.

        The upper bound is inclusive: a periodic wrap may round a tiny
        negative coordinate to exactly ``hi``, which the deposition
        kernels handle; anything strictly beyond is a lost particle.
        """
        if positions.shape[0] == 0:
            return
        for axis in range(positions.shape[1]):
            x = positions[:, axis]
            out = (x < lo[axis]) | (x > hi[axis])
            n_out = int(np.count_nonzero(out))
            if n_out:
                worst = float(x[out][np.argmax(np.abs(x[out] - lo[axis]))])
                raise SanitizerError(
                    f"SAN002 step {step}: {n_out} particle(s) of species "
                    f"{name!r} outside domain on axis {axis} after {where} "
                    f"(bounds [{lo[axis]!r}, {hi[axis]!r}], worst {worst!r})"
                )

    # -- SAN003 ------------------------------------------------------------
    def check_guard_consistency(
        self,
        grid: YeeGrid,
        axis: int,
        step: int,
        components: Sequence[str] = FIELD_COMPONENTS,
        label: str = "",
    ) -> None:
        """Raise unless guards along a periodic ``axis`` equal their image.

        Mirrors the slices of :func:`repro.grid.boundary.apply_periodic`
        exactly: after a halo/boundary exchange the low guards must equal
        the top of the valid region, the high guards the bottom, and the
        duplicated nodal plane its twin.  Any divergence means some
        kernel wrote into guard cells after the exchange.
        """
        g = grid.guards
        n = grid.n_cells[axis]
        for comp in components:
            arr = grid.fields[comp]
            stag = STAGGER[comp][axis]
            nd = arr.ndim
            checks = [
                ("low guards", slice(0, g), slice(n, n + g)),
            ]
            hi0 = g + n + 1 - stag
            checks.append(
                ("high guards", slice(hi0, hi0 + g + stag),
                 slice(g + 1 - stag, g + 1 + g))
            )
            if stag == 0:
                checks.append(
                    ("duplicated nodal plane", slice(g + n, g + n + 1),
                     slice(g, g + 1))
                )
            for what, guard_sl, image_sl in checks:
                guard = arr[_axis_slice(nd, axis, guard_sl)]
                image = arr[_axis_slice(nd, axis, image_sl)]
                if not np.array_equal(guard, image):
                    n_bad = int(np.count_nonzero(guard != image))
                    raise SanitizerError(
                        f"SAN003 step {step}: guard-cell write discipline "
                        f"violated for field {comp}{label} on axis {axis} "
                        f"({what} differ from their periodic image in "
                        f"{n_bad} sample(s))"
                    )

    # -- SAN004 ------------------------------------------------------------
    def check_comm_quiescent(self, comm, step: int) -> None:
        """Raise unless the communicator is drained between steps.

        Every message sent during a step must have been received by its
        end, and — under fault injection — no lost or delayed message may
        still be in flight: an unrecovered fault crossing a step boundary
        is exactly the silent-wrong-answer mode the resilience layer
        exists to rule out.
        """
        pending = comm.pending()
        if pending:
            raise SanitizerError(
                f"SAN004 step {step}: {pending} undelivered message(s) in "
                "the communicator at end of step"
            )
        lost = sum(len(v) for v in getattr(comm, "_lost", {}).values())
        delayed = sum(len(v) for v in getattr(comm, "_delayed", {}).values())
        if lost or delayed:
            raise SanitizerError(
                f"SAN004 step {step}: unrecovered in-flight fault(s) at end "
                f"of step ({lost} lost, {delayed} delayed message(s))"
            )

    # -- SAN005 ------------------------------------------------------------
    def check_stencil_bounds(
        self,
        kernel: str,
        component: str,
        base_indices: Sequence[np.ndarray],
        width: int,
        shape: Sequence[int],
    ) -> None:
        """Raise if any particle's stencil leaves the padded field array.

        ``base_indices`` holds the per-axis first stencil point of each
        particle; the stencil covers ``[base, base + width)``.  The
        gather/deposit kernels address the field through flattened-index
        arithmetic, where a negative base silently wraps to the far end
        of the array — this check turns that corruption into an error.
        """
        for axis, base in enumerate(base_indices):
            if base.size == 0:
                continue
            lo = int(base.min())
            hi = int(base.max()) + int(width)
            if lo < 0 or hi > int(shape[axis]):
                bad = np.count_nonzero(
                    (base < 0) | (base + width > shape[axis])
                )
                raise SanitizerError(
                    f"SAN005: {bad} particle stencil(s) out of range in "
                    f"{kernel} for {component} on axis {axis} (stencil "
                    f"span [{lo}, {hi}) vs array extent {shape[axis]}); "
                    "the flat-address arithmetic would wrap around and "
                    "corrupt far-away samples"
                )

    # -- convenience -------------------------------------------------------
    def check_species_map(
        self,
        species: Mapping[str, "object"],
        lo: Sequence[float],
        hi: Sequence[float],
        step: int,
        where: str = "particle boundaries",
    ) -> None:
        """SAN002 over a ``{name: Species}`` mapping."""
        for name, sp in species.items():
            positions = getattr(sp, "positions", None)
            if positions is not None and getattr(sp, "n", 0):
                self.check_particles_in_domain(
                    name, positions, lo, hi, step, where=where
                )
