"""Analytic flop / byte counts of the PIC kernels.

Each function counts the floating point operations and DRAM traffic of one
kernel per particle or per cell, parameterized by shape order and
dimensionality — mirroring how the paper measured per-opcode Flop counts
with Nsight/ROCm/fapp.  They model the algorithm (stencil points times
operations per point), not the operation count of any one implementation.

Conventions: an FMA counts as 2 Flop (as in the paper); ``field_bytes``
count each stencil value once, divided by a cross-particle cache-reuse
factor: WarpX sorts particles periodically precisely so that neighbouring
particles hit the same stencil cells in cache (Sec. VII.C), and the tiled
traversal makes an effective reuse of ~2-3 realistic.  The resulting
arithmetic intensity (~1 Flop/byte) keeps every machine of Table II
memory-bound, consistent with the measured 1-13 % of peak.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ConfigurationError

#: cross-particle cache reuse of gather/deposit field traffic
CACHE_REUSE = 2.5

#: the kernel variants of :mod:`repro.particles.kernels` the counts model
KERNEL_VARIANTS = ("vectorized", "tiled")

#: effective scatter-traffic compression of the tiled deposition: the
#: segmented reduction collapses per-tile runs of equal addresses before
#: touching DRAM, so each grid point is read-modified-written roughly
#: once per *run* (~ppc contributions) instead of once per contribution
TILED_RUN_COMPRESSION = 2.0

#: the workload whose Table III rates calibrate the model: the uniform
#: plasma weak-scaling benchmark (3D, quadratic shapes, 2 ppc)
CALIBRATION_WORKLOAD = {"order": 2, "ndim": 3, "ppc": 2.0}


@dataclass
class KernelCounts:
    """Flops and bytes of one kernel invocation unit (particle or cell)."""

    flops: float
    bytes: float

    @property
    def arithmetic_intensity(self) -> float:
        return self.flops / self.bytes if self.bytes else 0.0

    def __add__(self, other: "KernelCounts") -> "KernelCounts":
        return KernelCounts(self.flops + other.flops, self.bytes + other.bytes)

    def scaled(self, factor: float) -> "KernelCounts":
        return KernelCounts(self.flops * factor, self.bytes * factor)


def _check(order: int, ndim: int, variant: str = "vectorized") -> None:
    if order not in (1, 2, 3):
        raise ConfigurationError(f"unsupported shape order {order}")
    if ndim not in (1, 2, 3):
        raise ConfigurationError(f"unsupported ndim {ndim}")
    if variant not in KERNEL_VARIANTS:
        raise ConfigurationError(
            f"unsupported kernel variant {variant!r}; "
            f"modelled: {KERNEL_VARIANTS}"
        )


def gather_counts(
    order: int, ndim: int, itemsize: int = 8, variant: str = "vectorized"
) -> KernelCounts:
    """Field gather per particle: 6 components, (order+1)^ndim points each.

    The ``tiled`` variant shares the per-axis shape weights across the six
    components (two distinct stagger offsets per axis), cutting the weight
    evaluation from ``6 * ndim`` to ``2 * ndim`` per particle; traffic is
    unchanged.
    """
    _check(order, ndim, variant)
    pts = (order + 1) ** ndim
    # per-axis weight evaluation: ~8 flops per weight entry; the tiled
    # shape-weight cache evaluates each of the 2 stagger lattices once
    weight_evals = 2 * ndim if variant == "tiled" else 6 * ndim
    weight_flops = weight_evals * 8 * (order + 1)
    # accumulation: one FMA per stencil point per component, plus the
    # per-point weight product (ndim-1 multiplies)
    accum_flops = 6 * pts * (2 + (ndim - 1))
    field_bytes = 6 * pts * itemsize / CACHE_REUSE
    particle_bytes = (ndim + 6) * itemsize  # read x, write E,B per particle
    return KernelCounts(weight_flops + accum_flops, field_bytes + particle_bytes)


def push_counts(itemsize: int = 8) -> KernelCounts:
    """Boris momentum + position push per particle."""
    # half kick (6) + gamma (8) + t,s vectors (12) + two cross products (2*9)
    # + half kick (6) + position update (3*4) ~ 62 flops
    flops = 62.0
    # read u, E, B; write u; read/write x
    bytes_ = (3 + 3 + 3 + 3 + 2 * 3) * itemsize
    return KernelCounts(flops, bytes_)


def deposit_counts(
    order: int, ndim: int, itemsize: int = 8, variant: str = "vectorized"
) -> KernelCounts:
    """Esirkepov current deposition per particle.

    The ``tiled`` variant models the fast path: the minimal
    ``order + 2``-point window (the dropped ``order + 3`` column is
    always exactly zero) shrinks every per-axis count, and the
    segmented-reduction scatter pre-sums sorted per-tile runs in
    registers/cache, dividing the grid read-modify-write traffic by
    :data:`TILED_RUN_COMPRESSION` (additions are reassociated, never
    dropped).
    """
    _check(order, ndim, variant)
    k = order + 2 if variant == "tiled" else order + 3  # window per axis
    pts = k**ndim
    # S0/S1 evaluation: 2 * ndim * K spline evaluations, ~10 flops each
    spline_flops = 2 * ndim * k * 10
    # W products + cumulative sums: ~4 flops per window point per axis
    w_flops = ndim * pts * 4
    # scatter: 1 add per point per current component
    scatter_flops = ndim * pts
    field_bytes = ndim * pts * 2 * itemsize / CACHE_REUSE  # read-modify-write
    if variant == "tiled":
        field_bytes /= TILED_RUN_COMPRESSION
    particle_bytes = (2 * ndim + 3 + 1) * itemsize  # x_old, x_new, v, w
    return KernelCounts(
        spline_flops + w_flops + scatter_flops, field_bytes + particle_bytes
    )


def maxwell_counts(ndim: int, itemsize: int = 8) -> KernelCounts:
    """FDTD field update per cell: 6 components, 2-term curls + J term."""
    # per component: 2 diffs (2 flops each incl. 1/dx) + axpy (2) ~ 6-8
    active_terms = {1: 4, 2: 10, 3: 12}[ndim]  # curl terms that survive
    flops = active_terms * 4 + 3 * 4  # curl work + J source terms
    # each component read + written once, sources read
    bytes_ = (6 * 2 + 3) * itemsize
    return KernelCounts(float(flops), float(bytes_))


def smoothing_counts(ndim: int, passes: int, itemsize: int = 8) -> KernelCounts:
    """Binomial current filter per cell."""
    flops = 3.0 * ndim * passes * 4
    bytes_ = 3.0 * ndim * passes * 2 * itemsize
    return KernelCounts(flops, bytes_)


def pic_step_counts(
    order: int = 3,
    ndim: int = 3,
    ppc: float = 1.0,
    smoothing_passes: int = 0,
    itemsize: int = 8,
    variant: str = "vectorized",
) -> KernelCounts:
    """Total flops/bytes of one PIC step *per cell*, with ``ppc`` particles.

    This is the quantity the roofline model multiplies by cells/device.
    """
    per_particle = gather_counts(order, ndim, itemsize, variant) + push_counts(
        itemsize
    )
    per_particle = per_particle + deposit_counts(order, ndim, itemsize, variant)
    per_cell = maxwell_counts(ndim, itemsize)
    if smoothing_passes:
        per_cell = per_cell + smoothing_counts(ndim, smoothing_passes, itemsize)
    return per_cell + per_particle.scaled(ppc)


def mixed_precision_counts(
    order: int = 2, ndim: int = 3, ppc: float = 2.0, smoothing_passes: int = 0
) -> dict:
    """Counts for WarpX's mixed-precision mode.

    Field arrays and field-side arithmetic run in single precision (4-byte
    traffic, SP flops); every operation touching raw particle positions —
    the pusher, the shape-weight and Esirkepov spline evaluations — stays
    double, "the numerically sensitive particle-related operations" of
    Sec. VI.  The split is computed from the same per-kernel counts as the
    DP mode: the weight/spline evaluation flops move to the DP bucket, the
    stencil accumulation/scatter flops and all field traffic to SP.
    """
    k = order + 3
    pts_gather = (order + 1) ** ndim
    pts_dep = k**ndim
    # DP bucket: pusher + per-axis weight/spline evaluations (position math)
    dp_flops = (
        push_counts().flops
        + 6 * ndim * 8 * (order + 1)  # gather weight evaluation
        + 2 * ndim * k * 10  # Esirkepov S0/S1 spline evaluation
    )
    dp_bytes = push_counts().bytes + (3 * ndim + 4) * 8  # particle reads stay DP
    # SP bucket: stencil accumulation, W products, scatter, field solve
    sp_flops = (
        6 * pts_gather * (2 + (ndim - 1))
        + ndim * pts_dep * 4
        + ndim * pts_dep
    )
    sp_bytes = (6 * pts_gather + ndim * pts_dep * 2) * 4 / CACHE_REUSE
    per_cell_sp = maxwell_counts(ndim, itemsize=4)
    if smoothing_passes:
        per_cell_sp = per_cell_sp + smoothing_counts(ndim, smoothing_passes, itemsize=4)
    return {
        "sp": per_cell_sp + KernelCounts(sp_flops, sp_bytes).scaled(ppc),
        "dp": KernelCounts(dp_flops, dp_bytes).scaled(ppc),
    }
