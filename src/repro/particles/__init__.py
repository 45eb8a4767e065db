"""Particle substrate: structure-of-arrays species containers, relativistic
pushers, B-spline shape factors, field gather and charge-conserving current
deposition kernels in a two-entry table of tiers (NumPy and native) built
at import, particle sorting and plasma injection."""

from repro.particles.species import Species
from repro.particles.shapes import (
    ShapeWeightCache,
    bspline,
    shape_weights,
    required_guards,
)
from repro.particles.pusher import push_boris, push_vay, push_positions, lorentz_factor
from repro.particles.advance import advance_particles
from repro.particles.gather import gather_fields
from repro.particles.deposit import (
    deposit_current_esirkepov,
    deposit_current_direct,
    deposit_charge,
)
from repro.particles.kernels import (
    FLOAT32_ERROR_BUDGET,
    KernelSet,
    available_kernel_variants,
    get_kernel_set,
    kernel_tier_status,
    resolve_kernel_set,
    validate_kernel_set,
)
from repro.particles.sorting import morton_bin_particles, sort_species_by_bin
from repro.particles.ionization import ADKIonization, adk_rate, barrier_suppression_field
from repro.particles.injection import (
    DensityProfile,
    UniformProfile,
    SlabProfile,
    BoxProfile,
    GasJetProfile,
    HybridTargetProfile,
    inject_plasma,
)

__all__ = [
    "Species",
    "ShapeWeightCache",
    "bspline",
    "shape_weights",
    "required_guards",
    "push_boris",
    "push_vay",
    "push_positions",
    "advance_particles",
    "lorentz_factor",
    "gather_fields",
    "deposit_current_esirkepov",
    "deposit_current_direct",
    "deposit_charge",
    "FLOAT32_ERROR_BUDGET",
    "KernelSet",
    "available_kernel_variants",
    "get_kernel_set",
    "kernel_tier_status",
    "resolve_kernel_set",
    "validate_kernel_set",
    "morton_bin_particles",
    "sort_species_by_bin",
    "ADKIonization",
    "adk_rate",
    "barrier_suppression_field",
    "DensityProfile",
    "UniformProfile",
    "SlabProfile",
    "BoxProfile",
    "GasJetProfile",
    "HybridTargetProfile",
    "inject_plasma",
]
