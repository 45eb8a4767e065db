"""Preconfigured physics scenarios: the uniform-plasma benchmark workload,
a laser-wakefield accelerator in a gas jet, and the paper's hybrid
solid-gas target science case."""

from repro.scenarios.uniform_plasma import build_uniform_plasma
from repro.scenarios.lwfa import build_lwfa
from repro.scenarios.hybrid_target import HybridTargetSetup, build_hybrid_target
from repro.scenarios.boosted_lwfa import (
    BoostedLWFASetup,
    build_monolithic as build_boosted_lwfa,
    make_distributed_build as make_boosted_lwfa_build,
    pulse_fill as boosted_lwfa_pulse_fill,
)

__all__ = [
    "build_uniform_plasma",
    "build_lwfa",
    "HybridTargetSetup",
    "build_hybrid_target",
    "BoostedLWFASetup",
    "build_boosted_lwfa",
    "make_boosted_lwfa_build",
    "boosted_lwfa_pulse_fill",
]
