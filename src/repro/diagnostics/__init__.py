"""Diagnostics: energy budgets, beam properties, particle spectra,
checkpoints, the Gauss-law monitor and wall-clock timers with per-kernel
breakdowns."""

from repro.diagnostics.energy import EnergyDiagnostic
from repro.diagnostics.beam import beam_charge, beam_statistics, BeamHistory
from repro.diagnostics.spectrum import energy_spectrum, spectral_peak_and_spread
from repro.diagnostics.timers import Timers
from repro.diagnostics.io import save_checkpoint, load_checkpoint
from repro.diagnostics.gauss import gauss_law_residual, GaussLawMonitor

__all__ = [
    "EnergyDiagnostic",
    "beam_charge",
    "beam_statistics",
    "BeamHistory",
    "energy_spectrum",
    "spectral_peak_and_spread",
    "Timers",
    "save_checkpoint",
    "load_checkpoint",
    "gauss_law_residual",
    "GaussLawMonitor",
]
