"""Core mesh-refined PIC engine: the explicit PIC cycle (Fig. 3 of the
paper) whose :class:`Simulation` carries the electromagnetic
mesh-refinement patches (Sec. V.B, :class:`MRPatch`) and their
subcycling, the moving window, and the multi-level load balancing
(Sec. V.C)."""

from repro.core.simulation import Simulation
from repro.core.moving_window import MovingWindow
from repro.core.mr_level import MRPatch
from repro.core.load_balance import (
    distribute_round_robin,
    distribute_sfc,
    distribute_knapsack,
    load_imbalance,
)
from repro.core.costs import CostModel
from repro.core.boosted_frame import BoostedFrame

__all__ = [
    "Simulation",
    "MovingWindow",
    "MRPatch",
    "distribute_round_robin",
    "distribute_sfc",
    "distribute_knapsack",
    "load_imbalance",
    "CostModel",
    "BoostedFrame",
]
