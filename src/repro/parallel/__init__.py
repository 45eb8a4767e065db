"""Parallelism substrate: AMReX-style block decomposition and a simulated
MPI layer.

The paper's runs decompose each refinement level into rectangular boxes
distributed over MPI ranks, with guard-cell halo exchange and particle
redistribution.  Here the same algorithmic structure runs inside one
process: guard-cell regions, deposit folds, redistributed particles and
migrated boxes all travel as real payloads through :class:`SimComm`
``send``/``recv`` — coalesced into one message per rank pair and phase —
so the byte/message accounting the performance model consumes *is* the
data that moved, while the physics of a decomposed run is verified to
match the monolithic run to machine precision.
"""

from repro.parallel.box import Box, chop_domain
from repro.parallel.distribution import DistributionMapping
from repro.parallel.comm import SimComm
from repro.parallel.halo import (
    HaloExchangeStats,
    HaloOverlap,
    assemble_global,
    exchange_halos,
    fold_sources_pairwise,
    neighbor_overlaps,
)
from repro.parallel.redistribute import migrate_boxes, redistribute_particles
from repro.parallel.distributed import DistributedSimulation

__all__ = [
    "Box",
    "chop_domain",
    "DistributionMapping",
    "SimComm",
    "HaloExchangeStats",
    "HaloOverlap",
    "assemble_global",
    "exchange_halos",
    "fold_sources_pairwise",
    "neighbor_overlaps",
    "migrate_boxes",
    "redistribute_particles",
    "DistributedSimulation",
]
