"""Load balancing strategies (paper Sec. V.C).

Domain decomposition assigns rectangular grid boxes to ranks.  WarpX
supports three strategies, all reproduced here:

* **round robin** — boxes dealt to ranks in order;
* **space-filling curve** — boxes sorted along a Morton (Z-order) curve
  and split into contiguous, cost-balanced segments, which keeps
  spatially close boxes on the same rank (low halo traffic);
* **knapsack** — the longest-processing-time greedy heuristic for the
  multiway partition problem, which balances cost with no regard for
  locality.

Costs per box come either from a heuristic (cells + weighted particle
count, see :class:`repro.core.costs.CostModel`) or from measured per-box
runtimes — the "measured runtime cost information" mode of the paper's
dynamic load balancer.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Sequence, Set

import numpy as np

from repro.exceptions import DecompositionError
from repro.particles.sorting import morton_encode


def _validate(costs: Sequence[float], n_ranks: int) -> np.ndarray:
    costs = np.asarray(costs, dtype=np.float64)
    if n_ranks < 1:
        raise DecompositionError("need at least one rank")
    if costs.ndim != 1 or costs.size == 0:
        raise DecompositionError("costs must be a non-empty 1D sequence")
    if np.any(costs < 0):
        raise DecompositionError("costs must be non-negative")
    return costs


def _alive_ranks(n_ranks: int, exclude_ranks: Sequence[int]) -> List[int]:
    """Ranks eligible for work: ``[0, n_ranks)`` minus the excluded set."""
    excl: Set[int] = {int(r) for r in exclude_ranks}
    alive = [r for r in range(n_ranks) if r not in excl]
    if not alive:
        raise DecompositionError(
            f"all {n_ranks} ranks excluded; nothing left to assign work to"
        )
    return alive


def distribute_round_robin(
    costs: Sequence[float], n_ranks: int, exclude_ranks: Sequence[int] = ()
) -> np.ndarray:
    """Deal boxes to the eligible ranks in order (``i % n_alive``-th)."""
    costs = _validate(costs, n_ranks)
    alive = np.asarray(_alive_ranks(n_ranks, exclude_ranks), dtype=np.intp)
    return alive[np.arange(costs.size, dtype=np.intp) % alive.size]


def distribute_knapsack(
    costs: Sequence[float], n_ranks: int, exclude_ranks: Sequence[int] = ()
) -> np.ndarray:
    """Longest-processing-time greedy multiway partition.

    Boxes are taken in decreasing cost order and each goes to the
    currently least-loaded eligible rank — the classic 4/3-approximate
    heuristic for makespan minimization.  ``exclude_ranks`` (dead ranks
    after a failure) never receive a box.
    """
    costs = _validate(costs, n_ranks)
    order = np.argsort(costs)[::-1]
    assignment = np.empty(costs.size, dtype=np.intp)
    heap = [(0.0, r) for r in _alive_ranks(n_ranks, exclude_ranks)]
    heapq.heapify(heap)
    for i in order:
        load, rank = heapq.heappop(heap)
        assignment[i] = rank
        heapq.heappush(heap, (load + costs[i], rank))
    return assignment


def sfc_order(box_centers: np.ndarray) -> np.ndarray:
    """Morton (Z-)order of fractional box centers.

    Centers of integer boxes sit on half-integers, so they are encoded as
    *doubled* integer coordinates (``2 * center``, exact for ``.0`` and
    ``.5``) before interleaving.  Plain truncation aliased the centers of
    odd-extent boxes onto one code (e.g. ``(1.0, 1.5)`` and ``(1.5, 1.0)``
    both became ``(1, 1)``), silently corrupting the curve order into the
    input order.
    """
    centers = np.asarray(box_centers, dtype=np.float64)
    if centers.ndim == 1:
        centers = centers[:, None]
    doubled = np.rint(2.0 * centers).astype(np.int64)
    codes = morton_encode([doubled[:, d] for d in range(centers.shape[1])])
    return np.argsort(codes, kind="stable")


def distribute_sfc(
    costs: Sequence[float],
    n_ranks: int,
    box_centers: Optional[np.ndarray] = None,
    exclude_ranks: Sequence[int] = (),
) -> np.ndarray:
    """Morton-ordered contiguous split with balanced cumulative cost.

    ``box_centers`` (n_boxes, ndim) are box-center coordinates used to
    compute the Morton order via :func:`sfc_order`; if omitted, the boxes
    are assumed to be already curve-ordered.  Contiguous curve segments
    go to consecutive eligible ranks, cutting whenever the running cost
    reaches the per-rank target — WarpX's default strategy, minimizing
    guard-exchange partners.
    """
    costs = _validate(costs, n_ranks)
    alive = _alive_ranks(n_ranks, exclude_ranks)
    n = costs.size
    if box_centers is not None:
        order = sfc_order(box_centers)
    else:
        order = np.arange(n)
    assignment = np.empty(n, dtype=np.intp)
    total = float(costs.sum())
    target = total / len(alive) if total > 0 else 1.0
    seg = 0
    acc = 0.0
    for idx in order:
        # move to the next rank when the current one is full (never past the last)
        if acc >= target and seg < len(alive) - 1:
            seg += 1
            acc = 0.0
        assignment[idx] = alive[seg]
        acc += costs[idx]
    return assignment


def load_imbalance(
    costs: Sequence[float],
    assignment: np.ndarray,
    n_ranks: int,
    exclude_ranks: Sequence[int] = (),
) -> float:
    """Max rank load divided by mean rank load (1.0 = perfectly balanced).

    Both statistics run over the *alive* ranks only: a dead (or otherwise
    excluded) rank carries no work by construction, and counting its zero
    load in the mean inflates max/mean — after an evacuation that would
    re-trigger pointless rebalances forever.
    """
    costs = _validate(costs, n_ranks)
    loads = np.zeros(n_ranks, dtype=np.float64)
    np.add.at(loads, np.asarray(assignment, dtype=np.intp), costs)
    alive_loads = loads[_alive_ranks(n_ranks, exclude_ranks)]
    mean = alive_loads.mean()
    if mean == 0:
        return 1.0
    return float(alive_loads.max() / mean)


def rank_loads(costs: Sequence[float], assignment: np.ndarray, n_ranks: int) -> np.ndarray:
    """Total cost per rank."""
    costs = _validate(costs, n_ranks)
    loads = np.zeros(n_ranks, dtype=np.float64)
    np.add.at(loads, np.asarray(assignment, dtype=np.intp), costs)
    return loads


def evacuate_boxes(
    costs: Sequence[float],
    assignment: np.ndarray,
    dead_rank: int,
    alive_ranks: Sequence[int],
) -> np.ndarray:
    """Reassign the boxes of a failed rank to the surviving ranks.

    The recovery-time load balancer of ``restore_and_redistribute``:
    every box currently on ``dead_rank`` goes — in decreasing cost order
    — to the least-loaded survivor, and every other box keeps its rank
    (minimal data motion, the same reasoning as the paper's incremental
    dynamic LB).  Returns the new assignment array.
    """
    costs = _validate(costs, max(int(np.max(assignment)) + 1, len(alive_ranks)))
    alive = [int(r) for r in alive_ranks]
    if not alive:
        raise DecompositionError("no surviving ranks to evacuate to")
    if dead_rank in alive:
        raise DecompositionError(
            f"dead rank {dead_rank} cannot be in the surviving set"
        )
    assignment = np.asarray(assignment, dtype=np.intp).copy()
    heap = []
    for r in alive:
        load = float(costs[assignment == r].sum())
        heap.append((load, r))
    heapq.heapify(heap)
    orphans = np.flatnonzero(assignment == dead_rank)
    for i in orphans[np.argsort(costs[orphans])[::-1]]:
        load, rank = heapq.heappop(heap)
        assignment[i] = rank
        heapq.heappush(heap, (load + costs[i], rank))
    return assignment
