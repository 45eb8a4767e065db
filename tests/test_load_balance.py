"""Tests for the load-balancing strategies (paper Sec. V.C)."""

import numpy as np
import pytest

from repro.core.costs import CostModel
from repro.core.load_balance import (
    distribute_knapsack,
    distribute_round_robin,
    distribute_sfc,
    load_imbalance,
    rank_loads,
)
from repro.exceptions import DecompositionError
from repro.parallel.box import chop_domain
from repro.parallel.distribution import DistributionMapping


def test_round_robin_pattern():
    ranks = distribute_round_robin(np.ones(7), 3)
    np.testing.assert_array_equal(ranks, [0, 1, 2, 0, 1, 2, 0])


def test_knapsack_balances_skewed_costs():
    """One heavy box plus many light ones: knapsack packs lights together."""
    costs = np.array([100.0] + [1.0] * 99)
    assignment = distribute_knapsack(costs, 2)
    loads = rank_loads(costs, assignment, 2)
    assert loads.max() / loads.mean() < 1.05
    # round robin on the same costs is terrible
    rr = distribute_round_robin(costs, 2)
    assert load_imbalance(costs, rr, 2) > 1.4


def test_knapsack_beats_sfc_on_imbalanced_input():
    rng = np.random.default_rng(11)
    costs = rng.pareto(1.0, size=64) + 0.1
    centers = rng.integers(0, 16, size=(64, 2))
    imb_ks = load_imbalance(costs, distribute_knapsack(costs, 8), 8)
    imb_sfc = load_imbalance(costs, distribute_sfc(costs, 8, centers), 8)
    assert imb_ks <= imb_sfc + 1e-9


def test_sfc_contiguity_on_uniform_costs():
    """Uniform costs: the SFC split assigns contiguous Morton segments."""
    boxes = chop_domain((16, 16), 4)  # 4x4 boxes
    centers = np.array([b.center() for b in boxes])
    costs = np.ones(len(boxes))
    assignment = distribute_sfc(costs, 4, centers)
    loads = rank_loads(costs, assignment, 4)
    np.testing.assert_allclose(loads, 4.0)
    # Morton-sorted traversal visits each rank exactly once (contiguous)
    from repro.particles.sorting import morton_encode

    codes = morton_encode(
        [centers[:, 0].astype(np.int64), centers[:, 1].astype(np.int64)]
    )
    order = np.argsort(codes)
    changes = np.count_nonzero(np.diff(assignment[order]))
    assert changes == 3


def test_sfc_without_centers_uses_given_order():
    costs = np.ones(8)
    assignment = distribute_sfc(costs, 2)
    np.testing.assert_array_equal(assignment, [0, 0, 0, 0, 1, 1, 1, 1])


def test_all_strategies_use_every_rank():
    costs = np.ones(16)
    for strat in (distribute_round_robin, distribute_knapsack):
        assert set(strat(costs, 4)) == {0, 1, 2, 3}
    assert set(distribute_sfc(costs, 4)) == {0, 1, 2, 3}


def test_validation_errors():
    with pytest.raises(DecompositionError):
        distribute_round_robin(np.ones(4), 0)
    with pytest.raises(DecompositionError):
        distribute_knapsack(np.array([-1.0]), 2)
    with pytest.raises(DecompositionError):
        distribute_sfc(np.array([]), 2)


def test_load_imbalance_bounds():
    costs = np.ones(8)
    perfect = distribute_round_robin(costs, 4)
    assert load_imbalance(costs, perfect, 4) == pytest.approx(1.0)
    all_on_one = np.zeros(8, dtype=np.intp)
    assert load_imbalance(costs, all_on_one, 4) == pytest.approx(4.0)
    assert load_imbalance(np.zeros(4), perfect[:4], 4) == 1.0


def test_distribution_mapping_rebalance_counts_moves():
    boxes = chop_domain((16, 16), 4)
    dm = DistributionMapping(boxes, 4, strategy="knapsack")
    # skew the costs heavily toward the first boxes
    costs = np.ones(len(boxes))
    costs[:4] = 50.0
    moved = dm.rebalance(costs)
    assert moved >= 0
    assert dm.imbalance(costs) < 1.5


def test_distribution_mapping_validation():
    boxes = chop_domain((8, 8), 4)
    with pytest.raises(DecompositionError):
        DistributionMapping(boxes, 2, strategy="random")
    with pytest.raises(DecompositionError):
        DistributionMapping(boxes, 0)
    with pytest.raises(DecompositionError):
        DistributionMapping(boxes, 2, costs=[1.0])


def test_distribution_mapping_boxes_of():
    boxes = chop_domain((8, 8), 4)
    dm = DistributionMapping(boxes, 2, strategy="round_robin")
    assert sorted(dm.boxes_of(0) + dm.boxes_of(1)) == list(range(4))
    assert dm.rank_of(0) == 0


def test_cost_model_heuristic_weights():
    cm = CostModel(alpha=0.1, beta=0.9)
    costs = cm.heuristic([100, 100], [0, 100])
    assert costs[0] == pytest.approx(10.0)
    assert costs[1] == pytest.approx(100.0)


def test_cost_model_measured_ema():
    cm = CostModel(smoothing=0.5)
    cm.record_measured(0, 1.0)
    cm.record_measured(0, 2.0)
    assert cm.measured([0])[0] == pytest.approx(1.5)
    assert cm.measured([1], default=7.0)[0] == 7.0


# -- dead-rank exclusion and accounting regressions --------------------------


def test_strategies_never_assign_to_excluded_ranks():
    """Regression: a dead rank must not be resurrected by any strategy."""
    costs = np.ones(12)
    dead = {1, 3}
    rr = distribute_round_robin(costs, 4, exclude_ranks=dead)
    ks = distribute_knapsack(costs, 4, exclude_ranks=dead)
    sfc = distribute_sfc(costs, 4, exclude_ranks=dead)
    for assignment in (rr, ks, sfc):
        assert set(assignment) == {0, 2}
    # balanced over the survivors
    assert load_imbalance(costs, ks, 4, exclude_ranks=dead) == pytest.approx(1.0)


def test_exclude_all_ranks_raises():
    with pytest.raises(DecompositionError):
        distribute_knapsack(np.ones(4), 2, exclude_ranks={0, 1})


def test_rebalance_respects_excluded_ranks():
    boxes = chop_domain((16, 16), 4)
    dm = DistributionMapping(boxes, 4, strategy="knapsack")
    costs = np.ones(len(boxes))
    costs[:4] = 50.0
    dm.rebalance(costs, exclude_ranks={2})
    assert 2 not in set(dm.assignment)
    assert dm.imbalance(costs, exclude_ranks={2}) < 1.5


def test_load_imbalance_averages_over_alive_ranks_only():
    """Regression: an excluded (dead) rank's zero load must not deflate
    the mean.  6 unit boxes on ranks {0,2,3} of 4: with rank 1 dead the
    survivors are perfectly balanced."""
    costs = np.ones(6)
    assignment = np.array([0, 0, 2, 2, 3, 3])
    # the buggy all-ranks average reported 2 / 1.5 = 1.333...
    assert load_imbalance(costs, assignment, 4) == pytest.approx(4.0 / 3.0)
    assert load_imbalance(
        costs, assignment, 4, exclude_ranks={1}
    ) == pytest.approx(1.0)


def test_sfc_order_resolves_half_integer_centers():
    """Regression: box centers sit on half-integers; truncating them to
    int aliased distinct boxes to the same Morton cell.  With doubled
    integer coordinates (2, 3) vs (3, 2) the codes differ and the
    y-major Morton convention orders the second box first."""
    from repro.core.load_balance import sfc_order

    centers = np.array([[1.0, 1.5], [1.5, 1.0]])
    np.testing.assert_array_equal(sfc_order(centers), [1, 0])


def test_distribute_sfc_splits_aliased_centers():
    """With the truncation bug both odd-sized boxes collapsed onto one
    Morton cell, so the stable sort degenerated to input order; the
    doubled-coordinate encoding keeps the curve meaningful."""
    boxes = chop_domain((6, 6), 3)  # 2x2 boxes of 3x3 cells: centers *.5
    centers = np.array([b.center() for b in boxes])
    assert np.all(centers % 1.0 == 0.5)  # precondition: all half-integer
    costs = np.ones(len(boxes))
    assignment = distribute_sfc(costs, 2, centers)
    loads = rank_loads(costs, assignment, 2)
    np.testing.assert_allclose(loads, 2.0)
    from repro.core.load_balance import sfc_order

    order = sfc_order(centers)
    # the Morton traversal of a 2x2 block is a bent elbow, never a scan
    assert list(order) != [0, 1, 2, 3]
    changes = np.count_nonzero(np.diff(assignment[order]))
    assert changes == 1


# -- cross-transport parity (see tests/conftest.py) --------------------------

from tests.conftest import (  # noqa: E402
    assert_runs_equal,
    make_skewed_lb_build,
    migrated_boxes_carry_fields,
)


def test_dynamic_lb_cross_transport(transport_runner):
    """The dynamic load balancer is transport-invariant: heuristic costs
    flow through a real allreduce on the multiprocessing backend, every
    rank computes the identical rebalanced assignment, and migrated box
    state matches loopback bit for bit."""
    from repro.parallel.mp_transport import run_distributed_local

    build = make_skewed_lb_build()
    want = run_distributed_local(build, 6)
    assert any(m > 0 for m in want.lb_events)  # scenario sanity: LB fired
    assert migrated_boxes_carry_fields(build, want)
    got = transport_runner(build, 6)
    assert got.lb_events == want.lb_events
    assert got.lb_moved_bytes == want.lb_moved_bytes
    assert_runs_equal(got, want)
