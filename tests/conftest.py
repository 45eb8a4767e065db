"""Shared fixtures: the cross-transport parity harness.

The ``transport_runner`` fixture parametrizes a scenario-level test over
every SimComm transport — the in-process loopback and the real
one-process-per-rank multiprocessing backend — so halo, redistribution
and load-balance suites exercise both wire paths from a single test
body.  ``golden_langmuir`` caches the loopback reference run per
scenario so each parametrization compares against one shared baseline,
and :func:`assert_runs_equal` is the bit-identical comparison both the
parametrized suites and the differential matrix in
``tests/test_transport_matrix.py`` apply.
"""

import numpy as np
import pytest

from repro.constants import m_e, plasma_wavelength, q_e
from repro.parallel.distributed import DistributedSimulation
from repro.parallel.mp_transport import (
    run_distributed_local,
    run_distributed_mp,
)
from repro.particles.injection import UniformProfile
from repro.particles.kernels import available_kernel_variants, kernel_tier_status
from repro.particles.species import Species

#: skips a test of the native tier itself where it is absent (no C
#: compiler, or REPRO_COMPILED_BACKEND=none)
needs_compiled = pytest.mark.skipif(
    "compiled" not in available_kernel_variants(),
    reason=kernel_tier_status().get("compiled", ""),
)

#: every transport the differential matrix runs over
TRANSPORTS = ("loopback", "multiprocessing")

#: ranks used by the cross-transport scenarios (one process per rank on
#: the multiprocessing side — keep it small enough for CI machines)
PARITY_RANKS = 4


def langmuir_perturbation(length, u0=1e-3, uy=0.0, uz=0.0):
    """The parity scenario's momentum init, a pure function of position
    (so a monolithic twin starts from the same particles): a Langmuir
    perturbation along x plus optional uniform transverse drifts."""
    k = 2 * np.pi / length

    def perturb(sp):
        sp.momenta[:, 0] = u0 * np.sin(k * sp.positions[:, 0])
        # uy pushes particles across box (and hence rank) boundaries,
        # forcing redistribution; with uz all three components are live
        if uy:
            sp.momenta[:, 1] = uy
        if uz:
            sp.momenta[:, 2] = uz

    return perturb


def make_langmuir_build(
    n_ranks=PARITY_RANKS,
    n_cells=16,
    max_grid_size=8,
    ppc=(2, 2),
    u0=1e-3,
    uy=0.0,
    uz=0.0,
    smoothing_passes=1,
    shape_order=2,
    **sim_kwargs,
):
    """A build callable for the golden parity scenario.

    A Langmuir-oscillating plasma slab sized like the paper's LWFA
    plasma (one plasma wavelength per side, periodic), decomposed into
    one box per rank — every communication phase of a production step
    (fold, guard fill, particle redistribution, optionally dynamic LB)
    is exercised.  Pure function of its arguments: every SPMD worker
    calling it builds the identical simulation.
    """
    n0 = 1e24
    length = plasma_wavelength(n0)

    def build(transport=None):
        sim = DistributedSimulation(
            (n_cells,) * 2,
            (0.0, 0.0),
            (length, length),
            n_ranks=n_ranks,
            max_grid_size=max_grid_size,
            cfl=0.9,
            shape_order=shape_order,
            smoothing_passes=smoothing_passes,
            transport=transport,
            **sim_kwargs,
        )
        e = Species("electrons", charge=-q_e, mass=m_e, ndim=2)
        sim.add_species(
            e, profile=UniformProfile(n0), ppc=ppc,
            momentum_init=langmuir_perturbation(length, u0, uy, uz),
        )
        return sim

    return build


def make_skewed_lb_build(
    n_ranks=PARITY_RANKS,
    n_cells=16,
    max_grid_size=4,
    lb_interval=2,
    lb_threshold=1.05,
):
    """A dynamic-LB parity scenario: plasma in the left half only.

    16 boxes over 4 ranks with all particles on one side forces the
    heuristic-cost balancer to migrate boxes — exercising the allreduce
    collective and the ``lb:migrate`` state shipment on every transport.
    (``lb_cost_source='heuristic'`` because measured per-rank timings
    are not reproducible across transports.)
    """
    from repro.particles.injection import SlabProfile

    n0 = 1e24
    length = plasma_wavelength(n0)

    def build(transport=None):
        sim = DistributedSimulation(
            (n_cells,) * 2,
            (0.0, 0.0),
            (length, length),
            n_ranks=n_ranks,
            max_grid_size=max_grid_size,
            cfl=0.9,
            shape_order=2,
            smoothing_passes=0,
            strategy="sfc",
            dynamic_lb=True,
            lb_interval=lb_interval,
            lb_threshold=lb_threshold,
            lb_cost_source="heuristic",
            transport=transport,
        )
        e = Species("electrons", charge=-q_e, mass=m_e, ndim=2)
        sim.add_species(
            e, profile=SlabProfile(n0, 0.0, length / 2), ppc=(2, 2)
        )
        return sim

    return build


def assert_runs_equal(got, want, particles_exact=True):
    """Bit-identical comparison of two normalized run results.

    Fields compare elementwise-exact per box; particles compare exact
    per box after sorting by particle id (container order may differ
    when recovery reorders arrivals — set ``particles_exact=False`` to
    keep the id-sort but that is the only slack ever granted); the
    merged communication counters, halo totals, LB history and final
    box-to-rank assignment must match exactly.
    """
    assert set(got.fields) == set(want.fields)
    for i, comps in want.fields.items():
        assert set(got.fields[i]) == set(comps)
        for comp, arr in comps.items():
            assert np.array_equal(got.fields[i][comp], arr), (
                f"field {comp} of box {i} differs"
            )
    assert set(got.species) == set(want.species)
    for name, per_box in want.species.items():
        assert set(got.species[name]) == set(per_box)
        for i, arrs in per_box.items():
            g = got.species[name][i]
            og = np.argsort(g["ids"], kind="stable")
            ow = np.argsort(arrs["ids"], kind="stable")
            assert np.array_equal(g["ids"][og], arrs["ids"][ow]), (
                f"particle ids in box {i} differ"
            )
            for key in ("positions", "momenta", "weights"):
                same = np.array_equal(g[key][og], arrs[key][ow])
                if particles_exact:
                    assert same, f"particle {key} in box {i} differ"
                elif not same:
                    np.testing.assert_allclose(
                        g[key][og], arrs[key][ow], rtol=0, atol=0
                    )
    assert np.array_equal(got.assignment, want.assignment)
    assert np.array_equal(got.counters.bytes_sent, want.counters.bytes_sent)
    assert np.array_equal(
        got.counters.messages_sent, want.counters.messages_sent
    )
    assert got.counters.pair_bytes == want.counters.pair_bytes
    assert got.counters.collective_calls == want.counters.collective_calls
    assert got.counters.barrier_calls == want.counters.barrier_calls
    assert got.halo == want.halo
    assert got.lb_events == want.lb_events
    assert got.lb_moved_bytes == want.lb_moved_bytes


@pytest.fixture(params=TRANSPORTS)
def transport_runner(request):
    """Run a scenario on the transport this parametrization names.

    The returned callable takes ``(build, n_steps, n_ranks)`` and yields
    the normalized :class:`~repro.parallel.mp_transport.MPRunResult`;
    its ``kind`` attribute tells the test which transport it is on.
    """
    kind = request.param

    def run(build, n_steps, n_ranks=PARITY_RANKS, **kwargs):
        if kind == "loopback":
            kwargs.pop("run_timeout", None)
            return run_distributed_local(build, n_steps, **kwargs)
        return run_distributed_mp(build, n_steps, n_ranks, **kwargs)

    run.kind = kind
    return run


_GOLDEN_CACHE = {}


@pytest.fixture
def golden_langmuir():
    """Loopback reference runs of the parity scenario, cached per config.

    ``golden_langmuir(n_steps=..., **build_kwargs)`` computes the
    loopback run once per distinct configuration and reuses it across
    every transport parametrization that compares against it.
    """

    def get(n_steps=8, **build_kwargs):
        key = (n_steps, tuple(sorted(build_kwargs.items())))
        if key not in _GOLDEN_CACHE:
            _GOLDEN_CACHE[key] = run_distributed_local(
                make_langmuir_build(**build_kwargs), n_steps
            )
        return _GOLDEN_CACHE[key]

    return get
