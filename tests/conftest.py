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

import contextlib
import dataclasses
import importlib.util
import os

import numpy as np
import pytest

from repro.constants import m_e, plasma_wavelength, q_e
from repro.grid import compiled as native_fields
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

@contextlib.contextmanager
def numpy_fields():
    """Inside the block every field site runs its NumPy body (the oracle
    of the native entries), whatever library is built."""
    native = native_fields.backend
    native_fields.backend = lambda dtype: None
    try:
        yield
    finally:
        native_fields.backend = native


def same_bits(a, b):
    """``a`` and ``b`` hold the same bytes (NaN payloads and the sign of
    zero included): what bit-identical means here."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and (
        a.tobytes() == b.tobytes()
    )


def unfused(kernel_set):
    """The same kernels without the fused slot: every ``advance_particles``
    call takes the composed route (gather, push, deposit)."""
    return dataclasses.replace(kernel_set, advance=None)


def record_calls(kernel_set, slot):
    """``kernel_set`` with its ``slot`` (``"gather"``, ``"advance"`` or
    ``"deposit_current"``) swapped for a spy that runs it and records ``(grid, positions,
    result)`` per call — the positions of the rows it advances, given an
    ``advance`` a ``rows`` index; returns the new set and the list it
    fills.  A set without the slot comes back as it is (nothing can call
    it)."""
    seen = []
    real = getattr(kernel_set, slot)
    if real is None:
        return kernel_set, seen

    def spy(grid, positions, *args):
        rows = args[10] if len(args) > 10 else None
        x = positions.copy() if rows is None else positions[rows]
        out = real(grid, positions, *args)
        seen.append((grid, x, out))
        return out

    return dataclasses.replace(kernel_set, **{slot: spy}), seen


#: every transport the differential matrix runs over
TRANSPORTS = ("loopback", "multiprocessing")

#: ranks used by the cross-transport scenarios (one process per rank on
#: the multiprocessing side — keep it small enough for CI machines)
PARITY_RANKS = 4

#: seeded communication bugs and clean schedules (data files, not a package)
COMM_FIXTURES = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "data", "comm_fixtures"
)


def load_comm_fixture(name):
    """Import ``COMM_FIXTURES/<name>`` as a module, to run a plant."""
    spec = importlib.util.spec_from_file_location(
        name[:-3], os.path.join(COMM_FIXTURES, name)
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    positrons=False,
    **sim_kwargs,
):
    """A build callable for the golden parity scenario.

    A Langmuir-oscillating plasma slab sized like the paper's LWFA
    plasma (one plasma wavelength per side, periodic), decomposed into
    one box per rank — every communication phase of a production step
    (fold, guard fill, particle redistribution, optionally dynamic LB)
    is exercised.  With ``positrons`` a second species drifts at
    ``-uy``, so each step runs one ``particles`` phase per species.  Pure
    function of its arguments: every SPMD worker calling it builds the
    identical simulation.
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
        if positrons:
            p = Species("positrons", charge=q_e, mass=m_e, ndim=2)
            sim.add_species(
                p, profile=UniformProfile(n0), ppc=ppc,
                momentum_init=langmuir_perturbation(length, u0, -uy, uz),
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
    are not reproducible across transports.)  The slab drifts along y,
    so its current drives E from the first step and a migrated box ships
    nonzero fields (:func:`migrated_boxes_carry_fields`).
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
            e, profile=SlabProfile(n0, 0.0, length / 2), ppc=(2, 2),
            momentum_init=_drift_y,
        )
        return sim

    return build


def _drift_y(sp):
    sp.momenta[:, 1] = 0.05


def migrated_boxes_carry_fields(build, result) -> bool:
    """Scenario sanity of a dynamic-LB run: some box ended on another rank
    than ``build()`` put it on, and one such box holds a nonzero E — so a
    transport that shipped stale or zero fields could not match."""
    moved = np.flatnonzero(build().dm.assignment != result.assignment)
    return any(
        max(np.abs(result.fields[i][comp]).max() for comp in ("Ex", "Ey", "Ez")) > 0
        for i in moved
    )


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


def random_grid(n_cells, dtype=np.float64, guards=2, seed=0):
    """A :class:`YeeGrid` of ``n_cells`` (cells of 1-1.6 um, one size per
    axis) whose arrays hold :func:`random_fields`."""
    from repro.grid.yee import YeeGrid

    ndim = len(n_cells)
    hi = tuple(1e-6 * (1 + 0.3 * d) * n_cells[d] for d in range(ndim))
    return random_fields(
        YeeGrid(n_cells, (0.0,) * ndim, hi, guards=guards, dtype=dtype), seed
    )


def random_fields(grid, seed=0):
    """Fill every array of ``grid`` with normal values at field-like scales
    (E ~ 1e11 V/m, B ~ 1e3 T, J ~ 1e16 A/m^2), every seventh one a
    negative zero so that the sign of zero is exercised too."""
    rng = np.random.default_rng(seed)
    scale = {"E": 1e11, "B": 1e3, "J": 1e16, "r": 1e3}
    for name, arr in grid.fields.items():
        arr[...] = (scale[name[0]] * rng.standard_normal(arr.shape)).astype(arr.dtype)
        arr.reshape(-1)[::7] = -0.0
    return grid


def assert_same_arrays(mine, theirs, what=""):
    """Two ``{name: array}`` maps hold the same arrays, bit for bit."""
    assert list(mine) == list(theirs), what
    for name in mine:
        assert same_bits(mine[name], theirs[name]), f"{what} {name}"
