"""Distributed PSATD: local-FFT boxes vs the monolithic spectral solve.

The contract differs from the FDTD substrate test: a local-FFT spectral
box is *not* bit-identical to the monolithic FFT — the analytic
propagator has tails beyond any finite guard region — so the
decomposed run matches the monolithic one within a guard-width-dependent
tolerance that shrinks as guards deepen (the documented contract and
its table, ``boosted_lwfa.GUARD_TOLERANCES``; see DESIGN.md and
``benchmarks/check_psatd_distributed.py``).
Across *transports* the computation is identical arithmetic, so
loopback and multiprocessing runs are compared bit-exactly.
"""

import numpy as np
import pytest

from repro.constants import c
from repro.exceptions import ConfigurationError
from repro.grid.psatd import PSATDMaxwellSolver
from repro.grid.yee import FIELD_COMPONENTS
from repro.parallel.distributed import DistributedSimulation
from repro.scenarios.boosted_lwfa import (
    GUARD_TOLERANCES,
    BoostedLWFASetup,
    build_monolithic,
    make_distributed_build,
)

from tests.conftest import assert_runs_equal

#: small-but-physical boosted LWFA used by every test here
SETUP = BoostedLWFASetup(n_cells=64, ppc=2)


def run_pair(guards, n_steps=30):
    mono, electrons = build_monolithic(SETUP, guards=max(4, guards))
    dist = make_distributed_build(
        SETUP, n_ranks=2, max_grid_size=16, psatd_guards=guards
    )()
    assert dist.total_particles() == electrons.n
    mono.step(n_steps)
    dist.step(n_steps)
    errs = {}
    for comp in ("Ex", "Ey", "Bz"):
        got = dist.global_field_view(comp)
        want = mono.grid.interior_view(comp)
        errs[comp] = np.max(np.abs(got - want)) / np.max(np.abs(want))
    ke_mono = electrons.kinetic_energy()
    ke_dist = dist.species["electrons"].gather_all().kinetic_energy()
    ke_err = abs(ke_dist - ke_mono) / ke_mono
    return errs, ke_err


def test_distributed_matches_monolithic_within_guard_tolerance():
    """The acceptance run: decomposed Galilean-PSATD boosted LWFA on two
    ranks tracks the monolithic solve, with the error shrinking as the
    guard region deepens."""
    results = {g: run_pair(g) for g in sorted(GUARD_TOLERANCES)}
    for guards, (field_tol, ke_tol) in GUARD_TOLERANCES.items():
        errs, ke_err = results[guards]
        for comp, err in errs.items():
            assert err < field_tol, (guards, comp, err)
        assert ke_err < ke_tol, (guards, ke_err)
    # deeper guards -> strictly better fields (the solver property that
    # justifies guard width as a solver-declared, not grid, constant)
    shallow, deep = results[min(results)][0], results[max(results)][0]
    for comp in shallow:
        assert deep[comp] < shallow[comp], comp


def test_psatd_cross_transport_bitwise(transport_runner):
    """Loopback and multiprocessing transports perform identical local
    arithmetic, so the decomposed spectral run is bit-identical across
    them — fields, particles, counters, halo totals and all."""
    build = make_distributed_build(
        SETUP, n_ranks=2, max_grid_size=32, psatd_guards=6
    )
    got = transport_runner(build, n_steps=6, n_ranks=2)
    from repro.parallel.mp_transport import run_distributed_local

    want = run_distributed_local(build, 6)
    assert_runs_equal(got, want)


def test_guard_width_is_a_solver_property():
    """Boxes are padded to the solver's declared guard depth: the
    effective guards are max(user guards, solver guards)."""
    build = make_distributed_build(SETUP, n_ranks=2, max_grid_size=16)
    sim = build()
    assert sim.domain.guards == PSATDMaxwellSolver.guard_cells
    assert all(
        bg.guards == PSATDMaxwellSolver.guard_cells for bg in sim.box_grids
    )
    # and every per-box solver runs the full-array local-FFT mode
    assert all(s.region == "full" for s in sim.box_solvers)
    # an explicit psatd_guards override wins over the class default
    sim = make_distributed_build(
        SETUP, n_ranks=2, max_grid_size=16, psatd_guards=8
    )()
    assert sim.domain.guards == 8


def test_psatd_box_extent_validation():
    """A PSATD box plus its guards must not span more than one period:
    the periodic-image overlap enumeration (and the physics) breaks."""
    with pytest.raises(ConfigurationError, match="more than one period"):
        DistributedSimulation(
            (32,), (0.0,), (SETUP.length,), n_ranks=2, max_grid_size=16,
            maxwell_solver="psatd", psatd_guards=12,
        )


def test_psatd_params_rejected_for_fdtd():
    kwargs = dict(
        n_cells=(32,), lo=(0.0,), hi=(SETUP.length,), n_ranks=2,
        max_grid_size=16,
    )
    with pytest.raises(ConfigurationError, match="psatd"):
        DistributedSimulation(**kwargs, psatd_guards=12)
    with pytest.raises(ConfigurationError, match="psatd"):
        DistributedSimulation(**kwargs, v_galilean=(0.1 * c, 0.0, 0.0))
    with pytest.raises(ConfigurationError, match="unknown Maxwell solver"):
        DistributedSimulation(**kwargs, maxwell_solver="spectral")


def test_source_halo_phase_runs_for_spectral_solver():
    """The spectral push reads guard J, so a dedicated ``halo:sources``
    fill phase must run each step (and stay absent for FDTD)."""
    sim = make_distributed_build(
        SETUP, n_ranks=2, max_grid_size=16, psatd_guards=6
    )()
    sim.step(2)
    tags = {e.tag for e in sim.comm.log}
    assert "halo:sources" in tags

    fdtd = DistributedSimulation(
        (16, 16), (0.0, 0.0), (SETUP.length, SETUP.length), n_ranks=2,
        max_grid_size=8,
    )
    fdtd.step(2)
    assert "halo:sources" not in {e.tag for e in fdtd.comm.log}


def test_plane_outside_the_fft_window_is_a_guard_the_exchange_rewrites():
    """The local transform covers n + 2g of a box's n + 1 + 2g planes.
    The plane it leaves out is an ordinary guard: nothing in the step
    reads it before ``halo:fields`` overwrites it, so poisoning it
    changes no bit of the run."""
    build = make_distributed_build(
        SETUP, n_ranks=2, max_grid_size=16, psatd_guards=6
    )
    clean, poisoned = build(), build()
    assert all(
        s.fft_shape == (16 + 2 * 6,) and bg.shape == (16 + 1 + 2 * 6,)
        for s, bg in zip(clean.box_solvers, clean.box_grids)
    )
    clean.step(2)
    poisoned.step(2)
    for bg in poisoned.box_grids:
        for comp in FIELD_COMPONENTS:
            bg.fields[comp][-1] = 1e30
    clean.step(2)
    poisoned.step(2)
    for want, got in zip(clean.box_grids, poisoned.box_grids):
        for comp, arr in want.fields.items():
            np.testing.assert_array_equal(got.fields[comp], arr, err_msg=comp)


def test_two_rank_psatd_run_is_sanitizer_clean(monkeypatch):
    """Finite fields, periodic guard consistency of the assembled grid,
    particles in the domain and a quiescent comm layer, every step."""
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    sim = make_distributed_build(SETUP, n_ranks=2, max_grid_size=16)()
    assert sim.sanitizer is not None
    sim.step(5)
