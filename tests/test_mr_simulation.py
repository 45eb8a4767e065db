"""Integration tests for the mesh-refined simulation: agreement with
uniform-resolution runs, patch removal, moving-window coupling, subcycling."""

import dataclasses

import numpy as np
import pytest

from repro.constants import c, m_e, plasma_wavelength, q_e, um
from repro.core.moving_window import MovingWindow
from repro.core.simulation import Simulation
from repro.exceptions import ConfigurationError
from repro.grid.maxwell import cfl_dt
from repro.grid.yee import YeeGrid
from repro.particles.injection import UniformProfile
from repro.particles.species import Species


def test_mr_requires_esirkepov():
    g = YeeGrid((32,), (0.0,), (32.0,), guards=4)
    sim = Simulation(g, deposition="direct")
    with pytest.raises(ConfigurationError):
        sim.add_patch((8,), (24,))


def make_langmuir_mr(n_cells=64, with_patch=True, subcycle=False, ppc=16,
                     **options):
    n0 = 1e24
    length = plasma_wavelength(n0)
    g = YeeGrid((n_cells,), (0.0,), (length,), guards=4)
    # dt must satisfy the fine CFL when not subcycling
    ratio = 2
    dt = cfl_dt((length / n_cells / ratio,), 0.9)
    if subcycle:
        dt = cfl_dt((length / n_cells,), 0.9)
    sim = Simulation(g, dt=dt, shape_order=2, smoothing_passes=0, **options)
    e = Species("electrons", charge=-q_e, mass=m_e, ndim=1)
    sim.add_species(e, profile=UniformProfile(n0), ppc=ppc)
    k = 2 * np.pi / length
    e.momenta[:, 0] = 1e-3 * np.sin(k * e.positions[:, 0])
    if with_patch:
        sim.add_patch((n_cells // 4,), (3 * n_cells // 4,), ratio=ratio,
                      subcycle=subcycle)
    return sim, e


def test_mr_langmuir_matches_single_level():
    """A refinement patch over a uniform plasma must not change the
    large-scale dynamics: Ex histories agree with the no-MR run."""
    sim_mr, _ = make_langmuir_mr(with_patch=True)
    sim_ref, _ = make_langmuir_mr(with_patch=False)
    probe = (sim_ref.grid.guards + 8,)  # outside the patch
    hist_mr, hist_ref = [], []
    for _ in range(150):
        sim_mr.step()
        sim_ref.step()
        hist_mr.append(sim_mr.grid.fields["Ex"][probe])
        hist_ref.append(sim_ref.grid.fields["Ex"][probe])
    hist_mr = np.array(hist_mr)
    hist_ref = np.array(hist_ref)
    scale = np.max(np.abs(hist_ref))
    assert scale > 0
    assert np.max(np.abs(hist_mr - hist_ref)) < 0.1 * scale


def test_mr_gather_uses_aux_inside_patch():
    sim, e = make_langmuir_mr(with_patch=True)
    patch = sim.patches[0]
    # poison the aux field; interior particles must see it
    patch.aux.fields["Ez"][...] = 123.0
    e_f, _ = sim._gather(e)
    inner = patch.interior_mask(e.positions)
    assert np.any(inner)
    np.testing.assert_allclose(e_f[inner, 2], 123.0, rtol=1e-12)
    assert np.all(np.abs(e_f[~inner, 2]) < 1.0)


def test_mr_gather_evaluates_each_particle_on_one_grid():
    """While a patch is active every particle is gathered on exactly one
    grid (aux or parent): the simulation's own gather kernel sees it
    once, not once on the parent and again on the patch — on the NumPy
    and on the native tier."""
    for kernels in ("vectorized", "compiled"):
        sim, e = make_langmuir_mr(with_patch=True, kernels=kernels)
        inner = sim.patches[0].interior_mask(e.positions)
        assert np.any(inner) and not np.all(inner)
        seen = []
        real = sim.kernel_set.gather
        sim.kernel_set = dataclasses.replace(
            sim.kernel_set,
            gather=lambda grid, x, order: seen.append((grid, len(x)))
            or real(grid, x, order),
        )
        e_f, b_f = sim._gather(e)
        aux = sim.patches[0].aux
        assert seen == [
            (aux, int(inner.sum())), (sim.grid, int((~inner).sum()))
        ]
        # bit for bit what each grid gathers on its own
        on_parent = real(sim.grid, e.positions, sim.shape_order)
        on_patch = real(aux, e.positions[inner], sim.shape_order)
        assert np.array_equal(e_f[~inner], on_parent[0][~inner])
        assert np.array_equal(e_f[inner], on_patch[0])
        assert np.array_equal(b_f[inner], on_patch[1])


def test_patch_removed_at_remove_time():
    g = YeeGrid((32,), (0.0,), (32.0,), guards=4)
    ratio = 2
    dt = cfl_dt((32.0 / 32 / ratio,), 0.9)
    sim = Simulation(g, dt=dt, smoothing_passes=0)
    sim.add_patch((8,), (24,), remove_time=3.5 * dt)
    assert len(sim.patches) == 1
    sim.step(3)
    assert len(sim.patches) == 1
    sim.step(1)
    assert len(sim.patches) == 0
    assert len(sim.removal_log) == 1
    sim.step(2)  # keeps running fine without the patch


def test_patch_follows_moving_window_and_exits():
    g = YeeGrid((32,), (0.0,), (32.0,), guards=4)
    ratio = 2
    dt = cfl_dt((32.0 / 32 / ratio,), 0.9)
    sim = Simulation(g, dt=dt, boundaries="damped", smoothing_passes=0)
    patch = sim.add_patch((2,), (10,))
    sim.set_moving_window(MovingWindow(speed=c, start_time=0.0))
    lo_before = patch.region_lo[0]
    # each step shifts by c*dt/dx = 0.45 cells
    sim.step(4)
    assert sim.patches and sim.patches[0].region_lo[0] < lo_before
    sim.step(10)
    # the lab-fixed patch has fallen off the moving domain
    assert len(sim.patches) == 0


def test_subcycled_patch_matches_non_subcycled():
    """Subcycling the fine level must reproduce the same physics.

    The subcycled run advances the parent with a 2x larger step, so a
    small phase shift is expected; the field *pattern* and amplitude must
    agree."""
    sim_a, _ = make_langmuir_mr(with_patch=True, subcycle=False)
    sim_b, _ = make_langmuir_mr(with_patch=True, subcycle=True)
    t_end = 60 * sim_a.dt
    sim_a.run_until(t_end)
    sim_b.run_until(t_end)
    ex_a = sim_a.grid.interior_view("Ex")
    ex_b = sim_b.grid.interior_view("Ex")
    scale = np.max(np.abs(ex_a))
    assert scale > 0
    # same amplitude ...
    assert np.max(np.abs(ex_b)) == pytest.approx(scale, rel=0.2)
    # ... and the same standing-wave pattern (phase-insensitive)
    corr = np.corrcoef(ex_a.ravel(), ex_b.ravel())[0, 1]
    assert corr > 0.98


def test_subcycling_allows_coarse_dt():
    """With subcycling, dt set by the *coarse* CFL is legal and stable."""
    sim, e = make_langmuir_mr(with_patch=True, subcycle=True)
    assert sim.dt > cfl_dt((plasma_wavelength(1e24) / 64 / 2,), 1.0)
    sim.step(30)
    assert np.all(np.isfinite(sim.grid.fields["Ex"]))
    assert np.all(np.isfinite(sim.patches[0].fine.fields["Ex"]))


def test_total_fine_cells():
    g = YeeGrid((32, 32), (0, 0), (32.0, 32.0), guards=4)
    dt = cfl_dt((0.5, 0.5), 0.7)
    sim = Simulation(g, dt=dt, smoothing_passes=0)
    sim.add_patch((8, 8), (16, 16), ratio=2)
    assert sim.total_fine_cells() == 16 * 16


def test_mr_requires_yee_solver():
    g = YeeGrid((32,), (0.0,), (32.0,), guards=4)
    sim = Simulation(g, maxwell_solver="psatd")
    with pytest.raises(ConfigurationError):
        sim.add_patch((8,), (24,))
