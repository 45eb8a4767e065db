"""Compiled kernel tier: generated-C kernels against the numpy kernels
(skipped without a C compiler), the environment/backend selection logic,
graceful registry fallback when no backend is usable, atomicity of batch
registration, wide-window and guard-shortage handling, and the per-tier
dispatch counters.  The fused ``advance`` path has its own file,
``test_particles_advance.py``."""

import numpy as np
import pytest

from repro.core.simulation import Simulation
from repro.exceptions import ConfigurationError
from repro.grid.yee import YeeGrid
from repro.observability import attach_observability
from repro.particles import compiled
from repro.particles import kernels
from repro.particles.compiled import (
    BACKEND_ENV,
    KMAX,
    LANES,
    build_c_backend,
    build_kernel_tier,
    c_source,
    find_c_compiler,
    install_compiled_tier,
    make_compiled_kernel_set,
)
from repro.particles.deposit import deposit_current_esirkepov
from repro.particles.gather import gather_fields
from repro.particles.injection import UniformProfile
from repro.particles.kernels import (
    KernelSet,
    available_kernel_variants,
    get_kernel_set,
    kernel_tier_status,
    mark_tier_unavailable,
    register_kernel_set,
    resolve_kernel_set,
    validate_kernel_set,
)
from repro.particles.species import Species


def make_grid(ndim, n=8, guards=5, dtype=np.float64):
    grid = YeeGrid((n,) * ndim, (0.0,) * ndim, (float(n),) * ndim,
                   guards=guards)
    if dtype is not np.float64:
        grid.set_precision(dtype)
    return grid


def seed_fields(grid, seed=0):
    rng = np.random.default_rng(seed)
    for comp in ("Ex", "Ey", "Ez", "Bx", "By", "Bz"):
        vals = rng.standard_normal(grid.shape)
        grid.fields[comp][...] = vals.astype(grid.dtype)


def particle_cloud(grid, n=60, seed=1, spread=0.25):
    rng = np.random.default_rng(seed)
    lo = np.asarray(grid.lo) + 2.0
    hi = np.asarray(grid.hi) - 2.0
    pos = lo + (hi - lo) * rng.random((n, grid.ndim))
    vel = rng.standard_normal((n, 3))
    wts = 1.0 + rng.random(n)
    return pos, vel, wts


@pytest.fixture
def c_set():
    """A compiled kernel set built here, straight from the C backend."""
    backend, detail = build_c_backend()
    if backend is None:
        pytest.skip(detail)
    return make_compiled_kernel_set(backend)


# -- C kernels vs the numpy kernels --------------------------------------------
# (the test ids date from when these ran on the interpreted scalar twins of
# the C source; the twins are gone, the checks now run on the C itself)

@pytest.mark.parametrize("ndim", [1, 2, 3])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_python_twin_gather_matches_numpy(c_set, ndim, order):
    grid = make_grid(ndim)
    seed_fields(grid)
    pos, _, _ = particle_cloud(grid, n=40)
    e_ref, b_ref = gather_fields(grid, pos, order=order)
    e_twin, b_twin = c_set.gather(grid, pos, order=order)
    np.testing.assert_allclose(e_twin, e_ref, rtol=0, atol=1e-13)
    np.testing.assert_allclose(b_twin, b_ref, rtol=0, atol=1e-13)
    assert e_twin.dtype == np.float64 and b_twin.dtype == np.float64


@pytest.mark.parametrize("ndim", [1, 2, 3])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_python_twin_deposits_match_numpy(c_set, ndim, order):
    grid_a = make_grid(ndim)
    grid_b = make_grid(ndim)
    pos, vel, wts = particle_cloud(grid_a, n=40)
    dt = 0.1
    disp = 0.3 * np.arange(1, grid_a.ndim + 1)
    pos_new = pos + disp

    deposit_current_esirkepov(
        grid_a, pos, pos_new, vel, wts, charge=-2.0, dt=dt, order=order
    )
    c_set.deposit_current(
        grid_b, pos, pos_new, vel, wts, charge=-2.0, dt=dt, order=order
    )
    for comp in ("Jx", "Jy", "Jz"):
        np.testing.assert_allclose(
            grid_b.fields[comp], grid_a.fields[comp], rtol=0, atol=1e-11,
            err_msg=comp,
        )


# -- native backend (when available in this environment) ---------------------

def _native_available():
    return "compiled" in available_kernel_variants()


@pytest.mark.skipif(not _native_available(),
                    reason=kernel_tier_status().get("compiled", ""))
@pytest.mark.parametrize("ndim", [1, 2, 3])
def test_native_compiled_tier_machine_precision(ndim):
    errors = validate_kernel_set("compiled", ndim=ndim, order=3)
    assert max(errors.values()) < 1e-12, errors


@pytest.mark.skipif(not _native_available(),
                    reason=kernel_tier_status().get("compiled", ""))
def test_native_tier_reports_backend():
    # the backend and what was built for it: a compiler that dropped the
    # SIMD flags shows in every record that quotes the status
    ks = get_kernel_set("compiled")
    assert ks.backend == f"c; {LANES} lanes, -march=native" or (
        ks.backend.startswith("c; plain flags: ")
    )
    assert kernel_tier_status()["compiled"] == f"available ({ks.backend})"


def test_c_source_emits_both_precisions():
    src = c_source()
    for kernel in ("gather", "deposit_esirkepov", "advance", "advance_scalar"):
        assert f" {kernel}_f64(" in src and f" {kernel}_f32(" in src
    assert "deposit_nodal" not in src
    assert "@REAL@" not in src and "@SUF@" not in src


# -- the library cache: keyed on what was built, for which CPU -----------------

@pytest.fixture
def tiny_library(monkeypatch, tmp_path):
    """`compile_c_library` over a one-line source in an empty cache."""
    cc = find_c_compiler()
    if cc is None:
        pytest.skip("no C compiler (cc/gcc/clang) on PATH")
    monkeypatch.setattr(compiled, "c_source", lambda: "int one(void) { return 1; }\n")
    monkeypatch.setattr(compiled, "_cache_dir", lambda: str(tmp_path))
    return cc, tmp_path


def test_library_cache_key_covers_flags_and_resolved_target(tiny_library, monkeypatch):
    """`-march=native` code found in a shared or image-baked cache must not
    be loaded on another CPU: the name hashes the driver's own account of
    the build (version, target, the `cc1` line with `native` resolved)."""
    cc, _ = tiny_library
    src = compiled.c_source()
    here = compiled._library_path(cc, src, compiled.SIMD_FLAGS)
    assert here == compiled._library_path(cc, src, compiled.SIMD_FLAGS)
    assert here != compiled._library_path(cc, src, compiled.PLAIN_FLAGS)
    assert here != compiled._library_path(cc, src + "\n", compiled.SIMD_FLAGS)
    run = compiled.subprocess.run

    def another_cpu(cmd, **kwargs):
        done = run(cmd, **kwargs)
        if "-###" in cmd:
            done.stderr = done.stderr.replace("-march=", "-march=another-")
        return done

    monkeypatch.setattr(compiled.subprocess, "run", another_cpu)
    assert here != compiled._library_path(cc, src, compiled.SIMD_FLAGS)


def test_rejected_simd_flags_fall_back_to_plain_and_leave_nothing(
    tiny_library, monkeypatch
):
    cc, cache = tiny_library
    monkeypatch.setattr(
        compiled, "SIMD_FLAGS", compiled.PLAIN_FLAGS + ("-mno-such-isa-flag",)
    )
    lib, build = compiled.compile_c_library(cc)
    assert lib.one() == 1
    assert build.startswith("plain flags: ") and "-mno-such-isa-flag" in build
    # the failed attempt's .c / .tmp are gone; the good one keeps its source
    assert sorted(p.suffix for p in cache.iterdir()) == [".c", ".so"]
    # an explicit flag set is built as given or not at all: no retry
    with pytest.raises(ConfigurationError, match="-mno-such-isa-flag"):
        compiled.compile_c_library(cc, compiled.SIMD_FLAGS)
    assert len(list(cache.iterdir())) == 2
    _, build = compiled.compile_c_library(cc, compiled.PLAIN_FLAGS)
    assert build == " ".join(compiled.PLAIN_FLAGS)
    assert len(list(cache.iterdir())) == 2  # reused, not rebuilt


# -- wide windows and guard shortage -----------------------------------------

def test_wide_window_falls_back_to_vectorized(c_set):
    """K > KMAX goes to the NumPy Esirkepov kernel."""
    grid_a = make_grid(2, n=24, guards=10)
    grid_b = make_grid(2, n=24, guards=10)
    rng = np.random.default_rng(3)
    pos = 10.0 + 4.0 * rng.random((20, 2))
    vel = rng.standard_normal((20, 3))
    wts = np.ones(20)
    # displacement wide enough that K > KMAX, yet small enough that the
    # NumPy fallback still fits in the guard layer
    from repro.particles.deposit import esirkepov_window

    disp = 3.2
    assert esirkepov_window(3, disp) > KMAX
    pos_new = pos + np.array([disp, 0.5])
    c_set.deposit_current(grid_a, pos, pos_new, vel, wts, charge=1.0,
                               dt=0.2, order=3)
    deposit_current_esirkepov(grid_b, pos, pos_new, vel, wts,
                              charge=1.0, dt=0.2, order=3)
    for comp in ("Jx", "Jy", "Jz"):
        np.testing.assert_allclose(
            grid_a.fields[comp], grid_b.fields[comp], rtol=0, atol=1e-12
        )


def test_guard_shortage_raises(c_set):
    grid = make_grid(2, n=16, guards=2)
    pos = np.full((4, 2), 8.0)
    pos_new = pos + 3.5  # window needs more than 2 guard cells
    vel = np.zeros((4, 3))
    with pytest.raises(ConfigurationError, match="guard"):
        c_set.deposit_current(grid, pos, pos_new, vel, np.ones(4),
                                   charge=1.0, dt=0.1, order=3)


# -- backend selection and graceful fallback ---------------------------------

def test_backend_env_rejects_unknown(monkeypatch):
    monkeypatch.setenv(BACKEND_ENV, "simd")
    with pytest.raises(ConfigurationError, match=BACKEND_ENV):
        build_kernel_tier()


def test_backend_env_none_disables(monkeypatch):
    monkeypatch.setenv(BACKEND_ENV, "none")
    ks, detail = build_kernel_tier()
    assert ks is None
    assert "disabled" in detail


def test_no_backend_reports_reason(monkeypatch):
    monkeypatch.setattr(compiled, "find_c_compiler", lambda: None)
    ks, detail = build_kernel_tier("auto")
    assert ks is None
    assert "no C compiler" in detail


def test_numba_choice_is_rejected():
    # the numba backend was removed; asking for it is a configuration
    # error, not a silent fall-through to C
    with pytest.raises(ConfigurationError, match="auto, c or none"):
        build_kernel_tier("numba")


def test_c_only_choice_without_compiler(monkeypatch):
    monkeypatch.setattr(compiled, "find_c_compiler", lambda: None)
    ks, detail = build_kernel_tier("c")
    assert ks is None
    assert "compiler" in detail


def test_unavailable_tier_resolves_to_vectorized(monkeypatch):
    """The fallback is the one NumPy path, ``vectorized``."""
    monkeypatch.setattr(kernels, "_REGISTRY", {
        name: ks for name, ks in kernels._REGISTRY.items()
        if name != "compiled"
    })
    monkeypatch.setattr(kernels, "_UNAVAILABLE",
                        {"compiled": "no C compiler"})
    ks, reason = resolve_kernel_set("compiled")
    assert ks.name == "vectorized"
    assert "no C compiler" in reason
    assert kernel_tier_status()["compiled"] == "no C compiler"


def test_unavailable_tier_simulation_falls_back(monkeypatch):
    monkeypatch.setattr(kernels, "_REGISTRY", {
        name: ks for name, ks in kernels._REGISTRY.items()
        if name != "compiled"
    })
    monkeypatch.setattr(kernels, "_UNAVAILABLE", {"compiled": "probe failed"})
    grid = YeeGrid((12, 12), (0.0, 0.0), (12.0e-6, 12.0e-6), guards=4)
    sim = Simulation(grid, dt=2.0e-15, kernels="compiled")
    assert sim.kernels == "vectorized"
    assert sim.kernel_fallback_reason == "probe failed"


def test_available_variant_has_no_fallback_reason():
    ks, reason = resolve_kernel_set("vectorized")
    assert ks.name == "vectorized" and reason is None


def test_unknown_variant_still_raises_through_resolve():
    with pytest.raises(ConfigurationError, match="unknown kernel variant"):
        resolve_kernel_set("simd")


def test_install_compiled_tier_idempotent(monkeypatch):
    # idempotent whether the tier registered or was marked unavailable
    install_compiled_tier()
    status_before = kernel_tier_status()
    install_compiled_tier()
    assert kernel_tier_status() == status_before


def test_install_marks_unavailable_when_probes_fail(monkeypatch):
    monkeypatch.setenv(BACKEND_ENV, "auto")
    monkeypatch.setattr(kernels, "_REGISTRY", {
        name: ks for name, ks in kernels._REGISTRY.items()
        if name != "compiled"
    })
    monkeypatch.setattr(kernels, "_UNAVAILABLE", {})
    monkeypatch.setattr(compiled, "find_c_compiler", lambda: None)
    install_compiled_tier()
    assert "compiled" not in available_kernel_variants()
    assert "no C compiler" in kernel_tier_status()["compiled"]


def test_backend_none_leaves_two_tiers_and_compiled_lands_on_vectorized(
    monkeypatch,
):
    monkeypatch.setenv(BACKEND_ENV, "none")
    monkeypatch.setattr(kernels, "_REGISTRY", {
        name: ks for name, ks in kernels._REGISTRY.items()
        if name != "compiled"
    })
    monkeypatch.setattr(kernels, "_UNAVAILABLE", {})
    install_compiled_tier()
    assert available_kernel_variants() == ("vectorized",)
    grid = YeeGrid((12, 12), (0.0, 0.0), (12.0e-6, 12.0e-6), guards=4)
    sim = Simulation(grid, dt=2.0e-15, kernels="compiled")
    assert sim.kernels == "vectorized"
    assert sim.kernel_set is get_kernel_set("vectorized")
    assert sim.kernel_fallback_reason == f"disabled via {BACKEND_ENV}=none"


def test_probe_builders_agree_with_environment():
    # if the import-time environment selection allowed the probe to run,
    # the registry state must match its outcome
    import os

    choice = os.environ.get(BACKEND_ENV, "auto").strip().lower() or "auto"
    expected = choice != "none" and build_c_backend()[0] is not None
    assert ("compiled" in available_kernel_variants()) == expected
    assert find_c_compiler() is None or isinstance(find_c_compiler(), str)


# -- atomic registration ------------------------------------------------------

def test_failed_batch_registration_installs_nothing(monkeypatch):
    monkeypatch.setattr(kernels, "_REGISTRY", dict(kernels._REGISTRY))
    vec = get_kernel_set("vectorized")

    def clone(name):
        return KernelSet(
            name=name,
            gather=vec.gather,
            deposit_current=vec.deposit_current,
        )

    before = available_kernel_variants()
    with pytest.raises(ConfigurationError, match="duplicate"):
        register_kernel_set(clone("fresh_a"), clone("vectorized"))
    assert available_kernel_variants() == before  # fresh_a NOT installed

    with pytest.raises(ConfigurationError, match="duplicate"):
        register_kernel_set(clone("fresh_b"), clone("fresh_b"))
    assert available_kernel_variants() == before

    bad = KernelSet(
        name="fresh_c",
        gather="not callable",
        deposit_current=vec.deposit_current,
    )
    with pytest.raises(ConfigurationError, match="callable"):
        register_kernel_set(clone("fresh_d"), bad)
    assert available_kernel_variants() == before


def test_successful_batch_registers_all_and_clears_unavailable(monkeypatch):
    monkeypatch.setattr(kernels, "_REGISTRY", dict(kernels._REGISTRY))
    monkeypatch.setattr(kernels, "_UNAVAILABLE", {"fresh_e": "was broken"})
    vec = get_kernel_set("vectorized")
    register_kernel_set(KernelSet(
        name="fresh_e",
        gather=vec.gather,
        deposit_current=vec.deposit_current,
    ))
    assert "fresh_e" in available_kernel_variants()
    assert "fresh_e" not in kernels._UNAVAILABLE


def test_mark_tier_unavailable_rejects_registered_name():
    with pytest.raises(ConfigurationError, match="registered"):
        mark_tier_unavailable("vectorized", "nope")


# -- dispatch counters --------------------------------------------------------

def test_dispatch_counters_label_actual_variant():
    from repro.constants import m_e, plasma_wavelength, q_e
    from repro.grid.maxwell import cfl_dt

    n0 = 1e24
    length = plasma_wavelength(n0)
    grid = YeeGrid((16,), (0.0,), (length,), guards=4)
    sim = Simulation(grid, dt=cfl_dt((length / 16,), 0.9), shape_order=2,
                     smoothing_passes=0, kernels="vectorized")
    sim.add_species(Species("e", charge=-q_e, mass=m_e, ndim=1),
                    profile=UniformProfile(n0), ppc=2)
    _, metrics = attach_observability(sim)
    sim.step(3)
    snap = metrics.snapshot()
    assert snap["kernel.dispatch{phase=deposit,variant=vectorized}"] == 3.0
    assert snap["kernel.dispatch{phase=gather,variant=vectorized}"] == 3.0
