"""Compiled kernel tier: generated-C kernels against the numpy kernels
(skipped without a C compiler), the environment/backend selection logic,
the kernel table built at import (checked in fresh interpreters) and its
graceful fallback when no backend is usable, wide-window and
guard-shortage handling, and the per-tier dispatch counters.  The fused
``advance`` path has its own file, ``test_particles_advance.py``."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.core.simulation import Simulation
from repro.exceptions import ConfigurationError
from repro.grid.yee import YeeGrid
from repro.observability import attach_observability
from repro import native
from repro.native import BACKEND_ENV, find_c_compiler
from repro.particles import kernels
from repro.particles.compiled import KMAX, LANES, build_kernel_tier, c_source
from repro.particles.deposit import deposit_current_esirkepov
from repro.particles.gather import gather_fields
from repro.particles.injection import UniformProfile
from repro.particles.kernels import (
    KernelSet,
    available_kernel_variants,
    get_kernel_set,
    kernel_tier_status,
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


SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


@pytest.fixture
def c_set(monkeypatch):
    """A compiled kernel set built here, whatever the environment says."""
    monkeypatch.setenv(BACKEND_ENV, "auto")
    monkeypatch.setattr(native, "library", native.load)
    kernel_set = build_kernel_tier()
    if isinstance(kernel_set, str):
        pytest.skip(kernel_set)
    return kernel_set


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
    """`native.compile_library` over a one-line source in an empty cache."""
    cc = find_c_compiler()
    if cc is None:
        pytest.skip("no C compiler (cc/gcc/clang) on PATH")
    monkeypatch.setattr(native, "c_source", lambda: "int one(void) { return 1; }\n")
    monkeypatch.setattr(native, "_cache_dir", lambda: str(tmp_path))
    return cc, tmp_path


def test_library_cache_key_covers_flags_and_resolved_target(tiny_library, monkeypatch):
    """`-march=native` code found in a shared or image-baked cache must not
    be loaded on another CPU: the name hashes the driver's own account of
    the build (version, target, the `cc1` line with `native` resolved)."""
    cc, _ = tiny_library
    src = native.c_source()
    here = native._library_path(cc, src, native.SIMD_FLAGS)
    assert here == native._library_path(cc, src, native.SIMD_FLAGS)
    assert here != native._library_path(cc, src, native.PLAIN_FLAGS)
    assert here != native._library_path(cc, src + "\n", native.SIMD_FLAGS)
    run = native.subprocess.run

    def another_cpu(cmd, **kwargs):
        done = run(cmd, **kwargs)
        if "-###" in cmd:
            done.stderr = done.stderr.replace("-march=", "-march=another-")
        return done

    monkeypatch.setattr(native.subprocess, "run", another_cpu)
    assert here != native._library_path(cc, src, native.SIMD_FLAGS)


def test_rejected_simd_flags_fall_back_to_plain_and_leave_nothing(
    tiny_library, monkeypatch
):
    cc, cache = tiny_library
    monkeypatch.setattr(
        native, "SIMD_FLAGS", native.PLAIN_FLAGS + ("-mno-such-isa-flag",)
    )
    lib, build = native.compile_library(cc)
    assert lib.one() == 1
    assert build.startswith("plain flags: ") and "-mno-such-isa-flag" in build
    # the failed attempt's .c / .tmp are gone; the good one keeps its source
    assert sorted(p.suffix for p in cache.iterdir()) == [".c", ".so"]
    # an explicit flag set is built as given or not at all: no retry
    with pytest.raises(ConfigurationError, match="-mno-such-isa-flag"):
        native.compile_library(cc, native.SIMD_FLAGS)
    assert len(list(cache.iterdir())) == 2
    _, build = native.compile_library(cc, native.PLAIN_FLAGS)
    assert build == " ".join(native.PLAIN_FLAGS)
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


# -- array layouts the backend is handed ---------------------------------------

def _view_in_larger(arr):
    """``arr``'s values in a view of a larger array: same shape and
    dtype, contiguous rows, other strides (a box's view into its tile)."""
    big = np.zeros(tuple(n + 3 for n in arr.shape), dtype=arr.dtype)
    view = big[tuple(slice(2, 2 + n) for n in arr.shape)]
    view[...] = arr
    return view


def _advance(c_set, grid, deposit_grid, pos, mom, wts):
    return c_set.advance(grid, pos, mom, wts, -1.6e-19, 9.1e-31, 1e-9, 2,
                         deposit_grid=deposit_grid)


def test_fused_pass_gathers_and_deposits_through_their_own_strides(c_set):
    """E and B as views into a larger array (a decomposed box's tile), J
    contiguous: the fused pass indexes each group with its own strides,
    bit for bit the run on contiguous copies."""
    grid = make_grid(2, n=8, guards=5)
    seed_fields(grid)
    pos, _vel, wts = particle_cloud(grid)
    mom = 1e-3 * np.random.default_rng(4).standard_normal((pos.shape[0], 3))
    viewed = make_grid(2, n=8, guards=5)
    for comp in ("Ex", "Ey", "Ez", "Bx", "By", "Bz"):
        viewed.fields[comp] = _view_in_larger(grid.fields[comp])
    want = _advance(c_set, grid, None, pos, mom, wts)
    got = _advance(c_set, viewed, viewed, pos, mom, wts)
    for a, b in zip(want[:2], got[:2]):
        np.testing.assert_array_equal(a, b)
    for comp in ("Jx", "Jy", "Jz"):
        np.testing.assert_array_equal(viewed.fields[comp], grid.fields[comp])


@pytest.mark.parametrize(
    "entry, comp",
    [("advance", "By"), ("advance", "Jz"), ("gather", "Bz"),
     ("deposit", "Jy")],
)
def test_an_array_off_its_group_layout_is_refused(c_set, entry, comp):
    """Every array is checked against the strides passed for its group
    (the fused pass: fields, then currents; a standalone entry: its one
    group), so one laid out otherwise is refused by name instead of
    being read or written at the first array's offsets."""
    grid = make_grid(2, n=8, guards=5)
    seed_fields(grid)
    pos, vel, wts = particle_cloud(grid)
    grid.fields[comp] = _view_in_larger(grid.fields[comp])
    with pytest.raises(ConfigurationError, match=f"compiled .*{comp}.*strides"):
        if entry == "advance":
            _advance(c_set, grid, None, pos, 1e-3 * vel, wts)
        elif entry == "gather":
            c_set.gather(grid, pos, 2)
        else:
            c_set.deposit_current(grid, pos, pos + 0.1, vel, wts, charge=1.0,
                                  dt=0.1, order=2)
    for name in ("Jx", "Jy", "Jz"):
        if name != comp:
            assert not grid.fields[name].any(), name


# -- backend selection and graceful fallback ---------------------------------

def test_backend_env_rejects_unknown(monkeypatch):
    monkeypatch.setenv(BACKEND_ENV, "simd")
    with pytest.raises(ConfigurationError, match=BACKEND_ENV):
        native.load()


def test_backend_env_none_disables(monkeypatch):
    monkeypatch.setenv(BACKEND_ENV, "none")
    monkeypatch.setattr(native, "library", native.load)
    assert native.load() == f"disabled via {BACKEND_ENV}=none"
    assert build_kernel_tier() == f"disabled via {BACKEND_ENV}=none"


def test_no_backend_reports_reason(monkeypatch):
    monkeypatch.setenv(BACKEND_ENV, "auto")
    monkeypatch.setattr(native, "find_c_compiler", lambda: None)
    assert "no C compiler" in native.load()


def test_numba_choice_is_rejected(monkeypatch):
    # the numba backend was removed; asking for it is a configuration
    # error, not a silent fall-through to C
    monkeypatch.setenv(BACKEND_ENV, "numba")
    with pytest.raises(ConfigurationError, match="auto or none"):
        native.load()


def test_unavailable_tier_resolves_to_vectorized(monkeypatch):
    """The fallback is the one NumPy path, ``vectorized``."""
    monkeypatch.setitem(kernels._REGISTRY, "compiled", "no C compiler")
    ks, reason = resolve_kernel_set("compiled")
    assert ks.name == "vectorized"
    assert "no C compiler" in reason
    assert kernel_tier_status()["compiled"] == "no C compiler"
    assert available_kernel_variants() == ("vectorized",)


def test_unavailable_tier_simulation_falls_back(monkeypatch):
    monkeypatch.setitem(kernels._REGISTRY, "compiled", "probe failed")
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


def test_probe_builders_agree_with_environment():
    # the table was filled at import from the same probe
    built = build_kernel_tier()
    assert ("compiled" in available_kernel_variants()) == isinstance(
        built, KernelSet
    )
    assert find_c_compiler() is None or isinstance(find_c_compiler(), str)


# -- the table, as a fresh interpreter builds it at import ---------------------

def run_fresh(code, backend=None):
    """Run ``code`` in a new interpreter, ``REPRO_COMPILED_BACKEND`` set to
    ``backend`` (None: as this process has it)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    if backend is not None:
        env[BACKEND_ENV] = backend
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, timeout=120,
    )


def test_import_builds_a_table_of_exactly_two_tiers():
    done = run_fresh(
        "from repro.particles.kernels import kernel_tier_status as s; "
        "print(sorted(s()))"
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "['compiled', 'vectorized']"


def test_backend_none_leaves_two_tiers_and_compiled_lands_on_vectorized():
    done = run_fresh("""
from repro.core.simulation import Simulation
from repro.grid.yee import YeeGrid
from repro.particles.kernels import available_kernel_variants, get_kernel_set
assert available_kernel_variants() == ("vectorized",), available_kernel_variants()
grid = YeeGrid((12, 12), (0.0, 0.0), (12.0e-6, 12.0e-6), guards=4)
sim = Simulation(grid, dt=2.0e-15, kernels="compiled")
assert sim.kernels == "vectorized"
assert sim.kernel_set is get_kernel_set("vectorized")
print(sim.kernel_fallback_reason)
""", backend="none")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == f"disabled via {BACKEND_ENV}=none"


def test_install_marks_unavailable_when_probes_fail(tmp_path):
    # (the id dates from when a separate install step filled the table;
    # the import does it now) no compiler on PATH: the table holds why
    done = run_fresh(
        "import os; os.environ['PATH'] = " + repr(str(tmp_path)) + "\n"
        "from repro.particles.kernels import available_kernel_variants, "
        "kernel_tier_status\n"
        "print(available_kernel_variants(), kernel_tier_status()['compiled'])",
        backend="auto",
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == (
        "('vectorized',) no C compiler (cc/gcc/clang) on PATH"
    )


def test_retired_backend_value_c_fails_the_import():
    done = run_fresh("import repro.particles.kernels", backend="c")
    assert done.returncode != 0
    last = done.stderr.strip().splitlines()[-1]
    assert last.startswith("repro.exceptions.ConfigurationError")
    assert "'c'" in last and "expected auto or none" in last


def test_one_library_serves_both_tiers_and_is_built_once():
    """The particle table's import builds the one library; importing
    `repro.grid` and stepping a field solver reuse it."""
    done = run_fresh("""
import repro.grid
from repro import native
from repro.grid import compiled as fields
from repro.grid.maxwell import MaxwellSolver, cfl_dt
from repro.grid.yee import YeeGrid
from repro.particles.kernels import kernel_tier_status
grid = YeeGrid((8, 8), (0.0, 0.0), (8e-6, 8e-6))
MaxwellSolver(grid, cfl_dt(grid.dx, 0.5)).step()
info = native.library.cache_info()
assert (info.misses, info.currsize) == (1, 1), info
assert (fields.backend(grid.dtype) is None) == isinstance(native.library(), str)
print(kernel_tier_status()["compiled"])
""")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == kernel_tier_status()["compiled"]


def test_library_source_holds_the_field_entries_in_both_precisions():
    src = native.c_source()
    assert src.startswith(c_source())
    for entry in ("yee_step", "pml_step", "damp", "assemble_aux"):
        assert f" {entry}_f64(" in src and f" {entry}_f32(" in src
    assert "@REAL@" not in src and "@SUF@" not in src


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
    assert snap["kernel.dispatch{phase=advance,variant=vectorized}"] == 3.0
    assert not any("phase=gather" in key or "phase=deposit" in key
                   for key in snap)
