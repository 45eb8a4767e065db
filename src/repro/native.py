"""The native library: one shared object of generated C, built once.

Both native tiers live in it: the particle kernels of
:mod:`repro.particles.compiled` (the fused ``advance`` pass and the
standalone gather / deposit) and the field entries of
:mod:`repro.grid.compiled` (the Yee and PML steps, the damped walls and
the MR patch's auxiliary-field assembly).  Each module generates its own
part of the translation unit; this one concatenates them
(:func:`c_source`), compiles the result with the system C compiler and
loads it through ctypes.

:func:`library` runs :func:`load` at most once per process, the first
time anybody asks: :mod:`repro.particles.kernels` asks when it is
imported, a field site on its first call (importing :mod:`repro.grid`
builds nothing).  :func:`load` reads ``REPRO_COMPILED_BACKEND``
(``auto``, the default, or ``none``; anything else raises), looks for
``cc`` / ``gcc`` / ``clang`` on ``PATH`` and returns ``(library,
build)``, or the reason there is no library — then every site runs its
NumPy body.  ``kernel_tier_status()["compiled"]`` reports that outcome
for both tiers; there is no second status.

The build uses :data:`SIMD_FLAGS` (``-march=native`` among them) and is
cached under a name that hashes the source, the flags and the compiler's
own account of the build — version, target, ``native`` resolved to this
CPU — so a cache shared between machines never hands one CPU's code to
another.  A compiler that rejects those flags gets :data:`PLAIN_FLAGS`,
and ``build`` says so (``plain flags: <reason>`` instead of ``8 lanes,
-march=native``).  Neither flag set lets the compiler contract,
reassociate or replace a division by a reciprocal: every kernel performs
the IEEE operations its NumPy twin performs.

A call site hands its arrays to :func:`bind`, which checks their layout
once, keeps their addresses in a pointer table on the object that owns
them and on later calls rechecks only what can change under the same
arrays.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shutil
import subprocess
import tempfile
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import ConfigurationError

#: environment override: "auto" (the default: build if a compiler exists)
#: or "none"
BACKEND_ENV = "REPRO_COMPILED_BACKEND"

#: -ffp-contract=off: on targets with FMA in the baseline ISA the compiler
#: would otherwise fuse a*b+c and break the same-rounding-as-NumPy contract
PLAIN_FLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")

#: what gcc needs before it vectorises the lane loops of `advance`; none
#: changes a computed value.  -fopenmp-simd honours the `omp simd` pragmas
#: (no runtime library); `sqrt` may then skip setting errno and a
#: conditional FP operation may run in every lane (nothing reads errno or
#: the FP exception flags); -march=native supplies the vector ISA and a
#: packed `trunc`.  256-bit vectors: 512-bit ones measure slower on the
#: AVX-512 host this was sized on (EXPERIMENTS.md, "Native pass, round
#: three").  No reassociation flag: a lane does the scalar IEEE operations.
SIMD_FLAGS = PLAIN_FLAGS + (
    "-fopenmp-simd", "-fno-math-errno", "-fno-trapping-math",
    "-march=native", "-mprefer-vector-width=256",
)


def c_source() -> str:
    """The whole translation unit: the particle kernels, then the field
    entries (each part over both precisions)."""
    from repro.grid import compiled as fields
    from repro.particles import compiled as particles

    return particles.c_source() + fields.c_source()


def find_c_compiler() -> Optional[str]:
    """Path of the first of cc/gcc/clang on PATH, or None."""
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def _cache_dir() -> str:
    uid = getattr(os, "getuid", lambda: 0)()
    return os.path.join(tempfile.gettempdir(), f"repro-kernels-{uid}")


def _library_path(compiler: str, src: str, flags: Sequence[str]) -> str:
    """Where the build of ``src`` with ``flags`` is cached.  The name covers
    the source, the flags and what the driver would run for them — its
    version, its target and the ``cc1`` line with ``-march=native`` resolved
    to this CPU (``-###`` runs nothing; ``-E`` keeps temporary file names
    out of it) — so a cache directory shared between machines, or baked into
    an image, never hands one CPU's code to another."""
    probe = subprocess.run(
        [compiler, "-###", *flags, "-E", "-x", "c", os.devnull],
        capture_output=True, text=True, timeout=60,
    )
    digest = hashlib.sha256(
        "\0".join((src, *flags, probe.stdout, probe.stderr)).encode("utf8")
    ).hexdigest()[:16]
    return os.path.join(_cache_dir(), f"kernels-{digest}.so")


def _build(compiler: str, src: str, flags: Sequence[str]) -> ctypes.CDLL:
    """Compile ``src`` with ``flags``, or reuse the cached build of that."""
    lib_path = _library_path(compiler, src, flags)
    os.makedirs(os.path.dirname(lib_path), exist_ok=True)
    if not os.path.exists(lib_path):
        src_path = f"{lib_path[:-3]}.c"
        tmp_path = f"{lib_path}.{os.getpid()}.tmp"
        try:
            with open(src_path, "w", encoding="utf8") as fh:
                fh.write(src)
            cmd = [compiler, *flags, "-o", tmp_path, src_path]
            proc = subprocess.run(
                cmd, capture_output=True, text=True, timeout=120
            )
            if proc.returncode != 0:
                raise ConfigurationError(
                    f"C kernel build failed ({' '.join(cmd)}): "
                    f"{proc.stderr.strip()[:500]}"
                )
            os.replace(tmp_path, lib_path)  # atomic vs concurrent builders
        except BaseException:
            # a failed attempt leaves nothing behind (the source of a
            # successful one stays next to its library, for debuggers)
            for leftover in (src_path, tmp_path):
                if os.path.exists(leftover):
                    os.remove(leftover)
            raise
    return ctypes.CDLL(lib_path)


def compile_library(
    compiler: str, flags: Optional[Sequence[str]] = None
) -> Tuple[ctypes.CDLL, str]:
    """Compile (or reuse a cached build of) :func:`c_source`.

    Returns ``(library, build)``, ``build`` naming what was built.  By
    default that is :data:`SIMD_FLAGS`; a compiler that rejects them gets
    :data:`PLAIN_FLAGS` (the pragmas are inert there and the results
    identical) and ``build`` says so and why.  ``flags`` (tests and the
    vector-length table of ``bench_kernel_optimization.py``; not a user
    option) builds with exactly those, no retry.
    """
    from repro.particles.compiled import LANES

    src = c_source()
    if flags is not None:
        return _build(compiler, src, flags), " ".join(flags)
    try:
        return _build(compiler, src, SIMD_FLAGS), f"{LANES} lanes, -march=native"
    except ConfigurationError as exc:
        reason = str(exc).split("): ", 1)[-1].splitlines()[0]
        return _build(compiler, src, PLAIN_FLAGS), f"plain flags: {reason}"


def load() -> Union[Tuple[ctypes.CDLL, str], str]:
    """Read ``REPRO_COMPILED_BACKEND``, find a compiler and build:
    ``(library, build)``, or the reason there is no library."""
    choice = os.environ.get(BACKEND_ENV, "auto").strip().lower() or "auto"
    if choice not in ("auto", "none"):
        raise ConfigurationError(
            f"unknown {BACKEND_ENV} value {choice!r}; expected auto or none "
            "(generated C is the only backend)"
        )
    if choice == "none":
        return f"disabled via {BACKEND_ENV}=none"
    compiler = find_c_compiler()
    if compiler is None:
        return "no C compiler (cc/gcc/clang) on PATH"
    try:
        return compile_library(compiler)
    except Exception as exc:
        return f"C backend build failed: {exc}"


@functools.lru_cache(maxsize=None)
def library() -> Union[Tuple[ctypes.CDLL, str], str]:
    """This process's :func:`load`: run on the first call, then returned
    as it was — the one build both tiers use."""
    return load()


@functools.lru_cache(maxsize=None)
def _array_type(ctype, length: int):
    return ctype * length


def c_array(ctype, values) -> ctypes.Array:
    """A ctypes array of ``values``, of a ``ctype * len(values)`` type held
    for the life of the process.

    ctypes keeps its array types through weak references only, and a type
    sits in a reference cycle: every pass of the cyclic collector frees
    the ones no live array holds, and building one again costs 20-30 us
    (0.3 us from the cache).  Argument arrays made from fresh types cost a
    call ~100 us after each collection — in a decomposed step, the first
    box's particle pass read 3x the others' for it."""
    values = tuple(values)
    return _array_type(ctype, len(values))(*values)


class Binding:
    """Arrays checked once for a native entry: their addresses (``table``;
    None: a null entry), the layout the check saw and which are written.
    A site hangs on it what else its entry takes (strides, scratch)."""

    def __init__(self, arrays, written) -> None:
        self.arrays = tuple(arrays)
        self.written = ((written,) * len(self.arrays)
                        if isinstance(written, bool) else tuple(written))
        self.layout = [None if a is None else (a.shape, a.strides, a.dtype)
                       for a in self.arrays]
        self.table = c_array(ctypes.c_void_p, (
            None if a is None else _ptr(a) for a in self.arrays))


def bind(owner, key: str, arrays, written, check, *args) -> Binding:
    """The :class:`Binding` of ``arrays`` cached on ``owner`` (the grid,
    solver or patch whose arrays they are) under ``key``, if each is still
    the bound object with the bound shape, strides and dtype, and writable
    where ``written`` (one flag per array, or one for all): only that can
    change under the same objects.  Otherwise ``check(binding, *args)``
    refuses the new arrays with a ConfigurationError, or completes their
    binding, before it is cached."""
    cache = owner.__dict__.setdefault("_native_bindings", {})
    bound = cache.get(key)
    if bound is not None and len(arrays) == len(bound.arrays):
        for a, b, layout, w in zip(arrays, bound.arrays, bound.layout,
                                   bound.written):
            if a is not b or a is not None and (
                (a.shape, a.strides, a.dtype) != layout
                or w and not a.flags.writeable
            ):
                break
        else:
            return bound
    bound = Binding(arrays, written)
    check(bound, *args)
    cache[key] = bound
    return bound


_addressof = ctypes.addressof
_from_buffer = ctypes.c_char.from_buffer


def _ptr(arr: np.ndarray) -> int:
    """Address of ``arr``'s first element.  A ctypes view of the buffer
    costs a quarter of ``arr.ctypes`` — per call, a dozen of these are a
    tenth of a small patch's pass — but needs a writable, non-empty,
    contiguous array (asked of the view itself: its refusal is cheaper
    than reading the flags first)."""
    try:
        return _addressof(_from_buffer(arr))
    except (TypeError, ValueError):
        return arr.ctypes.data


def _written_ptr(arr: np.ndarray, shape, dtype, what: str) -> int:
    """The address of an array a kernel writes: of ``shape`` and
    ``dtype``, C-contiguous and writable, else ConfigurationError."""
    try:
        if arr.shape == shape and arr.dtype == dtype:
            return _addressof(_from_buffer(arr)) if arr.size else 0
    except (TypeError, AttributeError):  # read-only, strided; not an array
        pass
    raise ConfigurationError(
        f"{what} must be a writable C-contiguous {np.dtype(dtype)} array of "
        f"shape {shape}; got {getattr(arr, 'dtype', arr)} "
        f"{getattr(arr, 'shape', '')}"
    )
