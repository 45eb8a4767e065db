"""Kernel dispatch table: the gather/deposit fast-path layer.

The paper's single biggest node-level win (Sec. V.A.1) came from
restructuring the gather and deposition kernels around memory locality
while keeping their mathematics fixed.  This module reproduces that
experiment as a first-class abstraction: each *kernel variant* bundles
the slots a step driver dispatches through — the gather, the Esirkepov
current deposit and, optionally, the fused particle pass — behind one
name, and simulations select a variant by name (``Simulation(...,
kernels="vectorized")``; the default, spelled once in ``StepDriver``, is
``compiled``).  The table has two entries, one NumPy path and one native
path, filled once when this module is imported.

======  ==================================================================
variant  implementation
======  ==================================================================
``vectorized``  the NumPy path, vectorized over particles: the Esirkepov
                currents as broadcast products of per-axis K-vectors
                (``cum`` / ``T`` / ``U``) over closed-form shapes placed
                in the minimal ``order + 2`` window, buffered
                ``np.bincount`` histogram scatters over the touched
                address span, and a gather that shares the shape weights
                per axis and the address table and weight products per
                sample lattice (:mod:`repro.particles.deposit`,
                :mod:`repro.particles.gather`); the oracle ``compiled``
                is validated against and its fallback
``compiled``    the default: native per-particle loops, generated C
                built with the system compiler and driven through ctypes
                (:mod:`repro.particles.compiled`), plus the fused
                ``advance`` pass (gather -> push -> position ->
                Esirkepov -> periodic wrap, one loop over blocks of
                eight particles with SIMD across them, bit-identical
                to the per-particle loop).  Available only when the
                library builds; otherwise its entry is the reason
                (:func:`kernel_tier_status`) and
                :func:`resolve_kernel_set` falls back to ``vectorized``
======  ==================================================================

Both variants compute the same physics; :func:`validate_kernel_set`
cross-checks a variant against ``vectorized`` on a randomized workload
and returns the worst relative deviation per kernel (tests pin it at
machine precision).  ``vectorized`` itself is held against independent
implementations — a scalar per-particle gather, ``np.add.at`` scatters
and a textbook Esirkepov — that live in the test suite
(``tests/oracles.py``), not in the table.  The nodal deposits (charge,
direct current) are no slot: diagnostics and the ``direct`` ablation call
:mod:`repro.particles.deposit` directly.  Both variants are
dtype-generic: on a float32 grid the field reads and deposition
accumulate in single precision while particle quantities and shape
weights stay double (the paper's "MP mode"), and
``validate_kernel_set(..., precision="float32")`` asserts the resulting
error stays inside :data:`FLOAT32_ERROR_BUDGET`.  The active variant name
is surfaced as a ``kernel`` attribute on the ``particles`` tracer span,
so the observability layer shows which implementation ran.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple, Union

import numpy as np

from repro.constants import m_e, q_e
from repro.exceptions import ConfigurationError, PrecisionError
from repro.grid.yee import YeeGrid
from repro.particles.advance import advance_particles
from repro.particles.deposit import deposit_current_esirkepov
from repro.particles.gather import gather_fields
from repro.particles.pusher import PUSHERS


@dataclass(frozen=True)
class KernelSet:
    """One named, interchangeable implementation of the PIC hot path.

    ``gather`` maps ``(grid, positions, order) -> (E, B)``;
    ``deposit_current`` shares the signature of
    :func:`repro.particles.deposit.deposit_current_esirkepov`.  ``advance``
    is the optional fused particle pass,
    ``(grid, positions, momenta, weights, charge, mass, dt, order,
    pusher, periodic=None, deposit_grid=None, keep=None, rows=None,
    out=None) -> (positions_new, momenta_new, leaving)`` with the
    Esirkepov current deposited into ``deposit_grid`` (default ``grid``)
    on the way, the new positions wrapped along ``periodic = (lo, hi,
    axes)`` and, given a ``keep = (lo, hi)`` box, the particles whose new
    position left it undeposited and flagged in ``leaving`` (None without
    a box); given ``rows``, only those rows advance, into the same rows of
    ``out``; it may assume ``c dt < min(dx)``.  None means "no fused loop".
    :func:`repro.particles.advance.advance_particles`, the one call every
    driver makes, runs the slot where it applies and otherwise composes
    ``gather``, the pusher and ``deposit_current`` (or the direct deposit)
    under the same contract.  ``backend`` names
    what executes the inner loops (``numpy``, or ``c; <what was built>``).
    """

    name: str
    gather: Callable[..., Tuple[np.ndarray, np.ndarray]]
    deposit_current: Callable[..., None]
    advance: Optional[
        Callable[..., Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]]
    ] = None
    backend: str = "numpy"


#: the tiers, filled once at import: name -> its KernelSet, or the reason
#: it could not be built here (a plain dict: tests add the oracle set with
#: ``monkeypatch.setitem``)
_REGISTRY: Dict[str, Union[KernelSet, str]] = {
    "vectorized": KernelSet(
        name="vectorized",
        gather=gather_fields,
        deposit_current=deposit_current_esirkepov,
    ),
}


def get_kernel_set(name: str) -> KernelSet:
    """Look up an available kernel variant by name."""
    entry = _REGISTRY.get(name)
    if not isinstance(entry, KernelSet):
        raise ConfigurationError(
            f"unknown kernel variant {name!r}; "
            f"available: {available_kernel_variants()}"
        )
    return entry


def resolve_kernel_set(name: str) -> Tuple[KernelSet, Optional[str]]:
    """Resolve a variant name, falling back when the tier is unavailable.

    Returns ``(kernel_set, fallback_reason)``: ``(set, None)`` for an
    available name; ``(vectorized, reason)`` for a tier that could not be
    built here (e.g. ``compiled`` without a C compiler).  Unknown names
    still raise :class:`ConfigurationError` — only *known-but-unbuildable*
    tiers degrade gracefully.
    """
    entry = _REGISTRY.get(name)
    if isinstance(entry, str):
        return get_kernel_set("vectorized"), entry
    return get_kernel_set(name), None


def available_kernel_variants() -> Tuple[str, ...]:
    """The names of the variants built here, in table order."""
    return tuple(n for n, e in _REGISTRY.items() if isinstance(e, KernelSet))


def kernel_tier_status() -> Dict[str, str]:
    """Every known tier and its availability on this machine.

    Available variants report ``"available (<backend>)"`` — for the
    compiled tier the backend names what was built, ``"c; 8 lanes,
    -march=native"`` or ``"c; plain flags: <reason>"``; a tier that could
    not be built reports the reason (e.g. ``"no C compiler (cc/gcc/clang)
    on PATH"``).
    """
    return {
        name: f"available ({e.backend})" if isinstance(e, KernelSet) else e
        for name, e in _REGISTRY.items()
    }


#: documented float32 error budget: worst allowed relative L2 deviation
#: of each kernel on a float32 grid vs the float64 vectorized baseline
#: (the :func:`validate_kernel_set` workload).  Values are ~30x the
#: measured deviation — loose enough to be platform-stable, tight
#: enough that an accidental single-precision *intermediate* (which
#: costs several digits, not a fraction of one) trips them.
FLOAT32_ERROR_BUDGET: Dict[str, float] = {
    "gather": 2.0e-6,
    "deposit_current": 4.0e-6,
    "advance": 4.0e-6,
}


def _rel_l2(a: np.ndarray, b: np.ndarray) -> float:  # repro: allow(PIC007)
    """Relative L2 deviation ``||a - b|| / ||b||`` (0 if b is zero)."""
    scale = float(np.linalg.norm(np.asarray(b, dtype=np.float64)))
    if scale == 0.0:
        return float(np.linalg.norm(np.asarray(a, dtype=np.float64)))
    diff = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
    return float(np.linalg.norm(diff)) / scale


def validate_kernel_set(
    name: str,
    ndim: int = 2,
    order: int = 2,
    n_particles: int = 203,
    seed: int = 0,
    precision: str = "float64",
) -> Dict[str, float]:
    """Cross-validate one variant against ``vectorized`` numerically.

    Runs the gather and the Esirkepov deposit of both variants on an
    identical randomized workload; a variant with a fused
    ``advance`` slot additionally gets an ``"advance"`` entry: the fused
    pass against ``vectorized``'s composed route (gather ->
    ``push_boris``/``push_vay`` -> ``push_positions`` -> Esirkepov, through
    :func:`~repro.particles.advance.advance_particles`), worst deviation over
    new positions, new momenta and ``J`` and over both pushers (the default
    ``n_particles`` is not a multiple of the fused pass's block of lanes,
    so full blocks and the scalar tail both run).  With ``precision="float64"``
    (the default) both run in double and the returned dict holds the
    worst relative deviation per kernel — the test suite pins every
    entry at machine precision, the contract that lets a run switch
    variants without changing physics.

    With ``precision="float32"`` (alias ``"mixed"``) the candidate runs
    on a float32 grid while the baseline stays float64, the deviations
    are relative L2 norms, and any kernel exceeding its
    :data:`FLOAT32_ERROR_BUDGET` entry raises
    :class:`~repro.exceptions.PrecisionError` — the documented
    mixed-precision error budget, asserted.
    """
    if precision in ("float32", "mixed"):
        mixed = True
    elif precision == "float64":
        mixed = False
    else:
        raise ConfigurationError(
            f"unknown precision {precision!r}; expected float64, float32 "
            "or mixed"
        )
    candidate = get_kernel_set(name)
    baseline = get_kernel_set("vectorized")
    rng = np.random.default_rng(seed)
    n_cells = 12
    guards = 5
    cand_dtype = np.float32 if mixed else np.float64
    grid_c = YeeGrid(
        (n_cells,) * ndim, (0.0,) * ndim, (float(n_cells),) * ndim,
        guards=guards, dtype=cand_dtype,
    )
    grid_b = YeeGrid(
        (n_cells,) * ndim, (0.0,) * ndim, (float(n_cells),) * ndim, guards=guards
    )
    for comp in ("Ex", "Ey", "Ez", "Bx", "By", "Bz"):
        vals = rng.normal(size=grid_c.shape)
        grid_c.fields[comp][...] = vals.astype(cand_dtype)
        grid_b.fields[comp][...] = vals
    pos0 = rng.uniform(2.0, float(n_cells) - 2.0, size=(n_particles, ndim))
    pos1 = pos0 + rng.uniform(-0.9, 0.9, size=(n_particles, ndim))
    vel = rng.normal(size=(n_particles, 3)) * 1.0e7
    w = rng.uniform(0.5, 2.0, size=n_particles)
    charge, dt = -1.0e-19, 1.0e-9

    def _rel(a: np.ndarray, b: np.ndarray) -> float:
        if mixed:
            return _rel_l2(a, b)
        scale = float(np.max(np.abs(b))) or 1.0
        return float(np.max(np.abs(a - b))) / scale

    errors: Dict[str, float] = {}
    e_c, b_c = candidate.gather(grid_c, pos0, order)
    e_b, b_b = baseline.gather(grid_b, pos0, order)
    errors["gather"] = max(_rel(e_c, e_b), _rel(b_c, b_b))

    candidate.deposit_current(grid_c, pos0, pos1, vel, w, charge, dt, order)
    baseline.deposit_current(grid_b, pos0, pos1, vel, w, charge, dt, order)
    err = 0.0
    for comp in ("Jx", "Jy", "Jz"):
        err = max(err, _rel(grid_c.fields[comp], grid_b.fields[comp]))
    errors["deposit_current"] = err

    if candidate.advance is not None:
        # electrons with u ~ 1 and c dt = 0.3 dx: every move stays sub-cell
        mom = rng.normal(size=(n_particles, 3))
        err = 0.0
        for pusher in PUSHERS:
            grid_c.zero_sources()
            grid_b.zero_sources()
            x_c, u_c, _ = candidate.advance(
                grid_c, pos0, mom, w, -q_e, m_e, dt, order, pusher
            )
            # the baseline has no fused slot: the composed route
            x_b, u_b, _ = advance_particles(
                baseline, grid_b, pos0, mom, w, -q_e, m_e, dt, order, pusher,
                "esirkepov",
            )
            err = max(err, _rel(x_c, x_b), _rel(u_c, u_b))
            for comp in ("Jx", "Jy", "Jz"):
                err = max(err, _rel(grid_c.fields[comp], grid_b.fields[comp]))
        errors["advance"] = err

    if mixed:
        for kernel, budget in FLOAT32_ERROR_BUDGET.items():
            if kernel in errors and errors[kernel] > budget:
                raise PrecisionError(
                    f"float32 {name!r} kernel {kernel!r} relative L2 error "
                    f"{errors[kernel]:.3e} exceeds the documented budget "
                    f"{budget:.1e}"
                )
    return errors


# the compiled tier, or why there is none; at the tail because
# build_kernel_tier makes a KernelSet
from repro.particles.compiled import build_kernel_tier  # noqa: E402

_REGISTRY["compiled"] = build_kernel_tier()
