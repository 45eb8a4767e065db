"""Golden bits of the compiled tier's fused particle pass and gather.

``advance`` (:mod:`repro.particles.compiled`) and the per-particle loop it
falls back to share one gather routine, so holding the one against the
other (``test_blocked_advance_is_the_scalar_loop_bit_for_bit``) no longer
compares two implementations of it.  This file holds both to committed
bits instead: the sha256 of the new positions, momenta and ``Jx`` /
``Jy`` / ``Jz`` (and the leaving flags where there is a keep box) after one
``advance`` call on seeded inputs, for ndim 1-3 x order 1-3 x {boris, vay}
x {float64, float32} x n in {7, 8, 9, 1003} (a tail only, one block, a
block and a tail, many blocks), without a boundary, with a periodic wrap
and with a keep box; and of ``E`` / ``B`` from the standalone ``gather``.

The numerics contract (no FMA, no reassociation, IEEE ``sqrt``/``fmod``)
makes these bits the same with the SIMD flags and the plain ones, on any
x86-64 or other IEEE host.  Regenerate only for an intentional change of
the kernels' arithmetic:
``PYTHONPATH=src:. python tests/test_fused_pass_golden.py``.
"""

import hashlib
import json
import os

import numpy as np
import pytest

from tests.conftest import needs_compiled
from repro.constants import c, m_e, q_e
from repro.grid.yee import YeeGrid
from repro.particles.kernels import get_kernel_set

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "fused_pass_golden.json")

NDIMS, ORDERS, PUSHERS = (1, 2, 3), (1, 2, 3), ("boris", "vay")
DTYPES = {"float64": np.float64, "float32": np.float32}
SIZES = (7, 8, 9, 1003)
MODES = ("open", "periodic", "keep")


def seeded_grid(ndim, dtype, seed):
    grid = YeeGrid((12,) * ndim, (-3.0,) * ndim, (9.0,) * ndim, guards=4,
                   dtype=dtype)
    rng = np.random.default_rng(seed)
    for comp in ("Ex", "Ey", "Ez", "Bx", "By", "Bz"):
        scale = 1e9 if comp[0] == "E" else 3.0  # both bend u ~ 1 electrons
        grid.fields[comp][...] = scale * rng.standard_normal(grid.shape)
    return grid


def digest(arrays):
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def advance_hashes(ndim, order, pusher, dtype_name):
    """{"<mode> n=<n>": sha256} of one ``advance`` call per mode and size."""
    dtype = DTYPES[dtype_name]
    seed = 1000 * ndim + 100 * order + 10 * PUSHERS.index(pusher) + (dtype is np.float32)
    grid = seeded_grid(ndim, dtype, seed)
    advance = get_kernel_set("compiled").advance
    dt = 0.9 * grid.dx[0] / c
    # half a cell inside the faces: some blocks keep every lane, some not
    box = (tuple(lo + 0.5 for lo in grid.lo), tuple(hi - 0.5 for hi in grid.hi))
    rng = np.random.default_rng(seed + 1)
    out = {}
    for n in SIZES:
        # up to the faces: the fast ones leave and are wrapped, or flagged
        pos = rng.uniform(grid.lo[0], grid.hi[0], size=(n, ndim))
        mom = 2.0 * rng.normal(size=(n, 3))
        w = 1.0 + rng.random(n)
        for mode in MODES:
            source = grid.copy()
            target = source if mode != "keep" else YeeGrid(
                grid.n_cells, grid.lo, grid.hi, guards=4, dtype=dtype
            )
            x, u, leaving = advance(
                source, pos, mom, w, -q_e, m_e, dt, order, pusher,
                periodic=(grid.lo, grid.hi, tuple(range(ndim)))
                if mode == "periodic" else None,
                deposit_grid=target, keep=box if mode == "keep" else None,
            )
            arrays = [x, u] + [target.fields[j] for j in ("Jx", "Jy", "Jz")]
            out[f"{mode} n={n}"] = digest(arrays + ([] if leaving is None else [leaving]))
    return out


def gather_hash(ndim, order, dtype_name):
    seed = 1000 * ndim + 100 * order + 7
    grid = seeded_grid(ndim, DTYPES[dtype_name], seed)
    pos = np.random.default_rng(seed + 1).uniform(
        grid.lo[0], grid.hi[0], size=(1003, ndim)
    )
    return digest(get_kernel_set("compiled").gather(grid, pos, order))


def advance_key(ndim, order, pusher, dtype_name):
    return f"{ndim}d order {order} {pusher} {dtype_name}"


def gather_key(ndim, order, dtype_name):
    return f"{ndim}d order {order} {dtype_name}"


def advance_digests():
    return {
        advance_key(d, o, p, t): advance_hashes(d, o, p, t)
        for d in NDIMS for o in ORDERS for p in PUSHERS for t in DTYPES
    }


def gather_digests():
    return {
        gather_key(d, o, t): gather_hash(d, o, t)
        for d in NDIMS for o in ORDERS for t in DTYPES
    }


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as f:
        return json.load(f)


@needs_compiled
def test_fused_pass_matches_golden_bits(golden):
    got, want = advance_digests(), golden["advance"]
    assert got.keys() == want.keys()
    assert not [f"{case}: {run}" for case, runs in want.items()
                for run, digest in runs.items() if got[case].get(run) != digest]


@needs_compiled
def test_standalone_gather_matches_golden_bits(golden):
    got, want = gather_digests(), golden["gather"]
    assert not [case for case, digest in want.items() if got.get(case) != digest]


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w") as f:
        json.dump({"advance": advance_digests(), "gather": gather_digests()},
                  f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {GOLDEN_PATH}")
