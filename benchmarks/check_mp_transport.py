"""CI gate: the multiprocessing transport is equivalent and leaves nothing
behind.

The golden Langmuir scenario on 4 worker processes must be
*bit-identical* to the in-process loopback run — every box's fields and
particles, the merged per-rank communication counters and the halo
totals; not machine precision, equality — and neither that run nor one
whose receiver raises before draining a 160 kB message may leave a
shared-memory segment in ``/dev/shm`` (the transport names its segments
by run and sweeps them, ``repro.parallel.wire``).  Mirrors the
cross-transport differential matrix in ``tests/test_transport_matrix.py``.

Timing is not gated here: the repo benchmark's
``parallel.mp_speedup_vs_loopback`` (``benchmarks/perf``) is the
stopwatch for this transport.

Run:  PYTHONPATH=src python benchmarks/check_mp_transport.py
"""

import os
import sys

import numpy as np

from repro.constants import m_e, plasma_wavelength, q_e
from repro.exceptions import ResilienceError
from repro.parallel.comm import SimComm
from repro.parallel.distributed import DistributedSimulation
from repro.parallel.mp_transport import (
    run_distributed_local,
    run_distributed_mp,
    run_spmd,
)
from repro.particles.injection import UniformProfile
from repro.particles.species import Species

N_RANKS = 4
PARITY_STEPS = 10
#: where Linux lists POSIX shared memory (no listing elsewhere: not checked)
SHM_DIR = "/dev/shm"


def shm_listing():
    return sorted(os.listdir(SHM_DIR)) if os.path.isdir(SHM_DIR) else []


def make_build(n_cells=16, ppc=(2, 2), uy=0.3, smoothing_passes=1):
    """The golden parity scenario (see tests/conftest.py)."""
    n0 = 1e24
    length = plasma_wavelength(n0)

    def build(transport=None):
        sim = DistributedSimulation(
            (n_cells,) * 2, (0.0, 0.0), (length, length),
            n_ranks=N_RANKS, max_grid_size=n_cells // 2,
            cfl=0.9, shape_order=2, smoothing_passes=smoothing_passes,
            transport=transport,
        )
        e = Species("electrons", charge=-q_e, mass=m_e, ndim=2)
        k = 2 * np.pi / length

        def perturb(sp):
            sp.momenta[:, 0] = 1e-3 * np.sin(k * sp.positions[:, 0])
            if uy:
                sp.momenta[:, 1] = uy

        sim.add_species(e, profile=UniformProfile(n0), ppc=ppc,
                        momentum_init=perturb)
        return sim

    return build


def check_equivalence() -> int:
    build = make_build()
    want = run_distributed_local(build, PARITY_STEPS)
    segments_before = shm_listing()
    got = run_distributed_mp(build, PARITY_STEPS, N_RANKS)
    bad = 0
    leftover = sorted(set(shm_listing()) - set(segments_before))
    if leftover:
        print(f"FAIL: shared-memory segments left behind: {leftover}")
        bad += 1
    for i, comps in want.fields.items():
        for comp, arr in comps.items():
            if not np.array_equal(got.fields[i][comp], arr):
                print(f"FAIL: field {comp} of box {i} differs")
                bad += 1
    for name, per_box in want.species.items():
        for i, arrs in per_box.items():
            g = got.species[name][i]
            og, ow = np.argsort(g["ids"]), np.argsort(arrs["ids"])
            for key in ("ids", "positions", "momenta", "weights"):
                if not np.array_equal(g[key][og], arrs[key][ow]):
                    print(f"FAIL: particle {key} in box {i} differ")
                    bad += 1
    if not np.array_equal(got.counters.bytes_sent, want.counters.bytes_sent):
        print("FAIL: per-rank bytes_sent diverge")
        bad += 1
    if got.counters.pair_bytes != want.counters.pair_bytes:
        print("FAIL: pair-byte matrices diverge")
        bad += 1
    if got.halo != want.halo:
        print(f"FAIL: halo totals diverge ({got.halo} vs {want.halo})")
        bad += 1
    if bad == 0:
        print(
            f"OK: {PARITY_STEPS}-step golden run bit-identical across "
            f"transports ({len(want.fields)} boxes, "
            f"{got.total_particles()} particles, "
            f"{got.counters.total_bytes()} wire bytes)"
        )
    return bad


def check_failed_receiver_leaves_nothing() -> int:
    """The leak the golden run cannot show (its messages ride the pipe):
    a segment given away by the sender and never attached by a receiver
    that raised first."""

    def worker(rank, transport):
        comm = SimComm(2, transport=transport)
        if rank == 1:
            raise RuntimeError("receiver fails before draining")
        comm.send(0, 1, np.ones(20_000), tag="big")

    before = shm_listing()
    try:
        run_spmd(2, worker, recv_timeout=1.0, run_timeout=60.0)
    except ResilienceError:
        pass
    leftover = sorted(set(shm_listing()) - set(before))
    if leftover:
        print(f"FAIL: a failed receiver left segments behind: {leftover}")
        return 1
    print("OK: a receiver that raises before draining leaves no segment")
    return 0


def main() -> int:
    if check_equivalence() + check_failed_receiver_leaves_nothing():
        print("FAIL: mp-transport gate failed")
        return 1
    print("OK: multiprocessing transport equivalent to loopback, "
          "no segment left behind")
    return 0


if __name__ == "__main__":
    sys.exit(main())
