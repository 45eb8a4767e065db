"""Fig. 5 companion: *measured* multi-process scaling of the local run.

The two ``bench_fig5_*`` modules replay the paper's Frontier/Fugaku
weak- and strong-scaling curves through the alpha-beta performance
model — modelled numbers.  This module is the measured counterpart on
the machine actually running the suite: the Sec. V.A.1-style uniform
plasma is stepped through the real one-worker-process-per-rank
multiprocessing transport at 1, 2 and 4 ranks and timed with the clock
on the wall, loopback as the serial baseline.

On a single-core container the multi-process runs are *slower* than
loopback (fork + queue overhead with nothing to parallelize) — the
table records that honestly; the speedup expectation only arms with at
least 4 usable cores.
"""

import os
import time

import numpy as np

from repro.constants import m_e, plasma_wavelength, q_e
from repro.parallel.distributed import DistributedSimulation
from repro.parallel.mp_transport import (
    run_distributed_local,
    run_distributed_mp,
)
from repro.particles.injection import UniformProfile
from repro.particles.species import Species

N_STEPS = 6
RANK_COUNTS = (1, 2, 4)


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def make_build(n_ranks):
    n0 = 1e24
    length = plasma_wavelength(n0)

    def build(transport=None):
        sim = DistributedSimulation(
            (32, 32), (0.0, 0.0), (length, length),
            n_ranks=n_ranks, max_grid_size=16,
            cfl=0.9, shape_order=2, smoothing_passes=0,
            transport=transport,
        )
        e = Species("electrons", charge=-q_e, mass=m_e, ndim=2)
        k = 2 * np.pi / length

        def perturb(sp):
            sp.momenta[:, 0] = 1e-3 * np.sin(k * sp.positions[:, 0])

        sim.add_species(e, profile=UniformProfile(n0), ppc=(3, 3),
                        momentum_init=perturb)
        return sim

    return build


def run_all():
    t0 = time.perf_counter()
    base = run_distributed_local(make_build(4), N_STEPS)
    t_serial = time.perf_counter() - t0
    records = [{
        "transport": "loopback", "ranks": 4, "wall": t_serial,
        "speedup": 1.0, "bytes": base.counters.total_bytes(),
    }]
    for n_ranks in RANK_COUNTS:
        res = run_distributed_mp(
            make_build(n_ranks), N_STEPS, n_ranks, run_timeout=600.0
        )
        records.append({
            "transport": "multiprocessing", "ranks": n_ranks,
            "wall": res.wall_time, "speedup": t_serial / res.wall_time,
            "bytes": res.counters.total_bytes(),
        })
    return records


def test_fig5_measured_local_scaling(table):
    cores = usable_cores()
    records = run_all()
    table(
        f"Fig. 5 companion: measured local scaling "
        f"({cores} usable core(s), {N_STEPS} steps)",
        ["Transport", "Ranks", "wall [s]", "speedup vs serial",
         "wire bytes"],
        [
            [r["transport"], r["ranks"], f"{r['wall']:.3f}",
             f"{r['speedup']:.2f}x", r["bytes"]]
            for r in records
        ],
    )
    # measured runs completed on every rank count and moved real traffic
    by_ranks = {r["ranks"]: r for r in records
                if r["transport"] == "multiprocessing"}
    assert set(by_ranks) == set(RANK_COUNTS)
    assert by_ranks[4]["bytes"] > 0
    assert by_ranks[1]["bytes"] == 0  # one rank: nothing crosses the wire
    if cores >= 4:
        # with real cores the measured 4-rank run must actually scale
        assert by_ranks[4]["speedup"] >= 2.0
