"""Fig. 5 companion: the *measured* multi-process run of the local deck.

The two ``bench_fig5_*`` modules replay the paper's Frontier/Fugaku
weak- and strong-scaling curves through the alpha-beta performance
model — modelled numbers.  This module is the measured counterpart's
correctness half: the Sec. V.A.1-style uniform plasma is stepped through
the real one-worker-process-per-rank multiprocessing transport at 1, 2
and 4 ranks, and the wire bytes each run moves are tabulated next to
the 4-rank loopback run's.

It keeps no stopwatch: the multi-process speedup over loopback is the
repo benchmark's ``parallel.mp_speedup_vs_loopback`` (``benchmarks/perf``).
"""

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
    base = run_distributed_local(make_build(4), N_STEPS)
    records = [{
        "transport": "loopback", "ranks": 4,
        "bytes": base.counters.total_bytes(),
    }]
    for n_ranks in RANK_COUNTS:
        res = run_distributed_mp(
            make_build(n_ranks), N_STEPS, n_ranks, run_timeout=600.0
        )
        records.append({
            "transport": "multiprocessing", "ranks": n_ranks,
            "bytes": res.counters.total_bytes(),
        })
    return records


def test_fig5_measured_local_scaling(table):
    records = run_all()
    table(
        f"Fig. 5 companion: measured multi-process runs ({N_STEPS} steps)",
        ["Transport", "Ranks", "wire bytes"],
        [[r["transport"], r["ranks"], r["bytes"]] for r in records],
    )
    # measured runs completed on every rank count and moved real traffic
    by_ranks = {r["ranks"]: r for r in records
                if r["transport"] == "multiprocessing"}
    assert set(by_ranks) == set(RANK_COUNTS)
    assert by_ranks[1]["bytes"] == 0  # one rank: nothing crosses the wire
    # the same decomposition moves the same bytes on either transport
    assert by_ranks[4]["bytes"] == records[0]["bytes"] > 0
