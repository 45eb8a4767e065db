"""Fig. 5 (right): strong scaling with the AMReX block-granularity floor.

A fixed problem is spread over more nodes until there are fewer cells per
device than one block — the paper's scaling floor.  The expected shape:
roughly 30 % efficiency loss per decade of nodes.

These curves are *modelled*; the same deck run over real worker
processes is ``bench_fig5_measured_local.py``, and its measured speedup
is the repo benchmark's ``parallel.mp_speedup_vs_loopback``."""

import pytest

from repro.perfmodel.machines import MACHINES
from repro.perfmodel.scaling import STRONG_SCALING_BLOCKS, strong_scaling

#: the paper's strong-scaling start points per machine
BASE_NODES = {"frontier": 512, "fugaku": 6144, "summit": 512, "perlmutter": 15}


def run_all():
    out = {}
    for key, machine in MACHINES.items():
        n0 = BASE_NODES[key]
        block = STRONG_SCALING_BLOCKS[key] ** 3
        total = block * n0 * machine.devices_per_node * 4  # 4 blocks/device
        counts = [n0 * f for f in (1, 2, 4, 8, 16) if n0 * f <= machine.max_nodes_used]
        out[key] = strong_scaling(key, total, node_counts=counts)
    return out


def test_fig5_strong_scaling(benchmark, table):
    curves = benchmark(run_all)
    rows = []
    for key, records in curves.items():
        for r in records:
            rows.append(
                [
                    MACHINES[key].name,
                    r["nodes"],
                    f"{r['cells_per_device']:.2e}",
                    f"{r['time_per_step']:.4f}",
                    f"{r['efficiency']:.1%}",
                    "yes" if r["feasible"] else "NO (past 1 block/device)",
                ]
            )
    table(
        "Fig. 5 (right): strong scaling of a fixed problem",
        ["Machine", "Nodes", "cells/device", "t/step [s]", "Efficiency",
         "feasible"],
        rows,
    )

    for key, records in curves.items():
        feasible = [r for r in records if r["feasible"]]
        if len(feasible) < 2:
            continue
        first, last = feasible[0], feasible[-1]
        decades = (last["nodes"] / first["nodes"])
        # time-to-solution must still improve with more nodes...
        assert last["time_per_step"] < first["time_per_step"]
        # ...while efficiency decays roughly like the paper's ~30 % per decade
        if decades >= 8:
            assert 0.35 < last["efficiency"] < 0.95, key
