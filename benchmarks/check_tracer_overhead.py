"""CI gate: the disabled tracer must cost < 5% of a smoke-benchmark step.

The observability contract is that instrumentation stays permanently in
the step code because a disabled tracer is near-free.  This script
verifies that claim on the uniform-plasma smoke workload:

1. measures the mean step time with the tracer disabled (the default);
2. measures the *added* per-phase dispatch cost directly — the delta
   between ``sim._phase(name)`` (the instrumented path: one enabled
   check + the legacy timer) and the seed's bare ``timers.timer(name)``
   — and scales it by the phases-per-step of the PIC cycle, counted by
   the timers of the measured run (the fused particle pass enters fewer
   phases than the three-phase route);
3. fails (exit 1) if that added cost exceeds 5% of a step;
4. reports the enabled-tracer overhead informationally (that one is
   allowed to cost more: it records).

Run:  PYTHONPATH=src python benchmarks/check_tracer_overhead.py
"""

import sys

import numpy as np

from repro.diagnostics.timers import now
from repro.observability import Tracer, attach_observability
from repro.scenarios.uniform_plasma import build_uniform_plasma

OVERHEAD_BUDGET = 0.05
SMOKE = dict(n_cells=(32, 32), ppc=2, shape_order=2, temperature_uth=0.01)


def mean_step_time(sim, steps: int = 15) -> float:
    sim.step(3)  # warm-up
    sim.timers.step_times.clear()
    sim.step(steps)
    return float(np.mean(sim.timers.step_times))


def dispatch_cost(sim, iterations: int = 20000) -> float:
    """Seconds per extra `_phase` dispatch vs. the seed's bare timer."""
    t0 = now()
    for _ in range(iterations):
        with sim._phase("overhead_probe"):
            pass
    instrumented = now() - t0
    t0 = now()
    for _ in range(iterations):
        with sim.timers.timer("overhead_probe"):
            pass
    bare = now() - t0
    return max(instrumented - bare, 0.0) / iterations


def main() -> int:
    n_cells, ppc = SMOKE["n_cells"], SMOKE["ppc"]
    sim_off, _ = build_uniform_plasma(n_cells, ppc=ppc)
    t_off = mean_step_time(sim_off)
    # phase contexts entered per step, before the probe adds its own
    phases_per_step = sum(sim_off.timers.counts.values()) / sim_off.step_count

    per_dispatch = dispatch_cost(sim_off)
    added_per_step = per_dispatch * phases_per_step
    overhead = added_per_step / t_off

    sim_on, _ = build_uniform_plasma(n_cells, ppc=ppc)
    attach_observability(sim_on, tracer=Tracer(enabled=True))
    t_on = mean_step_time(sim_on)

    print("tracer overhead on the uniform-plasma smoke benchmark:")
    print(f"  mean step time (tracer disabled): {t_off * 1e3:9.3f} ms")
    print(f"  mean step time (tracer enabled):  {t_on * 1e3:9.3f} ms "
          f"({(t_on / t_off - 1) * 100:+.1f}%, informational)")
    print(f"  added dispatch cost per phase:    {per_dispatch * 1e9:9.1f} ns")
    print(f"  added cost per step (x{phases_per_step:g} phases): "
          f"{added_per_step * 1e6:.3f} us = {overhead * 100:.4f}% of a step")
    if overhead >= OVERHEAD_BUDGET:
        print(f"FAIL: disabled-tracer overhead {overhead * 100:.2f}% "
              f">= {OVERHEAD_BUDGET * 100:.0f}% budget")
        return 1
    print(f"OK: disabled-tracer overhead is under the "
          f"{OVERHEAD_BUDGET * 100:.0f}% budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
