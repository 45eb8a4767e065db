"""Fig. 6: time-to-solution with and without mesh refinement.

Three runs of the same reduced 2D hybrid-target scenario (the paper's own
Fig. 6 construction):

  a) "with MR"               — coarse grid + fine patch over the solid,
                               patch removed after reflection (the star),
                               moving window afterwards (the dashed line);
  b) "no MR, 2x res, ppc/4"  — uniform fine resolution, total macro-
                               particles matched to case (a);
  c) "no MR, 2x res"         — uniform fine resolution, same ppc as (a).

We record cumulative wall-clock time against simulation time and verify
the paper's shape: the three cases cost about the same while the patch is
active, and once the patch is removed the MR run pulls ahead, ending
1.5x-4x cheaper (the paper's reported band).

The cases run interleaved, ``ROUNDS`` times (a, b, c, b, a, b, c, b, ...),
and every assertion is on the median of per-round ratios — each a against
the b and c run next to it — so a flip of the shared host's speed during
one run cannot decide a verdict.  The second case-b run of each round is
an A/A control (it should read 1.00x against the first), and each run is
printed with the host level a fixed pure-Python loop measured before it.
"""

import time

import numpy as np
import pytest

from repro.constants import fs, um
from repro.scenarios.hybrid_target import HybridTargetSetup, build_hybrid_target

#: interleaved rounds: a, b, c and a second b (the A/A control) per round,
#: so each ratio compares runs made seconds apart, on one host level
ROUNDS = 5
#: the order of one round; "control" is case b run again
ROUND = ("mr", "highres_ppc4", "highres", "control")
LABELS = {
    "mr": "a) with MR",
    "highres_ppc4": "b) no MR, 2x res., ppc/4",
    "highres": "c) no MR, 2x res.",
    "control": "b') case b again (A/A)",
}


def make_setup():
    return HybridTargetSetup(
        cells_per_wavelength=5,
        x_max=16 * um,
        y_half=4 * um,
        gas_lo=3 * um,
        gas_hi=10 * um,
        solid_lo=10 * um,
        solid_hi=11.5 * um,
        solid_nc=20.0,
        a0=2.5,
        duration=6 * fs,
        waist=2.5 * um,
    )


def run_case(mode: str, t_end: float):
    """Run one Fig. 6 case; returns (sim_times, cumulative_wall_times)."""
    setup = make_setup()
    sim, _, _ = build_hybrid_target(setup, mode=mode)
    sim_times = [0.0]
    wall = [0.0]
    while sim.time < t_end:
        sim.step()
        sim_times.append(sim.time)
        wall.append(wall[-1] + sim.timers.step_times[-1])
    return np.array(sim_times), np.array(wall)


def calibration_ms() -> float:
    """The host's speed level: a fixed pure-Python loop, in ms (best of
    three).  The shared hosts this runs on flip between two levels
    ~1.2-1.3x apart; the loop flips with them, the code under test does
    not move it."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(20000):
            total += i
        best = min(best, time.perf_counter() - start)
    return best * 1e3


@pytest.fixture(scope="module")
def fig6_runs():
    """``ROUNDS`` interleaved rounds of ``ROUND``: per case a list of
    ``(sim_times, wall, calibration_ms)``, one entry per round."""
    setup = make_setup()
    t_end = setup.window_start_time() + 15 * fs
    for mode in ROUND[:3]:  # warm-up: imports, the library, caches
        run_case(mode, 2 * fs)
    runs = {mode: [] for mode in ROUND}
    for _ in range(ROUNDS):
        for mode in ROUND:
            calib = calibration_ms()
            times, wall = run_case(
                "highres_ppc4" if mode == "control" else mode, t_end
            )
            runs[mode].append((times, wall, calib))
    print_levels(runs)
    return runs, setup, t_end


def print_levels(runs) -> None:
    """Every run's total wall time with the host level it ran at: "slow"
    where the calibration loop read >15 % above its fastest reading."""
    fastest = min(r[2] for series in runs.values() for r in series)
    print("\nFig. 6 runs (round, case, wall s, calibration ms, host level):")
    for k in range(ROUNDS):
        for mode in ROUND:
            _times, wall, calib = runs[mode][k]
            level = "slow" if calib > 1.15 * fastest else "fast"
            print(f"  {k}  {LABELS[mode]:<26} {wall[-1]:6.2f}  "
                  f"{calib:5.3f}  {level}")


def round_ratios(runs, mode, other, measure):
    """Per round, ``measure`` of ``mode``'s run over ``other``'s."""
    return np.array([
        measure(*runs[mode][k][:2]) / measure(*runs[other][k][:2])
        for k in range(ROUNDS)
    ])


def spread(ratios) -> str:
    return (f"median {np.median(ratios):.2f}x "
            f"(rounds {', '.join(f'{r:.2f}' for r in ratios)})")


def wall_at(times, wall, t):
    return float(np.interp(t, times, wall))


def late_rate(times, wall, t0, t1):
    """Wall seconds per simulated second over ``(t0, t1]``, from the
    median step: a stall of the shared host during one case's short
    window must not decide the comparison (the window's total did, about
    one run in six, for case c against case b)."""
    inside = (times[1:] > t0) & (times[1:] <= t1)
    return float(np.median(np.diff(wall)[inside] / np.diff(times)[inside]))


def test_fig6_time_to_solution(benchmark, table, fig6_runs):
    runs, setup, t_end = fig6_runs
    benchmark.pedantic(lambda: None, rounds=1)  # timing captured in fig6_runs

    t_star = setup.patch_removal_time()
    t_window = setup.window_start_time()
    rows = []
    samples = np.linspace(0, t_end, 9)
    for mode in ROUND:
        rows.append(
            [LABELS[mode]]
            + [f"{np.median([wall_at(*r[:2], t) for r in runs[mode]]):.1f}"
               for t in samples]
        )
    table(
        "Fig. 6: cumulative wall-clock [s] vs simulation time, median of "
        f"{ROUNDS} interleaved rounds (star = patch removal at "
        f"{t_star / fs:.0f} fs, dashed = moving window at "
        f"{t_window / fs:.0f} fs)",
        ["case"] + [f"{t / fs:.0f}fs" for t in samples],
        rows,
    )

    # per-unit-simulation-time cost late in the run (after the star),
    # each a against the b and c of its own round:
    def late(times, wall):
        return late_rate(times, wall, t_window, t_end)

    late_b = round_ratios(runs, "highres_ppc4", "mr", late)
    late_c = round_ratios(runs, "highres", "mr", late)
    speedup_b, speedup_c = np.median(late_b), np.median(late_c)
    print(f"\nlate-time cost ratio vs MR:  case b {spread(late_b)},  "
          f"case c {spread(late_c)}   (paper band: 1.5x - 4x)")

    # the paper's claim: after patch removal the MR case is 1.5-4x cheaper
    assert speedup_b > 1.3
    assert speedup_c > speedup_b  # more particles cost more
    assert speedup_c < 12.0

    # while the patch is active the costs are comparable (same order)
    early = 0.8 * t_star
    early_b = round_ratios(runs, "highres_ppc4", "mr",
                           lambda times, wall: wall_at(times, wall, early))
    ratio_early = np.median(early_b)
    print(f"early-time cost ratio (patch active): {spread(early_b)}")
    assert 0.3 < ratio_early < 3.5

    total_b, total_c = end_to_end_advantage(fig6_runs)
    print(f"end-to-end advantage: {spread(total_b)} (b), "
          f"{spread(total_c)} (c)")
    control = round_ratios(runs, "control", "highres_ppc4", total_wall)
    print(f"A/A control, case b again over case b: {spread(control)}")


def total_wall(times, wall):
    return float(wall[-1])


def end_to_end_advantage(fig6_runs):
    """Total time-to-solution of cases b and c over the MR run's, per
    round (each a against the b and c run next to it)."""
    runs, _setup, t_end = fig6_runs

    def at_end(times, wall):
        return wall_at(times, wall, t_end)

    return (
        round_ratios(runs, "highres_ppc4", "mr", at_end),
        round_ratios(runs, "highres", "mr", at_end),
    )


def test_fig6_end_to_end_advantage(fig6_runs):
    """The paper's headline: the MR run reaches the end sooner than case
    b, in the median of the per-round ratios."""
    total_b, _total_c = end_to_end_advantage(fig6_runs)
    assert np.median(total_b) > 1.0
