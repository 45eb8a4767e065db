"""Laser-wakefield acceleration in a gas jet (paper Sec. III.B).

A short intense pulse is focused into an underdense gas jet; it expels
electrons from its path and drives a plasma wave ("bubble") with ~100 GV/m
longitudinal fields.  A moving window follows the pulse down the jet.

The script prints the wakefield amplitude, an ASCII snapshot of the
on-axis longitudinal field, and the trapped-electron statistics.

Run:  python examples/lwfa_gas_jet.py        (about a minute)
"""

import numpy as np

from repro.constants import MeV, c, fs, um
from repro.diagnostics.beam import beam_statistics
from repro.observability import RunReport
from repro.scenarios.lwfa import build_lwfa


def ascii_plot(values: np.ndarray, width: int = 72, height: int = 10) -> str:
    """A rough terminal plot of a 1D signal."""
    idx = np.linspace(0, len(values) - 1, width).astype(int)
    v = values[idx]
    vmax = np.abs(v).max() or 1.0
    rows = []
    for level in range(height, 0, -1):
        thresh = (level - 0.5) / height * vmax
        rows.append(
            "".join("#" if val >= thresh else " " for val in v)
        )
    for level in range(1, height + 1):
        thresh = -(level - 0.5) / height * vmax
        rows.append(
            "".join("#" if val <= thresh else " " for val in v)
        )
    return "\n".join(rows[:height] + ["-" * width] + rows[height:])


def main() -> None:
    sim, electrons, laser = build_lwfa(
        gas_density=3.0e24,
        a0=2.5,
        domain_size=(36 * um, 24 * um),
        cells_per_wavelength=10,
        waist=4 * um,
        duration=7 * fs,
    )
    print(f"grid               : {sim.grid.n_cells}")
    print(f"gas electrons      : {electrons.n}")
    print(f"laser a0 / waist   : {laser.a0} / {laser.waist * 1e6:.1f} um")

    t_end = laser.t_peak + 30 * um / c
    sim.run_until(t_end)

    ex = sim.grid.interior_view("Ex")
    mid = ex.shape[1] // 2
    on_axis = ex[:, mid]
    print(f"\nwakefield E_x max  : {np.abs(on_axis).max():.3e} V/m "
          f"({np.abs(on_axis).max() / 1e9:.1f} GV/m)")
    print(f"window position    : {sim.grid.lo[0] * 1e6:.1f} .. "
          f"{sim.grid.hi[0] * 1e6:.1f} um")
    print("\non-axis E_x through the bubble:")
    print(ascii_plot(on_axis))

    stats = beam_statistics(electrons, energy_threshold=0.5 * MeV)
    print(f"\ntrapped electrons  : {stats['n']} macroparticles")
    print(f"beam charge        : {stats['charge']:.3e} C/m (2D: per unit width)")
    if stats["n"]:
        print(f"mean energy        : {stats['mean_energy'] / MeV:.2f} MeV")
        print(f"energy spread      : {stats['energy_spread']:.1%}")
    print("\n" + RunReport.from_timers(sim.timers).render())


if __name__ == "__main__":
    main()
