"""The paper's science case: hybrid solid-gas target with mesh refinement.

A reduced 2D version of the simulation in the paper's Fig. 7 (the paper's
own Fig. 6 uses exactly this reduction): an intense pulse crosses the gas,
reflects off the solid-density plasma mirror covered by an MR patch,
extracts a high-charge electron bunch, the patch is removed, and a moving
window follows the reflected pulse as the wakefield accelerates the bunch.

Prints the beam-charge history (Fig. 7a), the electron spectrum (Fig. 7b)
and the timeline of MR events.

Run:  python examples/hybrid_target_2d.py        (a few minutes)
"""

import numpy as np

from repro.constants import MeV, fs, um
from repro.diagnostics.beam import BeamHistory
from repro.diagnostics.spectrum import energy_spectrum, spectral_peak_and_spread
from repro.observability import RunReport
from repro.scenarios.hybrid_target import HybridTargetSetup, build_hybrid_target


def main() -> None:
    setup = HybridTargetSetup(
        cells_per_wavelength=8,
        x_max=28 * um,
        y_half=7 * um,
        gas_lo=4 * um,
        gas_hi=19 * um,
        solid_lo=19 * um,
        solid_hi=21 * um,
        solid_nc=12.0,
        a0=5.0,
        duration=8 * fs,
        waist=3.5 * um,
    )
    sim, solid, gas = build_hybrid_target(setup, mode="mr", subcycle=False)
    print(f"grid                 : {sim.grid.n_cells} "
          f"(+ MR patch {sim.patches[0].fine.n_cells} at ratio "
          f"{setup.mr_ratio})")
    print(f"solid density        : {setup.solid_nc} n_c")
    print(f"solid / gas particles: {solid.n} / {gas.n}")
    print(f"reflection at        : {setup.reflection_time() / fs:.0f} fs")
    print(f"patch removal at     : {setup.patch_removal_time() / fs:.0f} fs")
    print(f"window starts at     : {setup.window_start_time() / fs:.0f} fs")

    history = BeamHistory(energy_threshold=0.5 * MeV)
    t_end = setup.window_start_time() + 25 * fs

    while sim.time < t_end:
        sim.step(10)
        history.record(sim.time, solid)
        if sim.removal_log and len(history.times) and \
                abs(sim.time - sim.removal_log[0][0]) < 10 * sim.dt:
            print(f"  * MR patch removed at t = {sim.time / fs:.0f} fs "
                  f"(the star in Fig. 6)")

    print("\nbeam charge history (electrons from the solid, > 0.5 MeV):")
    for t, q in zip(history.times[::4], history.charge[::4]):
        bar = "#" * int(60 * q / (max(history.charge) or 1.0))
        print(f"  t = {t / fs:6.0f} fs | {q:.3e} C/m {bar}")

    print(f"\nfinal injected charge: {history.final_charge():.3e} C/m")
    if solid.n:
        centers, dn_de = energy_spectrum(solid, bins=40, e_min=0.5 * MeV)
        peak, spread = spectral_peak_and_spread(centers, dn_de)
        print(f"spectral peak        : {peak / MeV:.1f} MeV")
        print(f"relative spread      : {spread:.1%}")
        print("\nspectrum dN/dE:")
        top = dn_de.max() or 1.0
        for c_, v in zip(centers[::2], dn_de[::2]):
            print(f"  {c_ / MeV:7.1f} MeV | {'#' * int(50 * v / top)}")
    print("\n" + RunReport.from_timers(sim.timers).render())


if __name__ == "__main__":
    main()
