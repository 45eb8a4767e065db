"""Quickstart: a Langmuir (plasma) oscillation in five minutes.

Builds a 1D uniform electron plasma with a small sinusoidal velocity
perturbation, advances the PIC cycle, and measures the oscillation
frequency of the longitudinal electric field — which must come out at the
plasma frequency omega_pe = sqrt(n e^2 / (eps0 m)).  This is the "hello
world" of kinetic plasma simulation.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.constants import m_e, plasma_frequency, plasma_wavelength, q_e
from repro.core.simulation import Simulation
from repro.grid.yee import YeeGrid
from repro.observability import RunReport
from repro.particles.injection import UniformProfile
from repro.particles.species import Species


def main() -> None:
    density = 1.0e24  # electrons / m^3
    length = plasma_wavelength(density)

    grid = YeeGrid(n_cells=(64,), lo=(0.0,), hi=(length,), guards=4)
    sim = Simulation(grid, shape_order=2, boundaries="periodic",
                     smoothing_passes=0)

    electrons = Species("electrons", charge=-q_e, mass=m_e, ndim=1)
    sim.add_species(electrons, profile=UniformProfile(density), ppc=16)

    # a gentle standing-wave velocity perturbation
    k = 2 * np.pi / length
    electrons.momenta[:, 0] = 1e-3 * np.sin(k * electrons.positions[:, 0])

    print(f"density            : {density:.2e} m^-3")
    print(f"plasma wavelength  : {length * 1e6:.2f} um")
    print(f"macroparticles     : {electrons.n}")
    print(f"time step          : {sim.dt:.3e} s")

    steps = 600
    probe_index = (grid.guards + 16,)
    ex_history = np.empty(steps)
    for i in range(steps):
        sim.step()
        ex_history[i] = grid.fields["Ex"][probe_index]

    spectrum = np.abs(np.fft.rfft(ex_history - ex_history.mean()))
    freqs = np.fft.rfftfreq(steps, d=sim.dt) * 2 * np.pi
    omega_measured = freqs[np.argmax(spectrum)]
    omega_theory = plasma_frequency(density)

    print(f"\nmeasured omega     : {omega_measured:.4e} rad/s")
    print(f"theoretical omega  : {omega_theory:.4e} rad/s")
    print(f"relative error     : {abs(omega_measured / omega_theory - 1):.2%}")
    print("\n" + RunReport.from_timers(sim.timers).render())


if __name__ == "__main__":
    main()
