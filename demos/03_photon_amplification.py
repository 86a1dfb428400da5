"""Compare photon growth across drive imbalances and solution routes.

Three drives share the same modulation depth (1%) and resonant pump:
a balanced one (the textbook parametric oscillator) and two unbalanced
ones.  The squeeze parameter grows linearly in all three, but the slope
carries the amplification factor, so the unbalanced drives pile up
photons orders of magnitude faster.

The same quantity is then computed three independent ways on the
strongest drive: evolve's product of Magnus steps for (u, v), the
closed-form resonant solution, and a direct (u, v) Bogoliubov ODE.  Agreement between
the routes is the everyday correctness check for this machinery.

Run:  python3 demos/03_photon_amplification.py
"""

import math

import numpy as np

from pseudo_dce.drive import DriveParams
from pseudo_dce.dynamics import (amplification_factor, analytic_squeeze,
                                 bogoliubov_ode_oracle, evolve)
from pseudo_dce.hermitize import MapSource

CHI = 1.0002
TAU_MAX = 25.0


def main():
    drives = [
        ("balanced (1, 1)", DriveParams(omega0=1.0, eps_mod=0.01, kappa=2.0,
                                        alpha0_tilde=1.0, beta0_tilde=1.0)),
        ("unbalanced (0.01, 1e-3)", DriveParams(omega0=1.0, eps_mod=0.01,
                                                kappa=2.0, alpha0_tilde=0.01,
                                                beta0_tilde=1e-3)),
        ("unbalanced (0.01, 1e-4)", DriveParams(omega0=1.0, eps_mod=0.01,
                                                kappa=2.0, alpha0_tilde=0.01,
                                                beta0_tilde=1e-4)),
    ]
    tg = np.linspace(0.0, TAU_MAX, 501)

    print(f"photon growth at tau = {TAU_MAX:g} (vacuum start, 1% modulation)")
    print(f"{'drive':<26} {'amp factor':>11} {'r(tau)':>10} {'N(tau)':>12}")
    n_final = {}
    for label, p in drives:
        amp = amplification_factor(p.alpha0_tilde, p.beta0_tilde, CHI)
        traj = evolve(MapSource(p, chi=CHI), tg)
        n = traj.mean_photon()
        n_final[label] = n[-1]
        print(f"{label:<26} {amp:11.3f} {traj.r[-1]:10.4f} {n[-1]:12.4e}")
    ratio = n_final["unbalanced (0.01, 1e-3)"] / n_final["balanced (1, 1)"]
    print(f"unbalanced / balanced photon ratio: {ratio:.3e}")
    print()

    p = drives[1][1]
    src = MapSource(p, chi=CHI)
    traj = evolve(src, tg)
    u, v = bogoliubov_ode_oracle(src, tg, rtol=1e-10)
    n_sq = traj.mean_photon()
    n_uv = np.abs(v) ** 2

    print("route comparison on the (0.01, 1e-3) drive:")
    print(f"{'tau':>6} {'N Magnus':>14} {'N closed form':>14} {'N (u,v) ODE':>14}")
    for i in range(0, len(tg), 100):
        r_ana, _ = analytic_squeeze(float(tg[i]), p, CHI)
        print(f"{tg[i]:6.1f} {n_sq[i]:14.6e} {math.sinh(r_ana) ** 2:14.6e} "
              f"{n_uv[i]:14.6e}")

    mask = n_sq > 1e-3
    rel = np.max(np.abs(n_sq[mask] - n_uv[mask]) / n_uv[mask])
    ident = np.max(np.abs(np.abs(u) ** 2 - np.abs(v) ** 2 - 1.0))
    print(f"Magnus vs (u,v) ODE, relative where N > 1e-3: {rel:.2e}")
    print(f"|u|^2 - |v|^2 - 1 along the (u,v) route: max {ident:.2e}")


if __name__ == "__main__":
    main()
