"""Walk through the drive conventions and the map decomposition.

The drive is a parametric oscillator with a weakly modulated frequency
plus an unbalanced two-photon term.  The imbalance between the a^2 and
a^dag^2 strengths is what a similarity map has to absorb before standard
squeeze-state machinery applies; this script prints the numbers that
make that work: the pump coefficient, the map strength for a requested
mixing ratio, and the growth-rate amplification it buys.

Run:  python3 demos/01_drive_and_map.py
"""

import numpy as np

from pseudo_dce.drive import DriveParams, couplings, omega, zeta_signed
from pseudo_dce.dynamics import amplification_factor
from pseudo_dce.dyson import (DysonState, epsilon_from_phi,
                              gauss_coefficients, phi_from_z)
from pseudo_dce.errors import DegenerateDenominator


def main():
    p = DriveParams(omega0=1.0, eps_mod=0.01, kappa=2.0,
                    alpha0_tilde=0.01, beta0_tilde=0.001)

    print("drive over one modulation period")
    print(f"{'t':>8} {'omega':>10} {'|zeta|':>12} {'|alpha|':>12} {'|beta|':>12}")
    for t in np.linspace(0.0, p.period(), 9):
        alpha, beta = couplings(float(t), p)
        print(f"{t:8.3f} {omega(float(t), p):10.6f} "
              f"{abs(zeta_signed(float(t), p)):12.3e} "
              f"{abs(alpha):12.3e} {abs(beta):12.3e}")
    print()

    print("map strength for a requested mixing ratio (|z|, eps_map):")
    for z_abs in (0.5, 0.9, 1.0):
        for eps_map in (0.2, 1.0):
            try:
                phi, chi = phi_from_z(z_abs, eps_map)
            except DegenerateDenominator as exc:
                print(f"  |z|={z_abs:4.2f} eps={eps_map:4.2f} -> rejected: {exc}")
                continue
            back = epsilon_from_phi(z_abs, phi)
            print(f"  |z|={z_abs:4.2f} eps={eps_map:4.2f} -> Phi={phi:+.6f} "
                  f"chi={chi:+.6f} (inverted back to eps={back:.12f})")
    print()

    d = DysonState.from_z(z_abs=0.5, Phi=0.3, varphi=0.9)
    g = gauss_coefficients(d.eps_map, d.mu())
    print("the map's Gauss decomposition at (|z|, Phi, varphi) = (0.5, 0.3, 0.9):")
    for name in ("Phi", "varphi", "Lambda"):
        print(f"  {name:6} = {getattr(g, name):+.6f}  "
              f"(state: {getattr(d, name):+.6f})")
    print()

    chi = 1.0002
    amp = amplification_factor(p.alpha0_tilde, p.beta0_tilde, chi)
    print(f"growth-rate amplification at chi = {chi}:")
    print(f"  balanced drive      : {amplification_factor(1.0, 1.0, chi):.3f}")
    print(f"  alpha=0.01, beta=1e-3: {amp:.3f}")
    print(f"  alpha=0.01, beta=1e-4: "
          f"{amplification_factor(0.01, 1e-4, chi):.3f}")
    print()
    print("the unbalanced drive squeezes ~45x faster than the balanced one"
          " at the same modulation depth")


if __name__ == "__main__":
    main()
