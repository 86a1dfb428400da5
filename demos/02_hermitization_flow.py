"""Integrate the map-locking constraints and check what they buy.

A time-dependent similarity map only hermitizes the generator if its
parameters obey a set of coupled ODEs.  This script integrates that
flow for a moderately unbalanced drive and verifies, on the resulting
trajectory, that the transformed coefficients really are Hermitian:
W stays real and the two-photon strengths are complex conjugates.

It also shows the closed-form shortcut used in the fast paths: on weak
resonant modulation the flow locks to |z| = 1 with a frozen Phi while
the map phase advances at twice the carrier frequency.

Run:  python3 demos/02_hermitization_flow.py
"""

import numpy as np

from pseudo_dce.drive import DriveParams
from pseudo_dce.hermitize import (ConstraintState, MapSource,
                                  constraint_rhs_polar, z_residual)


def main():
    p = DriveParams(omega0=1.0, eps_mod=0.01, kappa=2.0,
                    alpha0_tilde=0.6, beta0_tilde=0.2)
    # Initial map chosen self-consistently: |z| = -2*Phi/(chi + 1).
    state0 = ConstraintState.from_chi(-2.25, 0.8, 0.5 * np.pi)

    tau = np.linspace(0.0, 30.0, 601)
    src = MapSource(p, "integrated", constraint0=state0)
    flow = src.integrate(lambda m, y: (), (), tau, rtol=1e-11, atol=1e-12)
    W, T, V = src.raw_coefficients(flow.t, flow.m)
    im_w = np.abs(W.imag)
    vt = np.abs(V - np.conj(T))

    print("constraint flow for a moderate drive, tau <= 30")
    print(f"{'tau':>6} {'|z|':>10} {'Phi':>10} {'|Im W|':>12} {'|V-conj(T)|':>12}")
    for i in range(0, len(tau), 120):
        print(f"{tau[i]:6.1f} {flow.m.z_abs[i]:10.6f} {flow.m.Phi[i]:10.6f} "
              f"{im_w[i]:12.3e} {vt[i]:12.3e}")
    print(f"|z|-consistency residual along the flow: "
          f"max {z_residual(p, flow).max():.2e}")
    print()

    chi = 1.0002
    print("locked-map shortcut on the weak resonant drive:")
    fig = DriveParams(omega0=1.0, eps_mod=0.01, kappa=2.0,
                      alpha0_tilde=0.01, beta0_tilde=0.001)
    locked = MapSource(fig, chi=chi, varphi0=0.5 * np.pi)
    for t in (0.0, 5.0, 25.0):
        m = locked.at(t, ())
        print(f"  tau={t:5.1f}  |z|={m.z_abs:.6f}  Phi={m.Phi:+.6f}  "
              f"W={m.W:+.6f}  |T|={abs(m.T):.3e}")
    print()

    rhs0 = constraint_rhs_polar(state0, p, 0.0)
    print("flow rate at tau = 0 (pump is off, only the phase runs):")
    print(f"  dPhi/dt={rhs0[0]:+.3e}  dLambda/dt={rhs0[2]:+.3e}  "
          f"d|z|/dt={rhs0[3]:+.3e}")
    print(f"  dvarphi/dt={rhs0[1]:+.6f}  (2*omega(0) = {2 * 1.0 * 1.01:.6f})")


if __name__ == "__main__":
    main()
