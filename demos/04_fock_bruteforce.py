"""Check the operator algebra by brute force in a truncated Fock space.

Everything upstream manipulates operators symbolically.  This script
redoes the key identities with explicit matrices so there is nothing
left to trust:

  1. the factorized map equals the exponentiated generator,
  2. conjugating the drive generator by a static map reproduces the
     closed-form mapped coefficients, and shows why a static map is not
     enough (the two-photon strengths fail to be conjugates),
  3. the metric built from the flow-locked map satisfies the metric
     equation of motion, with an identity-metric negative control that
     misses it by orders of magnitude,
  4. propagating the vacuum under the counterpart generator reproduces
     the squeeze-route photon numbers inside the truncation's trust
     window.

Truncation is the enemy throughout: a map or a state that reaches the
top of the ladder is meaningless, so every comparison is restricted to
the levels the truncation can actually represent.

Run:  python3 demos/04_fock_bruteforce.py
"""

import math

import numpy as np

from pseudo_dce.drive import DriveParams, alpha_beta
from pseudo_dce.drive import omega as drive_omega
from pseudo_dce.dynamics import evolve
from pseudo_dce.dyson import DysonState
from pseudo_dce.fock import (FockSpace, drive_hamiltonian, eta_matrix,
                             inverse_map_state, propagate,
                             quasi_hermiticity_residual, squeeze_trust_bound)
from pseudo_dce.hermitize import MapSource, coefficients_general

CHI = 1.0002
FIG = DriveParams(omega0=1.0, eps_mod=0.01, kappa=2.0,
                  alpha0_tilde=0.01, beta0_tilde=1e-3)
MODERATE = DriveParams(omega0=1.0, eps_mod=0.01, kappa=2.0,
                       alpha0_tilde=0.6, beta0_tilde=0.2)


def moderate_state0() -> DysonState:
    return DysonState.from_chi(-2.25, 0.8, 0.5 * math.pi)


def main():
    f = FockSpace(64)
    blk = slice(0, 25)

    eps, z = 0.3, 0.3
    mu = z * eps / 2.0
    a = eta_matrix(eps, mu, f, form="gauss")
    b = eta_matrix(eps, mu, f, form="exponential")
    print(f"factorized vs exponentiated map (eps={eps}, |mu|={mu}), "
          f"levels 0..24: {np.abs(a[blk, blk] - b[blk, blk]).max():.2e}")

    d_weak = DysonState.from_z(z_abs=0.3, Phi=0.15, varphi=0.7)
    eta_w = eta_matrix(d_weak.eps_map, d_weak.mu(), f, form="gauss")
    psi = f.vacuum()
    back = eta_w @ inverse_map_state(eta_w, psi)
    print(f"map then inverse map on the vacuum: "
          f"{np.abs(back - psi).max():.2e}")
    print()

    t = 0.7
    d = DysonState.from_z(z_abs=0.5, Phi=0.3, varphi=0.9)
    eta = eta_matrix(d.eps_map, d.mu(), f, form="gauss")
    h = eta @ drive_hamiltonian(t, FIG, f) @ np.linalg.inv(eta)
    W_m = h[1, 1] - h[0, 0]
    T_m = h[0, 2] / math.sqrt(2.0)
    V_m = h[2, 0] / math.sqrt(2.0)
    a_pol, b_pol = alpha_beta(t, FIG)
    W, T, V = coefficients_general(
        lam=d.lam, Lambda=d.Lambda, omega=complex(drive_omega(t, FIG)),
        alpha=a_pol.to_complex(), beta=b_pol.to_complex(),
        dlam_dt=0j, dLambda_dt=0.0)
    print("static map conjugation vs closed-form mapped coefficients:")
    print(f"  |W_matrix - W| = {abs(W_m - W):.2e}   "
          f"|T_matrix - T| = {abs(T_m - T):.2e}   "
          f"|V_matrix - V| = {abs(V_m - V):.2e}")
    print(f"  but |V - conj(T)| = {abs(V - np.conj(T)):.2e} and "
          f"|Im W| = {abs(W.imag):.2e}:")
    print("  a frozen map does not hermitize; the flow's derivative terms"
          " close that gap")
    print()

    tt, fd_h = 5.0, 1e-4
    flow = MapSource(MODERATE, "integrated", constraint0=moderate_state0())

    def theta_at(t_s: float) -> np.ndarray:
        # The empty route: the flow alone.
        m = flow.integrate(lambda m, y: (), (), np.array([0.0, t_s]),
                           rtol=1e-13, atol=1e-16).m
        dd = DysonState(float(m.Phi[-1]), float(m.varphi[-1]), float(m.Lambda[-1]))
        # Theta = eta^dag eta collapses to one exponential with doubled
        # coefficients because the generator is Hermitian.
        return eta_matrix(2.0 * dd.eps_map, 2.0 * dd.mu(), f, form="gauss")

    H = drive_hamiltonian(tt, MODERATE, f)
    res = quasi_hermiticity_residual(H, theta_at(tt), theta_at(tt + fd_h),
                                     theta_at(tt - fd_h), fd_h)
    eye = np.eye(f.dim, dtype=complex)
    ctrl = quasi_hermiticity_residual(H, eye, eye, eye, fd_h)
    print(f"metric equation of motion at tau = {tt:g} on the moderate drive:")
    print(f"  flow-locked metric residual : {res:.2e}")
    print(f"  identity-metric control     : {ctrl:.2e} "
          f"({ctrl / res:.1e}x worse)")
    print()

    f_big = FockSpace(128)
    r_trust = squeeze_trust_bound(f_big.dim)
    tg = np.linspace(0.0, 10.0, 201)
    src = MapSource(FIG, chi=CHI)
    traj = evolve(src, tg)

    def coeffs(ts: float):
        m = src.at(ts, ())
        return m.W, m.T, m.T.conjugate()

    prop = propagate(coeffs, f_big.vacuum(), tg, f_big, rtol=1e-10)
    n_fock = prop.mean_photon(f_big)
    n_sq = traj.mean_photon()
    mask = (n_sq > 1e-3) & (traj.r <= r_trust)
    rel = np.max(np.abs(n_fock[mask] - n_sq[mask]) / n_sq[mask])
    print(f"vacuum propagated under the counterpart generator "
          f"(dim = {f_big.dim}), tau <= {tg[-1]:g}:")
    print(f"  norm drift {prop.norm_drift:.2e}, "
          f"max edge population {prop.max_edge_population:.2e} "
          f"(trusted: {prop.trusted})")
    print(f"  photon number vs squeeze route for r <= {r_trust:.2f}: "
          f"{rel:.2e}")
    print(f"  r reaches {traj.r[-1]:.2f} by tau = {tg[-1]:g}; past the trust"
          f" bound the ladder is too short and the routes part ways")


if __name__ == "__main__":
    main()
