"""Hermitization of the quadratic Hamiltonian through the SU(1,1) map.

The non-Hermitian generator H = omega*(n + 1/2) + alpha*a^2 + beta*a^dag^2
is mapped to h = eta H eta^-1 + i (d eta/dt) eta^-1.  With the Gauss
coefficients (lam, Lambda) of the map, h is again quadratic,

    h = -W*(n + 1/2) - [T*a^2 + V*a^dag^2],

and Hermiticity of h requires W real and V = conj(T).  Those two
conditions close into a first-order flow for the map coordinates
(Phi, varphi, Lambda); on the flow the surviving coefficients are
W (a real frequency) and T = |T|*exp(i*phi_T).

Sign bookkeeping uses the negativity indicator h(x) from the drive
module.  The overall sign of h above is a convention choice that cancels
in every observable; the functions here return W, T, V such that the
Hermitian counterpart generator is W*(n+1/2) + T*a^2 + conj(T)*a^dag^2
with the signs produced by the coefficient formulas directly.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .drive import DriveParams, PolarComplex, alpha_beta, heaviside, omega as drive_omega, zeta_signed
from .errors import ChiSingular, PhiZero, ZeroLambda
from .integrate import IvpProblem, IntegrationStats, integrate

_CHI_GUARD = 1e-9
_PHI_GUARD = 1e-12


@dataclass(frozen=True)
class ConstraintState:
    """Map coordinates carried along the hermitization flow.

    Unlike the static map description, Lambda is integrated as an
    independent coordinate here and |z| is reconstructed from
    chi = Phi^2 - Lambda via |z| = -2*Phi/(chi + 1); the redundancy is
    monitored, not enforced.
    """

    z_abs: float
    Phi: float
    varphi: float
    Lambda: float

    @property
    def chi(self) -> float:
        return self.Phi * self.Phi - self.Lambda

    @property
    def lam(self) -> complex:
        return self.Phi * cmath.exp(-1j * self.varphi)


@dataclass(frozen=True)
class HermitizedCoeffs:
    """Hermitian-counterpart coefficients: frequency W and pump T in polar form."""

    W: float
    T_abs: float
    phi_T: float

    def T(self) -> complex:
        return self.T_abs * cmath.exp(1j * self.phi_T)


def z_abs_from(Phi: float, Lambda: float) -> float:
    """|z| = -2*Phi/(chi + 1) with chi = Phi^2 - Lambda."""
    chi = Phi * Phi - Lambda
    denom = chi + 1.0
    if denom == 0.0:
        raise ChiSingular("chi = -1 leaves |z| undetermined")
    return -2.0 * Phi / denom


def coefficients_general(lam: complex, Lambda: float, omega: complex,
                         alpha: complex, beta: complex, dlam_dt: complex,
                         dLambda_dt: float) -> tuple[complex, complex, complex]:
    """Raw mapped coefficients (W, T, V) for arbitrary map data.

    No constraint is assumed: W may be complex and V need not equal
    conj(T).  Their failure to do so measures how far the supplied
    (lam, Lambda, dlam/dt, dLambda/dt) are from the hermitization flow.
    Raises ZeroLambda when Lambda vanishes.
    """
    if Lambda == 0.0:
        raise ZeroLambda("mapped coefficients are undefined at Lambda = 0")
    lam_c = lam.conjugate()
    dlam_c = dlam_dt.conjugate()
    chi = (lam * lam_c).real - Lambda
    W = -(omega * ((lam * lam_c).real + chi)
          + 2.0 * (alpha * lam + beta * lam_c * chi)
          + 1j * (lam * dlam_c - 0.5 * dLambda_dt)) / Lambda
    T = (omega * lam_c + alpha + beta * lam_c * lam_c + 0.5j * dlam_c) / Lambda
    V = (omega * lam * chi + alpha * lam * lam + beta * chi * chi
         + 0.5j * (dlam_dt * Lambda - dLambda_dt * lam + dlam_c * lam * lam)) / Lambda
    return W, T, V


def _check_guards(s: ConstraintState, chi_guard: float):
    if abs(s.chi - 1.0) < chi_guard:
        raise ChiSingular(
            f"chi = {s.chi!r} within {chi_guard!r} of the chi = 1 singularity"
        )
    if abs(s.Phi) < _PHI_GUARD:
        raise PhiZero(f"Phi = {s.Phi!r} below {_PHI_GUARD!r}")


def guard_flow_crossings(t_old: float, t_new: float, y_at) -> None:
    """Step guard for states that begin with (Phi, varphi, Lambda).

    The pointwise guards only see the points a step samples, so a step can
    carry the flow across chi = 1 or Phi = 0 unnoticed.  This looks for a
    sign change of chi - 1 or Phi between the step's ends, locates the
    earliest one on the step's dense output y_at and raises ChiSingular or
    PhiZero naming the time and the state there.
    """
    def g(t: float) -> np.ndarray:
        Phi, _, Lambda = y_at(t)[:3]
        return np.array([Phi * Phi - Lambda - 1.0, Phi])

    changed = np.flatnonzero(np.sign(g(t_old)) != np.sign(g(t_new)))
    if changed.size == 0:
        return
    from scipy.optimize import brentq

    t_c, k = min((brentq(lambda t: g(t)[k], t_old, t_new, xtol=1e-15), k)
                 for k in changed)
    Phi, varphi, Lambda = (float(x) for x in y_at(t_c)[:3])
    error, what = (ChiSingular, "chi = 1") if k == 0 else (PhiZero, "Phi = 0")
    raise error(f"the flow crosses {what} at tau = {t_c!r} "
                f"(Phi = {Phi!r}, varphi = {varphi!r}, Lambda = {Lambda!r})")


def constraint_rhs_general(s: ConstraintState, omega: PolarComplex,
                           alpha: PolarComplex, beta: PolarComplex,
                           chi_guard: float = _CHI_GUARD) -> np.ndarray:
    """Hermitization flow for arbitrary polar inputs.

    Returns [dPhi/dt, dvarphi/dt, dLambda/dt, d|z|/dt].  The first three
    drive the integration; the |z| rate is redundant (|z| follows from
    chi) and is returned for consistency monitoring.
    """
    _check_guards(s, chi_guard)
    chi = s.chi
    Phi = s.Phi
    phi = s.varphi
    w, pw = omega.modulus, omega.phase
    a, pa = alpha.modulus, alpha.phase
    b, pb = beta.modulus, beta.phase

    sin_w = math.sin(pw)
    sa = math.sin(phi - pa)
    sb = math.sin(phi + pb)
    ca = math.cos(phi - pa)
    cb = math.cos(phi + pb)

    dPhi = (2.0 / (chi - 1.0)) * (
        (1.0 - Phi * Phi) * (Phi * w * sin_w - a * sa)
        - b * ((2.0 * chi - 1.0) * Phi * Phi - chi * chi) * sb
    )
    dphi = 2.0 * w * math.cos(pw) + (2.0 / ((1.0 - chi) * Phi)) * (
        a * (1.0 - Phi * Phi) * ca + b * (Phi * Phi - chi * chi) * cb
    )
    dLambda = -2.0 * s.Lambda * (
        (1.0 + 2.0 * Phi * Phi / (chi - 1.0)) * w * sin_w
        - (2.0 * Phi / (chi - 1.0)) * (a * sa - b * (2.0 * chi - 1.0) * sb)
    )
    z = s.z_abs
    dz = -z * z * ((Phi * Phi + chi) / Phi * w * sin_w
                   - 2.0 * (a * sa - chi * b * sb)) + (z / Phi) * dPhi
    return np.array([dPhi, dphi, dLambda, dz])


def constraint_rhs_polar(s: ConstraintState, p: DriveParams, t: float,
                         chi_guard: float = _CHI_GUARD) -> np.ndarray:
    """Hermitization flow specialized to the modulated drive.

    Same output layout as constraint_rhs_general; uses the signed zeta
    directly so no phase bookkeeping is needed.
    """
    _check_guards(s, chi_guard)
    chi = s.chi
    Phi = s.Phi
    phi = s.varphi
    zs = zeta_signed(t, p)
    at = p.alpha0_tilde
    bt = p.beta0_tilde
    cosphi = math.cos(phi)

    dPhi = (2.0 * zs / (1.0 - chi)) * (
        at * (1.0 - Phi * Phi) + bt * ((2.0 * chi - 1.0) * Phi * Phi - chi * chi)
    ) * cosphi
    dphi = 2.0 * drive_omega(t, p) - (2.0 * zs / ((1.0 - chi) * Phi)) * (
        at * (1.0 - Phi * Phi) + bt * (Phi * Phi - chi * chi)
    ) * math.sin(phi)
    dLambda = (4.0 * zs * Phi * (Phi * Phi - chi) / (chi - 1.0)) * (
        at - bt * (2.0 * chi - 1.0)
    ) * cosphi
    dz = 2.0 * zs * s.z_abs * s.z_abs * (at - bt * chi) * cosphi + (s.z_abs / Phi) * dPhi
    return np.array([dPhi, dphi, dLambda, dz])


def hermitized_coefficients(s: ConstraintState, p: DriveParams, t: float,
                            chi_guard: float = _CHI_GUARD) -> HermitizedCoeffs:
    """On-flow coefficients (W, |T|, phi_T) for the modulated drive.

    W = omega - 2*zeta*Phi*(at - bt)*sin(varphi)/(chi - 1)
    |T| = |zeta*(at - bt*chi)/(1 - chi)|
    phi_T = h[sin(kappa t)]*pi + h(1 - chi)*pi + h(at - chi*bt)*pi + pi/2
    """
    chi = s.chi
    if abs(chi - 1.0) < chi_guard:
        raise ChiSingular(
            f"chi = {chi!r} within {chi_guard!r} of the chi = 1 singularity"
        )
    zs = zeta_signed(t, p)
    at = p.alpha0_tilde
    bt = p.beta0_tilde
    W = drive_omega(t, p) - 2.0 * zs * s.Phi * (at - bt) * math.sin(s.varphi) / (chi - 1.0)
    T_abs = abs(zs * (at - bt * chi) / (1.0 - chi))
    phi_T = (heaviside(math.sin(p.kappa * t)) * math.pi
             + heaviside(1.0 - chi) * math.pi
             + heaviside(at - chi * bt) * math.pi
             + 0.5 * math.pi)
    return HermitizedCoeffs(W=W, T_abs=T_abs, phi_T=phi_T)


def hermitized_coefficients_general(s: ConstraintState, omega: PolarComplex,
                                    alpha: PolarComplex, beta: PolarComplex,
                                    chi_guard: float = _CHI_GUARD) -> HermitizedCoeffs:
    """On-flow coefficients for arbitrary polar inputs.

    W comes from the general frequency formula; T is assembled as a full
    complex number, T = (alpha - chi*conj(beta) + i*Phi*|omega|*
    sin(phase(omega))*exp(i*varphi)) / (1 - chi), so phi_T carries the
    correct quadrant without case analysis.  Reduces to the polar route
    on the modulated drive to machine precision.
    """
    _check_guards(s, chi_guard)
    chi = s.chi
    Phi = s.Phi
    phi = s.varphi
    w, pw = omega.modulus, omega.phase

    W = w * math.cos(pw) + (2.0 * Phi / (chi - 1.0)) * (
        alpha.modulus * math.cos(phi - alpha.phase)
        - beta.modulus * math.cos(phi + beta.phase)
    )
    T_c = (alpha.to_complex() - chi * beta.to_complex().conjugate()
           + 1j * Phi * w * math.sin(pw) * cmath.exp(1j * phi)) / (1.0 - chi)
    return HermitizedCoeffs(W=W, T_abs=abs(T_c), phi_T=cmath.phase(T_c))


def approx_dyson_trajectory(t: float, p: DriveParams, varphi0: float,
                            chi: float) -> ConstraintState:
    """Closed-form flow solution for the weakly modulated resonant drive.

    |z| = 1 and Phi = -(chi + 1)/2 are frozen; varphi advances at 2*omega0.
    Valid to O(eps_mod) per drive period; exact at eps_mod = 0.
    """
    Phi = -0.5 * (chi + 1.0)
    return ConstraintState(
        z_abs=1.0,
        Phi=Phi,
        varphi=varphi0 + 2.0 * p.omega0 * t,
        Lambda=Phi * Phi - chi,
    )


@dataclass(frozen=True)
class ConstraintTrajectory:
    """Columnar flow history with the |z|-consistency residual."""

    t: np.ndarray
    z_abs: np.ndarray
    Phi: np.ndarray
    varphi: np.ndarray
    Lambda: np.ndarray
    z_residual: np.ndarray
    stats: IntegrationStats

    def state_at(self, i: int) -> ConstraintState:
        return ConstraintState(
            z_abs=float(self.z_abs[i]),
            Phi=float(self.Phi[i]),
            varphi=float(self.varphi[i]),
            Lambda=float(self.Lambda[i]),
        )


def _state_from_vec(y: np.ndarray) -> ConstraintState:
    Phi, phi, Lambda = float(y[0]), float(y[1]), float(y[2])
    return ConstraintState(z_abs=min(1.0, z_abs_from(Phi, Lambda)),
                           Phi=Phi, varphi=phi, Lambda=Lambda)


def integrate_constraints(p: DriveParams, s0: ConstraintState,
                          t_grid: np.ndarray, rtol: float = 1e-9,
                          atol: float = 1e-12,
                          max_step: Optional[float] = None,
                          chi_guard: float = _CHI_GUARD) -> ConstraintTrajectory:
    """Integrate the hermitization flow for the modulated drive.

    State vector is (Phi, varphi, Lambda); |z| is reconstructed from chi
    at every output point.  z_residual reports |d/dt of the reconstructed
    |z| minus the flow's own |z| rate|, which stays at the integration
    tolerance when the redundant equations are mutually consistent.
    """
    t_grid = np.asarray(t_grid, dtype=float)

    def rhs(t, y):
        s = _state_from_vec(y)
        return constraint_rhs_polar(s, p, t, chi_guard)[:3]

    if max_step is None:
        max_step = p.period() / 16.0
    problem = IvpProblem(rhs=rhs, t_span=(float(t_grid[0]), float(t_grid[-1])),
                         y0=np.array([s0.Phi, s0.varphi, s0.Lambda]),
                         t_eval=t_grid, guard=guard_flow_crossings)
    sol = integrate(problem, rtol=rtol, atol=atol, max_step=max_step)

    n = sol.t.size
    z = np.empty(n)
    res = np.empty(n)
    for i in range(n):
        Phi, phi, Lambda = sol.y[i]
        chi = Phi * Phi - Lambda
        s = _state_from_vec(sol.y[i])
        z[i] = s.z_abs
        full = constraint_rhs_polar(s, p, float(sol.t[i]), chi_guard)
        dPhi, dLambda, dz_flow = full[0], full[2], full[3]
        dchi = 2.0 * Phi * dPhi - dLambda
        # d|z|/dt of the reconstruction |z| = -2*Phi/(chi+1).
        dz_rec = (-2.0 * dPhi * (chi + 1.0) + 2.0 * Phi * dchi) / (chi + 1.0) ** 2
        res[i] = abs(dz_rec - dz_flow)
    return ConstraintTrajectory(t=sol.t, z_abs=z, Phi=sol.y[:, 0],
                                varphi=sol.y[:, 1], Lambda=sol.y[:, 2],
                                z_residual=res, stats=sol.stats)


def coefficients_from_flow(s: ConstraintState, p: DriveParams, t: float,
                           chi_guard: float = _CHI_GUARD
                           ) -> tuple[complex, complex, complex]:
    """Raw (W, T, V) with the map derivatives taken from the flow itself.

    On the hermitization flow Im(W) and V - conj(T) vanish identically,
    so their residuals measure integration error.
    """
    d = constraint_rhs_polar(s, p, t, chi_guard)
    dPhi, dphi, dLambda = d[0], d[1], d[2]
    lam = s.lam
    dlam = (dPhi - 1j * s.Phi * dphi) * cmath.exp(-1j * s.varphi)
    a_pol, b_pol = alpha_beta(t, p)
    return coefficients_general(
        lam=lam, Lambda=s.Lambda, omega=complex(drive_omega(t, p)),
        alpha=a_pol.to_complex(), beta=b_pol.to_complex(),
        dlam_dt=dlam, dLambda_dt=dLambda,
    )
