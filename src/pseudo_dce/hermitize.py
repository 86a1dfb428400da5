"""Hermitization of the quadratic Hamiltonian through the SU(1,1) map.

The non-Hermitian generator H = omega*(n + 1/2) + alpha*a^2 + beta*a^dag^2
is mapped to h = eta H eta^-1 + i (d eta/dt) eta^-1.  With the Gauss
coefficients (lam, Lambda) of the map, h is again quadratic,

    h = -W*(n + 1/2) - [T*a^2 + V*a^dag^2],

and Hermiticity of h requires W real and V = conj(T).  Those two
conditions close into a first-order flow for the map coordinates
(Phi, varphi, Lambda); on the flow the surviving coefficients are the
real frequency W and the complex pump

    W = omega - 2*zeta*Phi*(at - bt)*sin(varphi)/(chi - 1),
    T = -i*zeta*(at - chi*bt)/(1 - chi),

with zeta the signed parametric strength of the drive module.  The
overall sign of h above is a convention choice that cancels in every
observable; the functions here return W, T, V such that the Hermitian
counterpart generator is W*(n+1/2) + T*a^2 + conj(T)*a^dag^2 with the
signs produced by the coefficient formulas directly.

A MapSource supplies the map along the drive, closed-form or integrated,
and evaluates it with W and T by one set of expressions, for a scalar
time inside a right-hand side and for the whole output grid afterwards.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .drive import (DriveParams, PolarComplex, cos, omega as drive_omega, sin,
                    zeta_signed)
from .errors import ChiSingular, PhiZero, ZeroLambda
from .integrate import IvpProblem, IvpSolution, IntegrationStats, integrate

# Every chi = 1 guard (flow, map source, amplification factor, config)
# refuses |chi - 1| below this width.
CHI_GUARD = 1e-9
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

    @classmethod
    def from_chi(cls, chi: float, z_abs: float, varphi: float) -> "ConstraintState":
        """The state at mixing ratio chi: Phi = -|z|*(chi + 1)/2 and
        Lambda = Phi^2 - chi."""
        Phi = -0.5 * z_abs * (chi + 1.0)
        return cls(z_abs=z_abs, Phi=Phi, varphi=varphi, Lambda=Phi * Phi - chi)

    @property
    def chi(self) -> float:
        return self.Phi * self.Phi - self.Lambda


@dataclass(frozen=True)
class HermitizedCoeffs:
    """Hermitian-counterpart coefficients: frequency W and pump T in polar form.

    phi_T = arg T lies in (-pi, pi].  The fields hold scalars or arrays.
    """

    W: float
    T_abs: float
    phi_T: float

    @classmethod
    def from_complex(cls, W, T) -> "HermitizedCoeffs":
        return cls(W, abs(T),
                   cmath.phase(T) if isinstance(T, complex) else np.angle(T))

    def T(self) -> complex:
        return self.T_abs * cmath.exp(1j * self.phi_T)


def z_abs_from(Phi, Lambda):
    """|z| = -2*Phi/(chi + 1) with chi = Phi^2 - Lambda; scalars or arrays."""
    chi = Phi * Phi - Lambda
    denom = chi + 1.0
    if np.count_nonzero(denom == 0.0):
        raise ChiSingular("chi = -1 leaves |z| undetermined")
    return -2.0 * Phi / denom


def coefficients_general(lam: complex, Lambda: float, omega: complex,
                         alpha: complex, beta: complex, dlam_dt: complex,
                         dLambda_dt: float) -> tuple[complex, complex, complex]:
    """Raw mapped coefficients (W, T, V) for arbitrary map data.

    No constraint is assumed: W may be complex and V need not equal
    conj(T).  Their failure to do so measures how far the supplied
    (lam, Lambda, dlam/dt, dLambda/dt) are from the hermitization flow.
    Takes scalars or arrays.  Raises ZeroLambda when Lambda vanishes.
    """
    if np.count_nonzero(Lambda == 0.0):
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


def guard_chi(chi: float, where: str = "") -> None:
    """Raise ChiSingular, its message ending in where, when chi lies within
    CHI_GUARD of the chi = 1 singularity."""
    if abs(chi - 1.0) < CHI_GUARD:
        raise ChiSingular(f"chi = {chi!r} within {CHI_GUARD!r} of the "
                          f"chi = 1 singularity{where}")


def _check_guards(t, Phi, varphi, Lambda, phi_guard: float = _PHI_GUARD):
    """Raise ChiSingular or PhiZero at the first point within CHI_GUARD of
    chi = 1 or phi_guard of Phi = 0, naming its tau (t may be None) and
    state."""
    chi = Phi * Phi - Lambda
    bad = (abs(chi - 1.0) < CHI_GUARD) | (abs(Phi) < phi_guard)
    if not (bad.any() if isinstance(bad, np.ndarray) else bad):
        return
    i = np.argmax(bad)
    Phi, varphi, Lambda, chi = (float(np.ravel(x)[i]) for x in (Phi, varphi, Lambda, chi))
    state = ("" if t is None else f" at tau = {float(np.ravel(t)[i])!r}") + (
        f" (Phi = {Phi!r}, varphi = {varphi!r}, Lambda = {Lambda!r})")
    guard_chi(chi, state)
    raise PhiZero(f"Phi = {Phi!r} below {phi_guard!r}{state}")


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
                           alpha: PolarComplex, beta: PolarComplex) -> np.ndarray:
    """Hermitization flow for arbitrary polar inputs.

    Returns [dPhi/dt, dvarphi/dt, dLambda/dt, d|z|/dt].  The first three
    drive the integration; the |z| rate is redundant (|z| follows from
    chi) and is returned for consistency monitoring.
    """
    _check_guards(None, s.Phi, s.varphi, s.Lambda)
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


def _flow_rates(p: DriveParams, w, zs, Phi, varphi, Lambda):
    """(dPhi/dt, dvarphi/dt, dLambda/dt) of the flow for the modulated drive,
    at drive frequency w = omega(t) and signed strength zs = zeta(t)."""
    chi = Phi * Phi - Lambda
    at = p.alpha0_tilde
    bt = p.beta0_tilde
    cosphi = cos(varphi)

    dPhi = (2.0 * zs / (1.0 - chi)) * (
        at * (1.0 - Phi * Phi) + bt * ((2.0 * chi - 1.0) * Phi * Phi - chi * chi)
    ) * cosphi
    dphi = 2.0 * w - (2.0 * zs / ((1.0 - chi) * Phi)) * (
        at * (1.0 - Phi * Phi) + bt * (Phi * Phi - chi * chi)
    ) * sin(varphi)
    dLambda = (4.0 * zs * Phi * (Phi * Phi - chi) / (chi - 1.0)) * (
        at - bt * (2.0 * chi - 1.0)
    ) * cosphi
    return dPhi, dphi, dLambda


def constraint_rhs_polar(s: ConstraintState, p: DriveParams,
                         t: float) -> np.ndarray:
    """Hermitization flow specialized to the modulated drive.

    Same output layout as constraint_rhs_general; uses the signed zeta
    directly so no phase bookkeeping is needed.  The fields of s and t
    may be arrays of one shape; the rates then stack along axis 0.
    """
    _check_guards(t, s.Phi, s.varphi, s.Lambda)
    zs = zeta_signed(t, p)
    dPhi, dphi, dLambda = _flow_rates(p, drive_omega(t, p), zs,
                                      s.Phi, s.varphi, s.Lambda)
    z = s.z_abs
    dz = (2.0 * zs * z * z * (p.alpha0_tilde - p.beta0_tilde * s.chi)
          * cos(s.varphi) + (z / s.Phi) * dPhi)
    return np.array([dPhi, dphi, dLambda, dz])


def _counterpart(p: DriveParams, w, zs, Phi, varphi, Lambda):
    """(chi, W, T) on the flow for the modulated drive, w and zs as in
    _flow_rates."""
    chi = Phi * Phi - Lambda
    at = p.alpha0_tilde
    bt = p.beta0_tilde
    W = w - 2.0 * zs * Phi * (at - bt) * sin(varphi) / (chi - 1.0)
    T = -1j * (zs * (at - bt * chi) / (1.0 - chi))
    return chi, W, T


def hermitized_coefficients(s: ConstraintState, p: DriveParams,
                            t: float) -> HermitizedCoeffs:
    """On-flow coefficients (W, |T|, phi_T) for the modulated drive.

    W = omega - 2*zeta*Phi*(at - bt)*sin(varphi)/(chi - 1)
    T = -i*zeta*(at - bt*chi)/(1 - chi), phi_T = arg T in (-pi, pi]
    """
    # W and T divide by chi - 1 but not by Phi.
    _check_guards(t, s.Phi, s.varphi, s.Lambda, phi_guard=0.0)
    _, W, T = _counterpart(p, drive_omega(t, p), zeta_signed(t, p),
                           s.Phi, s.varphi, s.Lambda)
    return HermitizedCoeffs.from_complex(W, T)


def hermitized_coefficients_general(s: ConstraintState, omega: PolarComplex,
                                    alpha: PolarComplex,
                                    beta: PolarComplex) -> HermitizedCoeffs:
    """On-flow coefficients for arbitrary polar inputs.

    W comes from the general frequency formula; T is assembled as a full
    complex number, T = (alpha - chi*conj(beta) + i*Phi*|omega|*
    sin(phase(omega))*exp(i*varphi)) / (1 - chi), so phi_T carries the
    correct quadrant without case analysis.  Reduces to the polar route
    on the modulated drive to machine precision.
    """
    _check_guards(None, s.Phi, s.varphi, s.Lambda)
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
    return ConstraintState.from_chi(chi, 1.0, varphi0 + 2.0 * p.omega0 * t)


def _raw_coefficients(p: DriveParams, t, Phi, varphi, Lambda, rates):
    """coefficients_general for the modulated drive, map rates given."""
    dPhi, dvarphi, dLambda = rates
    rot = np.exp(-1j * varphi)
    zs = zeta_signed(t, p)
    return coefficients_general(
        lam=Phi * rot, Lambda=Lambda, omega=drive_omega(t, p),
        alpha=-1j * p.alpha0_tilde * zs, beta=1j * p.beta0_tilde * zs,
        dlam_dt=(dPhi - 1j * Phi * dvarphi) * rot, dLambda_dt=dLambda,
    )


def coefficients_from_flow(s: ConstraintState, p: DriveParams,
                           t: float) -> tuple[complex, complex, complex]:
    """Raw (W, T, V) with the map derivatives taken from the flow itself.

    On the hermitization flow Im(W) and V - conj(T) vanish identically,
    so their residuals measure integration error.
    """
    rates = constraint_rhs_polar(s, p, t)[:3]
    return _raw_coefficients(p, t, s.Phi, s.varphi, s.Lambda, rates)


class MapPoint(NamedTuple):
    """A map source evaluated at one time or along a grid.

    rates holds (dPhi/dt, dvarphi/dt, dLambda/dt) of the source's map.
    """

    Phi: np.ndarray
    varphi: np.ndarray
    Lambda: np.ndarray
    chi: np.ndarray
    W: np.ndarray
    T: np.ndarray
    rates: tuple


class MapSource:
    """Where the counterpart coefficients come from: a Dyson map along the drive.

    dyson_source "approximate" uses the closed-form map trajectory at the
    given chi and varphi0; "integrated" co-integrates the hermitization
    flow from constraint0.  The argument the other source needs is
    ignored.  One source serves any number of evolve and
    bogoliubov_ode_oracle calls.  y0 is the prefix the source puts in
    front of a caller's state vector (empty, or Phi, varphi, Lambda) and
    guard the step guard that prefix needs.  period is the time after
    which W and T repeat: the drive period for the approximate source on
    resonance, else inf.  The methods take a scalar t with one state
    vector y, or the output grid with the transposed (n, m) solution
    array.
    """

    def __init__(self, p: DriveParams, dyson_source: str = "approximate",
                 chi: Optional[float] = None, varphi0: float = 0.5 * math.pi,
                 constraint0: Optional[ConstraintState] = None):
        self.p = p
        if dyson_source == "approximate":
            if chi is None:
                raise ValueError("approximate dyson_source requires chi")
            # chi is frozen, so the pointwise chi = 1 guard is checked once.
            guard_chi(chi, " at every tau")

            s0 = approx_dyson_trajectory(0.0, p, varphi0, chi)
            self.chi0, self.y0, self.guard = chi, (), None
            self.period = p.period() if p.on_resonance() else math.inf
            # Phi and Lambda are frozen; adding 0*t gives them the shape of t.
            self.coordinates = lambda t, y: (s0.Phi + 0.0 * t,
                                             varphi0 + 2.0 * p.omega0 * t,
                                             s0.Lambda + 0.0 * t)
            self.rates = lambda *_: (0.0, 2.0 * p.omega0, 0.0)
        elif dyson_source == "integrated":
            if constraint0 is None:
                raise ValueError("integrated dyson_source requires constraint0")

            def rates(t, w, zs, Phi, varphi, Lambda):
                _check_guards(t, Phi, varphi, Lambda)
                return _flow_rates(p, w, zs, Phi, varphi, Lambda)

            s0 = constraint0
            self.chi0, self.y0 = s0.chi, (s0.Phi, s0.varphi, s0.Lambda)
            self.guard, self.period = guard_flow_crossings, math.inf
            self.coordinates = lambda t, y: (y[0], y[1], y[2])
            self.rates = rates
        else:
            raise ValueError(f"dyson_source must be 'approximate' or "
                             f"'integrated', got {dyson_source!r}")

    def at(self, t, y) -> MapPoint:
        """The map, its rates, chi, W and T at t."""
        Phi, varphi, Lambda = self.coordinates(t, y)
        w, zs = drive_omega(t, self.p), zeta_signed(t, self.p)
        rates = self.rates(t, w, zs, Phi, varphi, Lambda)
        chi, W, T = _counterpart(self.p, w, zs, Phi, varphi, Lambda)
        return MapPoint(Phi, varphi, Lambda, chi, W, T, rates)

    def residual(self, t, m: MapPoint):
        """|Im W| + |V - conj(T)| of the raw mapped coefficients.

        The map derivatives are the source's own, so the residual vanishes
        on the hermitization flow up to integration error and reports the
        closed form's constraint violation for the approximate source.
        """
        W, T, V = _raw_coefficients(self.p, t, m.Phi, m.varphi, m.Lambda,
                                    m.rates)
        return abs(W.imag) + abs(V - T.conjugate())

    def integrate(self, rhs, y0, t_grid: np.ndarray, rtol: float,
                  atol: float) -> IvpSolution:
        """Integrate rhs from the prefix followed by y0, reported on t_grid.

        Steps are capped at a sixteenth of the drive period.  The error
        control alone takes longer steps, and against a tight-tolerance
        reference they lose a factor of about 20 in N on the integrated
        source and 2 on the approximate one; the cap costs little time.
        """
        problem = IvpProblem(rhs=rhs, t_eval=t_grid,
                             y0=np.array(self.y0 + tuple(y0)), guard=self.guard)
        return integrate(problem, rtol=rtol, atol=atol,
                         max_step=self.p.period() / 16.0)


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


def integrate_constraints(p: DriveParams, s0: ConstraintState,
                          t_grid: np.ndarray, rtol: float = 1e-9,
                          atol: float = 1e-12) -> ConstraintTrajectory:
    """Integrate the hermitization flow for the modulated drive.

    State vector is (Phi, varphi, Lambda); |z| is reconstructed from chi
    at every output point.  z_residual reports |d/dt of the reconstructed
    |z| minus the flow's own |z| rate|, which stays at the integration
    tolerance when the redundant equations are mutually consistent.
    Steps are capped at a sixteenth of the drive period (MapSource.integrate).
    A step that carries the flow across chi = 1 or Phi = 0 raises
    ChiSingular or PhiZero at the crossing.
    """
    src = MapSource(p, "integrated", constraint0=s0)
    def rhs(t, y):
        t = float(t)
        return np.array(src.rates(t, drive_omega(t, p), zeta_signed(t, p), *y.tolist()))

    sol = src.integrate(rhs, (), t_grid, rtol, atol)
    Phi, varphi, Lambda = sol.y.T
    z = np.minimum(1.0, z_abs_from(Phi, Lambda))
    dPhi, _, dLambda, dz_flow = constraint_rhs_polar(
        ConstraintState(z_abs=z, Phi=Phi, varphi=varphi, Lambda=Lambda), p, sol.t)
    chi = Phi * Phi - Lambda
    dchi = 2.0 * Phi * dPhi - dLambda
    # d|z|/dt of the reconstruction |z| = -2*Phi/(chi+1).
    dz_rec = (-2.0 * dPhi * (chi + 1.0) + 2.0 * Phi * dchi) / (chi + 1.0) ** 2
    return ConstraintTrajectory(t=sol.t, z_abs=z, Phi=Phi, varphi=varphi,
                                Lambda=Lambda, z_residual=np.abs(dz_rec - dz_flow),
                                stats=sol.stats)
