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

A MapSource supplies the map along the drive, closed-form or integrated.
Its MapPoint (coordinates, rates, chi, W, T) is the one record of the map,
built by one set of expressions for a scalar time inside a right-hand side
and for the whole output grid afterwards.  The source integrates a route
(the squeeze ODE, the (u, v) oracle, or both in one state;
integrate_constraints is the empty route) together with the map, so a
route sees only the map point and its own components.  The general-input
functions are the independent references that the verify suite compares
against.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .drive import DriveParams, PolarComplex, cos, omega_and_zeta, sin
from .errors import ChiSingular, PhiZero, ZeroLambda
from .integrate import IvpProblem, IntegrationStats, integrate

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

    phi_T = arg T lies in (-pi, pi].
    """

    W: float
    T_abs: float
    phi_T: float

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


def guard_flow_crossings(t_old: float, y_old: np.ndarray, t_new: float,
                         y_new: np.ndarray, y_at) -> None:
    """Step guard for states that begin with (Phi, varphi, Lambda).

    The pointwise guards only see the points a step samples, so a step can
    carry the flow across chi = 1 or Phi = 0 unnoticed.  This looks for a
    sign change of chi - 1 or Phi between the step's end states y_old and
    y_new, bisects the step's dense output y_at to the earliest one and
    raises ChiSingular or PhiZero naming the time and the state there.
    The time is printed to 12 significant digits: near chi = 1, chi - 1
    cancels at the 1e-16 level, and bisection and brentq land 1.3e-12
    apart on the fig1 flow.
    """
    def signs(y) -> tuple:
        Phi, _, Lambda = y[:3].tolist()
        return np.sign(Phi * Phi - Lambda - 1.0), np.sign(Phi)

    def crossing(k: int) -> float:
        """Bisect component k's sign change to two adjacent floats; the later."""
        a, b = t_old, t_new
        while a < (mid := 0.5 * (a + b)) < b:
            a, b = (mid, b) if signs(y_at(mid))[k] == old[k] else (a, mid)
        return b

    old = signs(y_old)
    changed = [k for k, s in enumerate(signs(y_new)) if s != old[k]]
    if not changed:
        return
    t_c, k = min((crossing(k), k) for k in changed)
    Phi, varphi, Lambda = (float(x) for x in y_at(t_c)[:3])
    error, what = (ChiSingular, "chi = 1") if k == 0 else (PhiZero, "Phi = 0")
    raise error(f"the flow crosses {what} at tau = {t_c:.12g} "
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


def _flow_rates(p: DriveParams, w, zs, Phi, Lambda, cosphi, sinphi):
    """(dPhi/dt, dvarphi/dt, dLambda/dt) of the flow for the modulated drive,
    at w = omega(t), signed strength zs = zeta(t) and cos, sin of varphi."""
    chi = Phi * Phi - Lambda
    at, bt = p.alpha0_tilde, p.beta0_tilde

    dPhi = (2.0 * zs / (1.0 - chi)) * (
        at * (1.0 - Phi * Phi) + bt * ((2.0 * chi - 1.0) * Phi * Phi - chi * chi)
    ) * cosphi
    dphi = 2.0 * w - (2.0 * zs / ((1.0 - chi) * Phi)) * (
        at * (1.0 - Phi * Phi) + bt * (Phi * Phi - chi * chi)
    ) * sinphi
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
    w, zs = omega_and_zeta(t, p)
    cosphi, sinphi = cos(s.varphi), sin(s.varphi)
    dPhi, dphi, dLambda = _flow_rates(p, w, zs, s.Phi, s.Lambda, cosphi, sinphi)
    z = s.z_abs
    dz = (2.0 * zs * z * z * (p.alpha0_tilde - p.beta0_tilde * s.chi)
          * cosphi + (z / s.Phi) * dPhi)
    return np.array([dPhi, dphi, dLambda, dz])


def _counterpart(p: DriveParams, w, zs, Phi, Lambda, sinphi):
    """(chi, W, T) on the flow for the modulated drive, w, zs and sinphi as
    in _flow_rates."""
    chi = Phi * Phi - Lambda
    at, bt = p.alpha0_tilde, p.beta0_tilde
    W = w - 2.0 * zs * Phi * (at - bt) * sinphi / (chi - 1.0)
    T = -1j * (zs * (at - bt * chi) / (1.0 - chi))
    return chi, W, T


def hermitized_coefficients(s: ConstraintState, p: DriveParams,
                            t: float) -> HermitizedCoeffs:
    """On-flow coefficients (W, |T|, phi_T) for the modulated drive.

    W = omega - 2*zeta*Phi*(at - bt)*sin(varphi)/(chi - 1)
    T = -i*zeta*(at - bt*chi)/(1 - chi), phi_T = arg T in (-pi, pi]

    MapSource.at gives the same W and T.  This scalar route stays only for
    the benchmark's fock_oracle callback and the test suite's reference
    built without the map-source layer.
    """
    # W and T divide by chi - 1 but not by Phi.
    _check_guards(t, s.Phi, s.varphi, s.Lambda, phi_guard=0.0)
    _, W, T = _counterpart(p, *omega_and_zeta(t, p), s.Phi, s.Lambda,
                           sin(s.varphi))
    return HermitizedCoeffs(W, abs(T), cmath.phase(T))


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
    Valid to O(eps_mod) per drive period; exact at eps_mod = 0.  The
    approximate MapSource evaluates the same map; this scalar form stays
    only for the benchmark's fock_oracle callback and the test suite's
    reference built without the map-source layer.
    """
    return ConstraintState.from_chi(chi, 1.0, varphi0 + 2.0 * p.omega0 * t)


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

    @property
    def z_abs(self):
        """|z| = -2*Phi/(chi + 1), clipped at 1 against rounding."""
        return np.minimum(1.0, z_abs_from(self.Phi, self.Lambda))


class MapRun(NamedTuple):
    """MapSource.integrate's result: map m and route components y on t."""

    t: np.ndarray
    m: MapPoint
    y: np.ndarray
    stats: IntegrationStats


class MapSource:
    """Where the counterpart coefficients come from: a Dyson map along the drive.

    dyson_source "approximate" uses the closed-form map trajectory at the
    given chi and varphi0; "integrated" co-integrates the hermitization
    flow from constraint0.  The argument the other source needs is
    ignored.  One source serves any number of evolve and
    bogoliubov_ode_oracle calls.  period is the time after which W and T
    repeat: the drive period for the approximate source on resonance,
    else inf.  at, raw_coefficients and residual take a scalar t, or the
    whole grid.
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

            s0 = ConstraintState.from_chi(chi, 1.0, varphi0)
            self.chi0, self._map0, self._guard = chi, (), None
            self.period = p.period() if p.on_resonance() else math.inf
            # Phi and Lambda are frozen; adding 0*t gives them the shape of t.
            self._coordinates = lambda t, y: (s0.Phi + 0.0 * t,
                                              varphi0 + 2.0 * p.omega0 * t,
                                              s0.Lambda + 0.0 * t)
            self._rates = lambda *_: (0.0, 2.0 * p.omega0, 0.0)
        elif dyson_source == "integrated":
            if constraint0 is None:
                raise ValueError("integrated dyson_source requires constraint0")

            def rates(t, w, zs, Phi, varphi, Lambda, sinphi):
                _check_guards(t, Phi, varphi, Lambda)
                return _flow_rates(p, w, zs, Phi, Lambda, cos(varphi), sinphi)

            s0 = constraint0
            self.chi0, self._map0 = s0.chi, (s0.Phi, s0.varphi, s0.Lambda)
            self._guard, self.period = guard_flow_crossings, math.inf
            self._coordinates = lambda t, y: (y[0], y[1], y[2])
            self._rates = rates
        else:
            raise ValueError(f"dyson_source must be 'approximate' or "
                             f"'integrated', got {dyson_source!r}")

    def at(self, t, y) -> MapPoint:
        """The map, its rates, chi, W and T at t; y starts with the integrated
        map's (Phi, varphi, Lambda), which the approximate source ignores."""
        Phi, varphi, Lambda = self._coordinates(t, y)
        w, zs = omega_and_zeta(t, self.p)
        sinphi = sin(varphi)
        rates = self._rates(t, w, zs, Phi, varphi, Lambda, sinphi)
        chi, W, T = _counterpart(self.p, w, zs, Phi, Lambda, sinphi)
        return MapPoint(Phi, varphi, Lambda, chi, W, T, rates)

    def raw_coefficients(self, t, m: MapPoint):
        """Raw mapped (W, T, V) of coefficients_general at the map point m.

        The map derivatives are the source's own rates, m.rates.  On the
        hermitization flow Im(W) and V - conj(T) vanish identically.
        """
        dPhi, dvarphi, dLambda = m.rates
        rot = np.exp(-1j * m.varphi)
        w, zs = omega_and_zeta(t, self.p)
        return coefficients_general(
            lam=m.Phi * rot, Lambda=m.Lambda, omega=w,
            alpha=-1j * self.p.alpha0_tilde * zs, beta=1j * self.p.beta0_tilde * zs,
            dlam_dt=(dPhi - 1j * m.Phi * dvarphi) * rot, dLambda_dt=dLambda,
        )

    def residual(self, t, m: MapPoint):
        """|Im W| + |V - conj(T)| of raw_coefficients.

        It vanishes on the hermitization flow up to integration error and
        reports the closed form's constraint violation for the approximate
        source.
        """
        W, T, V = self.raw_coefficients(t, m)
        return abs(W.imag) + abs(V - T.conjugate())

    def integrate(self, rhs, y0, t_grid: np.ndarray, rtol: float,
                  atol: float) -> MapRun:
        """Integrate a route along the map from y0, reported on t_grid.

        rhs(m, y) returns the rates of the route's components y (a list of
        floats, as many as y0) at the map point m (scalar t).  The map's
        own state is integrated alongside and returned on the grid; routes
        stacked in one y0 share one map evaluation per stage.  The empty
        route (rhs returning (), y0 = ()) integrates the map alone.  A
        step that carries the integrated flow across chi = 1 or Phi = 0
        raises ChiSingular or PhiZero at the crossing.

        Steps are capped at a sixteenth of the drive period.  The error
        control alone takes longer steps, and against a tight-tolerance
        reference they lose a factor of about 20 in N on the integrated
        source and 2 on the approximate one; the cap costs little time.
        """
        n = len(self._map0)

        def full_rhs(t, y):
            # Python floats: arithmetic on numpy scalars is several times slower.
            t, y = float(t), y.tolist()
            m = self.at(t, y)
            return np.array([*m.rates[:n], *rhs(m, y[n:])])

        problem = IvpProblem(rhs=full_rhs, t_eval=t_grid,
                             y0=np.array(self._map0 + tuple(y0)), guard=self._guard)
        sol = integrate(problem, rtol=rtol, atol=atol,
                        max_step=self.p.period() / 16.0)
        return MapRun(sol.t, self.at(sol.t, sol.y.T), sol.y[:, n:], sol.stats)


def integrate_constraints(p: DriveParams, s0: ConstraintState,
                          t_grid: np.ndarray, rtol: float = 1e-9,
                          atol: float = 1e-12) -> MapRun:
    """Integrate the hermitization flow for the modulated drive from s0.

    The state vector is (Phi, varphi, Lambda).  This is MapSource.integrate's
    empty route, with its step cap and guards; the map comes back as run.m.
    """
    return MapSource(p, "integrated", constraint0=s0).integrate(
        lambda m, y: (), (), t_grid, rtol, atol)


def z_residual(p: DriveParams, run: MapRun) -> np.ndarray:
    """|d/dt of the reconstructed |z| minus the flow's own |z| rate| on run.t.

    |z| = -2*Phi/(chi + 1) is redundant with (Phi, Lambda), and the flow's
    |z| rate is the time derivative of that reconstruction at every state,
    on a trajectory or off it.  So the residual is rounding (about 1e-17 on
    the moderate map), whatever the integration tolerance; it tests the
    flow equations' consistency, not the integration.
    """
    m = run.m
    dPhi, _, dLambda, dz_flow = constraint_rhs_polar(
        ConstraintState(z_abs=m.z_abs, Phi=m.Phi, varphi=m.varphi, Lambda=m.Lambda),
        p, run.t)
    dchi = 2.0 * m.Phi * dPhi - dLambda
    # d|z|/dt of the reconstruction |z| = -2*Phi/(chi+1).
    dz_rec = (-2.0 * dPhi * (m.chi + 1.0) + 2.0 * m.Phi * dchi) / (m.chi + 1.0) ** 2
    return np.abs(dz_rec - dz_flow)
