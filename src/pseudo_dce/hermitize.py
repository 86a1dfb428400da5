"""Hermitization of the quadratic Hamiltonian through the SU(1,1) map.

The non-Hermitian generator H = omega*(n + 1/2) + alpha*a^2 + beta*a^dag^2
is mapped to h = eta H eta^-1 + i (d eta/dt) eta^-1.  With the Gauss
coefficients (lam, Lambda) of the map, h is again quadratic,

    h = -W*(n + 1/2) - [T*a^2 + V*a^dag^2],

and Hermiticity of h requires W real and V = conj(T).  Those two
conditions close into a first-order flow for the map's record
dyson.DysonState (Phi, varphi, Lambda); on the flow the surviving
coefficients are the real frequency W and the complex pump

    W = omega - 2*zeta*Phi*(at - bt)*sin(varphi)/(chi - 1),
    T = -i*zeta*(at - chi*bt)/(1 - chi),

with zeta the signed parametric strength of the drive module.  The map
modulus |z| follows from (Phi, Lambda) (dyson.z_abs_from) and carries no
rate of its own.  tests/test_symbolic.py derives the flow (_flow_rates
for the modulated drive, constraint_rhs_general for arbitrary complex
omega, alpha and beta) and these W and T (_counterpart) from
coefficients_general with sympy.  The overall sign of h above is a
convention choice that cancels in every observable; the functions here
return W, T, V such that the Hermitian counterpart generator is
W*(n+1/2) + T*a^2 + conj(T)*a^dag^2 with the signs produced by the
coefficient formulas directly.

A MapSource supplies the map along the drive, closed-form or integrated.
Its MapPoint (the DysonState coordinates, their rates, chi, W, T) is the
map evaluated by one set of expressions, for a scalar time inside a
right-hand side and for the whole output grid afterwards.  Each source
also names the traceless 2x2 generator whose Magnus product
dynamics.evolve multiplies out, and reads (u, v) and the map off that
product (MapSource.generator, MapSource.read_product).  On the
approximate source the generator is the counterpart's own.  On the
integrated source it is that of the drive's non-Hermitian H itself, and
the map comes from the metric: rho = eta^dag*eta obeys the linear
equation d rho/dt = i*(rho*H - H^dag*rho) exactly when h is Hermitian
(Fring & Moussa, Phys. Rev. A 93, 042114 (2016)), so rho(t) =
G^-dag*rho0*G^-1 with i*dG/dt = H*G, and eta(t) follows from G by a 2x2
polar decomposition (read_product).  No nonlinear flow is integrated on
that route.  MapSource.integrate still integrates the flow of
(Phi, varphi, Lambda) together with a route of the caller's (the empty
route, whose rates are (), integrates the flow alone); it is the
independent reference that verify compares the metric route with, and
carries the approximate source's (u, v) oracle.  The general-input
functions (constraint_rhs_general, hermitized_coefficients_general) take
complex omega, alpha and beta, as coefficients_general does; they are
the independent references that the verify suite compares against.
Complex quantities are plain complex numbers throughout:
HermitizedCoeffs holds the real W and the complex T.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .drive import (DriveParams, cos, couplings, omega as drive_omega,
                    omega_and_zeta, sin)
from .dyson import DysonState, bogoliubov_matrix
from .errors import (ChiSingular, NonFiniteState, NonPositiveLambda,
                     OutOfDomain, PhiZero, ZeroLambda)
from .integrate import IvpProblem, IntegrationStats, Step, integrate

# Every chi = 1 guard (flow, map source, amplification factor, config)
# refuses |chi - 1| below this width.
CHI_GUARD = 1e-9
_PHI_GUARD = 1e-12


@dataclass(frozen=True)
class HermitizedCoeffs:
    """Hermitian-counterpart coefficients: the real frequency W and the
    complex pump, which T() returns."""

    W: float
    pump: complex

    def T(self) -> complex:
        return self.pump


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


def guard_flow_crossings(step: Step) -> None:
    """Step guard for states that begin with (Phi, varphi, Lambda).

    The pointwise guards only see the points a step samples, so a step can
    carry the flow across chi = 1 or Phi = 0 unnoticed.  This looks for a
    sign change of chi - 1 or Phi between the step record's end states
    y_old and y_new, bisects its dense output step(t) to the earliest one
    and raises ChiSingular or PhiZero naming the time and the state there.
    The time is printed to 12 significant digits: near chi = 1, chi - 1
    cancels at the 1e-16 level, and bisection and brentq land 1.3e-12
    apart on the fig1 flow.
    """
    def signs(y) -> tuple:
        Phi, _, Lambda = y[:3].tolist()
        return np.sign(Phi * Phi - Lambda - 1.0), np.sign(Phi)

    def crossing(k: int) -> float:
        """Bisect component k's sign change to two adjacent floats; the later."""
        a, b = step.t_old, step.t_new
        while a < (mid := 0.5 * (a + b)) < b:
            a, b = (mid, b) if signs(step(mid))[k] == old[k] else (a, mid)
        return b

    old = signs(step.y_old)
    changed = [k for k, s in enumerate(signs(step.y_new)) if s != old[k]]
    if not changed:
        return
    t_c, k = min((crossing(k), k) for k in changed)
    Phi, varphi, Lambda = (float(x) for x in step(t_c)[:3])
    error, what = (ChiSingular, "chi = 1") if k == 0 else (PhiZero, "Phi = 0")
    raise error(f"the flow crosses {what} at tau = {t_c:.12g} "
                f"(Phi = {Phi!r}, varphi = {varphi!r}, Lambda = {Lambda!r})")


def constraint_rhs_general(s: DysonState, omega: complex, alpha: complex,
                           beta: complex) -> np.ndarray:
    """Hermitization flow for arbitrary complex omega, alpha and beta.

    Returns [dPhi/dt, dvarphi/dt, dLambda/dt], the unique rates that keep
    Im W = 0 and V = conj(T) in coefficients_general
    (tests/test_symbolic.py proves it), written with the rotated couplings
    A = alpha*exp(-i*varphi) and B = beta*exp(i*varphi).
    """
    _check_guards(None, s.Phi, s.varphi, s.Lambda)
    rot = cmath.exp(1j * s.varphi)
    A, B = alpha * rot.conjugate(), beta * rot
    chi = s.chi
    Phi = s.Phi
    dPhi = (2.0 / (chi - 1.0)) * (
        (1.0 - Phi * Phi) * (Phi * omega.imag + A.imag)
        - ((2.0 * chi - 1.0) * Phi * Phi - chi * chi) * B.imag
    )
    dphi = 2.0 * omega.real + (2.0 / ((1.0 - chi) * Phi)) * (
        (1.0 - Phi * Phi) * A.real + (Phi * Phi - chi * chi) * B.real
    )
    dLambda = -2.0 * s.Lambda * (
        (1.0 + 2.0 * Phi * Phi / (chi - 1.0)) * omega.imag
        + (2.0 * Phi / (chi - 1.0)) * (A.imag + (2.0 * chi - 1.0) * B.imag)
    )
    return np.array([dPhi, dphi, dLambda])


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


def constraint_rhs_polar(s: DysonState, p: DriveParams,
                         t: float) -> np.ndarray:
    """Hermitization flow specialized to the modulated drive.

    Same output layout as constraint_rhs_general; uses the signed zeta
    directly so no phase bookkeeping is needed.  The fields of s and t
    may be arrays of one shape; the rates then stack along axis 0.
    """
    _check_guards(t, s.Phi, s.varphi, s.Lambda)
    w, zs = omega_and_zeta(t, p)
    return np.array(_flow_rates(p, w, zs, s.Phi, s.Lambda, cos(s.varphi),
                                sin(s.varphi)))


def _counterpart(p: DriveParams, w, zs, Phi, Lambda, sinphi):
    """(chi, W, T) on the flow for the modulated drive, w, zs and sinphi as
    in _flow_rates."""
    chi = Phi * Phi - Lambda
    at, bt = p.alpha0_tilde, p.beta0_tilde
    W = w - 2.0 * zs * Phi * (at - bt) * sinphi / (chi - 1.0)
    T = -1j * (zs * (at - bt * chi) / (1.0 - chi))
    return chi, W, T


def hermitized_coefficients(s: DysonState, p: DriveParams,
                            t: float) -> HermitizedCoeffs:
    """On-flow coefficients (W, T) for the modulated drive.

    W = omega - 2*zeta*Phi*(at - bt)*sin(varphi)/(chi - 1)
    T = -i*zeta*(at - bt*chi)/(1 - chi)

    MapSource.at gives the same W and T.  This scalar route stays only for
    the benchmark's fock_oracle callback and the test suite's reference
    built without the map-source layer.
    """
    # W and T divide by chi - 1 but not by Phi.
    _check_guards(t, s.Phi, s.varphi, s.Lambda, phi_guard=0.0)
    _, W, T = _counterpart(p, *omega_and_zeta(t, p), s.Phi, s.Lambda,
                           sin(s.varphi))
    return HermitizedCoeffs(W, T)


def hermitized_coefficients_general(s: DysonState, omega: complex,
                                    alpha: complex,
                                    beta: complex) -> HermitizedCoeffs:
    """On-flow coefficients for arbitrary complex omega, alpha and beta.

    W = Re omega + 2*Phi*(Re A - Re B)/(chi - 1), with A and B as in
    constraint_rhs_general, and T = (alpha - chi*conj(beta) +
    i*Phi*Im(omega)*exp(i*varphi))/(1 - chi).  Reduces to the modulated
    drive's W and T to machine precision.
    """
    _check_guards(None, s.Phi, s.varphi, s.Lambda)
    rot = cmath.exp(1j * s.varphi)
    A, B = alpha * rot.conjugate(), beta * rot
    chi = s.chi
    Phi = s.Phi
    W = omega.real + 2.0 * Phi * (A.real - B.real) / (chi - 1.0)
    T = (alpha - chi * beta.conjugate() + 1j * Phi * omega.imag * rot) / (1.0 - chi)
    return HermitizedCoeffs(W, T)


def approx_dyson_trajectory(t: float, p: DriveParams, varphi0: float,
                            chi: float) -> DysonState:
    """Closed-form flow solution for the weakly modulated resonant drive.

    |z| = 1 and Phi = -(chi + 1)/2 are frozen; varphi advances at 2*omega0.
    Valid to O(eps_mod) per drive period; exact at eps_mod = 0.  The
    approximate MapSource evaluates the same map; this scalar form stays
    only for the benchmark's fock_oracle callback and the test suite's
    reference built without the map-source layer.
    """
    return DysonState.from_chi(chi, 1.0, varphi0 + 2.0 * p.omega0 * t)


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


class MapRun(NamedTuple):
    """MapSource.integrate's result: map m and route components y on t."""

    t: np.ndarray
    m: MapPoint
    y: np.ndarray
    stats: IntegrationStats


def _finite_start(s: DysonState) -> DysonState:
    """s, or NonFiniteState naming it when a coordinate is NaN or inf."""
    if not all(math.isfinite(x) for x in (s.Phi, s.varphi, s.Lambda)):
        raise NonFiniteState(f"the map's start is not finite (Phi = {s.Phi!r}, "
                             f"varphi = {s.varphi!r}, Lambda = {s.Lambda!r})")
    return s


def _map_matrix(s: DysonState) -> np.ndarray:
    """bogoliubov_matrix(s), or dyson's own error when s is no Dyson map:
    NonPositiveLambda for Lambda <= 0, OutOfDomain when no positive map
    strength eps_map realizes it.  The message names chi and |z|, and for
    chi > 1 the least admissible |z|, 2*sqrt(chi)/(chi + 1); every
    chi < -1 is admissible."""
    try:
        m = bogoliubov_matrix(s)
        s.eps_map
    except (NonPositiveLambda, OutOfDomain) as exc:
        chi = s.chi
        if chi > 1.0:
            need = f"; chi > 1 needs |z| > {2.0 * math.sqrt(chi) / (chi + 1.0)!r}"
        elif chi > -1.0:
            need = "; no |z| gives a map for chi in (-1, 1)"
        else:
            need = ""
        raise type(exc)(f"the integrated map's start is not a Dyson map ({exc}) "
                        f"at chi = {chi!r}, |z| = {float(s.z_abs)!r}{need}") from None
    return m


def _metric_reading(y, base, signs):
    """(u, v, (Phi, varphi, Lambda), det S, P) read off the product y =
    (y00, y01, y10, y11) of the drive's generator since the base.

    M_X is the matrix with X*(a, a^dag)^T*X^-1 = M_X*(a, a^dag)^T, so that
    M_XY = M_Y*M_X, and y is M_G^T for the drive's propagator G since the
    base's time.  base = (P_b, (u_b, v_b)) holds the map's matrix M_eta =
    (p00, p01, p10, p11) and the counterpart's (u, v) there; at the start
    P_b = bogoliubov_matrix(start) and (u_b, v_b) = (1, 0).  Then M_X =
    M_G^-1*P_b, with M_G^-1 the adjugate of M_G, factors as P*W_rel: P =
    M_eta(t) and W_rel the inverse counterpart propagator's [[u, v],
    [conj(v), conj(u)]] since the base, and W = W_rel*W_b.  With sigma(M) =
    J*conj(M)*J, J = [[0, 1], [1, 0]], sigma(P) = P^-1 and sigma(W) = W,
    so S = M_X + sigma(M_X) = tr(P)*W_rel, and W_rel = S/sqrt(det S), the
    root's sign (signs[0]) that of tr P, which keeps its sign up to the
    crossing.  P = M_X*W_rel^-1 = [[1, -lam], [conj(lam), -chi]]/sqrt(Lambda)
    gives lam = -P01/P00 and Lambda = 1/|P00|^2; Phi = |lam| is signed as
    at the start (signs[1]), and varphi = arg(Phi*conj(lam)) is left
    wrapped.  det S = tr(P)^2 is positive up to the chi = 1 branch point
    and turns negative past it, where u, v and the map are NaN.  det S
    cancels from entries of size |P_b|*|G|, so its rounding grows with G
    since the base, which is why evolve rebases the product (_REBASE in
    dynamics).  The entries broadcast: a base of arrays gives each point
    its own.
    """
    y00, y01, y10, y11 = y
    (e00, e01, e10, e11), (bu, bv) = base
    x00, x01 = y11 * e00 - y10 * e10, y11 * e01 - y10 * e11
    x10, x11 = y00 * e10 - y01 * e00, y00 * e11 - y01 * e01
    s0, s1 = x00 + x11.conjugate(), x01 + x10.conjugate()
    det = s0.real ** 2 + s0.imag ** 2 - (s1.real ** 2 + s1.imag ** 2)
    trace_sign, phi_sign = signs
    with np.errstate(invalid="ignore", divide="ignore"):
        root = trace_sign * np.sqrt(det)
        u, v = s0 / root, s1 / root
        uc, vc = u.conjugate(), v.conjugate()
        p = (x00 * uc - x01 * vc, x01 * u - x00 * v,
             x10 * uc - x11 * vc, x11 * u - x10 * v)
        lam = -p[1] / p[0]
    Phi = phi_sign * abs(lam)
    varphi = np.angle(phi_sign * lam.conjugate())
    Lambda = 1.0 / (p[0].real ** 2 + p[0].imag ** 2)
    return (u * bu + v * bv.conjugate(), u * bv + v * bu.conjugate(),
            (Phi, varphi, Lambda), det, p)


class MapSource:
    """Where the counterpart coefficients come from: a Dyson map along the drive.

    dyson_source "approximate" uses the closed-form map trajectory at the
    given chi and varphi0; "integrated" evolves the exact map from
    constraint0, which must be a Dyson map (_map_matrix).  The
    argument the other source needs is ignored.  One source serves any
    number of evolve and bogoliubov_ode_oracle calls.  period is the time
    after which the generator repeats: the drive period on the integrated
    source, whose generator is the drive's own, and on the approximate
    source on resonance, else inf.  closed_form tells whether at needs no
    map coordinates (the approximate source), and map0 holds the
    integrated map's start (Phi, varphi, Lambda), else ().  at,
    raw_coefficients, residual and generator take a scalar t, or arrays of
    times.

    generator(t) gives (a, b, c) of the traceless generator [[a, b], [c,
    -a]] whose time-ordered exponential evolve multiplies out, and
    read_product(y, base) reads (u, v, (Phi, varphi, Lambda), det S, P)
    off that product y = (y00, y01, y10, y11) since base; base0 is the
    base at the start.  On the approximate source the generator is the
    counterpart's, (-i*W, -2i*conj(T), 2i*T), its product carries x = (u,
    conj(v)) in its first column, and base0, the map coordinates (), det S
    and P are None.  On the integrated source it is A = i*[[omega,
    -2*alpha], [2*beta, -omega]], with omega, alpha and beta the drive's
    own: the Heisenberg flow of G*a*G^-1 under H, so the product is M_G^T,
    and the map comes from the metric's polar decomposition
    (_metric_reading).
    """

    def __init__(self, p: DriveParams, dyson_source: str = "approximate",
                 chi: Optional[float] = None, varphi0: float = 0.5 * math.pi,
                 constraint0: Optional[DysonState] = None):
        self.p = p
        if dyson_source == "approximate":
            if chi is None:
                raise ValueError("approximate dyson_source requires chi")
            s0 = _finite_start(DysonState.from_chi(chi, 1.0, varphi0))
            # chi is frozen, so the pointwise chi = 1 guard is checked once.
            guard_chi(chi, " at every tau")
            self.chi0, self.map0, self.base0 = chi, (), None
            self.closed_form = True
            self.period = p.period() if p.on_resonance() else math.inf
            # Phi and Lambda are frozen; adding 0*t gives them the shape of t.
            self._coordinates = lambda t, y: (s0.Phi + 0.0 * t,
                                              varphi0 + 2.0 * p.omega0 * t,
                                              s0.Lambda + 0.0 * t)
            self._rates = lambda *_: (0.0, 2.0 * p.omega0, 0.0)

            def generator(t):
                m = self.at(t, ())
                return -1j * m.W, -2j * m.T.conjugate(), 2j * m.T

            self.generator = generator
            self.read_product = lambda y, base: (y[0], y[2].conjugate(), (),
                                                 None, None)
        elif dyson_source == "integrated":
            if constraint0 is None:
                raise ValueError("integrated dyson_source requires constraint0")

            def rates(t, w, zs, Phi, varphi, Lambda, sinphi):
                _check_guards(t, Phi, varphi, Lambda)
                return _flow_rates(p, w, zs, Phi, Lambda, cos(varphi), sinphi)

            def generator(t):
                alpha, beta = couplings(t, p)
                return 1j * drive_omega(t, p), -2j * alpha, 2j * beta

            s0 = _finite_start(constraint0)
            self.chi0, self.map0 = s0.chi, (s0.Phi, s0.varphi, s0.Lambda)
            self.base0 = (tuple(complex(x) for x in _map_matrix(s0).ravel()),
                          (1.0 + 0.0j, 0.0j))
            self.period = p.period()
            self.closed_form = False
            self._coordinates = lambda t, y: (y[0], y[1], y[2])
            self._rates = rates
            self.generator = generator
            # tr P = (1 - chi)/sqrt(Lambda) keeps its sign up to the crossing,
            # and Phi is signed as at the start.
            signs = (math.copysign(1.0, 1.0 - s0.chi), math.copysign(1.0, s0.Phi))
            self.read_product = lambda y, base: _metric_reading(y, base, signs)
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
        alpha, beta = couplings(t, self.p)
        return coefficients_general(
            lam=m.Phi * rot, Lambda=m.Lambda, omega=drive_omega(t, self.p),
            alpha=alpha, beta=beta,
            dlam_dt=(dPhi - 1j * m.Phi * dvarphi) * rot, dLambda_dt=dLambda,
        )

    def residual(self, t, m: MapPoint):
        """|Im W| + |V - conj(T)| of raw_coefficients.

        It vanishes on the hermitization flow up to the map's error and
        reports the closed form's constraint violation for the approximate
        source.
        """
        W, T, V = self.raw_coefficients(t, m)
        return abs(W.imag) + abs(V - T.conjugate())

    def integrate(self, rhs, y0, t_grid: np.ndarray, rtol: float,
                  atol: float) -> MapRun:
        """Integrate a route along the map from y0 with DOP853, reported on
        t_grid.

        rhs(m, y) returns the rates of the route's components y (a list of
        floats, as many as y0) at the map point m (scalar t).  The map's
        own state is integrated alongside and returned on the grid: on the
        integrated source that is the nonlinear hermitization flow of
        (Phi, varphi, Lambda), the independent reference for the metric
        route that evolve takes.  Routes stacked in one y0 share one map
        evaluation per stage.  The empty route (rhs returning (), y0 = ())
        integrates the map alone.  A step that carries the integrated flow
        across chi = 1 or Phi = 0 raises ChiSingular or PhiZero at the
        crossing (guard_flow_crossings).

        Steps are capped at a sixteenth of the drive period.  The error
        control alone takes longer steps, and against a tight-tolerance
        reference they lose a factor of about 20 in N on the integrated
        source and 2 on the approximate one; the cap costs little time.
        """
        n = len(self.map0)

        def full_rhs(t, y):
            # Python floats: arithmetic on numpy scalars is several times slower.
            t, y = float(t), y.tolist()
            m = self.at(t, y)
            return np.array([*m.rates[:n], *rhs(m, y[n:])])

        sol = integrate(IvpProblem(full_rhs, t_grid, np.array(self.map0 + tuple(y0)),
                                   None if self.closed_form else guard_flow_crossings),
                        rtol=rtol, atol=atol, max_step=self.p.period() / 16.0)
        return MapRun(sol.t, self.at(sol.t, sol.y.T), sol.y[:, n:], sol.stats)
