"""Squeeze-parameter dynamics of the Hermitian counterpart and photon numbers.

The counterpart generator W*(n + 1/2) + T*a^2 + conj(T)*a^dag^2 evolves an
invariant-based squeeze parametrization (r, phi_sq, theta) by

    dr/dt      = -2*|T|*sin(phi_T + phi_sq)
    dphi_sq/dt = -2*W - 4*|T|*coth(2r)*cos(phi_T + phi_sq)
    dtheta/dt  = -i*Omega*theta,
    Omega      = W + 2*|T|*tanh(r)*cos(phi_T + phi_sq)

with the accumulated phase Omega_tilde = integral of Omega.  From two
squeeze states the Bogoliubov triple (u, v, w) follows in closed form and
gives the mean photon number for arbitrary Gaussian-adjacent initial
moments; for vacuum N = sinh(r)^2 = |v|^2.

The phi_sq equation has a coordinate pole at r = 0; callers seed r with a
tiny positive value (evolve does this when r0 = 0) and the pole is
dynamically repelling, so the adaptive integrator passes through the
transient without intervention.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .drive import DriveParams, heaviside
from .errors import ChiSingular, NegativeMeanPhoton, NotOnResonance
from .hermitize import (
    ConstraintState,
    HermitizedCoeffs,
    approx_dyson_trajectory,
    constraint_rhs_polar,
    guard_flow_crossings,
    hermitized_coefficients,
    z_abs_from,
)
from .integrate import IntegrationStats, IvpProblem, integrate

_RESONANCE_TOL = 1e-12
_DEFAULT_SEED = 1e-8


@dataclass(frozen=True)
class SqueezeState:
    """Invariant parameters at one instant."""

    r: float
    phi_sq: float
    theta: complex = 0j
    Omega_tilde: float = 0.0


@dataclass(frozen=True)
class BogoliubovTriple:
    u: complex
    v: complex
    w: complex


@dataclass(frozen=True)
class InitialMoments:
    """First and second moments of the initial state: <n>, <a>, <a^2>."""

    n: float = 0.0
    a: complex = 0j
    a_sq: complex = 0j


def _coth(x: float) -> float:
    t = math.tanh(x)
    if t == 0.0:
        return math.copysign(math.inf, x)
    return 1.0 / t


def squeeze_rhs(r: float, phi_sq: float, c: HermitizedCoeffs) -> tuple[float, float, float]:
    """(dr/dt, dphi_sq/dt, Omega) at the given squeeze coordinates."""
    psi = c.phi_T + phi_sq
    cos_psi = math.cos(psi)
    dr = -2.0 * c.T_abs * math.sin(psi)
    if c.T_abs == 0.0:
        pump = 0.0
        omega_term = 0.0
    else:
        pump = 4.0 * c.T_abs * _coth(2.0 * r) * cos_psi
        omega_term = 2.0 * c.T_abs * math.tanh(r) * cos_psi
    dphi = -2.0 * c.W - pump
    Omega = c.W + omega_term
    return dr, dphi, Omega


def rotation_displacement_rhs(s: SqueezeState,
                              c: HermitizedCoeffs) -> tuple[complex, float]:
    """(dtheta/dt, Omega) at the given state.

    Omega is real, so the displacement evolves by phase only and |theta|
    is conserved exactly by the continuous flow.
    """
    _, _, Omega = squeeze_rhs(s.r, s.phi_sq, c)
    return -1j * Omega * s.theta, Omega


def amplification_factor(alpha0_tilde: float, beta0_tilde: float,
                         chi: float) -> float:
    """Growth-rate ratio |alpha0_tilde - chi*beta0_tilde| / |chi - 1|.

    Equals 1 identically when alpha0_tilde = beta0_tilde (Hermitian drive),
    for every chi away from the chi = 1 singularity.
    """
    if abs(chi - 1.0) < 1e-12:
        raise ChiSingular(f"chi = {chi!r} is at the chi = 1 singularity")
    return abs(alpha0_tilde - chi * beta0_tilde) / abs(chi - 1.0)


def analytic_squeeze(t: float, p: DriveParams, chi: float, r0: float,
                     phi0_prime: float) -> tuple[float, float]:
    """Leading-order closed form for (r, phi_sq) on resonance (kappa = 2*omega0).

    r(t) = r0 + (eps_mod*A/8)*[cos(phi0')*(4*w0*t - sin(4*w0*t))
                               - sin(phi0')*(1 - cos(4*w0*t))],
    A the amplification factor, and the squeeze phase falls linearly,
    phi_sq = phi0' - pi/2 - h(1-chi)*pi - h(at - chi*bt)*pi - 2*w0*t.

    The phase is the secular line only: it omits the counter-rotating
    (1 - cos(4*w0*t)) quadrature, which is O(eps_mod) in amplitude but
    O(1) in angle while r ~ 0, so it is not valid until r has grown
    (the dropped angle is at most 2/(4*w0*t)).  The r formula likewise
    misses the early growth; both are meant for t >> 1/w0, e.g. the
    fig1 drive on tau in [10, 50].
    """
    if abs(p.kappa - 2.0 * p.omega0) > _RESONANCE_TOL:
        raise NotOnResonance(
            f"kappa = {p.kappa!r} is not 2*omega0 = {2.0 * p.omega0!r}"
        )
    big_a = amplification_factor(p.alpha0_tilde, p.beta0_tilde, chi)
    th = 4.0 * p.omega0 * t
    r = r0 + (p.eps_mod * big_a / 8.0) * (
        math.cos(phi0_prime) * (th - math.sin(th))
        - math.sin(phi0_prime) * (1.0 - math.cos(th))
    )
    phi_sq = (phi0_prime - 0.5 * math.pi
              - heaviside(1.0 - chi) * math.pi
              - heaviside(p.alpha0_tilde - chi * p.beta0_tilde) * math.pi
              - 2.0 * p.omega0 * t)
    return r, phi_sq


def bogoliubov_uvw(s0: SqueezeState, s: SqueezeState) -> BogoliubovTriple:
    """Bogoliubov triple connecting two squeeze states of one evolution.

    Uses the accumulated phase difference Omega_tilde(s) - Omega_tilde(s0).
    |u|^2 - |v|^2 = 1 identically.
    """
    dom = s.Omega_tilde - s0.Omega_tilde
    c0, s0h = math.cosh(s0.r), math.sinh(s0.r)
    c1, s1h = math.cosh(s.r), math.sinh(s.r)
    e_m = cmath.exp(-1j * dom)
    u = e_m * c0 * c1 - cmath.exp(1j * (dom + s.phi_sq - s0.phi_sq)) * s0h * s1h
    v = cmath.exp(1j * (dom + s.phi_sq)) * c0 * s1h - cmath.exp(
        -1j * (dom - s0.phi_sq)) * s0h * c1
    w = s0.theta * e_m * c1 + s0.theta.conjugate() * cmath.exp(
        1j * (dom + s.phi_sq)) * s1h
    return BogoliubovTriple(u=u, v=v, w=w)


def mean_photon_general(triple: BogoliubovTriple,
                        moments: InitialMoments = InitialMoments()) -> float:
    """Mean photon number from the Bogoliubov triple and initial moments.

    Vacuum moments give N = |v|^2 + |w|^2.  Raises NegativeMeanPhoton when
    the assembled value is below -1e-9; smaller negative roundoff is
    clamped to zero.
    """
    u, v, w = triple.u, triple.v, triple.w
    a2 = moments.a_sq
    a1 = moments.a
    val = (abs(v) ** 2 + abs(w) ** 2
           + (abs(u) ** 2 + abs(v) ** 2) * moments.n
           + u * v.conjugate() * a2
           + v * u.conjugate() * a2.conjugate()
           + (w * v.conjugate() + u * w.conjugate()) * a1
           + (w * u.conjugate() + v * w.conjugate()) * a1.conjugate())
    n = val.real
    if n < -1e-9:
        raise NegativeMeanPhoton(f"assembled mean photon number {n!r} < -1e-9")
    return max(0.0, n)


@dataclass(frozen=True)
class Trajectory:
    """Columnar evolution history on the requested grid."""

    t: np.ndarray
    r: np.ndarray
    phi_sq: np.ndarray
    Omega_tilde: np.ndarray
    theta: np.ndarray
    W: np.ndarray
    T_abs: np.ndarray
    phi_T: np.ndarray
    Phi: np.ndarray
    chi: np.ndarray
    varphi: np.ndarray
    Lambda: np.ndarray
    stats: IntegrationStats

    def squeeze_state(self, i: int) -> SqueezeState:
        return SqueezeState(r=float(self.r[i]), phi_sq=float(self.phi_sq[i]),
                            theta=complex(self.theta[i]),
                            Omega_tilde=float(self.Omega_tilde[i]))

    def constraint_state(self, i: int) -> ConstraintState:
        return ConstraintState(z_abs=min(1.0, z_abs_from(float(self.Phi[i]),
                                                         float(self.Lambda[i]))),
                               Phi=float(self.Phi[i]),
                               varphi=float(self.varphi[i]),
                               Lambda=float(self.Lambda[i]))

    def coeffs(self, i: int) -> HermitizedCoeffs:
        return HermitizedCoeffs(W=float(self.W[i]), T_abs=float(self.T_abs[i]),
                                phi_T=float(self.phi_T[i]))

    def bogoliubov(self, i: int) -> BogoliubovTriple:
        return bogoliubov_uvw(self.squeeze_state(0), self.squeeze_state(i))

    def mean_photon(self, moments: InitialMoments = InitialMoments()) -> np.ndarray:
        return np.array([mean_photon_general(self.bogoliubov(i), moments)
                         for i in range(self.t.size)])


def _constraint_from_vec(y) -> ConstraintState:
    Phi, phi, Lambda = float(y[0]), float(y[1]), float(y[2])
    return ConstraintState(z_abs=min(1.0, z_abs_from(Phi, Lambda)),
                           Phi=Phi, varphi=phi, Lambda=Lambda)


def evolve(p: DriveParams, t_grid: np.ndarray, *,
           dyson_source: str = "approximate", chi: Optional[float] = None,
           varphi0: float = 0.5 * math.pi, r0: float = 0.0,
           phi_sq0: Optional[float] = None, theta0: complex = 0j,
           constraint0: Optional[ConstraintState] = None,
           seed_r_eps: float = _DEFAULT_SEED, rtol: float = 1e-9,
           atol: float = 1e-12, max_step: Optional[float] = None) -> Trajectory:
    """Evolve the squeeze parameters over t_grid.

    dyson_source selects where the counterpart coefficients come from:
    "approximate" uses the closed-form map trajectory at the given chi;
    "integrated" co-integrates the hermitization flow from constraint0.
    r0 = 0 is replaced by seed_r_eps to stay off the phi_sq pole.
    phi_sq0 defaults to the phase-locked value phi_sq(0) of the closed
    form with phi0_prime = 0.

    max_step defaults to a sixteenth of the drive period.  The error
    control alone takes longer steps, and against a tight-tolerance
    reference they lose a factor of about 20 in N on the integrated
    source and 2 on the approximate one; the cap costs little time.  With
    the integrated source a step that carries the flow across chi = 1 or
    Phi = 0 raises ChiSingular or PhiZero at the crossing.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if r0 == 0.0:
        r0 = seed_r_eps
    if max_step is None:
        max_step = p.period() / 16.0

    if dyson_source == "approximate":
        if chi is None:
            raise ValueError("approximate dyson_source requires chi")
        if phi_sq0 is None:
            _, phi_sq0 = analytic_squeeze(0.0, p, chi, r0, 0.0)

        def coeffs_at(t: float, y) -> HermitizedCoeffs:
            s = approx_dyson_trajectory(t, p, varphi0, chi)
            return hermitized_coefficients(s, p, t)

        n_con = 0
        y0_con: list[float] = []
    elif dyson_source == "integrated":
        if constraint0 is None:
            raise ValueError("integrated dyson_source requires constraint0")
        if phi_sq0 is None:
            _, phi_sq0 = analytic_squeeze(0.0, p, constraint0.chi, r0, 0.0)

        def coeffs_at(t: float, y) -> HermitizedCoeffs:
            return hermitized_coefficients(_constraint_from_vec(y), p, t)

        n_con = 3
        y0_con = [constraint0.Phi, constraint0.varphi, constraint0.Lambda]
    else:
        raise ValueError(
            f"dyson_source must be 'approximate' or 'integrated', got {dyson_source!r}"
        )

    def rhs(t, y):
        out = np.empty_like(y)
        if n_con:
            out[:3] = constraint_rhs_polar(_constraint_from_vec(y), p, t)[:3]
        c = coeffs_at(t, y)
        r, phi_sq = y[n_con], y[n_con + 1]
        dr, dphi, Omega = squeeze_rhs(r, phi_sq, c)
        th = complex(y[n_con + 3], y[n_con + 4])
        dth = -1j * Omega * th
        out[n_con] = dr
        out[n_con + 1] = dphi
        out[n_con + 2] = Omega
        out[n_con + 3] = dth.real
        out[n_con + 4] = dth.imag
        return out

    y0 = np.array(y0_con + [r0, phi_sq0, 0.0, theta0.real, theta0.imag])
    problem = IvpProblem(rhs=rhs, t_span=(float(t_grid[0]), float(t_grid[-1])),
                         y0=y0, t_eval=t_grid,
                         guard=guard_flow_crossings if n_con else None)
    sol = integrate(problem, rtol=rtol, atol=atol, max_step=max_step)

    m = sol.t.size
    W = np.empty(m)
    T_abs = np.empty(m)
    phi_T = np.empty(m)
    Phi = np.empty(m)
    chi_arr = np.empty(m)
    varphi_arr = np.empty(m)
    Lambda_arr = np.empty(m)
    for i in range(m):
        ti = float(sol.t[i])
        if n_con:
            s = _constraint_from_vec(sol.y[i])
        else:
            s = approx_dyson_trajectory(ti, p, varphi0, chi)
        c = hermitized_coefficients(s, p, ti)
        W[i], T_abs[i], phi_T[i] = c.W, c.T_abs, c.phi_T
        Phi[i], chi_arr[i] = s.Phi, s.chi
        varphi_arr[i], Lambda_arr[i] = s.varphi, s.Lambda

    theta = sol.y[:, n_con + 3] + 1j * sol.y[:, n_con + 4]
    return Trajectory(t=sol.t, r=sol.y[:, n_con], phi_sq=sol.y[:, n_con + 1],
                      Omega_tilde=sol.y[:, n_con + 2], theta=theta,
                      W=W, T_abs=T_abs, phi_T=phi_T, Phi=Phi, chi=chi_arr,
                      varphi=varphi_arr, Lambda=Lambda_arr, stats=sol.stats)


def bogoliubov_ode_oracle(p: DriveParams, t_grid: np.ndarray, *,
                          dyson_source: str = "approximate",
                          chi: Optional[float] = None,
                          varphi0: float = 0.5 * math.pi,
                          constraint0: Optional[ConstraintState] = None,
                          rtol: float = 1e-9, atol: float = 1e-12,
                          max_step: Optional[float] = None
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Independent (u, v) evolution for cross-checking the squeeze route.

    The Heisenberg flow of a(t) = u*a + v*a^dag under the counterpart
    generator closes over (u, conj(v)):

        du/dt = -i*(W*u + 2*conj(T)*conj(v)),
        dv/dt = -i*(W*v + 2*conj(T)*conj(u)),

    integrated from (u, v) = (1, 0) as a real 4-vector.  Vacuum photon
    number along this route is |v|^2.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if max_step is None:
        max_step = p.period() / 16.0

    if dyson_source == "approximate":
        if chi is None:
            raise ValueError("approximate dyson_source requires chi")

        def coeffs_at(t: float, y) -> HermitizedCoeffs:
            return hermitized_coefficients(
                approx_dyson_trajectory(t, p, varphi0, chi), p, t)

        n_con = 0
        y0_con: list[float] = []
    elif dyson_source == "integrated":
        if constraint0 is None:
            raise ValueError("integrated dyson_source requires constraint0")

        def coeffs_at(t: float, y) -> HermitizedCoeffs:
            return hermitized_coefficients(_constraint_from_vec(y), p, t)

        n_con = 3
        y0_con = [constraint0.Phi, constraint0.varphi, constraint0.Lambda]
    else:
        raise ValueError(
            f"dyson_source must be 'approximate' or 'integrated', got {dyson_source!r}"
        )

    def rhs(t, y):
        out = np.empty_like(y)
        if n_con:
            out[:3] = constraint_rhs_polar(_constraint_from_vec(y), p, t)[:3]
        c = coeffs_at(t, y)
        u = complex(y[n_con], y[n_con + 1])
        v = complex(y[n_con + 2], y[n_con + 3])
        pump = 2.0 * c.T_abs * cmath.exp(-1j * c.phi_T)
        du = -1j * (c.W * u + pump * v.conjugate())
        dv = -1j * (c.W * v + pump * u.conjugate())
        out[n_con] = du.real
        out[n_con + 1] = du.imag
        out[n_con + 2] = dv.real
        out[n_con + 3] = dv.imag
        return out

    y0 = np.array(y0_con + [1.0, 0.0, 0.0, 0.0])
    problem = IvpProblem(rhs=rhs, t_span=(float(t_grid[0]), float(t_grid[-1])),
                         y0=y0, t_eval=t_grid,
                         guard=guard_flow_crossings if n_con else None)
    sol = integrate(problem, rtol=rtol, atol=atol, max_step=max_step)
    u = sol.y[:, n_con] + 1j * sol.y[:, n_con + 1]
    v = sol.y[:, n_con + 2] + 1j * sol.y[:, n_con + 3]
    return u, v
