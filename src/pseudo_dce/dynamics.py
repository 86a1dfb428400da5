"""Squeeze-parameter dynamics of the Hermitian counterpart and photon numbers.

The counterpart generator W*(n + 1/2) + T*a^2 + conj(T)*a^dag^2, with the
complex pump T = |T|*exp(i*phi_T) from the hermitize module's map source,
evolves an invariant-based squeeze parametrization (r, phi_sq, theta) by

    dr/dt      = -2*|T|*sin(phi_T + phi_sq)
    dphi_sq/dt = -2*W - 4*|T|*coth(2r)*cos(phi_T + phi_sq)
    dtheta/dt  = -i*Omega*theta,
    Omega      = W + 2*|T|*tanh(r)*cos(phi_T + phi_sq)

with the accumulated phase Omega_tilde = integral of Omega.  Only r,
phi_sq and Omega_tilde are integrated: the displacement phase has the
closed form theta(t) = theta(0)*exp(-i*(Omega_tilde(t) - Omega_tilde(0))),
so |theta| is conserved exactly.  From two squeeze states the Bogoliubov
triple (u, v, w) follows in closed form and gives the mean photon number for arbitrary Gaussian-adjacent initial
moments; for vacuum N = sinh(r)^2 = |v|^2.  The closed forms take scalars
or whole grids.

The phi_sq equation has a coordinate pole at r = 0; callers seed r with a
tiny positive value (evolve does this when r0 = 0) and the pole is
dynamically repelling, so the adaptive integrator passes through the
transient without intervention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .drive import DriveParams, heaviside
from .errors import NegativeMeanPhoton, NotOnResonance
from .hermitize import HermitizedCoeffs, MapSource, guard_chi
from .integrate import IntegrationStats

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


def amplification_factor(alpha0_tilde: float, beta0_tilde: float,
                         chi: float) -> float:
    """Growth-rate ratio |alpha0_tilde - chi*beta0_tilde| / |chi - 1|.

    Equals 1 identically when alpha0_tilde = beta0_tilde (Hermitian drive),
    for every chi away from the chi = 1 singularity (guard_chi).
    """
    guard_chi(chi)
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
    if not p.on_resonance():
        raise NotOnResonance(
            f"kappa = {p.kappa!r} is not 2*omega0 = {2.0 * p.omega0!r}"
        )
    big_a = amplification_factor(p.alpha0_tilde, p.beta0_tilde, chi)
    th = 4.0 * p.omega0 * t
    r = r0 + (p.eps_mod * big_a / 8.0) * (
        math.cos(phi0_prime) * (th - np.sin(th))
        - math.sin(phi0_prime) * (1.0 - np.cos(th))
    )
    return r, initial_squeeze_phase(p, chi, phi0_prime) - 2.0 * p.omega0 * t


def initial_squeeze_phase(p: DriveParams, chi: float, phi0_prime: float) -> float:
    """Start phase phi_sq(0) of a run.

    On resonance it is the closed form's phase-locked value (see
    analytic_squeeze); off resonance there is no locked value and the
    run starts at phi0_prime.
    """
    if not p.on_resonance():
        return phi0_prime
    return (phi0_prime - 0.5 * math.pi
            - heaviside(1.0 - chi) * math.pi
            - heaviside(p.alpha0_tilde - chi * p.beta0_tilde) * math.pi)


def bogoliubov_uvw(s0: SqueezeState, s: SqueezeState) -> BogoliubovTriple:
    """Bogoliubov triple connecting two squeeze states of one evolution.

    Uses the accumulated phase difference Omega_tilde(s) - Omega_tilde(s0).
    |u|^2 - |v|^2 = 1 identically.  The fields of s may be arrays.
    """
    dom = s.Omega_tilde - s0.Omega_tilde
    c0, s0h = np.cosh(s0.r), np.sinh(s0.r)
    c1, s1h = np.cosh(s.r), np.sinh(s.r)
    e_m = np.exp(-1j * dom)
    u = e_m * c0 * c1 - np.exp(1j * (dom + s.phi_sq - s0.phi_sq)) * s0h * s1h
    v = np.exp(1j * (dom + s.phi_sq)) * c0 * s1h - np.exp(
        -1j * (dom - s0.phi_sq)) * s0h * c1
    w = s0.theta * e_m * c1 + np.conj(s0.theta) * np.exp(
        1j * (dom + s.phi_sq)) * s1h
    return BogoliubovTriple(u=u, v=v, w=w)


def mean_photon_general(triple: BogoliubovTriple,
                        moments: InitialMoments = InitialMoments()) -> float:
    """Mean photon number from the Bogoliubov triple and initial moments.

    Vacuum moments give N = |v|^2 + |w|^2.  Raises NegativeMeanPhoton when
    the assembled value is below -1e-9; smaller negative roundoff is
    clamped to zero.  The triple may hold arrays.
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
    n = np.real(val)
    if np.count_nonzero(n < -1e-9):
        raise NegativeMeanPhoton(
            f"assembled mean photon number {float(np.min(n))!r} < -1e-9")
    return np.maximum(0.0, n)


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
    residual_hermiticity: np.ndarray
    stats: IntegrationStats

    def squeeze_state(self, i) -> SqueezeState:
        """The state at grid point i; arrays when i is a slice."""
        return SqueezeState(r=self.r[i], phi_sq=self.phi_sq[i], theta=self.theta[i],
                            Omega_tilde=self.Omega_tilde[i])

    def bogoliubov(self, i=slice(None)) -> BogoliubovTriple:
        """Triple from the first grid point to point i, by default to each."""
        return bogoliubov_uvw(self.squeeze_state(0), self.squeeze_state(i))

    def mean_photon(self, moments: InitialMoments = InitialMoments()) -> np.ndarray:
        return mean_photon_general(self.bogoliubov(), moments)


def evolve(src: MapSource, t_grid: np.ndarray, *, r0: float = 0.0,
           phi_sq0: Optional[float] = None, theta0: complex = 0j,
           seed_r_eps: float = _DEFAULT_SEED, rtol: float = 1e-9,
           atol: float = 1e-12) -> Trajectory:
    """Evolve the squeeze parameters over t_grid on the map source src.

    src supplies the counterpart coefficients and the drive, src.p.  r0 =
    0 is replaced by seed_r_eps to stay off the phi_sq pole.  phi_sq0
    defaults to initial_squeeze_phase with phi0_prime = 0.  theta is not
    integrated: it is theta0 rotated by the accumulated phase.

    Steps are capped at a sixteenth of the drive period
    (MapSource.integrate).  With the integrated source a step that
    carries the flow across chi = 1 or Phi = 0 raises ChiSingular or
    PhiZero at the crossing.
    """
    n = len(src.y0)
    if r0 == 0.0:
        r0 = seed_r_eps
    if phi_sq0 is None:
        phi_sq0 = initial_squeeze_phase(src.p, src.chi0, 0.0)

    def rhs(t, y):
        # Python floats: arithmetic on numpy scalars is several times slower.
        t, y = float(t), y.tolist()
        m = src.at(t, y)
        c = HermitizedCoeffs.from_complex(m.W, m.T)
        return np.array([*m.rates[:n], *squeeze_rhs(y[n], y[n + 1], c)])

    sol = src.integrate(rhs, (r0, phi_sq0, 0.0), t_grid, rtol, atol)
    m = src.at(sol.t, sol.y.T)
    c = HermitizedCoeffs.from_complex(m.W, m.T)
    Omega_tilde = sol.y[:, n + 2]
    return Trajectory(t=sol.t, r=sol.y[:, n], phi_sq=sol.y[:, n + 1],
                      Omega_tilde=Omega_tilde,
                      theta=theta0 * np.exp(-1j * (Omega_tilde - Omega_tilde[0])),
                      W=c.W, T_abs=c.T_abs, phi_T=c.phi_T, Phi=m.Phi, chi=m.chi,
                      varphi=m.varphi, Lambda=m.Lambda,
                      residual_hermiticity=src.residual(sol.t, m), stats=sol.stats)


def bogoliubov_ode_oracle(src: MapSource, t_grid: np.ndarray, *,
                          rtol: float = 1e-9, atol: float = 1e-12
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Independent (u, v) evolution for cross-checking the squeeze route.

    The Heisenberg flow of a(t) = u*a + v*a^dag under the counterpart
    generator closes over (u, conj(v)):

        du/dt = -i*(W*u + 2*conj(T)*conj(v)),
        dv/dt = -i*(W*v + 2*conj(T)*conj(u)),

    integrated from (u, v) = (1, 0) as a real 4-vector.  Vacuum photon
    number along this route is |v|^2.

    The flow is linear in x = (u, conj(v)); its propagator from t_grid[0]
    is M = [[u, v], [conj(v), conj(u)]], read off the integrated column.
    When W and T repeat with the map source's period T (the approximate
    source on resonance, as in every preset), M(n*T + s) = M(s)*M(T)^n
    (Floquet), so only the grid's phases s in (0, T] and T itself are
    integrated.  Otherwise T is the grid's span: direct integration.  The
    route shares nothing with evolve's polar (r, phi_sq) ODE beyond W and
    T, so each stays an independent check on the other.
    """
    n = len(src.y0)

    def rhs(t, y):
        t, y = float(t), y.tolist()
        m = src.at(t, y)
        u = complex(y[n], y[n + 1])
        v = complex(y[n + 2], y[n + 3])
        pump = 2.0 * m.T.conjugate()
        du = -1j * (m.W * u + pump * v.conjugate())
        dv = -1j * (m.W * v + pump * u.conjugate())
        return np.array([*m.rates[:n], du.real, du.imag, dv.real, dv.imag])

    t0 = t_grid[0]
    period = min(src.period, t_grid[-1] - t0)
    # Whole periods before each point; its phase lies in (0, T].
    whole = np.maximum(np.ceil((t_grid - t0) / period) - 1.0, 0.0)
    end = t0 + period if whole[-1] > 0 else t_grid[-1]
    t_one, row = np.unique(np.append(np.clip(t_grid - whole * period, t0, end), end),
                           return_inverse=True)
    sol = src.integrate(rhs, (1.0, 0.0, 0.0, 0.0), t_one, rtol, atol)
    u = sol.y[:, n] + 1j * sol.y[:, n + 1]
    v = sol.y[:, n + 2] + 1j * sol.y[:, n + 3]
    m_T = np.array([[u[-1], v[-1]], [np.conj(v[-1]), np.conj(u[-1])]])
    a, b = np.array([np.linalg.matrix_power(m_T, k)[:, 0]  # M(T)^k (1, 0)
                     for k in range(int(whole[-1]) + 1)]).T[:, whole.astype(int)]
    u, v = u[row[:-1]], v[row[:-1]]
    return u * a + v * b, v * np.conj(a) + u * np.conj(b)
