"""Squeeze-parameter dynamics of the Hermitian counterpart and photon numbers.

The counterpart generator W*(n + 1/2) + T*a^2 + conj(T)*a^dag^2, with the
complex pump T = |T|*exp(i*phi_T) from the hermitize module's map source,
evolves an invariant-based squeeze parametrization (r, phi_sq) by

    dr/dt      = -2*|T|*sin(phi_T + phi_sq)
    dphi_sq/dt = -2*W - 4*|T|*coth(2r)*cos(phi_T + phi_sq),

together with the accumulated phase Omega_tilde = integral of

    Omega = W + 2*|T|*tanh(r)*cos(phi_T + phi_sq),

which carries the phases of u and v.  From two squeeze states the
Bogoliubov pair (u, v) follows in closed form.  Every run starts from the
vacuum, whose mean photon number is N = |v|^2 (sinh(r)^2 from an
unsqueezed start).  The closed forms take scalars or whole grids.

The phi_sq equation has a coordinate pole at r = 0; evolve seeds r with a
tiny positive value, seed_r_eps, in place of the vacuum's r = 0, and the
pole is dynamically repelling, so the adaptive integrator passes through
the transient without intervention.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .drive import DriveParams, heaviside
from .errors import NotOnResonance
from .hermitize import MapPoint, MapSource, guard_chi
from .integrate import IntegrationStats

_DEFAULT_SEED = 1e-8


@dataclass(frozen=True)
class SqueezeState:
    """Invariant parameters at one instant."""

    r: float
    phi_sq: float
    Omega_tilde: float = 0.0


def _coth(x: float) -> float:
    t = math.tanh(x)
    if t == 0.0:
        return math.copysign(math.inf, x)
    return 1.0 / t


def squeeze_rhs(r: float, phi_sq: float, W: float,
                T: complex) -> tuple[float, float, float]:
    """(dr/dt, dphi_sq/dt, Omega) at the given squeeze coordinates, for the
    frequency W and the complex pump T."""
    T_abs = abs(T)
    psi = cmath.phase(T) + phi_sq
    cos_psi = math.cos(psi)
    dr = -2.0 * T_abs * math.sin(psi)
    if T_abs == 0.0:
        pump = 0.0
        omega_term = 0.0
    else:
        pump = 4.0 * T_abs * _coth(2.0 * r) * cos_psi
        omega_term = 2.0 * T_abs * math.tanh(r) * cos_psi
    dphi = -2.0 * W - pump
    Omega = W + omega_term
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
    """Start phase phi_sq(0) at the phase offset phi0_prime; evolve starts
    every run at phi0_prime = 0.

    On resonance it is the closed form's phase-locked value (see
    analytic_squeeze); off resonance there is no locked value and it is
    phi0_prime itself.
    """
    if not p.on_resonance():
        return phi0_prime
    return (phi0_prime - 0.5 * math.pi
            - heaviside(1.0 - chi) * math.pi
            - heaviside(p.alpha0_tilde - chi * p.beta0_tilde) * math.pi)


def bogoliubov_uv(s0: SqueezeState, s: SqueezeState) -> tuple:
    """Bogoliubov pair (u, v) connecting two squeeze states of one evolution.

    Uses the accumulated phase difference Omega_tilde(s) - Omega_tilde(s0).
    |u|^2 - |v|^2 = 1 identically.  The fields of s may be arrays.
    """
    dom = s.Omega_tilde - s0.Omega_tilde
    c0, s0h = np.cosh(s0.r), np.sinh(s0.r)
    c1, s1h = np.cosh(s.r), np.sinh(s.r)
    u = np.exp(-1j * dom) * c0 * c1 - np.exp(
        1j * (dom + s.phi_sq - s0.phi_sq)) * s0h * s1h
    v = np.exp(1j * (dom + s.phi_sq)) * c0 * s1h - np.exp(
        -1j * (dom - s0.phi_sq)) * s0h * c1
    return u, v


@dataclass(frozen=True)
class Trajectory:
    """Columnar evolution history on the requested grid; m is the map
    source's record of the map and its coefficients W and T there."""

    t: np.ndarray
    r: np.ndarray
    phi_sq: np.ndarray
    Omega_tilde: np.ndarray
    m: MapPoint
    residual_hermiticity: np.ndarray
    stats: IntegrationStats

    def squeeze_state(self, i) -> SqueezeState:
        """The state at grid point i; arrays when i is a slice."""
        return SqueezeState(r=self.r[i], phi_sq=self.phi_sq[i],
                            Omega_tilde=self.Omega_tilde[i])

    def bogoliubov(self, i=slice(None)) -> tuple:
        """(u, v) from the first grid point to point i, by default to each."""
        return bogoliubov_uv(self.squeeze_state(0), self.squeeze_state(i))

    def mean_photon(self) -> np.ndarray:
        """Photon number N = |v|^2 created from the vacuum, on the grid."""
        return np.abs(self.bogoliubov()[1]) ** 2


def evolve(src: MapSource, t_grid: np.ndarray, *,
           seed_r_eps: float = _DEFAULT_SEED, rtol: float = 1e-9,
           atol: float = 1e-12) -> Trajectory:
    """Evolve the squeeze parameters from the vacuum over t_grid on the
    map source src.

    src supplies the counterpart coefficients and the drive, src.p.  The
    run starts at r = seed_r_eps, off the phi_sq pole at the vacuum's
    r = 0, with phi_sq = initial_squeeze_phase(src.p, src.chi0, 0.0).

    src.integrate carries (r, phi_sq, Omega_tilde) along the map, with its
    period/16 step cap and, on the integrated source, its crossing guards.
    """
    phi_sq0 = initial_squeeze_phase(src.p, src.chi0, 0.0)
    run = src.integrate(lambda m, y: squeeze_rhs(y[0], y[1], m.W, m.T),
                        (seed_r_eps, phi_sq0, 0.0), t_grid, rtol, atol)
    r, phi_sq, Omega_tilde = run.y.T
    return Trajectory(t=run.t, r=r, phi_sq=phi_sq, Omega_tilde=Omega_tilde, m=run.m,
                      residual_hermiticity=src.residual(run.t, run.m), stats=run.stats)


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
    def rhs(m, y):
        u = complex(y[0], y[1])
        v = complex(y[2], y[3])
        pump = 2.0 * m.T.conjugate()
        du = -1j * (m.W * u + pump * v.conjugate())
        dv = -1j * (m.W * v + pump * u.conjugate())
        return du.real, du.imag, dv.real, dv.imag

    t0 = t_grid[0]
    period = min(src.period, t_grid[-1] - t0)
    # Whole periods before each point; its phase lies in (0, T].
    whole = np.maximum(np.ceil((t_grid - t0) / period) - 1.0, 0.0)
    end = t0 + period if whole[-1] > 0 else t_grid[-1]
    t_one, row = np.unique(np.append(np.clip(t_grid - whole * period, t0, end), end),
                           return_inverse=True)
    y = src.integrate(rhs, (1.0, 0.0, 0.0, 0.0), t_one, rtol, atol).y
    u = y[:, 0] + 1j * y[:, 1]
    v = y[:, 2] + 1j * y[:, 3]
    m_T = np.array([[u[-1], v[-1]], [np.conj(v[-1]), np.conj(u[-1])]])
    a, b = np.array([np.linalg.matrix_power(m_T, k)[:, 0]  # M(T)^k (1, 0)
                     for k in range(int(whole[-1]) + 1)]).T[:, whole.astype(int)]
    u, v = u[row[:-1]], v[row[:-1]]
    return u * a + v * b, v * np.conj(a) + u * np.conj(b)
