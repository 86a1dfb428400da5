"""The benchmark's own reference for the photon number.

Nothing here imports pseudo_dce.  The counterpart coefficients are a numpy
transcription of the formulas stated in the package's module docstrings:

    omega(t) = omega0*(1 + eps_mod*cos(kappa*t))                  (drive)
    zeta(t)  = omega_dot/(4*omega), the "exact" zeta_mode          (drive)
    W        = omega - 2*zeta*Phi*(at - bt)*sin(varphi)/(chi - 1)  (hermitize)
    T        = -i*zeta*(at - chi*bt)/(1 - chi)                     (hermitize)

T is the complex form of |T|*exp(i*phi_T) with the Heaviside phase
bookkeeping of hermitized_coefficients.  The approximate map source freezes
Phi = -(chi + 1)/2 and advances varphi at 2*omega0; the integrated source
co-integrates the constraint flow for (Phi, varphi, Lambda), chi =
Phi^2 - Lambda, transcribed from hermitize.constraint_rhs_polar.

The photon number comes from the pole-free Heisenberg flow of
a(t) = u*a + v*a^dag, linear in (u, conj(v)):

    du/dt       = -i*(W*u + 2*conj(T)*conj(v))
    d conj(v)/dt = +i*(W*conj(v) + 2*T*u),     (u, v)(0) = (1, 0),

integrated with scipy's DOP853 (Hairer, Norsett & Wanner, Solving ODEs I,
section II.5) near the tightest tolerance it accepts.  Vacuum N = |v|^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.special import gammaln

RTOL = 2.5e-14
ATOL = 1e-20
EPS = float(np.finfo(float).eps)
# |u|^2 - |v|^2 - 1 in units of eps*(|u|^2 + |v|^2).  DOP853 does not keep
# the invariant exactly; at RTOL it drifts by 10^2 to 10^3 such units.
INVARIANT_ULPS = 1e4
CLOSED_FORM_BOUND = 0.05  # r vs the closed form on tau in [10, 50] (verify)


@dataclass(frozen=True)
class Drive:
    omega0: float
    eps_mod: float
    kappa: float
    alpha0_tilde: float
    beta0_tilde: float


@dataclass(frozen=True)
class Reference:
    """(u, v) on the requested grid, plus the map coordinates when integrated."""

    t: np.ndarray
    u: np.ndarray
    v: np.ndarray
    Phi: np.ndarray
    varphi: np.ndarray
    Lambda: np.ndarray
    nfev: int

    @property
    def N(self) -> np.ndarray:
        return np.abs(self.v) ** 2

    @property
    def r(self) -> np.ndarray:
        return np.arcsinh(np.abs(self.v))

    def invariant_ulps(self) -> float:
        """Worst |u|^2 - |v|^2 - 1 in units of eps*(|u|^2 + |v|^2)."""
        uu, vv = np.abs(self.u) ** 2, np.abs(self.v) ** 2
        return float(np.max(np.abs(uu - vv - 1.0) / (uu + vv)) / EPS)


def _rhs(d: Drive, source: str, chi: float, varphi0: float):
    w0, eps, kap = d.omega0, d.eps_mod, d.kappa
    at, bt = d.alpha0_tilde, d.beta0_tilde
    sin, cos = math.sin, math.cos

    def drive(t):
        w = w0 * (1.0 + eps * cos(kap * t))
        return w, -w0 * eps * kap * sin(kap * t) / (4.0 * w)

    def heisenberg(W, T, y):
        u, vb = complex(y[0], y[1]), complex(y[2], y[3])
        du = -1j * (W * u + 2.0 * T.conjugate() * vb)
        dvb = 1j * (W * vb + 2.0 * T * u)
        return [du.real, du.imag, dvb.real, dvb.imag]

    if source == "approximate":
        Phi = -0.5 * (chi + 1.0)
        c_w = 2.0 * Phi * (at - bt) / (chi - 1.0)
        c_t = (at - chi * bt) / (1.0 - chi)

        def rhs(t, y):
            w, zeta = drive(t)
            W = w - zeta * c_w * sin(varphi0 + 2.0 * w0 * t)
            return heisenberg(W, -1j * zeta * c_t, y)

        return rhs

    def rhs(t, y):
        w, zeta = drive(t)
        Phi, phi, Lam = y[0], y[1], y[2]
        chi_t = Phi * Phi - Lam
        sp, cp = sin(phi), cos(phi)
        dPhi = (2.0 * zeta / (1.0 - chi_t)) * (
            at * (1.0 - Phi * Phi)
            + bt * ((2.0 * chi_t - 1.0) * Phi * Phi - chi_t * chi_t)) * cp
        dphi = 2.0 * w - (2.0 * zeta / ((1.0 - chi_t) * Phi)) * (
            at * (1.0 - Phi * Phi) + bt * (Phi * Phi - chi_t * chi_t)) * sp
        dLam = (4.0 * zeta * Phi * (Phi * Phi - chi_t) / (chi_t - 1.0)) * (
            at - bt * (2.0 * chi_t - 1.0)) * cp
        W = w - 2.0 * zeta * Phi * (at - bt) * sp / (chi_t - 1.0)
        T = -1j * zeta * (at - chi_t * bt) / (1.0 - chi_t)
        return [dPhi, dphi, dLam] + heisenberg(W, T, y[3:])

    return rhs


def photon_reference(d: Drive, t: np.ndarray, *, source: str, chi: float,
                     z_abs: float = 1.0, varphi0: float = 0.5 * math.pi
                     ) -> Reference:
    """Integrate the (u, conj(v)) flow on the grid t (t[0] is the start).

    For source="integrated" the map starts at Phi = -|z|*(chi + 1)/2,
    Lambda = Phi^2 - chi, as ScenarioConfig.constraint0 states it.
    """
    t = np.asarray(t, dtype=float)
    y0 = [1.0, 0.0, 0.0, 0.0]
    n_map = 0
    if source == "integrated":
        phi0 = -0.5 * z_abs * (chi + 1.0)
        y0 = [phi0, varphi0, phi0 * phi0 - chi] + y0
        n_map = 3
    elif source != "approximate":
        raise ValueError(f"unknown source {source!r}")
    sol = solve_ivp(_rhs(d, source, chi, varphi0), (t[0], t[-1]), y0,
                    method="DOP853", t_eval=t, rtol=RTOL, atol=ATOL)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    y = sol.y
    u = y[n_map] + 1j * y[n_map + 1]
    v = np.conj(y[n_map + 2] + 1j * y[n_map + 3])
    if n_map:
        Phi, varphi, Lam = y[0], y[1], y[2]
    else:
        Phi = np.full(t.size, -0.5 * (chi + 1.0))
        varphi = varphi0 + 2.0 * d.omega0 * t
        Lam = Phi * Phi - chi
    return Reference(t=t, u=u, v=v, Phi=Phi, varphi=varphi, Lambda=Lam,
                     nfev=int(sol.nfev))


def closed_form_r(d: Drive, chi: float, t: np.ndarray) -> np.ndarray:
    """Leading-order resonant squeeze r(t) with r0 = 0, phi0' = 0 (dynamics)."""
    amp = abs(d.alpha0_tilde - chi * d.beta0_tilde) / abs(chi - 1.0)
    th = 4.0 * d.omega0 * np.asarray(t, dtype=float)
    return (d.eps_mod * amp / 8.0) * (th - np.sin(th))


def map_strength(z_abs: np.ndarray, Phi: np.ndarray) -> np.ndarray:
    """eps_map = ln[((1+s)*Phi + z)/((1-s)*Phi + z)]/(2*s), s = sqrt(1 - z^2) (dyson)."""
    s = np.sqrt(1.0 - z_abs * z_abs)
    return np.log(((1.0 + s) * Phi + z_abs) / ((1.0 - s) * Phi + z_abs)) / (2.0 * s)


def squeezed_vacuum_populations(r: np.ndarray, dim: int) -> np.ndarray:
    """|<2k|S(r)|0>|^2 = tanh(r)^(2k)*(2k)!/(4^k*(k!)^2*cosh(r)), rows = r values."""
    r = np.asarray(r, dtype=float)[:, None]
    k = np.arange(dim // 2 + dim % 2, dtype=float)[None, :]
    log_tanh = np.log(np.maximum(np.tanh(r), np.finfo(float).tiny))
    logp = (2.0 * k * log_tanh + gammaln(2.0 * k + 1.0) - 2.0 * gammaln(k + 1.0)
            - 2.0 * k * math.log(2.0) - np.log(np.cosh(r)))
    return np.exp(logp)
