"""Squeeze-parameter dynamics of the Hermitian counterpart and photon numbers.

Under the counterpart generator W*(n + 1/2) + T*a^2 + conj(T)*a^dag^2, with
the complex pump T = |T|*exp(i*phi_T) from the hermitize module's map
source, the vacuum's Bogoliubov pair (a(t) = u*a + v*a^dag) obeys the
linear flow

    du/dt = -i*(W*u + 2*conj(T)*conj(v)),
    dv/dt = -i*(W*v + 2*conj(T)*conj(u)),

from (u, v) = (1, 0), and its mean photon number is N = |v|^2.  Where W
and T are closed-form (the approximate map source, which every preset
uses) evolve multiplies out sixth-order Magnus steps of this flow
(Iserles & Norsett, Phil. Trans. R. Soc. A 357, 983 (1999); Blanes, Casas
& Ros, BIT 40, 434 (2000)), and no ODE is integrated.

On the integrated map, whose W and T come from an ODE anyway, evolve
integrates an invariant-based squeeze parametrization (r, phi_sq) along
the map,

    dr/dt      = -2*|T|*sin(phi_T + phi_sq)
    dphi_sq/dt = -2*W - 4*|T|*coth(2r)*cos(phi_T + phi_sq),

together with the accumulated phase Omega_tilde = integral of

    Omega = W + 2*|T|*tanh(r)*cos(phi_T + phi_sq),

which carries the phases of u and v.  From two squeeze states the
Bogoliubov pair (u, v) follows in closed form.  The closed forms take
scalars or whole grids.

The phi_sq equation has a coordinate pole at r = 0, where the vacuum
starts.  The chart is stiff near it: started at r = 1e-8, the integrator
spent 1,622 of its 3,629 right-hand-side calls in t < 0.1 on an
off-resonance cell of the integrated moderate map (kappa = 1.97), with 36
rejected steps.  The start state is a gauge, though: the pair (u, v)
composed from any squeezed start is the vacuum's.  So evolve starts the
chart at r = 1e-2, in the direction the vacuum squeezes in, and keeps the
vacuum's composed pair.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .drive import DriveParams, heaviside
from .errors import NonFiniteState, NotOnResonance, StepRejected
from .hermitize import MapPoint, MapSource, guard_chi
from .integrate import IntegrationStats

# The chart's start radius: far enough from the pole at r = 0 that the
# integrator meets no stiff transient (see evolve).
_DEFAULT_SEED = 1e-2

# Gauss-Legendre nodes of the sixth-order Magnus step, in units of the step.
_GAUSS_NODES = 0.5 + math.sqrt(0.15) * np.array([-1.0, 0.0, 1.0])
# A Magnus step's width times max(|W| + 2|T|) over its nodes, which bounds
# the norm of Omega, stays under this (see _magnus_uv).
_MAGNUS_SPAN = 0.05
# Magnus steps multiplied out at a time, which bounds the memory a run's
# arrays of steps take, however many steps it needs.
_MAGNUS_BLOCK = 4096


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


def analytic_squeeze(t: float, p: DriveParams, chi: float) -> tuple[float, float]:
    """Leading-order closed form for the vacuum's (r, phi_sq) on resonance
    (kappa = 2*omega0).

    r(t) = (eps_mod*A/8)*(4*w0*t - sin(4*w0*t)), A the amplification
    factor, and the squeeze phase falls linearly from its phase-locked
    start,
    phi_sq = -pi/2 - h(1-chi)*pi - h(at - chi*bt)*pi - 2*w0*t,
    h(x) being 1 for x < 0 and 0 otherwise.

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
    r = (p.eps_mod * big_a / 8.0) * (th - np.sin(th))
    phi0 = (-0.5 * math.pi - heaviside(1.0 - chi) * math.pi
            - heaviside(p.alpha0_tilde - chi * p.beta0_tilde) * math.pi)
    return r, phi0 - 2.0 * p.omega0 * t


def bogoliubov_uv(s0: SqueezeState, s: SqueezeState) -> tuple:
    """Bogoliubov pair (u, v) connecting two squeeze states of one evolution.

    Uses the accumulated phase difference Omega_tilde(s) - Omega_tilde(s0).
    |u|^2 - |v|^2 = 1 identically.  The fields of s may be arrays.
    """
    dom = s.Omega_tilde - s0.Omega_tilde
    c0, s0h = np.cosh(s0.r), np.sinh(s0.r)
    c1, s1h = np.cosh(s.r), np.sinh(s.r)
    # The real products first: at s = s0 the two terms of v are then equal
    # bit for bit, and v is exactly 0.
    u = np.exp(-1j * dom) * (c0 * c1) - np.exp(
        1j * (dom + s.phi_sq - s0.phi_sq)) * (s0h * s1h)
    v = np.exp(1j * (dom + s.phi_sq)) * (c0 * s1h) - np.exp(
        -1j * (dom - s0.phi_sq)) * (s0h * c1)
    return u, v


@dataclass(frozen=True)
class Trajectory:
    """Columnar evolution history on the requested grid, starting from the
    vacuum.  (u, v) is the vacuum's Bogoliubov pair from t[0], so
    u(t[0]) = 1 and v(t[0]) = 0; r = asinh|v| and phi_sq = arg(u*v) are the
    squeeze state it defines.  m is the map source's record of the map and
    its coefficients W and T there.  oracle is the (u, v) oracle's pair,
    when it was integrated alongside (on the integrated map, see evolve),
    else None."""

    t: np.ndarray
    u: np.ndarray
    v: np.ndarray
    r: np.ndarray
    phi_sq: np.ndarray
    m: MapPoint
    stats: IntegrationStats
    oracle: Optional[tuple]

    def mean_photon(self) -> np.ndarray:
        """Photon number N = |v|^2 created from the vacuum, on the grid."""
        return np.abs(self.v) ** 2


def _start_phase(p: DriveParams, chi: float) -> float:
    """The direction arg(-i*conj(T)) in which the vacuum starts to squeeze.

    T = -i*zeta*(at - chi*bt)/(1 - chi) vanishes at t = 0 and zeta(0+) < 0,
    so it is pi where (at - chi*bt)/(1 - chi) > 0 and 0 otherwise, and 0
    where T vanishes identically (eps_mod = 0 or at = chi*bt).
    """
    c = (p.alpha0_tilde - chi * p.beta0_tilde) / (1.0 - chi)
    return math.pi if p.eps_mod > 0.0 and c > 0.0 else 0.0


def _uv_rates(m: MapPoint, y) -> tuple[float, float, float, float]:
    """Rates of the oracle's (Re u, Im u, Re v, Im v) at the map point m."""
    u = complex(y[0], y[1])
    v = complex(y[2], y[3])
    pump = 2.0 * m.T.conjugate()
    du = -1j * (m.W * u + pump * v.conjugate())
    dv = -1j * (m.W * v + pump * u.conjugate())
    return du.real, du.imag, dv.real, dv.imag


def _branch(chart: np.ndarray, z: np.ndarray) -> np.ndarray:
    """arg z on the branch nearest the angle chart (chart where z = 0)."""
    return chart + np.angle(z * np.exp(-1j * chart))


def _bracket(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """[X, Y] of su(1,1) elements stacked as (theta, beta) along axis 0.

    (theta, beta), theta real, stands for [[-i*theta, conj(beta)],
    [beta, i*theta]]; the counterpart's generator is (W, 2i*T).
    """
    return np.stack([2.0 * (x[1] * y[1].conj()).imag,
                     2j * (x[0] * y[1] - y[0] * x[1])])


def _magnus_factors(W: np.ndarray, T: np.ndarray, h: np.ndarray):
    """The first columns (p, q) of exp(Omega) = [[p, conj(q)], [q, conj(p)]],
    one for each step of width h, from W and T at its three Gauss nodes.

    Omega is the three-node sixth-order Magnus expansion of Blanes, Casas &
    Ros (BIT 40, 434 (2000)); Omega is traceless, so exp(Omega) =
    cosh(k)*I + (sinh(k)/k)*Omega with k^2 = -det(Omega).
    """
    g1, g2, g3 = np.moveaxis(np.stack([W, 2j * T]), -1, 0)  # A at each node
    a1 = h * g2
    a2 = (math.sqrt(15.0) / 3.0) * h * (g3 - g1)
    a3 = (10.0 / 3.0) * h * (g3 - 2.0 * g2 + g1)
    c1 = _bracket(a1, a2)
    c2 = _bracket(a1, 2.0 * a3 + c1) / -60.0
    omega = a1 + a3 / 12.0 + _bracket(-20.0 * a1 - a3 + c1, a2 + c2) / 240.0
    theta, beta = omega[0].real, omega[1]
    k2 = beta.real ** 2 + beta.imag ** 2 - theta ** 2
    k = np.sqrt(np.abs(k2))
    hyper = k2 > 0.0
    c = np.where(hyper, np.cosh(k), np.cos(k))
    s = np.divide(np.where(hyper, np.sinh(k), np.sin(k)), k,
                  out=np.ones_like(k), where=k > 0.0)
    return c - 1j * s * theta, s * beta


def _prefix_products(p: np.ndarray, q: np.ndarray) -> None:
    """Replace the factors (p, q) by their running products M_k ... M_1, in
    place, by recursive doubling: log2(n) array passes, and each product
    rounds through at most that many multiplications."""
    d = 1
    while d < p.size:
        a, b, c, e = p[d:], q[d:], p[:-d], q[:-d]
        p[d:], q[d:] = a * c + b.conj() * e, b * c + a.conj() * e
        d *= 2


def _magnus_uv(src: MapSource, t: np.ndarray, phase0: float):
    """The vacuum's (u, v), arg(u*v) and the work done, on the grid t.

    x = (u, conj(v)) obeys x' = A(t)*x with A = [[-i*W, -2i*conj(T)],
    [2i*T, i*W]] (bogoliubov_ode_oracle's equations) from x = (1, 0) at
    t[0], and is carried by a product of sixth-order Magnus steps.  Each
    grid interval of width H is cut into n equal steps, n the least count
    that keeps (H/n)*max(|W| + 2|T|) under _MAGNUS_SPAN, the max taken over
    the interval's three Gauss nodes; one-step intervals reuse them.  A cut
    below 10 ulps of t raises StepRejected, as integrate does.  The steps
    are multiplied out _MAGNUS_BLOCK at a time, and arg(u*v) = arg u +
    arg v, which does not overflow, is unwrapped step by step from phase0
    at t[0], where v = 0.
    """
    H = np.diff(t)
    m = src.at(t[:-1, None] + H[:, None] * _GAUSS_NODES, ())
    rate = (np.abs(m.W) + 2.0 * np.abs(m.T)).max(axis=1)
    n = np.floor(H * rate / _MAGNUS_SPAN) + 1.0
    ulp = np.spacing(np.abs(t[1:]) + np.abs(t[:-1]))
    small = (n > 1.0) & (H / n < 10.0 * ulp)
    if small.any():
        raise StepRejected(f"a Magnus step falls below 10 ulps at tau = "
                           f"{float(t[np.argmax(small)])!r}")
    n = n.astype(np.int64)
    ends = np.cumsum(n)
    u = np.empty(t.size, dtype=complex)
    v = np.empty(t.size, dtype=complex)
    phase = np.empty(t.size)
    u[0], v[0], phase[0] = 1.0, 0.0, phase0
    x = (1.0 + 0.0j, 0.0j, phase0)  # (u, conj(v), phase) before the block
    for a in range(0, int(ends[-1]), _MAGNUS_BLOCK):
        step = np.arange(a, min(a + _MAGNUS_BLOCK, int(ends[-1])))
        k = np.searchsorted(ends, step, side="right")  # each step's interval
        j = step - (ends - n)[k]  # and its place there
        h = H[k] / n[k]
        W, T = m.W[k], m.T[k]
        cut = n[k] > 1
        if cut.any():
            start = t[k[cut]] + j[cut] * h[cut]
            fine = src.at(start[:, None] + h[cut, None] * _GAUSS_NODES, ())
            W[cut], T[cut] = fine.W, fine.T
        with np.errstate(over="ignore", invalid="ignore"):
            p, q = _magnus_factors(W, T, h)
            _prefix_products(p, q)
            uk, wk = p * x[0] + q.conj() * x[1], q * x[0] + p.conj() * x[1]
        bad = ~(np.isfinite(uk) & np.isfinite(wk))
        if bad.any():
            i = np.argmax(bad)
            raise NonFiniteState(f"(u, v) left the finite domain at tau = "
                                 f"{float(t[k[i]] + (j[i] + 1) * h[i])!r}")
        vk = wk.conj()
        ph = np.unwrap(np.concatenate(([x[2]], np.angle(uk) + np.angle(vk))))[1:]
        end = j == n[k] - 1  # the steps that end an interval
        out = k[end] + 1
        u[out], v[out], phase[out] = uk[end], vk[end], ph[end]
        x = (uk[-1], wk[-1], ph[-1])
    h = H / n
    nfev = m.W.size + 3 * int(n[n > 1].sum())
    stats = IntegrationStats(int(ends[-1]), 0, nfev, float(h.min()), float(h.max()))
    return u, v, phase, stats


def evolve(src: MapSource, t_grid: np.ndarray, *,
           seed_r_eps: float = _DEFAULT_SEED, rtol: float = 1e-9,
           atol: float = 1e-12) -> Trajectory:
    """Evolve the vacuum's squeeze parameters over t_grid on the map source
    src.

    src supplies the counterpart coefficients and the drive, src.p.  The
    trajectory keeps the vacuum's pair (u, v) from t_grid[0] and the state
    it defines: r = asinh|v| and phi_sq = arg(u*v), which starts in the
    direction the vacuum squeezes in at t = 0+ (_start_phase) and moves
    without jumps of 2*pi.

    Where W and T are closed-form (src.closed_form: the approximate map)
    (u, v) is a product of sixth-order Magnus steps (_magnus_uv): one step
    per interval on every preset grid, more on coarse grids.  seed_r_eps,
    rtol and atol do not apply there.  The stats count the Magnus steps,
    no rejections, and as nfev the points W and T were evaluated at: three
    per step, plus three per interval cut into several steps.  Against
    perfbench's tight-tolerance reference (worst relative N error above
    N = 1e-3) it reads 9.6e-13, 9.3e-13 and 2.7e-13 on the three fig3
    series, where the polar chart read 2.9e-9, 2.8e-9 and 6.3e-10 at the
    default rtol.  Trajectory.oracle is None.

    On the integrated map src.integrate carries the polar chart's
    (r, phi_sq, Omega_tilde) along the map at rtol and atol, with its
    period/16 step cap and its crossing guards.  The chart starts at
    r = seed_r_eps, away from its pole at r = 0, with phi_sq the direction
    the vacuum squeezes in (so the pole term starts at 0) and
    Omega_tilde = 0.  (u, v) is bogoliubov_uv of the chart's first and
    current states, and phi_sq takes the branch nearest the chart's.  On
    the moderate map's kappa sweep (seed 7, 12 cells), starts from 1e-2 to
    0.5 all take 1,951 rhs calls a cell with no rejected step, and the
    error stays between 5e-11 and 1.2e-10; starts of 5e-3 and below bring
    part of the pole's stiff transient back: 12 rejections at 5e-3, 51 and
    2,302 calls a cell at 1e-8.  The (u, v) oracle's components ride in
    the same integration, and Trajectory.oracle holds its pair.
    """
    phase0 = _start_phase(src.p, src.chi0)
    if src.closed_form:
        t = np.array(t_grid, dtype=float)
        if t.ndim != 1 or t.size < 2 or not np.all(np.isfinite(t)):
            raise ValueError("t_grid must be a 1-D array of at least two "
                             "finite times")
        if np.any(np.diff(t) <= 0.0):
            raise ValueError("t_grid must be strictly increasing")
        u, v, phi_sq, stats = _magnus_uv(src, t, phase0)
        return Trajectory(t=t, u=u, v=v, r=np.arcsinh(np.abs(v)), phi_sq=phi_sq,
                          m=src.at(t, ()), stats=stats, oracle=None)
    s0 = (seed_r_eps, phase0, 0.0)
    run = src.integrate(lambda m, y: (*squeeze_rhs(y[0], y[1], m.W, m.T),
                                      *_uv_rates(m, y[3:])),
                        s0 + (1.0, 0.0, 0.0, 0.0), t_grid, rtol, atol)
    chart = SqueezeState(*run.y[:, :3].T)
    u, v = bogoliubov_uv(SqueezeState(*s0), chart)
    return Trajectory(t=run.t, u=u, v=v, r=np.arcsinh(np.abs(v)),
                      phi_sq=_branch(chart.phi_sq, u * v), m=run.m,
                      stats=run.stats,
                      oracle=(run.y[:, 3] + 1j * run.y[:, 4],
                              run.y[:, 5] + 1j * run.y[:, 6]))


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
    integrated.  Otherwise T is the grid's span: direct integration, the
    standalone form of the pair evolve carries along on the integrated map.

    The route shares W and T with evolve.  On a closed-form map evolve
    multiplies out Magnus steps of the same linear flow, which this route
    integrates with DOP853 (and composes over periods): two
    discretizations of one flow.  On the integrated map, riding in evolve,
    it shares the map's integration and step sequence, but integrates the
    linear flow rather than evolve's polar chart.
    """
    t0 = t_grid[0]
    period = min(src.period, t_grid[-1] - t0)
    # Whole periods before each point; its phase lies in (0, T].
    whole = np.maximum(np.ceil((t_grid - t0) / period) - 1.0, 0.0)
    end = t0 + period if whole[-1] > 0 else t_grid[-1]
    t_one, row = np.unique(np.append(np.clip(t_grid - whole * period, t0, end), end),
                           return_inverse=True)
    y = src.integrate(_uv_rates, (1.0, 0.0, 0.0, 0.0), t_one, rtol, atol).y
    u = y[:, 0] + 1j * y[:, 1]
    v = y[:, 2] + 1j * y[:, 3]
    m_T = np.array([[u[-1], v[-1]], [np.conj(v[-1]), np.conj(u[-1])]])
    a, b = np.array([np.linalg.matrix_power(m_T, k)[:, 0]  # M(T)^k (1, 0)
                     for k in range(int(whole[-1]) + 1)]).T[:, whole.astype(int)]
    u, v = u[row[:-1]], v[row[:-1]]
    return u * a + v * b, v * np.conj(a) + u * np.conj(b)
