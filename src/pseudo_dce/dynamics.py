"""Photon creation from the vacuum under the Hermitian counterpart.

Under the counterpart generator W*(n + 1/2) + T*a^2 + conj(T)*a^dag^2, with
the complex pump T = |T|*exp(i*phi_T) from the hermitize module's map
source, the vacuum's Bogoliubov pair (a(t) = u*a + v*a^dag) obeys the
linear flow

    du/dt = -i*(W*u + 2*conj(T)*conj(v)),
    dv/dt = -i*(W*v + 2*conj(T)*conj(u)),

from (u, v) = (1, 0), and its mean photon number is N = |v|^2; r = asinh|v|
and phi_sq = arg(u*v) are the squeeze state it defines.  On either map
source evolve multiplies out sixth-order Magnus steps of this flow
(Iserles & Norsett, Phil. Trans. R. Soc. A 357, 983 (1999); Blanes, Casas
& Ros, BIT 40, 434 (2000)), reading W and T at the steps' Gauss nodes.
Where W and T are closed-form (the approximate map source, which every
preset uses) no ODE is integrated.  The integrated map gives W and T at
those nodes from the dense output of its one integration, which carries
the same flow under DOP853 as the (u, v) oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .drive import DriveParams, heaviside
from .errors import NonFiniteState, NotOnResonance, StepRejected
from .hermitize import MapPoint, MapSource, guard_chi
from .integrate import IntegrationStats, as_time_grid, dense_at

# Gauss-Legendre nodes of the sixth-order Magnus step, in units of the step.
_GAUSS_NODES = 0.5 + math.sqrt(0.15) * np.array([-1.0, 0.0, 1.0])
# A Magnus step's width times max(|W| + 2|T|) over its nodes, which bounds
# the norm of Omega, stays under this (see _magnus_uv).
_MAGNUS_SPAN = 0.05
# Magnus steps multiplied out at a time, which bounds the memory a run's
# arrays of steps take, however many steps it needs.
_MAGNUS_BLOCK = 4096


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


@dataclass(frozen=True)
class Trajectory:
    """Columnar evolution history on the requested grid, starting from the
    vacuum.  (u, v) is the vacuum's Bogoliubov pair from t[0], a Magnus
    product, so u(t[0]) = 1 and v(t[0]) = 0; r = asinh|v| and
    phi_sq = arg(u*v) are the squeeze state it defines.  m is the map
    source's record of the map and its coefficients W and T there.  oracle
    is the DOP853 (u, v) oracle's pair where it rode in the map's
    integration (the integrated map, see evolve), else None."""

    t: np.ndarray
    u: np.ndarray
    v: np.ndarray
    r: np.ndarray
    phi_sq: np.ndarray
    m: MapPoint
    stats: IntegrationStats
    oracle: Optional[tuple]

    def mean_photon(self) -> np.ndarray:
        """Photon number N = |v|^2 created from the vacuum, on the grid.

        It overflows to inf from r ~ 355, where (u, v) are still finite."""
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


def _magnus_uv(t: np.ndarray, coeffs, phase0: float):
    """The vacuum's (u, v), arg(u*v) and the work done, on the grid t.

    x = (u, conj(v)) obeys x' = A(t)*x with A = [[-i*W, -2i*conj(T)],
    [2i*T, i*W]] (bogoliubov_ode_oracle's equations) from x = (1, 0) at
    t[0], and is carried by a product of sixth-order Magnus steps that read
    W and T from coeffs(x) at their Gauss nodes x, shape (m, 3); a W or T
    that is not finite on an interval's nodes raises NonFiniteState.  A grid
    interval of width H takes the least count n of equal steps that keeps
    (H/n)*max(|W| + 2|T|) over its own nodes under _MAGNUS_SPAN; a cut
    below 10 ulps of t raises StepRejected, as integrate does.  The steps
    are multiplied out _MAGNUS_BLOCK at a time, and arg(u*v) = arg u +
    arg v, which does not overflow, is unwrapped step by step from phase0
    at t[0], where v = 0.
    """
    H = np.diff(t)
    with np.errstate(invalid="ignore"):
        W0, T0 = coeffs(t[:-1, None] + H[:, None] * _GAUSS_NODES)
    bad = ~(np.isfinite(W0) & np.isfinite(T0)).all(axis=1)
    if bad.any():
        raise NonFiniteState(f"W or T is not finite in the interval from "
                             f"tau = {float(t[np.argmax(bad)])!r}")
    rate = (np.abs(W0) + 2.0 * np.abs(T0)).max(axis=1)
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
        W, T = W0[k], T0[k]
        cut = n[k] > 1
        if cut.any():
            start = t[k[cut]] + j[cut] * h[cut]
            W[cut], T[cut] = coeffs(start[:, None] + h[cut, None] * _GAUSS_NODES)
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
    nfev = W0.size + 3 * int(n[n > 1].sum())
    stats = IntegrationStats(int(ends[-1]), 0, nfev, float(h.min()), float(h.max()))
    return u, v, phase, stats


def evolve(src: MapSource, t_grid: np.ndarray, *, rtol: float = 1e-9,
           atol: float = 1e-12) -> Trajectory:
    """Evolve the vacuum's Bogoliubov pair over t_grid on the map source src.

    src supplies the counterpart coefficients and the drive, src.p.  (u, v)
    from t_grid[0] is a product of sixth-order Magnus steps (_magnus_uv),
    one per interval on every preset and sweep grid, more on coarse grids;
    phi_sq starts in the direction the vacuum squeezes in at t = 0+
    (_start_phase) and moves without jumps of 2*pi.  Against perfbench's
    tight-tolerance reference (worst relative N error above N = 1e-3) it
    reads 9.6e-13, 9.3e-13 and 2.7e-13 on the three fig3 series, and
    3.5e-13, 2.3e-13 and 1.1e-13 on the moderate map's sweep cells at
    kappa 1.93, 2.0 and 2.07.

    Where W and T are closed-form (src.closed_form: the approximate map)
    the steps read them directly, and rtol and atol do not apply.  The
    stats count the Magnus steps, no rejections, and as nfev the points W
    and T were evaluated at: three per step, plus three per interval cut
    into several steps.  Trajectory.oracle is None.

    On the integrated map src.integrate carries the map and the (u, v)
    oracle once, on t_grid, at rtol and atol, with its period/16 step cap
    and its crossing guards, and the steps read W and T at their nodes from
    that integration's dense output (MapRun.steps), however coarse the
    grid.  The stats are the integration's, and Trajectory.oracle is the
    oracle's pair: 3.1e-11 to 3.7e-11 from the reference on those cells.
    """
    t = as_time_grid(t_grid, "t_grid")
    run = (None if src.closed_form else
           src.integrate(_uv_rates, (1.0, 0.0, 0.0, 0.0), t, rtol, atol))

    def coeffs(x):
        y = () if run is None else np.moveaxis(dense_at(run.steps, x), -1, 0)
        mx = src.at(x, y)
        return mx.W, mx.T

    u, v, phi_sq, stats = _magnus_uv(t, coeffs, _start_phase(src.p, src.chi0))
    if run is None:
        m, oracle = src.at(t, ()), None
    else:
        y = run.y
        m, stats = run.m, run.stats
        oracle = (y[:, 0] + 1j * y[:, 1], y[:, 2] + 1j * y[:, 3])
    return Trajectory(t=t, u=u, v=v, r=np.arcsinh(np.abs(v)), phi_sq=phi_sq,
                      m=m, stats=stats, oracle=oracle)


def bogoliubov_ode_oracle(src: MapSource, t_grid: np.ndarray, *,
                          rtol: float = 1e-9, atol: float = 1e-12
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Independent (u, v) evolution for cross-checking evolve's Magnus product.

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

    The route shares W and T with evolve, which multiplies out Magnus
    steps of the same linear flow that this route integrates with DOP853:
    two discretizations of one flow.  On the integrated map the route rides
    in evolve's integration, whose map the Magnus steps read.
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
