"""Photon creation from the vacuum under the Hermitian counterpart.

Under the counterpart generator W*(n + 1/2) + T*a^2 + conj(T)*a^dag^2, with
the complex pump T from the hermitize module's map source, the vacuum's
Bogoliubov pair (a(t) = u*a + v*a^dag) obeys the linear flow

    du/dt = -i*(W*u + 2*conj(T)*conj(v)),
    dv/dt = -i*(W*v + 2*conj(T)*conj(u)),

from (u, v) = (1, 0), and its mean photon number is N = |v|^2; r = asinh|v|
and phi_sq = arg(u*v) are the squeeze state it defines.  On either map
source evolve multiplies out sixth-order Magnus steps (Iserles & Norsett,
Phil. Trans. R. Soc. A 357, 983 (1999); Blanes, Casas & Ros, BIT 40, 434
(2000)) of the source's traceless 2x2 generator, read at the steps' Gauss
nodes, and no ODE is integrated.  On the approximate map source, which
every preset uses, the generator is the flow above.  On the integrated
source it is the drive's own H, whose product G gives (u, v) and the
exact map through the linear metric equation (hermitize's
MapSource.read_product).  bogoliubov_ode_oracle integrates the same
product with DOP853 over one period where it repeats and reads it alike:
a second discretization on either source.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .drive import DriveParams, heaviside
from .errors import ChiSingular, NonFiniteState, NotOnResonance, StepRejected
from .hermitize import MapPoint, MapSource, guard_chi
from .integrate import (IntegrationStats, IvpProblem, as_time_grid,
                        integrate)

# Gauss-Legendre nodes of the sixth-order Magnus step, in units of the step.
_GAUSS_NODES = 0.5 + math.sqrt(0.15) * np.array([-1.0, 0.0, 1.0])
# A Magnus step's width times max(|a| + max(|b|, |c|)) over its nodes, which
# bounds the norm of Omega, stays under this (see _magnus_plan).
_MAGNUS_SPAN = 0.05
# Magnus steps multiplied out at a time, which bounds the memory a run's
# arrays of steps take, however many steps it needs.
_MAGNUS_BLOCK = 4096
# On the integrated source the product is rebased once its squared norm
# passes this (see _magnus_uv): the polar reading's det S cancels from
# entries of that size, and so loses about eps*_REBASE to rounding.
_REBASE = 100.0
# The product's entries (y00, y01, y10, y11) at the start.
_IDENTITY = tuple(np.array([x], dtype=complex) for x in (1.0, 0.0, 0.0, 1.0))


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
    vacuum.  (u, v) is the vacuum's Bogoliubov pair from t[0], read off a
    Magnus product, so u(t[0]) = 1 and v(t[0]) = 0; r = asinh|v| and
    phi_sq = arg(u*v) are the squeeze state it defines.  m is the map
    source's record of the map and its coefficients W and T there, and
    stats the Magnus product's work."""

    t: np.ndarray
    u: np.ndarray
    v: np.ndarray
    r: np.ndarray
    phi_sq: np.ndarray
    m: MapPoint
    stats: IntegrationStats

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
    """Rates of (Re u, Im u, Re v, Im v) at the map point m: the (u, v)
    route verify carries along the nonlinear flow (MapSource.integrate)."""
    u = complex(y[0], y[1])
    v = complex(y[2], y[3])
    pump = 2.0 * m.T.conjugate()
    du = -1j * (m.W * u + pump * v.conjugate())
    dv = -1j * (m.W * v + pump * u.conjugate())
    return du.real, du.imag, dv.real, dv.imag


def _bracket(x, y) -> tuple:
    """[X, Y] of traceless 2x2 matrices given as (a, b, c), each standing
    for [[a, b], [c, -a]].

    On su(1,1) elements (a imaginary, c = conj(b)) the result is again one,
    exactly: each component is a conjugate pair's difference.
    """
    return (x[1] * y[2] - y[1] * x[2],
            2.0 * (x[0] * y[1] - y[0] * x[1]),
            2.0 * (x[2] * y[0] - y[2] * x[0]))


def _magnus_factors(g, h: np.ndarray) -> tuple:
    """The entries (y00, y01, y10, y11) of exp(Omega) for each step of
    width h, from the generator's (a, b, c) at its three Gauss nodes, each
    of shape (3, m).

    Omega is the three-node sixth-order Magnus expansion of Blanes, Casas &
    Ros (BIT 40, 434 (2000)); Omega is traceless, so exp(Omega) =
    cosh(k)*I + (sinh(k)/k)*Omega with k^2 = -det(Omega).  Components are
    kept as separate arrays: stacked ones are large enough that allocating
    them costs more than the arithmetic.
    """
    a1 = [h * x[1] for x in g]
    a2 = [(math.sqrt(15.0) / 3.0) * h * (x[2] - x[0]) for x in g]
    a3 = [(10.0 / 3.0) * h * (x[2] - 2.0 * x[1] + x[0]) for x in g]
    c1 = _bracket(a1, a2)
    c2 = [x / -60.0 for x in _bracket(a1, [2.0 * x + y for x, y in zip(a3, c1)])]
    c3 = _bracket([-20.0 * x - y + z for x, y, z in zip(a1, a3, c1)],
                  [x + y for x, y in zip(a2, c2)])
    a, b, c = (x + y / 12.0 + z / 240.0 for x, y, z in zip(a1, a3, c3))
    k = np.sqrt(a * a + b * c)
    ch = np.cosh(k)
    sh = np.divide(np.sinh(k), k, out=np.ones_like(k), where=k != 0.0)
    return ch + sh * a, sh * b, sh * c, ch - sh * a


def _times(x, y) -> tuple:
    """The product X*Y of matrices given by their entries (m00, m01, m10,
    m11), arrays that broadcast together."""
    x00, x01, x10, x11 = x
    y00, y01, y10, y11 = y
    return (x00 * y00 + x01 * y10, x00 * y01 + x01 * y11,
            x10 * y00 + x11 * y10, x10 * y01 + x11 * y11)


def _prefix_products(y) -> None:
    """Replace the factors y, entries (m00, m01, m10, m11) of shape (n,), by
    their running products M_k ... M_1, in place, by recursive doubling:
    log2(n) array passes, and each product rounds through at most that
    many multiplications."""
    d = 1
    while d < y[0].size:
        for x, p in zip(y, _times([x[d:] for x in y], [x[:-d] for x in y])):
            x[d:] = p
        d *= 2


def _magnus_plan(t: np.ndarray, generator):
    """Grid intervals H, the steps n each is cut into, and the generator at
    the nodes of each interval, shape (3, t.size - 1), for a Magnus product
    on the grid t.

    An interval takes the least count n of equal steps that keeps
    (H/n)*max(|a| + max(|b|, |c|)) over its own nodes under _MAGNUS_SPAN:
    |W| + 2|T| on the counterpart's generator.  A generator that is not
    finite on an interval's nodes raises NonFiniteState, and a cut below 10
    ulps of t raises StepRejected, as integrate does.
    """
    H = np.diff(t)
    with np.errstate(invalid="ignore"):
        g = generator(t[:-1] + H * _GAUSS_NODES[:, None])
    bad = ~np.logical_and.reduce([np.isfinite(x) for x in g]).all(axis=0)
    if bad.any():
        raise NonFiniteState(f"the generator is not finite in the interval "
                             f"from tau = {float(t[np.argmax(bad)])!r}")
    a, b, c = (np.abs(x) for x in g)
    rate = (a + np.maximum(b, c)).max(axis=0)
    n = np.floor(H * rate / _MAGNUS_SPAN) + 1.0
    ulp = np.spacing(np.abs(t[1:]) + np.abs(t[:-1]))
    small = (n > 1.0) & (H / n < 10.0 * ulp)
    if small.any():
        raise StepRejected(f"a Magnus step falls below 10 ulps at tau = "
                           f"{float(t[np.argmax(small)])!r}")
    return H, n.astype(np.int64), g


def _crossing(src: MapSource, t0: float, h: float, y0: tuple, base,
              varphi0: float):
    """Raise ChiSingular at the chi = 1 branch point inside the Magnus step
    of width h from t0, where the product since base is y0 (entries of
    shape (1,)) and the map's unwrapped varphi is varphi0.

    det S is positive at t0 and not at t0 + h.  One partial Magnus step
    from t0 gives the product anywhere in the step; bisection finds the two
    adjacent floats around the sign change, and the later one is printed to
    12 significant digits, as guard_flow_crossings does.  The map is
    reported at the earlier one, as near the branch point as it is defined.
    """
    def reading(tau: float):
        if tau == t0:
            return src.read_product(y0, base)
        g = src.generator(t0 + (tau - t0) * _GAUSS_NODES[:, None])
        return src.read_product(_times(_magnus_factors(g, tau - t0), y0), base)

    a, b = t0, t0 + h
    while a < (mid := 0.5 * (a + b)) < b:
        a, b = (mid, b) if reading(mid)[3][0] > 0.0 else (a, mid)
    Phi, varphi, Lambda = (float(x[0]) for x in reading(a)[2])
    varphi += 2.0 * math.pi * round((varphi0 - varphi) / (2.0 * math.pi))
    raise ChiSingular(f"the map crosses chi = 1 at tau = {b:.12g} "
                      f"(Phi = {Phi!r}, varphi = {varphi!r}, Lambda = {Lambda!r})")


def _magnus_uv(src: MapSource, t: np.ndarray, phase0: float):
    """The vacuum's (u, v), arg(u*v), the map's coordinates and the work
    done, on the grid t.

    The steps read src.generator at their Gauss nodes (_magnus_plan) and
    are multiplied out _MAGNUS_BLOCK at a time; src.read_product turns each
    step's running product into (u, v) and, on the integrated source, the
    map's (Phi, varphi, Lambda), det S and matrix P.  On the integrated
    source the product restarts from the identity after the first step
    where its squared norm passes _REBASE, and the map and (u, v) there
    become the base it is read against, so that det S never cancels from
    entries larger than the map's own times sqrt(_REBASE).  A product that
    is not finite raises NonFiniteState, and det S <= 0, the chi = 1
    branch point, raises ChiSingular there (_crossing).  arg(u*v) = arg u
    + arg v, which does not overflow, is unwrapped step by step from
    phase0 at t[0], where v = 0, and so is the map's varphi from its start.
    """
    H, n, g0 = _magnus_plan(t, src.generator)
    ends = np.cumsum(n)
    total = int(ends[-1])
    u = np.empty(t.size, dtype=complex)
    v = np.empty(t.size, dtype=complex)
    u[0], v[0] = 1.0, 0.0
    # The map's start, and the unwrapped angles: arg(u*v), then its varphi.
    coords = [np.full(t.size, x) for x in src.map0]
    angle = np.array([phase0, *src.map0[1:2]])
    phases = np.empty((angle.size, t.size))
    phases[:, 0] = angle
    y, base = _IDENTITY, src.base0  # the product since the base, before the block
    a, nfev = 0, g0[0].size
    while a < total:
        step = np.arange(a, min(a + _MAGNUS_BLOCK, total))
        k = np.searchsorted(ends, step, side="right")  # each step's interval
        j = step - (ends - n)[k]  # and its place there
        h = H[k] / n[k]
        g = [x[:, k] for x in g0]
        cut = n[k] > 1
        nfev += 3 * int(cut.sum())
        if cut.any():
            t_cut = t[k[cut]] + j[cut] * h[cut]
            for x, xc in zip(g, src.generator(t_cut + h[cut] * _GAUSS_NODES[:, None])):
                x[:, cut] = xc
        with np.errstate(over="ignore", invalid="ignore"):
            f = _magnus_factors(g, h)
            _prefix_products(f)
            yk = _times(f, y)
        bad = ~np.logical_and.reduce([np.isfinite(x) for x in yk])
        if bad.any():
            i = np.argmax(bad)
            raise NonFiniteState(f"(u, v) left the finite domain at tau = "
                                 f"{float(t[k[i]] + (j[i] + 1) * h[i])!r}")
        uk, vk, ck, det, pk = src.read_product(yk, base)
        rebase = None
        if pk is not None:
            grown = sum(x.real ** 2 + x.imag ** 2 for x in yk) > _REBASE
            if grown.any():
                # Keep the steps up to the first that grows past _REBASE.
                rebase = int(np.argmax(grown))
                keep = slice(0, rebase + 1)
                step, k, j, h = step[keep], k[keep], j[keep], h[keep]
                yk, uk, vk, det = (tuple(x[keep] for x in yk), uk[keep],
                                   vk[keep], det[keep])
                ck, pk = (tuple(x[keep] for x in c) for c in (ck, pk))
        ph = np.unwrap(np.concatenate(
            (angle[:, None], [np.angle(uk) + np.angle(vk), *ck[1:2]]), axis=1), axis=1)
        if det is not None and not (det > 0.0).all():
            i = int(np.argmax(~(det > 0.0)))
            _crossing(src, float(t[k[i]] + j[i] * h[i]), float(h[i]),
                      tuple(x[i - 1:i] for x in yk) if i else y, base,
                      float(ph[1, i]))
        ph = ph[:, 1:]
        end = j == n[k] - 1  # the steps that end an interval
        out = k[end] + 1
        u[out], v[out], phases[:, out] = uk[end], vk[end], ph[:, end]
        for x, xk in zip(coords, ck):
            x[out] = xk[end]
        y, angle = tuple(x[-1:] for x in yk), ph[:, -1]
        if rebase is not None:
            y = _IDENTITY
            base = (tuple(complex(x[-1]) for x in pk), (complex(uk[-1]), complex(vk[-1])))
        a = int(step[-1]) + 1
    if coords:
        coords[1] = phases[1]
    h = H / n
    stats = IntegrationStats(total, 0, nfev, float(h.min()), float(h.max()))
    return u, v, phases[0], tuple(coords), stats


def evolve(src: MapSource, t_grid: np.ndarray) -> Trajectory:
    """Evolve the vacuum's Bogoliubov pair over t_grid on the map source src.

    src supplies the generator, the map and the drive, src.p.  (u, v) from
    t_grid[0] is read off a product of sixth-order Magnus steps of the
    source's generator (_magnus_uv), one per interval on every preset and
    sweep grid, more on coarse grids; no ODE is integrated, so no tolerance
    applies.  phi_sq starts in the direction the vacuum squeezes in at
    t = 0+ (_start_phase) and moves without jumps of 2*pi.  The stats count
    the Magnus steps, no rejections, and as nfev the points the generator
    was evaluated at: three per interval, plus three per step of an
    interval cut into several steps (again for each step that a rebase
    multiplies out anew).

    On the approximate map the product is the counterpart's propagator
    itself.  On the integrated map it is G, the drive's own propagator, and
    the map's (Phi, varphi, Lambda) on the grid come with (u, v) from the
    metric's polar decomposition (MapSource.read_product); W, T and the
    rates follow from them (MapSource.at).  The product is rebased as G
    grows (_REBASE), so the reading's rounding does not grow with N.  Past
    the chi = 1 branch point the map does not exist, and ChiSingular names
    the crossing.  Against
    perfbench's tight-tolerance reference (worst relative N error above
    N = 1e-3) it reads 9.6e-13, 9.3e-13 and 2.7e-13 on the three fig3
    series.
    """
    t = as_time_grid(t_grid, "t_grid")
    u, v, phi_sq, coords, stats = _magnus_uv(src, t, _start_phase(src.p, src.chi0))
    return Trajectory(t=t, u=u, v=v, r=np.arcsinh(np.abs(v)), phi_sq=phi_sq,
                      m=src.at(t, coords), stats=stats)


def _propagator(src: MapSource, t: np.ndarray, rtol: float,
                atol: float) -> np.ndarray:
    """The product of src's generator since t[0], entries (y00, y01, y10,
    y11) along axis 0, on the grid t: its 8 real components integrated
    with DOP853 at rtol and atol, steps capped at a sixteenth of the drive
    period, as MapSource.integrate caps them."""
    def rhs(t, y):
        # Python complex numbers: arithmetic on numpy scalars is slower.
        a, b, c = src.generator(float(t))
        r00, i00, r01, i01, r10, i10, r11, i11 = y.tolist()
        y00, y01 = complex(r00, i00), complex(r01, i01)
        y10, y11 = complex(r10, i10), complex(r11, i11)
        d00, d01 = a * y00 + b * y10, a * y01 + b * y11
        d10, d11 = c * y00 - a * y10, c * y01 - a * y11
        return np.array([d00.real, d00.imag, d01.real, d01.imag,
                         d10.real, d10.imag, d11.real, d11.imag])

    y0 = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0])
    sol = integrate(IvpProblem(rhs, t, y0), rtol=rtol, atol=atol,
                    max_step=src.p.period() / 16.0)
    return sol.y[:, 0::2].T + 1j * sol.y[:, 1::2].T


def bogoliubov_ode_oracle(src: MapSource, t_grid: np.ndarray, *,
                          rtol: float = 1e-9, atol: float = 1e-12
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Independent (u, v) evolution for cross-checking evolve's Magnus product.

    It integrates with DOP853 the product of the generator whose Magnus
    product evolve multiplies out (_propagator): two discretizations of one
    linear flow.  When the generator repeats with the source's period T
    (the approximate source on resonance, as in every preset, and the
    integrated one for every kappa), the product from t_grid[0] obeys
    M(n*T + s) = M(s)*M(T)^n (Floquet), so only the grid's phases s in
    (0, T] and T itself are integrated; otherwise T is the grid's span, and
    the integration is direct.  (u, v) are read off the product as evolve
    reads them (MapSource.read_product), each point against the base at
    its last whole period, itself read off one period's product from the
    base before; past the chi = 1 branch point of the integrated source
    that raises ChiSingular.  Vacuum photon number here is |v|^2.  t_grid
    is a time grid (as_time_grid), as for evolve.
    """
    t_grid = as_time_grid(t_grid, "t_grid")
    t0 = t_grid[0]
    period = min(src.period, t_grid[-1] - t0)
    # Whole periods before each point; its phase lies in (0, T].
    whole = np.maximum(np.ceil((t_grid - t0) / period) - 1.0, 0.0)
    end = t0 + period if whole[-1] > 0 else t_grid[-1]
    t_one, row = np.unique(np.append(np.clip(t_grid - whole * period, t0, end), end),
                           return_inverse=True)
    y = _propagator(src, t_one, rtol, atol)
    u = np.empty(t_grid.size, dtype=complex)
    v = np.empty(t_grid.size, dtype=complex)
    base = src.base0
    for k in range(int(whole[-1]) + 1):
        at = whole == k
        u[at], v[at], _, det, _ = src.read_product(y[:, row[:-1][at]], base)
        if det is not None and not (det > 0.0).all():
            tau = float(t_grid[at][np.argmax(~(det > 0.0))])
            raise ChiSingular(f"the map crosses chi = 1 by tau = {tau!r}")
        # The next period's base, read off one period's product from this
        # one, as evolve rebases its product.
        u_b, v_b, _, _, p = src.read_product(y[:, -1], base)
        base = (p, (u_b, v_b))
    return u, v
