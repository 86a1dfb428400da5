"""Self-verification suite: every check re-derives a fact independently.

Each check compares two routes to the same quantity (closed form vs ODE,
polar vs general algebra, operator matrices vs coefficient formulas) and
passes only inside a frozen numerical bound.  The fast level covers the
algebra and the trajectory invariants; the full level adds the dim>=128
Fock-space oracle runs.  Bounds are measured margins, not wishes: each
carries headroom of at least one decade over the observed residual unless
the comment says otherwise.
"""

from __future__ import annotations

import json
import math
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from .drive import (DriveParams, PolarComplex, ZetaMode, alpha_beta,
                    heaviside, omega as drive_omega, sgn, zeta, zeta_signed)
from .dyson import DysonState, bogoliubov_matrix, epsilon_from_phi, phi_from_z
from .dynamics import (amplification_factor, analytic_squeeze,
                       bogoliubov_ode_oracle, evolve)
from .fock import (FockSpace, eta_matrix, metric, nonhermitian_expectation,
                   map_observable, propagate, drive_hamiltonian,
                   quasi_hermiticity_residual, squeeze_trust_bound)
from .hermitize import (MapSource, constraint_rhs_general, constraint_rhs_polar,
                        hermitized_coefficients_general)
from .integrate import IvpProblem, integrate
from .scenario import PRESETS, ScenarioConfig, run, run_preset

_FIG1 = DriveParams(omega0=1.0, eps_mod=0.01, kappa=2.0,
                    alpha0_tilde=0.01, beta0_tilde=0.001)
_HERMITIAN = DriveParams(omega0=1.0, eps_mod=0.01, kappa=2.0,
                         alpha0_tilde=1.0, beta0_tilde=1.0)
# Constraint integration runs on a moderate map (chi = -2.25) because the
# figure regime drifts into the chi = 1 singularity at tau ~ 2.
_MODERATE = DriveParams(omega0=1.0, eps_mod=0.01, kappa=2.0,
                        alpha0_tilde=0.6, beta0_tilde=0.2)
_CHI_FIG = 1.0002
_VARPHI0 = 0.5 * math.pi
# The frozen-chi maps every squeeze-route check runs on.
_FIG1_SOURCE = MapSource(_FIG1, chi=_CHI_FIG, varphi0=_VARPHI0)
_HERMITIAN_SOURCE = MapSource(_HERMITIAN, chi=_CHI_FIG, varphi0=_VARPHI0)


def _moderate_state0() -> DysonState:
    return DysonState.from_chi(-2.25, 0.8, _VARPHI0)


def _moderate_source() -> MapSource:
    return MapSource(_MODERATE, "integrated", constraint0=_moderate_state0())


@dataclass
class CheckResult:
    name: str
    passed: bool
    seconds: float
    detail: str


@dataclass
class VerifyReport:
    level: str
    all_passed: bool
    total_seconds: float
    checks: list[CheckResult] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps({
            "level": self.level,
            "all_passed": self.all_passed,
            "total_seconds": round(self.total_seconds, 3),
            "checks": [{
                "name": c.name,
                "passed": c.passed,
                "seconds": round(c.seconds, 3),
                "detail": c.detail,
            } for c in self.checks],
        }, indent=2)


def _bound(label: str, value: float, limit: float) -> tuple[bool, str]:
    return bool(value < limit), f"{label}={value:.3e} (limit {limit:.4g})"


# --- fast checks -----------------------------------------------------------

def check_drive_conventions() -> tuple[bool, str]:
    """Sign bookkeeping: polar values must equal the Cartesian definitions."""
    p = _FIG1
    worst = 0.0
    for t in np.linspace(0.0, p.period(), 97):
        z = zeta(t, p)
        worst = max(worst, abs(z.to_complex() - zeta_signed(t, p)))
        a_pol, b_pol = alpha_beta(t, p)
        worst = max(worst, abs(a_pol.to_complex()
                               - (-1j) * p.alpha0_tilde * zeta_signed(t, p)))
        worst = max(worst, abs(b_pol.to_complex()
                               - 1j * p.beta0_tilde * zeta_signed(t, p)))
        # PT symmetry: omega even, alpha(t) = conj(alpha(-t)).
        worst = max(worst, abs(drive_omega(t, p) - drive_omega(-t, p)))
        am, _ = alpha_beta(-t, p)
        worst = max(worst, abs(a_pol.to_complex() - np.conj(am.to_complex())))
    if not (heaviside(0.0) == 0.0 and sgn(0.0) == 1.0
            and heaviside(-3.0) == 1.0 and sgn(-3.0) == -1.0):
        return False, "heaviside/sgn zero conventions broken"
    # The stated small-angle replacement carries a factor 2 relative to the
    # exact omega_dot/(4 omega); the honest relation is 2|exact| ~ |approx|.
    pa = DriveParams(omega0=1.0, eps_mod=0.01, kappa=2.0, alpha0_tilde=0.01,
                     beta0_tilde=0.001, zeta_mode=ZetaMode.APPROXIMATE)
    rel = 0.0
    for t in np.linspace(0.0, p.period(), 97):
        exact = abs(zeta_signed(t, p))
        approx = zeta(t, pa).modulus
        if approx > 1e-12:
            rel = max(rel, abs(2.0 * exact - approx) / approx)
    ok2, d2 = _bound("2|zeta_exact| vs approx rel", rel,
                     p.eps_mod / (1.0 - p.eps_mod) + 1e-12)
    ok1, d1 = _bound("cartesian-polar drift", worst, 1e-12)
    return ok1 and ok2, f"{d1}; {d2}"


def check_amplification_values() -> tuple[bool, str]:
    for chi in (-2.25, -0.5, 0.3, 1.0002, 3.0):
        if amplification_factor(1.0, 1.0, chi) != 1.0:
            return False, f"hermitian factor != 1 at chi={chi}"
    val = amplification_factor(0.01, 1e-3, _CHI_FIG)
    if abs(val - 44.999) > 1e-3:
        return False, f"figure-regime factor {val!r} not 44.999+-1e-3"
    lo = amplification_factor(0.01, 1e-3, _CHI_FIG)
    hi = amplification_factor(0.01, 1e-4, _CHI_FIG)
    if not hi > lo > 1.0:
        return False, f"ordering broken: {hi} !> {lo} !> 1"
    return True, f"factor(fig)={val:.6f}, ordering {hi:.3f} > {lo:.3f} > 1"


def check_gauss_roundtrip() -> tuple[bool, str]:
    worst = 0.0
    for z in np.linspace(0.05, 0.95, 10):
        for eps in np.linspace(0.05, 1.0, 10):
            phi, _ = phi_from_z(z, eps)
            eps_back = epsilon_from_phi(z, phi)
            worst = max(worst, abs(eps_back - eps) / eps)
    return _bound("roundtrip rel", worst, 1e-10)


def check_bogoliubov_det() -> tuple[bool, str]:
    worst = 0.0
    for z in (0.2, 0.5, 0.8, 0.999):
        # Phi < 0 must stay above the Lambda > 0 realizability edge at
        # Phi = -1/z + sqrt(1/z^2 - 1); -0.05 clears it for every z here.
        for phi_map in (0.4, -0.05):
            for phi in (0.0, 0.7, 2.1):
                d = DysonState.from_z(z_abs=z, Phi=phi_map, varphi=phi)
                m = bogoliubov_matrix(d)
                worst = max(worst, abs(np.linalg.det(m) - 1.0))
    return _bound("max |det - 1|", worst, 1e-12)


def check_polar_general_rhs() -> tuple[bool, str]:
    p = _MODERATE
    worst = 0.0
    rng = np.random.default_rng(7)
    for _ in range(200):
        t = float(rng.uniform(0.0, 10.0))
        rng.uniform(0.3, 0.95)  # an unused |z| draw keeps the sample sequence
        s = DysonState(Phi=float(rng.uniform(0.2, 0.8)),
                       varphi=float(rng.uniform(0.0, 2.0 * math.pi)),
                       Lambda=float(rng.uniform(1.5, 3.0)))
        a_pol, b_pol = alpha_beta(t, p)
        om = PolarComplex(drive_omega(t, p), 0.0)
        d1 = constraint_rhs_polar(s, p, t)
        d2 = constraint_rhs_general(s, om, a_pol, b_pol)
        worst = max(worst, float(np.abs(d1 - d2).max()))
        m = MapSource(p, "integrated", constraint0=s).at(t, (s.Phi, s.varphi, s.Lambda))
        c2 = hermitized_coefficients_general(s, om, a_pol, b_pol)
        worst = max(worst, abs(m.W - c2.W), abs(m.T - c2.T()))
    return _bound("polar vs general", worst, 1e-12)


def check_flow_residuals() -> tuple[bool, str]:
    """Criterion-style: Im W and V - conj(T) along the integrated flow,
    tau <= 50.

    Both vanish identically on the exact flow (tests/test_symbolic.py), so
    they measure the integration.
    """
    tg = np.linspace(0.0, 50.0, 1001)
    src = _moderate_source()
    run = src.integrate(lambda m, y: (), (), tg, rtol=1e-11, atol=1e-14)
    W, T, V = src.raw_coefficients(run.t, run.m)
    im_w = float(np.abs(W.imag).max())
    v_t = float(np.abs(V - np.conj(T)).max())
    ok1, d1 = _bound("max|Im W|", im_w, 1e-7)
    ok2, d2 = _bound("max|V-conj(T)|", v_t, 1e-7)
    return ok1 and ok2, f"{d1}; {d2}"


def check_flow_fixed_point() -> tuple[bool, str]:
    """The z=1 locked state is stationary where the drive vanishes."""
    s = DysonState.from_chi(_CHI_FIG, 1.0, 0.3)
    d = constraint_rhs_polar(s, _FIG1, 0.0)  # zeta(0) = 0
    worst = max(abs(float(d[0])), abs(float(d[2])))
    dphi_err = abs(float(d[1]) - 2.0 * drive_omega(0.0, _FIG1))
    ok1, d1 = _bound("stationary rhs", worst, 1e-14)
    ok2, d2 = _bound("dphi - 2*omega", dphi_err, 1e-14)
    return ok1 and ok2, f"{d1}; {d2}"


def check_hermitian_baseline() -> tuple[bool, str]:
    tg = np.linspace(0.0, 10.0, 201)
    traj = evolve(_HERMITIAN_SOURCE, tg)
    r_ref, _ = analytic_squeeze(10.0, _HERMITIAN, _CHI_FIG)
    rel = abs(traj.r[-1] - r_ref) / r_ref
    return _bound("r(10) vs closed form rel", rel, 1e-2)


def check_analytic_r() -> tuple[bool, str]:
    tg = np.linspace(0.0, 50.0, 1001)
    traj = evolve(_FIG1_SOURCE, tg)
    mask = tg >= 10.0
    r_ref, _ = analytic_squeeze(tg[mask], _FIG1, _CHI_FIG)
    worst = float(np.max(np.abs(traj.r[mask] - r_ref) / r_ref))
    return _bound("max rel r dev, tau in [10,50]", worst, 0.05)


def identity_suite_trajectories() -> list[tuple[str, np.ndarray, np.ndarray]]:
    """The verification suite for the |u|^2 - |v|^2 = 1 identity.

    Returns (label, u, v) triples.  The "Magnus uv" legs are the pairs that
    evolve multiplies out of Magnus steps on the frozen-chi map and on the
    integrated moderate map.
    Trajectories are capped where float64 can still resolve the identity:
    the roundoff floor is eps*cosh(r)^2, which crosses 1e-9 near r = 7.
    """
    out = []
    t6 = np.linspace(0.0, 6.0, 301)
    u, v = bogoliubov_ode_oracle(_FIG1_SOURCE, t6, rtol=1e-13, atol=1e-15)
    out.append(("fig1 oracle tau<=6", u, v))
    t10 = np.linspace(0.0, 10.0, 501)
    u, v = bogoliubov_ode_oracle(_HERMITIAN_SOURCE, t10, rtol=1e-13, atol=1e-15)
    out.append(("hermitian oracle tau<=10", u, v))
    t30 = np.linspace(0.0, 30.0, 601)  # r(30) ~ 6.8, inside the float floor
    traj = evolve(_FIG1_SOURCE, t30)
    out.append(("Magnus uv r<=7", traj.u, traj.v))
    traj = evolve(_moderate_source(), np.linspace(0.0, 20.0, 801))
    out.append(("integrated Magnus uv tau<=20", traj.u, traj.v))
    return out


def check_bogoliubov_identity() -> tuple[bool, str]:
    details = []
    ok = True
    for label, u, v in identity_suite_trajectories():
        drift = float(np.abs(np.abs(u) ** 2 - np.abs(v) ** 2 - 1.0).max())
        good, d = _bound(label, drift, 1e-9)
        ok = ok and good
        details.append(d)
    return ok, "; ".join(details)


def check_route_agreement() -> tuple[bool, str]:
    """evolve's N = |v|^2 vs the Bogoliubov oracle's, tau <= 20, on both
    map sources.

    evolve multiplies out Magnus steps of the linear (u, v) flow.  On the
    frozen-chi fig1 map the oracle integrates that flow with DOP853 over one
    drive period and composes the rest; on the integrated moderate map it
    integrates the flow along the map over the whole span.  Relative
    comparison above N = 1e-3 (below it, near the vacuum's N = 0, ratios
    say little), absolute below.
    """
    tg = np.linspace(0.0, 20.0, 801)
    ok, details = True, []
    for label, src in (("", _FIG1_SOURCE), ("moderate map ", _moderate_source())):
        n = evolve(src, tg).mean_photon()
        _, v = bogoliubov_ode_oracle(src, tg, rtol=1e-11, atol=1e-14)
        diff = np.abs(n - np.abs(v) ** 2)
        hi = n > 1e-3
        ok1, d1 = _bound(f"{label}rel above floor",
                         float((diff[hi] / n[hi]).max()), 1e-4)
        ok2, d2 = _bound(f"{label}abs below floor", float(diff[~hi].max()), 1e-6)
        ok = ok and ok1 and ok2
        details += [d1, d2]
    return ok, "; ".join(details)


def check_integrator_order() -> tuple[bool, str]:
    def rhs(t, y):
        return np.array([y[1], -y[0]])

    osc = {}
    for rt in (1e-6, 1e-9):
        sol = integrate(IvpProblem(rhs=rhs, t_eval=np.array([0.0, 20.0 * math.pi]),
                                   y0=np.array([1.0, 0.0])),
                        rtol=rt, atol=1e-14)
        osc[rt] = abs(float(sol.y[-1][0]) - 1.0)
    scaling = osc[1e-6] / max(osc[1e-9], 1e-300)
    if scaling < 10.0:
        return False, f"rtol 1e-6 -> 1e-9 error ratio {scaling:.1f} < 10"

    te = np.linspace(0.0, 20.0 * math.pi, 797)
    sol = integrate(IvpProblem(rhs=rhs, t_eval=te, y0=np.array([1.0, 0.0])),
                    rtol=1e-12, atol=1e-14)
    dense = float(np.abs(sol.y[:, 0] - np.cos(sol.t)).max())
    ok, d = _bound("dense-output err", dense, 1e-8)
    return ok, f"rtol scaling {scaling:.0f}; {d}"


def check_determinism() -> tuple[bool, str]:
    cfg = ScenarioConfig(tau_max=10.0)
    with tempfile.TemporaryDirectory() as d1, \
            tempfile.TemporaryDirectory() as d2:
        r1 = run(cfg, out_dir=d1, name="det")
        r2 = run(cfg, out_dir=d2, name="det")
        b1 = Path(r1.csv_path).read_bytes()
        b2 = Path(r2.csv_path).read_bytes()
    if b1 != b2:
        return False, "identical config produced different CSV bytes"
    return True, f"csv bytes identical ({len(b1)} bytes)"


def check_quasi_hermiticity_spot() -> tuple[bool, str]:
    """Single-sample Eq.-of-motion check of the metric; full level does 5."""
    res, ctrl = _quasi_hermiticity_samples((15.0,), dim=64)
    ok1, d1 = _bound("residual", res, 1e-5)
    ok2 = ctrl / res >= 1e3
    return ok1 and ok2, f"{d1}; control/res = {ctrl / res:.1e} (need >= 1e3)"


def check_fault_injection() -> tuple[bool, str]:
    """A pump at a fifth of its strength must cut the resonant growth.

    evolve runs the Hermitian drive and the same drive at alpha0_tilde =
    beta0_tilde = 0.2, whose pump is a fifth as strong at the same W, on
    the grid [0, 10], which its Magnus product cuts into 203 and 202
    steps.  r grows in proportion to |T|: r(10) is 0.0491 healthy and
    0.0098 faulty, 2.5x inside the 0.5 ratio bound, and a 2*pi shift of
    phi_T moves either by less than 2e-16 relative.  A flipped sign is no
    fault to test against: the vacuum's r does not see a constant phase of
    the pump, and -T gives the healthy r(10) bit for bit.
    """
    weak = replace(_HERMITIAN, alpha0_tilde=0.2, beta0_tilde=0.2)
    good, bad = (evolve(MapSource(p, chi=_CHI_FIG, varphi0=_VARPHI0),
                        np.array([0.0, 10.0])).r[-1] for p in (_HERMITIAN, weak))
    if not good > 0.04:  # ~0.049 expected at tau=10
        return False, f"healthy run failed to grow: r(10)={good:.4f}"
    if not bad < 0.5 * good:
        return False, f"weakened pump not detected: r={bad:.4f} vs {good:.4f}"
    return True, f"healthy r(10)={good:.4f}, |T|/5 {bad:.4f}"


# --- full-level checks -----------------------------------------------------

def _quasi_hermiticity_samples(times, dim: int = 64,
                               fd_h: float = 1e-4) -> tuple[float, float]:
    """Worst relative residual of the metric equation of motion plus the
    worst-case (smallest) Theta=identity negative control over the samples.

    Metrics at t and t +- fd_h come from separate integrations so every
    requested time is an integration endpoint; differencing dense-output
    interpolants would contaminate the derivative.  Theta is built as the
    single exponential with doubled coefficients (eta is Hermitian), which
    keeps it exact within the truncation.
    """
    p = _MODERATE
    src = _moderate_source()
    f = FockSpace(dim)
    eye = np.eye(dim, dtype=complex)

    def theta_at(tt: float) -> np.ndarray:
        m = src.integrate(lambda m, y: (), (), np.array([0.0, tt]),
                          rtol=1e-13, atol=1e-16).m
        d = DysonState(float(m.Phi[-1]), float(m.varphi[-1]), float(m.Lambda[-1]))
        return eta_matrix(2.0 * d.eps_map, 2.0 * d.mu(), f, form="gauss")

    worst = 0.0
    ctrl_min = math.inf
    for tt in times:
        th_c = theta_at(tt)
        th_p = theta_at(tt + fd_h)
        th_m = theta_at(tt - fd_h)
        H = drive_hamiltonian(tt, p, f)
        worst = max(worst, quasi_hermiticity_residual(H, th_c, th_p, th_m,
                                                      fd_h))
        ctrl_min = min(ctrl_min,
                       quasi_hermiticity_residual(H, eye, eye, eye, fd_h))
    return worst, ctrl_min


def check_quasi_hermiticity_full() -> tuple[bool, str]:
    res, ctrl = _quasi_hermiticity_samples((5.0, 15.0, 25.0, 35.0, 45.0))
    ok1, d1 = _bound("worst residual", res, 1e-5)
    ratio = ctrl / res
    ok2 = ratio >= 1e3
    return ok1 and ok2, f"{d1}; min control ratio {ratio:.1e} (need >= 1e3)"


def check_fock_gauss_identity() -> tuple[bool, str]:
    """Exponential vs Gauss-product map on the criterion grid, dim=128."""
    f = FockSpace(128)
    blk = slice(0, 41)
    worst = 0.0
    for eps in (0.1, 0.2, 0.3, 0.4, 0.5):
        for z in (0.1, 0.2, 0.3, 0.4):
            mu = z * eps / 2.0
            a = eta_matrix(eps, mu, f, form="gauss")
            b = eta_matrix(eps, mu, f, form="exponential")
            worst = max(worst, float(
                np.linalg.norm(a[blk, blk] - b[blk, blk])
                / np.linalg.norm(b[blk, blk])))
    return _bound("20-pt grid frobenius rel", worst, 1e-8)


def check_fock_conjugation() -> tuple[bool, str]:
    """eta a eta^-1 against the 2x2 mixing matrix on the trusted block."""
    f = FockSpace(128)
    blk = slice(0, 41)
    worst = 0.0
    for z in (0.2, 0.4):
        for phi in (0.0, 1.1):
            d = DysonState.from_z(z_abs=z, Phi=0.3, varphi=phi)
            eta = eta_matrix(d.eps_map, d.mu(), f, form="gauss")
            eta_inv = eta_matrix(-d.eps_map, -d.mu(), f, form="gauss")
            m = bogoliubov_matrix(d)
            got = eta @ f.a @ eta_inv
            want = m[0, 0] * f.a + m[0, 1] * f.adag
            num = np.linalg.norm((got - want)[blk, blk])
            den = np.linalg.norm(want[blk, blk])
            worst = max(worst, float(num / den))
    return _bound("conjugation rel", worst, 1e-6)


def check_metric_properties() -> tuple[bool, str]:
    f = FockSpace(64)
    d = DysonState.from_z(z_abs=0.3, Phi=0.15, varphi=0.7)
    eta = eta_matrix(d.eps_map, d.mu(), f, form="gauss")
    th = metric(eta)
    herm = float(np.abs(th - th.conj().T).max())
    # Theta[:44, :44] = B^dag B, B = eta[:, :44]: its smallest eigenvalue is
    # sigma_min(B)^2, which the SVD resolves and eigvalsh of the 5e16-norm
    # block does not (it read -2.2 to 1.4 under 1e-15 perturbations of eta).
    min_eig = np.linalg.svd(eta[:, :44], compute_uv=False).min() ** 2
    ok1, d1 = _bound("|Theta - Theta^dag|", herm, 1e-12)
    ok2 = bool(min_eig > 0.0)

    rng = np.random.default_rng(11)
    psi = np.zeros(f.dim, dtype=complex)
    psi[:20] = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    psi /= np.linalg.norm(psi)
    n_op = np.diag(f.n_levels).astype(complex)
    o_nh = map_observable(eta, n_op)
    lhs = nonhermitian_expectation(eta, psi, o_nh)
    psi_h = eta @ psi
    rhs = complex(np.vdot(psi_h, n_op @ psi_h))
    rel = abs(lhs - rhs) / abs(rhs)
    ok3, d3 = _bound("metric-expectation rel", rel, 1e-8)
    norm_lhs = nonhermitian_expectation(eta, psi, np.eye(f.dim, dtype=complex))
    norm_rel = abs(norm_lhs - np.vdot(psi_h, psi_h)) / abs(norm_lhs)
    ok4, d4 = _bound("norm equality rel", float(norm_rel), 1e-9)
    return ok1 and ok2 and ok3 and ok4, \
        f"{d1}; min eig {min_eig:.3e} > 0; {d3}; {d4}"


def _trust_crossing(n_fock: np.ndarray, n_sq: np.ndarray, r: np.ndarray) -> str:
    """The first grid r at which number-basis N leaves sinh^2 r by 1e-3."""
    off = (np.abs(n_fock - n_sq) > 1e-3 * n_sq) & (n_sq > 1e-3)
    return f"{r[np.argmax(off)]:.3f}" if off.any() else f"> {r[-1]:.3f}"


def check_fock_three_route() -> tuple[bool, str]:
    """Fock-space propagation vs sinh^2 r inside the truncation trust
    window (r <= 1.8 for dim=128; the tail bias crosses 1e-3 near r=1.85).

    The detail also reports, with no bound, the r at which that bias
    crosses 1e-3 at dims 128, 264 and 512.  Dims 264 and 512 run only
    until r passes squeeze_trust_bound(dim) + 0.3: the crossing lies
    0.19-0.23 above the bound at all three dims.
    """
    f = FockSpace(128)

    def coeffs(t: float):
        m = _FIG1_SOURCE.at(t, ())
        return m.W, m.T, m.T.conjugate()

    tg = np.linspace(0.0, 16.0, 321)
    res = propagate(coeffs, f.vacuum(), tg, f, rtol=1e-10, atol=1e-13)
    n_fock = res.mean_photon(f)
    traj = evolve(_FIG1_SOURCE, tg)
    n_sq = np.sinh(traj.r) ** 2
    win = (traj.r <= 1.8) & (n_sq > 1e-3)
    rel = float((np.abs(n_fock - n_sq)[win] / n_sq[win]).max())
    lo = n_sq <= 1e-3
    ab = float(np.abs(n_fock - n_sq)[lo].max())
    ok1, d1 = _bound("rel in trust window", rel, 1e-3)
    ok2, d2 = _bound("abs below floor", ab, 1e-6)
    ok3, d3 = _bound("norm drift", res.norm_drift, 1e-8)
    crossings = [f"dim 128 r {_trust_crossing(n_fock, n_sq, traj.r)}"]
    for dim in (264, 512):
        stop = int(np.argmax(traj.r >= squeeze_trust_bound(dim) + 0.3)) + 1
        fd = FockSpace(dim)
        nd = propagate(coeffs, fd.vacuum(), tg[:stop], fd, rtol=1e-10,
                       atol=1e-13).mean_photon(fd)
        crossings.append(f"{dim} {_trust_crossing(nd, n_sq[:stop], traj.r[:stop])}")
    return ok1 and ok2 and ok3, (f"{d1}; {d2}; {d3}; N leaves sinh^2 r by 1e-3 at "
                                 f"{', '.join(crossings)} (report only)")


def check_preset_budgets() -> tuple[bool, str]:
    # A preset whose configs equal an earlier one's (fig2 is fig1) is not
    # run again: it shares that run's wall time.
    runs: dict[tuple[ScenarioConfig, ...], tuple[str, float]] = {}
    details = []
    for preset, series in PRESETS.items():
        configs = tuple(cfg for _, cfg in series)
        if configs not in runs:
            with tempfile.TemporaryDirectory() as d:
                t0 = time.perf_counter()
                run_preset(preset, out_dir=d)
                runs[configs] = (preset, time.perf_counter() - t0)
        source, wall = runs[configs]
        shared = f" ({source}'s run)" if source != preset else ""
        details.append(f"{preset}: {wall:.2f}s{shared}")
    ok = all(wall < 10.0 for _, wall in runs.values())
    return ok, "; ".join(details) + " (limit 10s each)"


_FAST_CHECKS: list[tuple[str, Callable[[], tuple[bool, str]]]] = [
    ("drive_conventions", check_drive_conventions),
    ("amplification_values", check_amplification_values),
    ("gauss_roundtrip", check_gauss_roundtrip),
    ("bogoliubov_det", check_bogoliubov_det),
    ("polar_general_rhs", check_polar_general_rhs),
    ("flow_residuals", check_flow_residuals),
    ("flow_fixed_point", check_flow_fixed_point),
    ("hermitian_baseline", check_hermitian_baseline),
    ("analytic_r", check_analytic_r),
    ("bogoliubov_identity", check_bogoliubov_identity),
    ("route_agreement", check_route_agreement),
    ("integrator_order", check_integrator_order),
    ("determinism", check_determinism),
    ("quasi_hermiticity_spot", check_quasi_hermiticity_spot),
    ("fault_injection", check_fault_injection),
]

_FULL_EXTRA: list[tuple[str, Callable[[], tuple[bool, str]]]] = [
    ("quasi_hermiticity_full", check_quasi_hermiticity_full),
    ("fock_gauss_identity", check_fock_gauss_identity),
    ("fock_conjugation", check_fock_conjugation),
    ("metric_properties", check_metric_properties),
    ("fock_three_route", check_fock_three_route),
    ("preset_budgets", check_preset_budgets),
]


def run_verify(level: str = "fast") -> VerifyReport:
    if level not in ("fast", "full"):
        raise ValueError(f"level must be 'fast' or 'full', got {level!r}")
    checks = list(_FAST_CHECKS)
    if level == "full":
        checks += _FULL_EXTRA
    started = time.perf_counter()
    results = []
    for name, fn in checks:
        t0 = time.perf_counter()
        try:
            passed, detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(name=name, passed=bool(passed),
                                   seconds=time.perf_counter() - t0,
                                   detail=detail))
    total = time.perf_counter() - started
    return VerifyReport(level=level, all_passed=all(c.passed for c in results),
                        total_seconds=total, checks=results)
