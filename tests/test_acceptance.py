"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line with the measured numbers so the
suite output doubles as an acceptance report.  Bounds are asserted exactly
as stated.  Two references hold only on part of the grid, and each is
checked only where it holds:

* the leading-order closed form (analytic_squeeze) keeps the secular line
  of the squeeze phase and drops the (1 - cos 4*w0*t) quadrature, which
  is O(eps) in amplitude but O(1) in angle while r ~ 0.  Criteria 2 and 3
  therefore compare with it on tau in [10, 50], where the dropped term is
  at most 2/(4*w0*t) <= 0.05 rad; criterion 2 covers the early transient
  with the pole-free (u, v) oracle, whose phase arg(u*v) is exact on the
  whole grid.
* a truncated Fock space resolves a squeezed vacuum only up to
  squeeze_trust_bound(dim) (sinh(r)^2 <= dim/20), so criterion 7 runs its
  number-basis clause on the smallest dimension the rule trusts through
  r = 2 (dim = 264; dim = 128 stops at r ~ 1.66).
"""

import itertools
import math
import time

import numpy as np
import pytest

from pseudo_dce import cli
from pseudo_dce.drive import DriveParams
from pseudo_dce.dynamics import (amplification_factor, analytic_squeeze,
                                 bogoliubov_ode_oracle, evolve)
from pseudo_dce.dyson import DysonState, bogoliubov_matrix, epsilon_from_phi, phi_from_z
from pseudo_dce.fock import FockSpace, eta_matrix, propagate, squeeze_trust_bound
from pseudo_dce.hermitize import MapSource
from pseudo_dce.scenario import run_preset
from pseudo_dce.verify import (VerifyReport, _moderate_state0,
                               _quasi_hermiticity_samples,
                               identity_suite_trajectories, run_verify)

CHI = 1.0002
VARPHI0 = 0.5 * math.pi

FIG1 = DriveParams(omega0=1.0, eps_mod=0.01, kappa=2.0,
                   alpha0_tilde=0.01, beta0_tilde=0.001)
FIG1_B4 = DriveParams(omega0=1.0, eps_mod=0.01, kappa=2.0,
                      alpha0_tilde=0.01, beta0_tilde=1e-4)
HERMITIAN = DriveParams(omega0=1.0, eps_mod=0.01, kappa=2.0,
                        alpha0_tilde=1.0, beta0_tilde=1.0)
MODERATE = DriveParams(omega0=1.0, eps_mod=0.01, kappa=2.0,
                       alpha0_tilde=0.6, beta0_tilde=0.2)


def report(num: int, ok: bool, detail: str) -> str:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    return line


def wrap_angle(x):
    return (x + math.pi) % (2.0 * math.pi) - math.pi


@pytest.fixture(scope="module")
def fig1_traj50():
    t0 = time.perf_counter()
    tg = np.linspace(0.0, 50.0, 1001)
    traj = evolve(MapSource(FIG1, chi=CHI, varphi0=VARPHI0), tg)
    return traj, tg, time.perf_counter() - t0


def test_criterion_01_hermitian_baseline():
    t0 = time.perf_counter()
    tg = np.linspace(0.0, 100.0, 1001)
    traj = evolve(MapSource(HERMITIAN, chi=CHI, varphi0=VARPHI0), tg)
    _, v = bogoliubov_ode_oracle(
        MapSource(HERMITIAN, chi=CHI, varphi0=VARPHI0), tg)
    wall = time.perf_counter() - t0
    r_final = float(traj.r[-1])
    n_final = float(abs(v[-1]) ** 2)
    dev_r = abs(r_final - 0.5) / 0.5
    dev_n_target = abs(n_final - math.sinh(0.5) ** 2) / math.sinh(0.5) ** 2
    dev_n_self = (abs(n_final - math.sinh(r_final) ** 2)
                  / math.sinh(r_final) ** 2)
    ok = (dev_r < 0.02 and dev_n_target < 0.04 and dev_n_self < 0.04
          and wall < 1.0)
    msg = report(1, ok,
                 f"r(100)={r_final:.6f} dev {dev_r:.2%}; "
                 f"N={n_final:.6f} vs sinh^2(0.5) dev {dev_n_target:.2%}, "
                 f"vs sinh^2(r) dev {dev_n_self:.2e}; wall {wall:.2f}s")
    assert ok, msg


def test_criterion_02_phase_tracking(fig1_traj50):
    traj, tg, wall_traj = fig1_traj50
    t0 = time.perf_counter()
    phi_ana = np.array([analytic_squeeze(float(t), FIG1, CHI)[1]
                        for t in tg])
    dev = np.abs(wrap_angle(traj.phi_sq - phi_ana))
    # The closed form is the secular line only; it holds once r has grown
    # (same window as criterion 3).
    secular = float(dev[tg >= 10.0].max())
    full_grid = float(dev.max())

    # Early transient: the pole-free oracle's phase arg(u*v) on the same
    # grid.  At tau = 0, v = 0 and the phase is undefined.
    u, v = bogoliubov_ode_oracle(MapSource(FIG1, chi=CHI, varphi0=VARPHI0),
                                 tg, rtol=1e-10, atol=1e-13)
    live = tg > 0.0
    oracle = float(np.abs(wrap_angle(traj.phi_sq - np.angle(u * v))[live]).max())
    wall = wall_traj + time.perf_counter() - t0
    ok = secular < 0.1 and oracle < 1e-4 and wall < 5.0
    msg = report(2, ok,
                 f"closed form |dphi| {secular:.4f} rad on tau in [10, 50] "
                 f"(bound 0.1; full grid {full_grid:.2f} rad, dropped "
                 f"quadrature); oracle arg(u*v) |dphi| {oracle:.2e} rad "
                 f"over tau>0 (bound 1e-4); wall {wall:.2f}s")
    assert ok, msg


def test_criterion_03_squeeze_tracking(fig1_traj50):
    traj, tg, wall_traj = fig1_traj50
    t0 = time.perf_counter()
    mask = tg >= 10.0
    worst = 0.0
    for i in np.nonzero(mask)[0]:
        r_ref, _ = analytic_squeeze(float(tg[i]), FIG1, CHI)
        worst = max(worst, abs(float(traj.r[i]) - r_ref) / r_ref)
    wall = wall_traj + time.perf_counter() - t0
    ok = worst < 0.05 and wall < 5.0
    msg = report(3, ok, f"max rel |dr| {worst:.4f} on tau in [10, 50] "
                        f"(bound 0.05); wall {wall:.2f}s")
    assert ok, msg


def test_criterion_04_amplification_hierarchy():
    t0 = time.perf_counter()
    tg = np.linspace(0.0, 25.0, 501)
    n_runs = {}
    for label, p in (("b3", FIG1), ("b4", FIG1_B4), ("herm", HERMITIAN)):
        traj = evolve(MapSource(p, chi=CHI, varphi0=VARPHI0), tg)
        n_runs[label] = traj.mean_photon()
    wall = time.perf_counter() - t0
    ratio = float(n_runs["b3"][-1] / n_runs["herm"][-1])
    late = tg > 1.0
    order = n_runs["b4"][late] / n_runs["b3"][late]
    min_order = float(order.min())
    ok = (3e5 <= ratio <= 5e6) and min_order > 1.0 and wall < 10.0
    msg = report(4, ok,
                 f"N_b3/N_herm at tau=25 = {ratio:.4e} (need [3e5, 5e6]); "
                 f"min N_b4/N_b3 over tau>1 = {min_order:.4f} (need > 1); "
                 f"wall {wall:.2f}s")
    assert ok, msg


def test_criterion_05_amplification_factor():
    exact = amplification_factor(1.0, 1.0, 0.5)
    ref = amplification_factor(0.01, 1e-3, CHI)
    ok = exact == 1.0 and abs(ref - 44.999) <= 1e-3
    msg = report(5, ok, f"balanced = {exact!r} (need exactly 1.0); "
                        f"reference = {ref:.6f} (need 44.999 +- 0.001)")
    assert ok, msg


def test_criterion_06_bogoliubov_identity():
    details = []
    worst_all = 0.0
    for label, u, v in identity_suite_trajectories():
        drift = float(np.abs(np.abs(u) ** 2 - np.abs(v) ** 2 - 1.0).max())
        worst_all = max(worst_all, drift)
        details.append(f"{label}: {drift:.2e}")
    ok = worst_all < 1e-9
    msg = report(6, ok, "; ".join(details) + " (bound 1e-9)")
    assert ok, msg


def test_criterion_07_photon_routes():
    tg = np.linspace(0.0, 20.0, 801)
    traj = evolve(MapSource(FIG1, chi=CHI, varphi0=VARPHI0), tg)
    n_closed = traj.mean_photon()
    _, v = bogoliubov_ode_oracle(MapSource(FIG1, chi=CHI, varphi0=VARPHI0),
                                 tg, rtol=1e-11, atol=1e-14)
    n_oracle = np.abs(v) ** 2

    # Pairwise clause: relative agreement where the signal is resolved,
    # absolute agreement below that floor.
    lit = n_closed > 1e-3
    rel = float((np.abs(n_closed - n_oracle)[lit] / n_closed[lit]).max())
    dark = float(np.abs(n_closed - n_oracle)[~lit].max())
    pair_ok = rel < 1e-4 and dark < 1e-6

    # Number-basis clause while r <= 2, on the smallest dimension whose
    # truncation the program itself trusts that far.
    r_lim = 2.0
    dim = next(d for d in itertools.count(1)
               if squeeze_trust_bound(d) >= r_lim)
    # traj.r dips on a few early steps, so it is not a sorted array.
    above = np.nonzero(traj.r > r_lim)[0]
    idx = int(above[0]) if above.size else tg.size
    sub = slice(0, min(idx + 1, tg.size))
    f = FockSpace(dim)

    src = MapSource(FIG1, chi=CHI, varphi0=VARPHI0)

    def coeffs(t):
        m = src.at(t, ())
        return (m.W, m.T, np.conj(m.T))

    res = propagate(coeffs, f.vacuum(), tg[sub], f, rtol=1e-10, atol=1e-13)
    n_fock = res.mean_photon(f)
    window = (n_closed[sub] > 1e-3) & (traj.r[sub] <= r_lim)
    fock_rel = np.abs(n_fock - n_closed[sub])[window] / n_closed[sub][window]
    fock_worst = float(fock_rel.max())
    crossed = np.nonzero(fock_rel > 1e-3)[0]
    r_window = traj.r[sub][window]
    r_cross = (f"r~{float(r_window[crossed[0]]):.2f}" if crossed.size
               else "none")
    fock_ok = fock_worst < 1e-3

    ok = pair_ok and fock_ok
    msg = report(7, ok,
                 f"closed vs oracle rel {rel:.2e} (bound 1e-4), "
                 f"dark abs {dark:.2e} (floor 1e-6); number-basis "
                 f"dim={dim} rel {fock_worst:.2e} over r<=2 (bound 1e-3), "
                 f"first crossing {r_cross}; truncation resolves "
                 f"sinh(r)^2 <= dim/20 i.e. r <= "
                 f"{squeeze_trust_bound(dim):.4f} at dim={dim}; edge "
                 f"population {res.max_edge_population:.1e}, "
                 f"trusted={res.trusted}")
    assert ok, msg


def test_criterion_08_map_factorization():
    f = FockSpace(128)
    blk = slice(0, 41)
    worst_map = 0.0
    worst_conj = 0.0
    for eps0 in (0.1, 0.2, 0.3, 0.4, 0.5):
        for z in (0.1, 0.2, 0.3, 0.4):
            mu = 0.5 * eps0 * z
            e_g = eta_matrix(eps0, mu, f, form="gauss")
            e_e = eta_matrix(eps0, mu, f, form="exponential")
            num = np.linalg.norm((e_g - e_e)[blk, blk])
            den = np.linalg.norm(e_e[blk, blk])
            worst_map = max(worst_map, float(num / den))

            phi, _ = phi_from_z(z, eps0)
            d = DysonState.from_z(z_abs=z, Phi=phi, varphi=0.7)
            eta = eta_matrix(d.eps_map, d.mu(), f, form="gauss")
            eta_inv = eta_matrix(-d.eps_map, -d.mu(), f, form="gauss")
            m = bogoliubov_matrix(d)
            got = eta @ f.a @ eta_inv
            want = m[0, 0] * f.a + m[0, 1] * f.adag
            num = np.linalg.norm((got - want)[blk, blk])
            den = np.linalg.norm(want[blk, blk])
            worst_conj = max(worst_conj, float(num / den))

    worst_round = 0.0
    for z in np.linspace(0.05, 0.95, 10):
        for eps0 in np.linspace(0.05, 1.0, 10):
            phi, _ = phi_from_z(float(z), float(eps0))
            back = epsilon_from_phi(float(z), phi)
            worst_round = max(worst_round, abs(back - eps0) / eps0)

    ok = worst_map < 1e-8 and worst_conj < 1e-6 and worst_round < 1e-10
    msg = report(8, ok,
                 f"factorized vs exponential {worst_map:.2e} (bound 1e-8); "
                 f"conjugation {worst_conj:.2e} (bound 1e-6); "
                 f"strength roundtrip {worst_round:.2e} (bound 1e-10)")
    assert ok, msg


def test_criterion_09_metric_equation_of_motion():
    worst, ctrl = _quasi_hermiticity_samples((5.0, 15.0, 25.0, 35.0, 45.0))
    ratio = ctrl / worst
    ok = worst < 1e-5 and ratio >= 1e3
    msg = report(9, ok, f"worst residual {worst:.3e} (bound 1e-5); "
                        f"identity-metric control {ratio:.1e}x larger "
                        f"(need >= 1e3)")
    assert ok, msg


def test_criterion_10_constraint_residuals():
    tg = np.linspace(0.0, 50.0, 1001)
    src = MapSource(MODERATE, "integrated", constraint0=_moderate_state0())
    run = src.integrate(lambda m, y: (), (), tg, rtol=1e-11, atol=1e-14)
    W, T, V = src.raw_coefficients(run.t, run.m)
    im_w = float(np.abs(W.imag).max())
    v_t = float(np.abs(V - np.conj(T)).max())
    ok = im_w < 1e-7 and v_t < 1e-7
    msg = report(10, ok, f"max|Im W| {im_w:.2e}, max|V - conj(T)| {v_t:.2e} "
                         f"(bounds 1e-7)")
    assert ok, msg


def test_criterion_11_budgets_and_exit_codes(tmp_path, monkeypatch, capsys):
    fast = run_verify("fast")
    full = run_verify("full")

    preset_walls = {}
    for name in ("fig1", "fig2", "fig3"):
        t0 = time.perf_counter()
        run_preset(name, out_dir=tmp_path / name)
        preset_walls[name] = time.perf_counter() - t0

    cfg_ok = tmp_path / "ok.cfg"
    cfg_ok.write_text("tau_max = 10\n")
    code_ok = cli.main(["run", "--config", str(cfg_ok),
                        "--out", str(tmp_path)])
    cfg_bad = tmp_path / "bad.cfg"
    cfg_bad.write_text("eps_mod = 1.5\n")
    code_bad = cli.main(["run", "--config", str(cfg_bad),
                         "--out", str(tmp_path)])
    cfg_sim = tmp_path / "sim.cfg"
    cfg_sim.write_text("tau_max = 10\ndyson_source = integrated\n")
    code_sim = cli.main(["run", "--config", str(cfg_sim),
                         "--out", str(tmp_path)])
    # The real suite passes, so the verification-failure code is exercised
    # through the dispatch path with a synthetic failing report.
    failing = VerifyReport(level="fast", all_passed=False, total_seconds=0.0,
                           checks=[])
    monkeypatch.setattr(cli, "run_verify", lambda level: failing)
    code_ver = cli.main(["verify"])
    capsys.readouterr()

    ok = (fast.all_passed and fast.total_seconds < 30.0
          and full.all_passed and full.total_seconds < 300.0
          and all(w < 10.0 for w in preset_walls.values())
          and (code_ok, code_bad, code_sim, code_ver) == (0, 1, 2, 3))
    msg = report(11, ok,
                 f"verify fast {fast.total_seconds:.1f}s/30s "
                 f"(passed={fast.all_passed}), "
                 f"full {full.total_seconds:.1f}s/300s "
                 f"(passed={full.all_passed}); presets "
                 + ", ".join(f"{k} {v:.1f}s" for k, v in preset_walls.items())
                 + f"; exit codes {(code_ok, code_bad, code_sim, code_ver)}")
    assert ok, msg
