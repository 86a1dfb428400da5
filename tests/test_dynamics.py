import math
from dataclasses import replace

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, given, settings

from pseudo_dce import dynamics
from pseudo_dce.drive import DriveParams, ZetaMode
from pseudo_dce.dynamics import (_magnus_factors, _prefix_products, _propagator,
                                 _uv_rates, amplification_factor, analytic_squeeze,
                                 bogoliubov_ode_oracle, evolve)
from pseudo_dce.dyson import DysonState
from pseudo_dce.errors import (ChiSingular, NonFiniteState, NotOnResonance,
                               PhiZero, StepRejected)
from pseudo_dce.fock import FockSpace, propagate
from pseudo_dce.hermitize import (MapSource, approx_dyson_trajectory,
                                  hermitized_coefficients)
from pseudo_dce.integrate import IvpProblem, integrate
from pseudo_dce.scenario import PRESETS, ScenarioConfig

CHI_FIG = 1.0002
VARPHI0 = 0.5 * math.pi
# fig1's grid: 200 points a drive period over tau <= 50.
FIG_GRID = np.linspace(0.0, 50.0, 3185)


def frozen(p):
    """The frozen-chi map source of drive p."""
    return MapSource(p, chi=CHI_FIG, varphi0=VARPHI0)


class TestAmplificationFactor:

    @pytest.mark.parametrize("chi", [0.5, 1.0002, -3.0])
    def test_balanced_drive_is_unity(self, chi):
        assert amplification_factor(1.0, 1.0, chi) == 1.0

    def test_reference_point(self):
        val = amplification_factor(0.01, 1e-3, 1.0002)
        assert abs(val - 44.999) < 1e-3, f"amplification {val}"

    def test_smaller_counter_drive_amplifies_more(self):
        assert (amplification_factor(0.01, 1e-4, 1.0002)
                > amplification_factor(0.01, 1e-3, 1.0002))

    def test_chi_singularity(self):
        with pytest.raises(ChiSingular):
            amplification_factor(0.01, 1e-3, 1.0)


class TestAnalyticSqueeze:

    def test_initial_point(self, fig1_params):
        r, phi = analytic_squeeze(0.0, fig1_params, CHI_FIG)
        assert r == 0.0
        assert phi == -1.5 * math.pi

    def test_linear_growth_envelope(self, hermitian_params):
        # Secular part grows at eps_mod*A/2 per unit time; the bounded
        # oscillation stays within eps_mod*A/4.
        r, _ = analytic_squeeze(100.0, hermitian_params, CHI_FIG)
        assert abs(r - 0.5) < 0.01 * 0.5

    def test_initial_phase(self):
        # The phase locks at -pi/2, less pi for each negative sign of
        # (1 - chi) and (at - chi*bt), and falls at 2*w0 from there.
        for at, bt, chi, negative in ((0.01, 0.001, CHI_FIG, 1),
                                      (0.001, 0.01, CHI_FIG, 2),
                                      (0.01, 0.001, 0.5, 0),
                                      (0.001, 0.01, 0.5, 1)):
            p = DriveParams(omega0=1.0, eps_mod=0.01, kappa=2.0,
                            alpha0_tilde=at, beta0_tilde=bt)
            phi0 = -0.5 * math.pi - negative * math.pi
            assert abs(analytic_squeeze(0.0, p, chi)[1] - phi0) < 1e-15
            assert abs(analytic_squeeze(3.0, p, chi)[1] - (phi0 - 6.0)) < 1e-14

    def test_off_resonance_rejected(self):
        p = DriveParams(omega0=1.0, eps_mod=0.01, kappa=1.9,
                        alpha0_tilde=0.01, beta0_tilde=0.001)
        with pytest.raises(NotOnResonance):
            analytic_squeeze(1.0, p, CHI_FIG)


class TestMeanPhoton:

    def test_vacuum(self, fig1_params):
        # Every run starts from the vacuum: N = |v|^2 of the pair from the
        # first grid point, and sinh(r)^2, r being the vacuum's own.
        traj = evolve(frozen(fig1_params), np.linspace(0.0, 10.0, 201))
        n = traj.mean_photon()
        assert abs(n[-1] - math.sinh(traj.r[-1]) ** 2) < 1e-6 * n[-1]

    def test_reads_the_composed_pair(self, fig1_params):
        # N and r are read off the pair evolve composed.
        traj = evolve(frozen(fig1_params), np.linspace(0.0, 10.0, 201))
        assert np.array_equal(traj.mean_photon(), np.abs(traj.v) ** 2)
        assert np.array_equal(traj.r, np.arcsinh(np.abs(traj.v)))


class TestEvolve:

    def test_unmodulated_drive_stays_dark(self):
        # T = 0: every Magnus factor is diagonal, so v stays exactly 0.
        p = DriveParams(omega0=1.0, eps_mod=0.0, kappa=2.0,
                        alpha0_tilde=0.01, beta0_tilde=0.001)
        traj = evolve(frozen(p), np.linspace(0.0, 10.0, 101))
        assert float(np.abs(traj.r).max()) < 1e-20
        assert float(traj.mean_photon().max()) < 1e-15

    def test_balanced_drive_matches_closed_form(self, hermitian_params):
        tg = np.linspace(0.0, 10.0, 201)
        traj = evolve(frozen(hermitian_params), tg)
        r_ref, _ = analytic_squeeze(10.0, hermitian_params, CHI_FIG)
        assert abs(traj.r[-1] - r_ref) / r_ref < 1e-2

    def test_matrix_element_oracle_agrees(self, fig1_params):
        # u, v from direct integration of the mode-mixing equations.
        tg = np.linspace(0.0, 6.0, 121)
        traj = evolve(frozen(fig1_params), tg)
        u_o, v_o = bogoliubov_ode_oracle(frozen(fig1_params), tg,
                                         rtol=1e-11, atol=1e-14)
        worst = max(np.abs(traj.u - u_o).max(), np.abs(traj.v - v_o).max())
        assert worst < 1e-7, f"oracle deviation {worst}"

    def test_second_moment_matches_number_basis(self, hermitian_params):
        # <a^2> propagated in a truncated number basis equals u*v.
        tg = np.linspace(0.0, 10.0, 201)
        src = frozen(hermitian_params)
        traj = evolve(src, tg)
        u, v = traj.u[-1], traj.v[-1]

        def coeffs(t):
            m = src.at(t, ())
            return (m.W, m.T, np.conj(m.T))

        f = FockSpace(64)
        res = propagate(coeffs, f.vacuum(), tg, f, rtol=1e-11, atol=1e-14)
        psi = res.amplitudes[-1]
        a2 = psi.conj() @ (f.a_sq @ psi)
        assert abs(a2 - u * v) < 1e-9

    @pytest.mark.parametrize("kappa", [2.0, 2.05])
    def test_default_start_phase(self, kappa):
        # On and off resonance the run starts in the direction the vacuum
        # squeezes in: 0 here, where (at - chi*bt)/(1 - chi) < 0.
        p = DriveParams(omega0=1.0, eps_mod=0.01, kappa=kappa,
                        alpha0_tilde=0.01, beta0_tilde=0.001)
        traj = evolve(frozen(p), np.linspace(0.0, 2.0, 21))
        assert traj.phi_sq[0] == 0.0
        assert np.all(np.isfinite(traj.mean_photon()))

    def test_trajectory_accessors(self, fig1_params):
        tg = np.linspace(0.0, 2.0, 21)
        traj = evolve(frozen(fig1_params), tg)
        assert abs(traj.u[0] - 1.0) < 1e-14
        assert abs(traj.v[0]) < 1e-14
        n = traj.mean_photon()
        assert n.shape == tg.shape
        assert np.all(n >= 0.0)


class TestMagnusProduct:
    """On either map source evolve multiplies out sixth-order Magnus steps."""

    @pytest.mark.parametrize("cell, bound", [
        pytest.param(lambda p: (frozen(p), FIG_GRID), 1e-11, id="fig1"),
        pytest.param(lambda p: (frozen(replace(p, kappa=1.9)), FIG_GRID), 1e-9,
                     id="kappa_1.9"),
        pytest.param(lambda p: (frozen(replace(p, zeta_mode=ZetaMode.APPROXIMATE)),
                                FIG_GRID), 1e-11, id="approximate_zeta"),
        pytest.param(lambda p: (frozen(p), np.array([0.0, 10.0])), 1e-9,
                     id="two_point"),
        pytest.param(lambda p: moderate_cell(1.93), 5.6e-12, id="moderate_1.93"),
        pytest.param(lambda p: moderate_cell(2.0), 4.3e-12, id="moderate_2.0"),
        pytest.param(lambda p: moderate_cell(2.07), 2.4e-12, id="moderate_2.07"),
        pytest.param(lambda p: (moderate_cell(2.0)[0], np.array([0.0, 20.0])),
                     1.4e-9, id="moderate_two_point"),
    ])
    def test_matches_the_oracle(self, fig1_params, cell, bound):
        # Measured: 9.0e-13, 2.0e-10, 1.2e-12 and 5.8e-11 relative on the
        # frozen-chi map; on the integrated moderate map, whose oracle
        # integrates G, 1.8e-13, 1.6e-13, 1.4e-13 and 1.3e-10.
        src, tg = cell(fig1_params)
        n = evolve(src, tg).mean_photon()
        _, v = bogoliubov_ode_oracle(src, tg, rtol=1e-13, atol=1e-16)
        n_ref = np.abs(v) ** 2
        assert worst_rel(n, n_ref) < bound
        assert np.abs(n - n_ref)[n_ref <= 1e-3].max(initial=0.0) < 1e-12

    @pytest.mark.parametrize("W, T", [pytest.param(1.3, 0.2 - 0.1j, id="rotating"),
                                      pytest.param(0.4, 0.5j, id="squeezing"),
                                      pytest.param(0.0, 0.0, id="identity")])
    def test_constant_generator_steps_are_its_exponential(self, W, T):
        # With A constant, Omega is h*A and exp(Omega) the exact propagator;
        # here A is the counterpart's su(1,1) generator.
        from scipy.linalg import expm

        h = np.array([0.05, 0.3])
        g = [np.full((3, 2), x) for x in (-1j * W, -2j * np.conj(T), 2j * T)]
        y = np.array(_magnus_factors(g, h))
        for k in range(2):
            A = np.array([[-1j * W, -2j * np.conj(T)], [2j * T, 1j * W]])
            want = expm(h[k] * A).ravel()
            assert np.abs(y[:, k] - want).max() < 1e-15

    def test_metric_generator_steps_are_its_exponential(self):
        # The same on a generator of the non-Hermitian drive's kind, which
        # is not in su(1,1): [[i*w, b], [c, -i*w]] with b != conj(c).
        from scipy.linalg import expm

        a, b, c = 1.1j, -0.3 + 0.2j, 0.05 - 0.4j
        h = np.array([0.05, 0.3])
        y = np.array(_magnus_factors([np.full((3, 2), x) for x in (a, b, c)], h))
        for k in range(2):
            want = expm(h[k] * np.array([[a, b], [c, -a]])).ravel()
            assert np.abs(y[:, k] - want).max() < 1e-15

    def test_prefix_products_match_the_sequential_product(self):
        # Recursive doubling reorders the multiplications, so the two agree
        # to rounding, which grows at most with the number of factors.
        rng = np.random.default_rng(3)
        W = 1.0 + 0.1 * rng.standard_normal((3, 1000))
        T = 0.3 * (rng.standard_normal((3, 1000)) + 1j * rng.standard_normal((3, 1000)))
        y = _magnus_factors((-1j * W, -2j * T.conj(), 2j * T), np.full(1000, 0.05))
        m, want = np.eye(2, dtype=complex), []
        for k in range(1000):
            m = np.array([[y[0][k], y[1][k]], [y[2][k], y[3][k]]]) @ m
            want.append(m.ravel())
        _prefix_products(y)
        want = np.array(want)
        scale = np.abs(want[:, 0])
        for got, ref in zip(y, want.T):
            assert np.all(np.abs(got - ref) < 1000 * np.finfo(float).eps * scale)
        # The product keeps the su(1,1) form exactly: y11 = conj(y00) and
        # y10 = conj(y01).
        assert np.array_equal(y[3], y[0].conj()) and np.array_equal(y[2], y[1].conj())

    def test_every_preset_grid_takes_one_step_per_interval(self):
        for series in PRESETS.values():
            for name, cfg in series:
                src = MapSource(cfg.drive_params(), chi=cfg.chi, varphi0=cfg.varphi0)
                tg = cfg.time_grid()
                stats = evolve(src, tg).stats
                assert (stats.n_steps, stats.n_rejected, stats.nfev) == (
                    tg.size - 1, 0, 3 * (tg.size - 1)), name

    def test_coarse_grid_is_sub_stepped(self, hermitian_params):
        # One interval of 10: |W| + 2|T| is about 1.01, so 203 steps keep
        # each step's span under 0.05; its first three points choose them.
        stats = evolve(frozen(hermitian_params), np.array([0.0, 10.0])).stats
        assert (stats.n_steps, stats.n_rejected, stats.nfev) == (203, 0, 3 + 3 * 203)
        assert stats.h_min == stats.h_max == 10.0 / 203

    def test_coarse_integrated_grid_integrates_nothing(self, monkeypatch):
        # The integrated map's steps read the drive's own generator at
        # their nodes, whatever the grid: no ODE is integrated.
        def refuse(*args, **kwargs):
            raise AssertionError("evolve integrated an ODE")

        monkeypatch.setattr(MapSource, "integrate", refuse)
        monkeypatch.setattr("pseudo_dce.dynamics.integrate", refuse)
        src, _ = moderate_cell(2.0)
        coarse = evolve(src, np.array([0.0, 20.0]))
        fine = evolve(src, np.linspace(0.0, 20.0, 1281))
        assert coarse.stats.n_steps > 1
        # Measured: 1.3e-10 relative, the coarse steps' error.
        assert worst_rel(coarse.mean_photon()[-1:], fine.mean_photon()[-1:]) < 1.4e-9

    @pytest.mark.parametrize("p, tg", [
        pytest.param("fig1", np.linspace(0.0, 50.0, 3185), id="fig1"),
        pytest.param("hermitian", np.linspace(0.0, 50.0, 3185), id="hermitian"),
        pytest.param("hermitian", np.linspace(0.0, 200.0, 12001), id="hermitian_200"),
    ])
    def test_unit_determinant_at_its_floor(self, p, tg, request):
        # Each factor keeps |u|^2 - |v|^2 = 1 to a rounding, and the
        # roundings add up like a random walk over the steps (measured: at
        # most 66 eps*(|u|^2 + |v|^2), on hermitian).
        traj = evolve(frozen(request.getfixturevalue(f"{p}_params")), tg)
        a, b = np.abs(traj.u) ** 2, np.abs(traj.v) ** 2
        floor = 4.0 * np.finfo(float).eps * math.sqrt(traj.stats.n_steps) * (a + b)
        assert np.all(np.abs(a - b - 1.0) < floor)

    def test_overflow_names_its_tau(self, fig1_params):
        # chi = 1 + 1e-5 amplifies the pump 900-fold, and |u| passes the
        # largest float near tau = 158; no numpy warning escapes either.
        src = MapSource(fig1_params, chi=1.0 + 1e-5, varphi0=VARPHI0)
        with pytest.raises(NonFiniteState, match=r"finite domain at tau = 157\.8"):
            evolve(src, np.linspace(0.0, 200.0, 201))

    @pytest.mark.parametrize("key", ["chi", "varphi0"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_map_input_raises(self, fig1_params, key, value):
        # A NaN step count once cast to zero steps and handed back the
        # grid's uninitialized (u, v); the source refuses such a start.
        with pytest.raises(NonFiniteState, match=r"map's start is not finite \(Phi = "):
            src = MapSource(fig1_params, **{"chi": CHI_FIG, "varphi0": VARPHI0,
                                            key: value})
            evolve(src, np.linspace(0.0, 5.0, 11))

    def test_unresolvable_steps_rejected(self):
        # W ~ 1e20 would need steps of 5e-22, far below the ulps of t ~ 1.
        p = DriveParams(omega0=1e20, eps_mod=0.01, kappa=2e20)
        with pytest.raises(StepRejected, match="10 ulps at tau = 0.0"):
            evolve(frozen(p), np.array([0.0, 1.0]))

    @pytest.mark.parametrize("tg", [[0.0], [0.0, 0.0, 1.0], [0.0, math.inf]])
    def test_bad_grid_rejected(self, fig1_params, tg):
        with pytest.raises(ValueError, match="t_grid"):
            evolve(frozen(fig1_params), np.array(tg))

    @pytest.mark.parametrize("tg", [[0.0], [0.0, 0.0, 1.0], [0.0, math.inf],
                                    [0.0, 2.0, 1.0]])
    def test_oracle_bad_grid_rejected(self, fig1_params, tg):
        """The oracle reads its grid as evolve does: a bad one raises
        ValueError naming t_grid, and a list is read as its array."""
        with pytest.raises(ValueError, match="t_grid"):
            bogoliubov_ode_oracle(frozen(fig1_params), np.array(tg))
        good = [0.0, 0.5, 1.0]
        from_list = bogoliubov_ode_oracle(frozen(fig1_params), good)
        from_array = bogoliubov_ode_oracle(frozen(fig1_params), np.array(good))
        assert all(a.tobytes() == b.tobytes() for a, b in zip(from_list, from_array))


def moderate_cell(kappa=1.97):
    """A cell of the benchmark's kappa sweep (off resonance by default):
    the integrated moderate map and its default grid."""
    cfg = ScenarioConfig(alpha0_tilde=0.6, beta0_tilde=0.2, chi=-2.25,
                         z_abs=0.8, dyson_source="integrated", tau_max=25.0,
                         kappa=kappa)
    src = MapSource(cfg.drive_params(), "integrated",
                    constraint0=cfg.constraint0())
    return src, cfg.time_grid()


def worst_rel(n, n_ref, floor=1e-3):
    hi = n_ref > floor
    assert hi.any()
    return float((np.abs(n - n_ref)[hi] / n_ref[hi]).max())


class TestVacuumStart:
    """Every run starts at the vacuum, with phi_sq in the direction it
    squeezes in; on the integrated map the oracle rides in evolve's
    integration."""

    @pytest.mark.parametrize("at, bt, chi, source, phase", [
        (0.01, 0.001, CHI_FIG, "approximate", 0.0),   # (at - chi*bt)/(1 - chi) < 0
        (0.01, 0.001, 0.5, "approximate", math.pi),   # > 0
        (0.6, 0.2, -2.25, "integrated", math.pi),     # > 0, on the flow
        (0.5, 0.25, 2.0, "approximate", 0.0),         # at = chi*bt: T = 0
    ])
    def test_starts_at_the_vacuum_in_its_squeeze_direction(self, at, bt, chi,
                                                           source, phase):
        p = DriveParams(omega0=1.0, eps_mod=0.01, kappa=1.97,
                        alpha0_tilde=at, beta0_tilde=bt)
        src = MapSource(p, source, chi=chi, varphi0=VARPHI0,
                        constraint0=DysonState.from_chi(chi, 0.8, VARPHI0))
        tg = np.linspace(0.0, 0.5, 51)
        traj = evolve(src, tg)
        assert traj.r[0] == 0.0 and traj.mean_photon()[0] == 0.0
        assert traj.phi_sq[0] == phase
        if at != chi * bt:
            # The oracle's v leaves 0 in that direction.
            _, v = bogoliubov_ode_oracle(src, tg)
            assert abs(np.angle(v[1] * np.exp(-1j * phase))) < 1e-2

    @pytest.mark.parametrize("kappa", [1.93, 2.0, 2.07])
    def test_integrated_columns_match_the_flow(self, kappa):
        # The metric route against the nonlinear flow that carries the
        # (u, v) oracle at rtol 1e-12, on sweep cells.  Measured: N 2.9e-12
        # relative (the flow's own error), Phi and chi 1.8e-13 relative,
        # varphi 1.5e-13 rad, and |u|^2 - |v|^2 - 1 within 1e-15.
        src, tg = moderate_cell(kappa)
        traj = evolve(src, tg)
        flow = src.integrate(_uv_rates, (1.0, 0.0, 0.0, 0.0), tg, 1e-12, 1e-15)
        n_flow = flow.y[:, 2] ** 2 + flow.y[:, 3] ** 2
        assert worst_rel(traj.mean_photon(), n_flow) < 3e-11
        for got, ref in ((traj.m.Phi, flow.m.Phi), (traj.m.chi, flow.m.chi)):
            assert np.max(np.abs(got - ref) / np.abs(ref)) < 2e-12
        assert np.abs(traj.m.varphi - flow.m.varphi).max() < 2e-12
        assert np.abs(np.abs(traj.u) ** 2 - np.abs(traj.v) ** 2 - 1.0).max() < 1e-14

    def test_metric_route_keeps_its_precision_at_large_n(self):
        # A bounded chi < -1 map up to N = 2.5e8, tau <= 600.  alpha/beta is
        # fixed on this drive, so the map Phi = 0, Lambda = sqrt(3) is
        # stationary, and the start lies 1e-9 from it.  Read against the
        # start, det S would cancel from entries of size N and lose eps*N
        # (without rebasing: N 1.3e-7 and chi 2.2e-7 from the flow, and
        # evolve 2.2e-7 from the oracle at N ~ 1e8).  Measured: evolve
        # against the oracle 1.2e-10 in N; against the flow at rtol 1e-12,
        # N 1.4e-9 and chi 4.9e-9 relative, which is the map's own
        # sensitivity: the flow is as far from a long-double product.
        p = DriveParams(omega0=1.0, eps_mod=0.1, kappa=2.0,
                        alpha0_tilde=0.6, beta0_tilde=0.2)
        src = MapSource(p, "integrated",
                        constraint0=DysonState(1e-9, 0.0, math.sqrt(3.0)))
        tg = np.linspace(0.0, 600.0, 9601)
        traj = evolve(src, tg)
        n = traj.mean_photon()
        assert n.max() > 1e8 and traj.m.chi.max() < -1.7
        flow = src.integrate(_uv_rates, (1.0, 0.0, 0.0, 0.0), tg, 1e-12, 1e-15)
        n_flow = flow.y[:, 2] ** 2 + flow.y[:, 3] ** 2
        _, v = bogoliubov_ode_oracle(src, tg, rtol=1e-12, atol=1e-15)
        hi = n_flow > 1e-3
        assert (np.abs(n - n_flow)[hi] / n_flow[hi]).max() < 2e-8
        assert np.max(np.abs(traj.m.chi - flow.m.chi) / np.abs(flow.m.chi)) < 5e-8
        assert (np.abs(n - np.abs(v) ** 2)[hi] / n[hi]).max() < 2e-9

    @settings(max_examples=25, deadline=None)
    @given(at=st.floats(0.0, 1.0), bt=st.floats(0.0, 1.0),
           eps=st.floats(0.0, 0.2), kappa=st.floats(1.5, 2.5),
           chi=st.one_of(st.floats(-6.0, -1.01), st.floats(1.01, 6.0)),
           z_over=st.floats(0.05, 1.0), varphi0=st.floats(-math.pi, math.pi))
    def test_metric_route_matches_the_flow(self, at, bt, eps, kappa, chi, z_over,
                                           varphi0):
        # Over valid drives and admissible starts (chi0 < -1, or chi0 > 1
        # with |z| above 2*sqrt(chi0)/(chi0 + 1)), tau <= 2, against the
        # flow at rtol 1e-12.  A start whose map reaches chi = 1 within the
        # span is left out: the flow's steps shrink toward the crossing, and
        # at this rtol it can take tens of seconds to raise.  Measured over
        # 3,800 random draws and the corners of the box: v 1.5e-11 of
        # max|u|, Phi 2.5e-10 and chi 1.5e-10 relative, and varphi 5.6e-10
        # rad, where Phi = 2.5e-4 (chi0 = -1.01, |z| = 0.05) leaves the
        # map's phase ill-conditioned.
        z_min = 2.0 * math.sqrt(chi) / (chi + 1.0) if chi > 1.0 else 0.0
        z = z_min + (1.0 - z_min) * z_over
        p = DriveParams(omega0=1.0, eps_mod=eps, kappa=kappa,
                        alpha0_tilde=at, beta0_tilde=bt)
        src = MapSource(p, "integrated",
                        constraint0=DysonState.from_chi(chi, z, varphi0))
        tg = np.linspace(0.0, 2.0, 201)
        try:
            traj = evolve(src, tg)
            flow = src.integrate(_uv_rates, (1.0, 0.0, 0.0, 0.0), tg, 1e-12, 1e-15)
        except (ChiSingular, PhiZero):
            assume(False)  # the map leaves its chart within the span
        v_flow = flow.y[:, 2] + 1j * flow.y[:, 3]
        assert np.abs(traj.v - v_flow).max() < 2e-10 * np.abs(traj.u).max()
        for got, ref in ((traj.m.Phi, flow.m.Phi), (traj.m.chi, flow.m.chi)):
            assert np.max(np.abs(got - ref) / np.abs(ref)) < 3e-9
        assert np.abs(traj.m.varphi - flow.m.varphi).max() < 6e-9


def _direct_uv(p, tg, rtol=1e-13, atol=1e-16):
    """The oracle's (u, conj v) flow on the frozen-chi map, integrated over
    all of tg without the map-source layer."""
    def rhs(t, y):
        s = approx_dyson_trajectory(t, p, VARPHI0, CHI_FIG)
        c = hermitized_coefficients(s, p, t)
        pump = 2.0 * c.T().conjugate()
        u, v = complex(y[0], y[1]), complex(y[2], y[3])
        du = -1j * (c.W * u + pump * v.conjugate())
        dv = -1j * (c.W * v + pump * u.conjugate())
        return np.array([du.real, du.imag, dv.real, dv.imag])

    sol = integrate(IvpProblem(rhs, tg, np.array([1.0, 0.0, 0.0, 0.0])),
                    rtol=rtol, atol=atol, max_step=p.period() / 64.0)
    return sol.y[:, 0] + 1j * sol.y[:, 1], sol.y[:, 2] + 1j * sol.y[:, 3]


def oracle_runs(monkeypatch) -> list:
    """The solutions of the oracle's DOP853 runs, as they are made."""
    seen = []
    original = dynamics.integrate

    def spy(problem, **kwargs):
        sol = original(problem, **kwargs)
        seen.append(sol)
        return sol

    monkeypatch.setattr(dynamics, "integrate", spy)
    return seen


class TestMonodromyOracle:
    """On resonance the oracle integrates one period and composes the rest."""

    def _worst(self, p, tg):
        u, v = bogoliubov_ode_oracle(frozen(p), tg, rtol=1e-11, atol=1e-14)
        u_ref, v_ref = _direct_uv(p, tg)
        scale = np.abs(u_ref)
        return max((np.abs(u - u_ref) / scale).max(),
                   (np.abs(v - v_ref) / scale).max())

    def test_matches_direct_integration(self, fig1_params):
        # fig3_solid's drive over 16.5 periods; N reaches about 3.5e9.
        tg = np.linspace(0.0, 16.5 * fig1_params.period(), 3301)
        assert self._worst(fig1_params, tg) < 1e-10

    def test_period_aligned_grid(self, fig1_params):
        # Every 200th point sits on a whole period, where floor and mod
        # meet rounding edges and phases repeat across periods.
        tg = np.linspace(0.0, 10.0 * fig1_params.period(), 2001)
        assert self._worst(fig1_params, tg) < 1e-10

    @pytest.mark.parametrize("periods", [5.2, 0.7])
    def test_grid_starting_after_zero(self, fig1_params, periods):
        t0 = 1.3
        tg = np.linspace(t0, t0 + periods * fig1_params.period(), 777)
        assert self._worst(fig1_params, tg) < 1e-10

    def test_unit_determinant_at_tau_200(self, hermitian_params):
        # 64 periods of composition keep |u|^2 - |v|^2 = 1 to about 2e-14;
        # the direct full-span integration drifts to about 1e-12 here.
        tg = np.linspace(0.0, 200.0, 12001)
        u, v = bogoliubov_ode_oracle(frozen(hermitian_params), tg,
                                     rtol=1e-13, atol=1e-16)
        drift = np.abs(np.abs(u) ** 2 - np.abs(v) ** 2 - 1.0).max()
        assert drift < 1e-13, f"|u|^2 - |v|^2 - 1 drift {drift}"

    def test_resonant_run_integrates_one_period(self, fig1_params,
                                                monkeypatch):
        seen = oracle_runs(monkeypatch)
        tg = np.linspace(0.0, 50.0, 3185)
        bogoliubov_ode_oracle(frozen(fig1_params), tg)
        (sol,) = seen
        assert sol.t[0] == 0.0 and sol.t[-1] == fig1_params.period()

    # The integrated source repeats with the drive: TestPropagatorOracle.
    @pytest.mark.parametrize("source", ["off_resonance"])
    def test_aperiodic_source_keeps_direct_result(self, source, monkeypatch):
        seen = oracle_runs(monkeypatch)
        p = DriveParams(omega0=1.0, eps_mod=0.01, kappa=1.93,
                        alpha0_tilde=0.01, beta0_tilde=0.001)
        tg = np.linspace(0.0, 25.0, 1601)
        src = frozen(p)
        u, v = bogoliubov_ode_oracle(src, tg)
        (sol,) = seen
        assert np.array_equal(sol.t, tg)
        # The product's entries (y00, y01, y10, y11), read against the start.
        y = sol.y[:, 0::2].T + 1j * sol.y[:, 1::2].T
        u_d, v_d, *_ = src.read_product(y, src.base0)
        assert np.array_equal(u, u_d)
        assert np.array_equal(v, v_d)


class TestPropagatorOracle:
    """On the integrated map the oracle integrates the drive's own G over
    one drive period, for every kappa, and composes the rest, as it
    composes the counterpart's propagator on a resonant approximate map."""

    def test_integrates_one_drive_period(self, monkeypatch):
        seen = oracle_runs(monkeypatch)
        src, tg = moderate_cell(1.93)
        bogoliubov_ode_oracle(src, tg)
        (sol,) = seen
        assert sol.t[0] == 0.0 and sol.t[-1] == src.p.period()

    def test_floquet_composition_matches_direct_integration(self, fig1_params):
        # Against the product integrated over the whole span: G off
        # resonance on the moderate map, and the counterpart's propagator on
        # the resonant fig1 map, where N reaches 2.1e4.  u is compared
        # relative to |u| >= 1, which grows to 144 on fig1.  Measured: N
        # 2.3e-13 and u 3.2e-14 relative on the moderate map, N 2.0e-13 and
        # u 1.0e-13 on fig1.
        src, tg = moderate_cell(1.93)
        for src in (src, frozen(fig1_params)):
            u, v = bogoliubov_ode_oracle(src, tg, rtol=1e-13, atol=1e-16)
            u_d, v_d, *_ = src.read_product(_propagator(src, tg, 1e-13, 1e-16),
                                            src.base0)
            assert worst_rel(np.abs(v) ** 2, np.abs(v_d) ** 2) < 2e-12
            assert (np.abs(u - u_d) / np.abs(u_d)).max() < 3e-13
