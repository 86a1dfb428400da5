import math

import numpy as np
import pytest

from pseudo_dce.drive import couplings, omega as drive_omega, zeta_signed
from pseudo_dce.dyson import DysonState, z_abs_from
from pseudo_dce.errors import (ChiSingular, NonPositiveLambda, OutOfDomain, PhiZero,
                               ZeroLambda)
from pseudo_dce.fock import FockSpace, drive_hamiltonian, eta_matrix
from pseudo_dce.hermitize import (MapSource,
                                  approx_dyson_trajectory,
                                  coefficients_general,
                                  constraint_rhs_general,
                                  constraint_rhs_polar,
                                  guard_flow_crossings,
                                  hermitized_coefficients,
                                  hermitized_coefficients_general)
from pseudo_dce.dynamics import bogoliubov_ode_oracle, evolve
from pseudo_dce.integrate import Step
from pseudo_dce.scenario import ScenarioConfig

CHI_FIG = 1.0002
VARPHI0 = 0.5 * math.pi


def generic_state():
    return DysonState(Phi=0.4, varphi=1.1, Lambda=2.0)


class TestCoefficientsGeneral:

    def test_trivial_map_passes_through(self):
        # lam = 0, Lambda = 1 is the identity map: (W, T, V) = (omega,
        # alpha, beta) with no mixing.
        om, al, be = 1.3 + 0j, 0.2 + 0.1j, 0.05 - 0.02j
        W, T, V = coefficients_general(0j, 1.0, om, al, be, 0j, 0.0)
        assert W == om
        assert T == al
        assert V == be

    def test_zero_lambda_rejected(self):
        with pytest.raises(ZeroLambda):
            coefficients_general(0.5 + 0j, 0.0, 1.0 + 0j, 0j, 0j, 0j, 0.0)

    def test_matches_fock_similarity_transform(self, fig1_params):
        # Conjugating the number/pump Hamiltonian by the map in a truncated
        # number basis and reading (W, T, V) off the lowest matrix elements
        # must reproduce the closed-form coefficients.
        d = DysonState.from_z(z_abs=0.5, Phi=0.3, varphi=0.9)
        f = FockSpace(64)
        eta = eta_matrix(d.eps_map, d.mu(), f, form="gauss")
        h = eta @ drive_hamiltonian(0.7, fig1_params, f) @ np.linalg.inv(eta)
        w_x = h[1, 1] - h[0, 0]
        t_x = h[0, 2] / math.sqrt(2.0)
        v_x = h[2, 0] / math.sqrt(2.0)
        alpha, beta = couplings(0.7, fig1_params)
        w_g, t_g, v_g = coefficients_general(
            d.lam, d.Lambda, complex(drive_omega(0.7, fig1_params)),
            alpha, beta, 0j, 0.0)
        assert abs(w_x - w_g) < 1e-12
        assert abs(t_x - t_g) < 1e-12
        assert abs(v_x - v_g) < 1e-12


class TestConstraintFlow:

    def test_polar_matches_general(self, moderate_params):
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(100):
            t = float(rng.uniform(0.0, 10.0))
            s = DysonState(Phi=float(rng.uniform(0.2, 0.8)),
                           varphi=float(rng.uniform(0.0, 2.0 * math.pi)),
                           Lambda=float(rng.uniform(1.5, 3.0)))
            alpha, beta = couplings(t, moderate_params)
            om = complex(drive_omega(t, moderate_params))
            d1 = constraint_rhs_polar(s, moderate_params, t)
            d2 = constraint_rhs_general(s, om, alpha, beta)
            worst = max(worst, float(np.abs(d1 - d2).max()))
            c1 = hermitized_coefficients(s, moderate_params, t)
            c2 = hermitized_coefficients_general(s, om, alpha, beta)
            worst = max(worst, abs(c1.W - c2.W), abs(c1.T() - c2.T()))
        assert worst < 1e-12, f"polar vs general spread {worst}"

    def test_quarter_phase_freezes_radial_motion(self, moderate_params):
        # dPhi and dLambda carry a cos(varphi) factor, so the quarter
        # phase only moves varphi (up to roundoff in cos(pi/2)).
        s = DysonState(Phi=0.4, varphi=0.5 * math.pi, Lambda=2.0)
        d = constraint_rhs_polar(s, moderate_params, 0.7)
        assert abs(float(d[0])) < 1e-15
        assert abs(float(d[2])) < 1e-15

    def test_unmodulated_instant_rotates_at_two_omega(self, moderate_params):
        # zeta(0) = 0, so the only motion is the 2*omega phase advance.
        d = constraint_rhs_polar(generic_state(), moderate_params, 0.0)
        assert float(d[1]) == 2.0 * drive_omega(0.0, moderate_params)
        assert float(d[0]) == 0.0
        assert float(d[2]) == 0.0

    def test_locked_state_is_stationary(self, fig1_params):
        s = DysonState(Phi=-(CHI_FIG + 1.0) / 2.0, varphi=0.3,
                       Lambda=((CHI_FIG + 1.0) / 2.0) ** 2 - CHI_FIG)
        d = constraint_rhs_polar(s, fig1_params, 0.0)
        assert max(abs(float(d[0])), abs(float(d[2]))) < 1e-14

    def test_chi_guard(self, moderate_params):
        s = DysonState(Phi=-1.0, varphi=0.0, Lambda=0.0)
        with pytest.raises(ChiSingular):
            constraint_rhs_polar(s, moderate_params, 0.7)

    def test_phi_guard(self, moderate_params):
        s = DysonState(Phi=1e-14, varphi=0.0, Lambda=1.0)
        with pytest.raises(PhiZero):
            constraint_rhs_polar(s, moderate_params, 0.7)


class TestHermitizedCoefficients:

    def test_balanced_drive_pump_equals_zeta(self, hermitian_params):
        c = hermitized_coefficients(generic_state(), hermitian_params, 0.7)
        assert abs(c.T()) == abs(zeta_signed(0.7, hermitian_params))

    def test_unbalanced_drive_amplifies_pump(self, fig1_params):
        s = approx_dyson_trajectory(0.7, fig1_params, VARPHI0, CHI_FIG)
        c = hermitized_coefficients(s, fig1_params, 0.7)
        ratio = abs(c.T()) / abs(zeta_signed(0.7, fig1_params))
        assert abs(ratio - 44.999) < 1e-9, f"pump ratio {ratio}"

    def test_on_flow_counterpart_is_hermitian(self, moderate_params):
        s = generic_state()
        src = MapSource(moderate_params, "integrated", constraint0=s)
        W, T, V = src.raw_coefficients(0.7, src.at(0.7, (s.Phi, s.varphi, s.Lambda)))
        assert abs(W.imag) < 1e-12
        assert abs(V - np.conj(T)) < 1e-12


class TestApproxTrajectory:

    def test_initial_state(self, fig1_params):
        s = approx_dyson_trajectory(0.0, fig1_params, VARPHI0, CHI_FIG)
        assert z_abs_from(s.Phi, s.Lambda) == 1.0
        assert s.Phi == -0.5 * (CHI_FIG + 1.0)
        assert s.varphi == VARPHI0
        assert abs(s.chi - CHI_FIG) < 1e-12

    def test_phase_advances_at_two_omega(self, fig1_params):
        s = approx_dyson_trajectory(2.5, fig1_params, VARPHI0, CHI_FIG)
        assert s.varphi == VARPHI0 + 5.0


class TestIntegratedFlow:

    def test_residuals_stay_small(self, moderate_params, moderate_state0):
        tg = np.linspace(0.0, 10.0, 201)
        src = MapSource(moderate_params, "integrated", constraint0=moderate_state0)
        traj = src.integrate(lambda m, y: (), (), tg, rtol=1e-11, atol=1e-14)
        W, T, V = src.raw_coefficients(traj.t, traj.m)
        im_w = float(np.abs(W.imag).max())
        v_t = float(np.abs(V - np.conj(T)).max())
        assert im_w < 1e-7, f"max|Im W| {im_w}"
        assert v_t < 1e-7, f"max|V - conj(T)| {v_t}"

    def test_state_accessor(self, moderate_params, moderate_state0):
        tg = np.linspace(0.0, 1.0, 11)
        traj = MapSource(moderate_params, "integrated",
                         constraint0=moderate_state0).integrate(
            lambda m, y: (), (), tg, 1e-9, 1e-12)
        assert traj.m.Phi[0] == moderate_state0.Phi
        assert traj.m.varphi[0] == moderate_state0.varphi
        assert traj.y.shape == (tg.size, 0)
        assert traj.stats.n_steps > 0


def linear_step(y_old, y_new) -> Step:
    """The Step record from t = 0 to 1 whose dense output runs linearly from
    y_old to y_new: its interpolant rows are F = [y_new - y_old, 0, ..., 0]."""
    y_old, y_new = np.array(y_old), np.array(y_new)
    F = np.zeros((7, y_old.size))
    F[0] = y_new - y_old
    return Step(0.0, 1.0, y_old, F, 1.0, y_new, 1e-14)


class TestFlowCrossingGuard:

    def test_chi_crossing_inside_a_step_is_caught(self, fig1_params):
        # The fig1 flow takes chi from 1.0002 below 1 near tau = 2.2888 while
        # no grid point (nor rhs sample) comes within the 1e-9 guard.
        s0 = ScenarioConfig(z_abs=1.0).constraint0()
        with pytest.raises(ChiSingular, match=r"tau = 2\.2888"):
            MapSource(fig1_params, "integrated", constraint0=s0).integrate(
                lambda m, y: (), (), np.linspace(0.0, 3.0, 601), 1e-9, 1e-12)

    def test_crossing_time_has_at_most_12_digits(self, fig1_params):
        # chi - 1 cancels at the 1e-16 level near the crossing, and
        # bisection and brentq land 1.3e-12 apart: digits beyond 12 are noise.
        s0 = ScenarioConfig(z_abs=1.0).constraint0()
        with pytest.raises(ChiSingular, match=r"tau = 2\.2888") as info:
            MapSource(fig1_params, "integrated", constraint0=s0).integrate(
                lambda m, y: (), (), np.linspace(0.0, 3.0, 601), 1e-9, 1e-12)
        tau = str(info.value).split("tau = ")[1].split(" ")[0]
        assert len(tau.replace(".", "").lstrip("0")) <= 12

    def test_guard_locates_the_crossing(self):
        # chi - 1 = Phi^2 - Lambda - 1 falls linearly through zero at t = 0.3.
        with pytest.raises(ChiSingular) as info:
            guard_flow_crossings(linear_step([2.0, 0.0, 2.7], [2.0, 0.0, 3.7]))
        t_c = float(str(info.value).split("tau = ")[1].split(" ")[0])
        assert abs(t_c - 0.3) < 1e-12
        assert "Lambda = 3.0" in str(info.value)

    def test_phi_crossing_raises_phi_zero(self):
        with pytest.raises(PhiZero, match="Phi = 0"):
            guard_flow_crossings(linear_step([0.5, 0.0, -3.0], [-0.5, 0.0, -3.0]))

    def test_no_crossing_passes(self):
        guard_flow_crossings(linear_step([0.5, 0.0, -3.0], [0.5, 0.0, -2.0]))

    def test_integrated_evolve_stops_at_the_crossing(self, fig1_params):
        # evolve finds the first grid interval where det S = tr(P)^2 turns
        # negative and bisects it; the oracle names the first grid point
        # past it.
        src = MapSource(fig1_params, "integrated",
                        constraint0=ScenarioConfig(z_abs=1.0).constraint0())
        tg = np.linspace(0.0, 3.0, 601)
        with pytest.raises(ChiSingular, match=r"tau = 2\.2888"):
            evolve(src, tg)
        with pytest.raises(ChiSingular, match=r"tau = 2\.29"):
            bogoliubov_ode_oracle(src, tg)

    def test_metric_crossing_matches_the_flow_guard(self, fig1_params):
        # From chi0 = 1.0002, |z| = 1 the metric route's branch point and
        # the flow's chi = 1 crossing are one time: measured 3e-11 apart.
        src = MapSource(fig1_params, "integrated",
                        constraint0=ScenarioConfig(z_abs=1.0).constraint0())
        tg = ScenarioConfig(tau_max=10.0).time_grid()

        def crossing(run) -> float:
            with pytest.raises(ChiSingular) as info:
                run()
            return float(str(info.value).split("tau = ")[1].split(" ")[0])

        t_map = crossing(lambda: evolve(src, tg))
        t_flow = crossing(lambda: src.integrate(lambda m, y: (), (), tg, 1e-12, 1e-15))
        assert abs(t_map - t_flow) < 1e-9
        assert abs(t_map - 2.2888) < 1e-4


class TestMapSource:
    # One set of expressions serves the right-hand side (a scalar t) and
    # the output columns (the whole grid); the two routes must agree.

    def test_grid_matches_scalar_route_on_the_approximate_map(self, fig1_params):
        tg = np.linspace(0.0, 50.0, 3185)
        m = MapSource(fig1_params, chi=CHI_FIG, varphi0=VARPHI0).at(tg, ())
        for i in range(0, tg.size, 49):
            t = float(tg[i])
            c = hermitized_coefficients(
                approx_dyson_trajectory(t, fig1_params, VARPHI0, CHI_FIG),
                fig1_params, t)
            assert m.W[i] == c.W
            assert abs(m.T[i] - c.T()) <= 1e-15 * abs(m.T[i])

    def test_grid_matches_scalar_route_on_the_integrated_map(
            self, moderate_params, moderate_state0):
        tg = np.linspace(0.0, 25.0, 501)
        src = MapSource(moderate_params, "integrated", constraint0=moderate_state0)
        flow = src.integrate(lambda m, y: (), (), tg, 1e-9, 1e-12).m
        m = src.at(tg, np.array([flow.Phi, flow.varphi, flow.Lambda]))
        residual = src.residual(tg, m)
        for i in range(0, tg.size, 7):
            s = DysonState(Phi=float(flow.Phi[i]), varphi=float(flow.varphi[i]),
                           Lambda=float(flow.Lambda[i]))
            t = float(tg[i])
            c = hermitized_coefficients(s, moderate_params, t)
            assert m.W[i] == c.W
            assert abs(m.T[i] - c.T()) <= 1e-15 * abs(m.T[i])
            W, T, V = src.raw_coefficients(t, src.at(t, (s.Phi, s.varphi, s.Lambda)))
            assert abs(residual[i] - (abs(W.imag) + abs(V - np.conj(T)))) <= 1e-15

    @pytest.mark.parametrize("source", ["approximate", "integrated"])
    def test_integrate_hands_a_route_only_its_components(
            self, fig1_params, moderate_params, moderate_state0, source):
        if source == "approximate":
            src = MapSource(fig1_params, chi=CHI_FIG, varphi0=VARPHI0)
        else:
            src = MapSource(moderate_params, "integrated",
                            constraint0=moderate_state0)
        seen = set()

        def rhs(m, y):
            seen.add(len(y))
            return m.W * y[1], -m.W * y[0]

        tg = np.linspace(0.0, 5.0, 101)
        run = src.integrate(rhs, (1.0, 0.0), tg, 1e-9, 1e-12)
        assert seen == {2}
        assert np.array_equal(run.t, tg) and run.y.shape == (tg.size, 2)
        want = src.at(tg, np.array([run.m.Phi, run.m.varphi, run.m.Lambda]))
        for got, ref in zip(run.m, want):
            assert np.array_equal(got, ref)

    @pytest.mark.parametrize("chi, z_abs, error, need", [
        (1.0002, 1.0 - 1e-6, NonPositiveLambda, "chi > 1 needs |z| > 0.99999999500"),
        (0.5, 1.0, OutOfDomain, "no |z| gives a map for chi in (-1, 1)"),
    ])
    def test_integrated_source_refuses_a_start_that_is_no_map(
            self, fig1_params, chi, z_abs, error, need):
        # The default config's start has Lambda = -1.99e-6; chi = 0.5 at
        # |z| = 1 inverts to the map strength eps_map = -3.
        with pytest.raises(error, match="start is not a Dyson map") as info:
            MapSource(fig1_params, "integrated",
                      constraint0=DysonState.from_chi(chi, z_abs, VARPHI0))
        assert f"chi = {chi!r}" in str(info.value) and need in str(info.value)

    def test_integrated_source_accepts_admissible_starts(self, fig1_params):
        # Every chi0 < -1 is a map; chi0 > 1 is one above the least |z|.
        for chi, z_abs in ((-2.25, 0.8), (-1.01, 0.05), (1.0002, 1.0), (3.0, 0.9)):
            src = MapSource(fig1_params, "integrated",
                            constraint0=DysonState.from_chi(chi, z_abs, VARPHI0))
            assert src.map0[2] > 0.0

    def test_bad_source_rejected(self, fig1_params):
        with pytest.raises(ValueError, match="dyson_source"):
            MapSource(fig1_params, "exact", chi=CHI_FIG)
        with pytest.raises(ChiSingular, match="every tau"):
            MapSource(fig1_params, chi=1.0)


class TestZAbsFrom:

    def test_locked_value(self):
        assert z_abs_from(-1.0001, (-1.0001) ** 2 - 1.0002) == 1.0

    def test_chi_minus_one_rejected(self):
        with pytest.raises(ChiSingular):
            z_abs_from(0.5, 0.5 * 0.5 + 1.0)
