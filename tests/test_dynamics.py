import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from pseudo_dce.drive import DriveParams
from pseudo_dce.dynamics import (BogoliubovTriple, InitialMoments,
                                 SqueezeState, amplification_factor,
                                 analytic_squeeze, bogoliubov_ode_oracle,
                                 bogoliubov_uvw, evolve,
                                 initial_squeeze_phase, mean_photon_general,
                                 squeeze_rhs)
from pseudo_dce.errors import (ChiSingular, NegativeMeanPhoton,
                               NotOnResonance)
from pseudo_dce.fock import FockSpace, propagate
from pseudo_dce.hermitize import (HermitizedCoeffs, MapSource,
                                  approx_dyson_trajectory,
                                  hermitized_coefficients)
from pseudo_dce.integrate import IvpProblem, integrate

CHI_FIG = 1.0002
VARPHI0 = 0.5 * math.pi


def frozen(p):
    """The frozen-chi map source of drive p."""
    return MapSource(p, chi=CHI_FIG, varphi0=VARPHI0)


class TestSqueezeRhs:

    def test_pure_rotation(self):
        c = HermitizedCoeffs(W=1.3, T_abs=0.0, phi_T=0.4)
        dr, dphi, omega = squeeze_rhs(0.0, 0.7, c)
        assert dr == 0.0
        assert dphi == -2.0 * c.W
        assert omega == c.W

    def test_antisqueezing_phase(self):
        # psi = pi: the pump only rotates, and coth(2r) has saturated to 1
        # at r = 20, so dphi = -2W + 4|T| to machine precision.
        c = HermitizedCoeffs(W=0.5, T_abs=0.2, phi_T=math.pi)
        dr, dphi, omega = squeeze_rhs(20.0, 0.0, c)
        assert abs(dr) < 1e-15
        assert abs(dphi - (-2.0 * c.W + 4.0 * c.T_abs)) < 1e-12
        assert abs(omega - (c.W - 2.0 * c.T_abs)) < 1e-12

    def test_growth_phase(self):
        # psi = -pi/2 maximizes dr at +2|T| and kills the cosine terms.
        c = HermitizedCoeffs(W=0.5, T_abs=0.2, phi_T=-0.5 * math.pi)
        dr, dphi, omega = squeeze_rhs(0.3, 0.0, c)
        assert abs(dr - 2.0 * c.T_abs) < 1e-15
        assert abs(dphi + 2.0 * c.W) < 1e-15

    def test_unsqueezed_rate_is_bare_frequency(self):
        # tanh(0) = 0: a live pump leaves the displacement rate at W.
        c = HermitizedCoeffs(W=1.7, T_abs=0.1, phi_T=0.3)
        _, _, omega = squeeze_rhs(0.0, 0.2, c)
        assert omega == c.W


class TestRotationDisplacement:

    def test_modulus_conserved_along_evolution(self, fig1_params):
        tg = np.linspace(0.0, 3.0, 151)
        traj = evolve(frozen(fig1_params), tg, theta0=0.3 + 0.4j,
                      rtol=1e-13, atol=1e-16)
        drift = float(np.abs(np.abs(traj.theta) - 0.5).max())
        assert drift < 1e-10, f"|theta| drift {drift}"


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
        r, phi = analytic_squeeze(0.0, fig1_params, CHI_FIG, 0.0, 0.0)
        assert r == 0.0
        assert phi == -1.5 * math.pi

    def test_linear_growth_envelope(self, hermitian_params):
        # Secular part grows at eps_mod*A/2 per unit time; the bounded
        # oscillation stays within eps_mod*A/4.
        r, _ = analytic_squeeze(100.0, hermitian_params, CHI_FIG, 0.0, 0.0)
        assert abs(r - 0.5) < 0.01 * 0.5

    def test_initial_phase(self, fig1_params):
        # The closed form's phase at t = 0 on resonance; phi0' off it.
        _, want = analytic_squeeze(0.0, fig1_params, CHI_FIG, 0.0, 0.3)
        assert initial_squeeze_phase(fig1_params, CHI_FIG, 0.3) == want
        p = DriveParams(omega0=1.0, eps_mod=0.01, kappa=1.9,
                        alpha0_tilde=0.01, beta0_tilde=0.001)
        assert initial_squeeze_phase(p, CHI_FIG, 0.3) == 0.3

    def test_off_resonance_rejected(self):
        p = DriveParams(omega0=1.0, eps_mod=0.01, kappa=1.9,
                        alpha0_tilde=0.01, beta0_tilde=0.001)
        with pytest.raises(NotOnResonance):
            analytic_squeeze(1.0, p, CHI_FIG, 0.0, 0.0)


class TestBogoliubovTriple:

    def test_coincident_states(self):
        s = SqueezeState(r=0.3, phi_sq=0.7, theta=0.2 + 0.1j)
        tri = bogoliubov_uvw(s, s)
        assert abs(tri.u - 1.0) < 1e-15
        assert tri.v == 0j
        w_want = (s.theta * math.cosh(0.3)
                  + s.theta.conjugate() * cmath.exp(0.7j) * math.sinh(0.3))
        assert abs(tri.w - w_want) < 1e-15

    def test_vacuum_reference_gives_sinh(self):
        s0 = SqueezeState(r=0.0, phi_sq=0.4)
        s = SqueezeState(r=1.2, phi_sq=-0.9, Omega_tilde=2.4)
        tri = bogoliubov_uvw(s0, s)
        assert abs(abs(tri.v) - math.sinh(1.2)) < 1e-14
        assert abs(abs(tri.u) - math.cosh(1.2)) < 1e-14

    @given(r0=st.floats(0.0, 2.5), r1=st.floats(0.0, 2.5),
           p0=st.floats(-math.pi, math.pi), p1=st.floats(-math.pi, math.pi),
           dom=st.floats(0.0, 20.0))
    @settings(max_examples=300, deadline=None)
    def test_hyperbolic_identity(self, r0, r1, p0, p1, dom):
        # Cancellation floor grows as eps*cosh(r0 + r1)^2, so the range is
        # kept where 1e-9 is meaningful.
        tri = bogoliubov_uvw(SqueezeState(r=r0, phi_sq=p0),
                             SqueezeState(r=r1, phi_sq=p1, Omega_tilde=dom))
        assert abs(abs(tri.u) ** 2 - abs(tri.v) ** 2 - 1.0) < 1e-9


class TestMeanPhoton:

    def test_vacuum(self):
        tri = BogoliubovTriple(u=math.cosh(0.8), v=math.sinh(0.8) * 1j,
                               w=0.3 - 0.2j)
        want = math.sinh(0.8) ** 2 + 0.13
        assert abs(mean_photon_general(tri) - want) < 1e-12

    def test_thermal_occupation_scales(self):
        tri = BogoliubovTriple(u=math.cosh(0.8), v=math.sinh(0.8), w=0j)
        n0 = mean_photon_general(tri)
        n1 = mean_photon_general(tri, InitialMoments(n=2.0))
        want = math.sinh(0.8) ** 2 + 2.0 * (math.cosh(0.8) ** 2
                                            + math.sinh(0.8) ** 2)
        assert abs(n1 - want) < 1e-12
        assert n1 > n0

    def test_small_negative_clamps_to_zero(self):
        tri = BogoliubovTriple(u=1.0, v=1e-6, w=0j)
        n = mean_photon_general(tri, InitialMoments(a_sq=-1e-6))
        assert n == 0.0

    def test_large_negative_rejected(self):
        tri = BogoliubovTriple(u=1.0, v=0.5, w=0j)
        with pytest.raises(NegativeMeanPhoton):
            mean_photon_general(tri, InitialMoments(a_sq=-1.0))


class TestEvolve:

    def test_unmodulated_drive_stays_dark(self):
        p = DriveParams(omega0=1.0, eps_mod=0.0, kappa=2.0,
                        alpha0_tilde=0.01, beta0_tilde=0.001)
        traj = evolve(frozen(p), np.linspace(0.0, 10.0, 101))
        assert float(np.abs(traj.r - 1e-8).max()) < 1e-20
        assert float(traj.mean_photon().max()) < 1e-15

    def test_balanced_drive_matches_closed_form(self, hermitian_params):
        tg = np.linspace(0.0, 10.0, 201)
        traj = evolve(frozen(hermitian_params), tg,
                      rtol=1e-10, atol=1e-13)
        r_ref, _ = analytic_squeeze(10.0, hermitian_params, CHI_FIG,
                                    1e-8, 0.0)
        assert abs(traj.r[-1] - r_ref) / r_ref < 1e-2

    def test_seed_insensitivity(self, fig1_params):
        tg = np.linspace(0.0, 10.0, 201)
        finals = []
        for seed in (1e-8, 1e-10):
            traj = evolve(frozen(fig1_params), tg, seed_r_eps=seed,
                          rtol=1e-11, atol=1e-14)
            finals.append(traj.r[-1])
        assert abs(finals[0] - finals[1]) < 1e-6

    def test_matrix_element_oracle_agrees(self, fig1_params):
        # u, v from direct integration of the mode-mixing equations.
        tg = np.linspace(0.0, 6.0, 121)
        traj = evolve(frozen(fig1_params), tg, rtol=1e-11, atol=1e-14)
        u_o, v_o = bogoliubov_ode_oracle(frozen(fig1_params), tg,
                                         rtol=1e-11, atol=1e-14)
        tri = traj.bogoliubov()
        worst = max(np.abs(tri.u - u_o).max(), np.abs(tri.v - v_o).max())
        assert worst < 1e-7, f"oracle deviation {worst}"

    def test_second_moment_matches_number_basis(self, hermitian_params):
        # <a^2> propagated in a truncated number basis equals u*v.
        tg = np.linspace(0.0, 10.0, 201)
        traj = evolve(frozen(hermitian_params), tg,
                      rtol=1e-11, atol=1e-14)
        tri = traj.bogoliubov(tg.size - 1)

        def coeffs(t):
            s = approx_dyson_trajectory(t, hermitian_params, VARPHI0, CHI_FIG)
            c = hermitized_coefficients(s, hermitian_params, t)
            return (c.W, c.T(), np.conj(c.T()))

        f = FockSpace(64)
        res = propagate(coeffs, f.vacuum(), tg, f, rtol=1e-11, atol=1e-14)
        psi = res.amplitudes[-1]
        a2 = psi.conj() @ (f.a_sq @ psi)
        assert abs(a2 - tri.u * tri.v) < 1e-9

    @pytest.mark.parametrize("kappa", [2.0, 2.05])
    def test_default_start_phase(self, kappa):
        # Off resonance no locked phase exists and the run starts at 0.
        p = DriveParams(omega0=1.0, eps_mod=0.01, kappa=kappa,
                        alpha0_tilde=0.01, beta0_tilde=0.001)
        traj = evolve(frozen(p), np.linspace(0.0, 2.0, 21))
        assert traj.phi_sq[0] == initial_squeeze_phase(p, CHI_FIG, 0.0)
        assert np.all(np.isfinite(traj.mean_photon()))

    def test_trajectory_accessors(self, fig1_params):
        tg = np.linspace(0.0, 2.0, 21)
        traj = evolve(frozen(fig1_params), tg)
        tri0 = traj.bogoliubov(0)
        assert abs(tri0.u - 1.0) < 1e-14
        assert abs(tri0.v) < 1e-14
        n = traj.mean_photon()
        assert n.shape == tg.shape
        assert np.all(n >= 0.0)


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

    def _integration_grids(self, monkeypatch):
        seen = []
        original = MapSource.integrate

        def spy(src, rhs, y0, t_grid, *args):
            sol = original(src, rhs, y0, t_grid, *args)
            seen.append(sol)
            return sol

        monkeypatch.setattr(MapSource, "integrate", spy)
        return seen

    def test_resonant_run_integrates_one_period(self, fig1_params,
                                                monkeypatch):
        seen = self._integration_grids(monkeypatch)
        tg = np.linspace(0.0, 50.0, 3185)
        bogoliubov_ode_oracle(frozen(fig1_params), tg)
        (sol,) = seen
        assert sol.t[0] == 0.0 and sol.t[-1] == fig1_params.period()

    @pytest.mark.parametrize("source", ["off_resonance", "integrated"])
    def test_aperiodic_source_keeps_direct_result(self, moderate_params,
                                                  moderate_state0, source,
                                                  monkeypatch):
        seen = self._integration_grids(monkeypatch)
        if source == "off_resonance":
            p = DriveParams(omega0=1.0, eps_mod=0.01, kappa=1.93,
                            alpha0_tilde=0.01, beta0_tilde=0.001)
            src = frozen(p)
        else:
            src = MapSource(moderate_params, "integrated",
                            constraint0=moderate_state0)
        tg = np.linspace(0.0, 25.0, 1601)
        u, v = bogoliubov_ode_oracle(src, tg)
        (sol,) = seen
        assert np.array_equal(sol.t, tg)
        y = sol.y[:, -4:]
        assert np.array_equal(u, y[:, 0] + 1j * y[:, 1])
        assert np.array_equal(v, y[:, 2] + 1j * y[:, 3])
