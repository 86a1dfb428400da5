import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from pseudo_dce.drive import DriveParams
from pseudo_dce.dynamics import (SqueezeState, amplification_factor,
                                 analytic_squeeze, bogoliubov_ode_oracle,
                                 bogoliubov_uv, evolve, squeeze_rhs)
from pseudo_dce.errors import ChiSingular, NotOnResonance
from pseudo_dce.fock import FockSpace, propagate
from pseudo_dce.hermitize import (ConstraintState, HermitizedCoeffs,
                                  MapSource, approx_dyson_trajectory,
                                  hermitized_coefficients)
from pseudo_dce.integrate import IvpProblem, integrate
from pseudo_dce.scenario import ScenarioConfig

CHI_FIG = 1.0002
VARPHI0 = 0.5 * math.pi


def frozen(p):
    """The frozen-chi map source of drive p."""
    return MapSource(p, chi=CHI_FIG, varphi0=VARPHI0)


class TestSqueezeRhs:

    def test_pure_rotation(self):
        c = HermitizedCoeffs(W=1.3, T_abs=0.0, phi_T=0.4)
        dr, dphi, omega = squeeze_rhs(0.0, 0.7, c.W, c.T())
        assert dr == 0.0
        assert dphi == -2.0 * c.W
        assert omega == c.W

    def test_antisqueezing_phase(self):
        # psi = pi: the pump only rotates, and coth(2r) has saturated to 1
        # at r = 20, so dphi = -2W + 4|T| to machine precision.
        c = HermitizedCoeffs(W=0.5, T_abs=0.2, phi_T=math.pi)
        dr, dphi, omega = squeeze_rhs(20.0, 0.0, c.W, c.T())
        assert abs(dr) < 1e-15
        assert abs(dphi - (-2.0 * c.W + 4.0 * c.T_abs)) < 1e-12
        assert abs(omega - (c.W - 2.0 * c.T_abs)) < 1e-12

    def test_growth_phase(self):
        # psi = -pi/2 maximizes dr at +2|T| and kills the cosine terms.
        c = HermitizedCoeffs(W=0.5, T_abs=0.2, phi_T=-0.5 * math.pi)
        dr, dphi, omega = squeeze_rhs(0.3, 0.0, c.W, c.T())
        assert abs(dr - 2.0 * c.T_abs) < 1e-15
        assert abs(dphi + 2.0 * c.W) < 1e-15

    def test_unsqueezed_rate_is_bare_frequency(self):
        # tanh(0) = 0: a live pump leaves the displacement rate at W.
        c = HermitizedCoeffs(W=1.7, T_abs=0.1, phi_T=0.3)
        _, _, omega = squeeze_rhs(0.0, 0.2, c.W, c.T())
        assert omega == c.W


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


class TestBogoliubovPair:

    def test_coincident_states(self):
        s = SqueezeState(r=0.3, phi_sq=0.7)
        u, v = bogoliubov_uv(s, s)
        assert abs(u - 1.0) < 1e-15
        assert v == 0j

    def test_vacuum_reference_gives_sinh(self):
        s0 = SqueezeState(r=0.0, phi_sq=0.4)
        s = SqueezeState(r=1.2, phi_sq=-0.9, Omega_tilde=2.4)
        u, v = bogoliubov_uv(s0, s)
        assert abs(abs(v) - math.sinh(1.2)) < 1e-14
        assert abs(abs(u) - math.cosh(1.2)) < 1e-14

    @given(r0=st.floats(0.0, 2.5), r1=st.floats(0.0, 2.5),
           p0=st.floats(-math.pi, math.pi), p1=st.floats(-math.pi, math.pi),
           dom=st.floats(0.0, 20.0))
    @settings(max_examples=300, deadline=None)
    def test_hyperbolic_identity(self, r0, r1, p0, p1, dom):
        # Cancellation floor grows as eps*cosh(r0 + r1)^2, so the range is
        # kept where 1e-9 is meaningful.
        u, v = bogoliubov_uv(SqueezeState(r=r0, phi_sq=p0),
                             SqueezeState(r=r1, phi_sq=p1, Omega_tilde=dom))
        assert abs(abs(u) ** 2 - abs(v) ** 2 - 1.0) < 1e-9


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
        # The chart keeps its start radius; the vacuum's own r stays 0.
        p = DriveParams(omega0=1.0, eps_mod=0.0, kappa=2.0,
                        alpha0_tilde=0.01, beta0_tilde=0.001)
        traj = evolve(frozen(p), np.linspace(0.0, 10.0, 101))
        assert float(np.abs(traj.r).max()) < 1e-20
        assert float(traj.mean_photon().max()) < 1e-15

    def test_balanced_drive_matches_closed_form(self, hermitian_params):
        tg = np.linspace(0.0, 10.0, 201)
        traj = evolve(frozen(hermitian_params), tg,
                      rtol=1e-10, atol=1e-13)
        r_ref, _ = analytic_squeeze(10.0, hermitian_params, CHI_FIG)
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
        worst = max(np.abs(traj.u - u_o).max(), np.abs(traj.v - v_o).max())
        assert worst < 1e-7, f"oracle deviation {worst}"

    def test_second_moment_matches_number_basis(self, hermitian_params):
        # <a^2> propagated in a truncated number basis equals u*v.
        tg = np.linspace(0.0, 10.0, 201)
        src = frozen(hermitian_params)
        traj = evolve(src, tg, rtol=1e-11, atol=1e-14)
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


def moderate_cell():
    """An off-resonance cell of the benchmark's kappa sweep: the integrated
    moderate map and its default grid."""
    cfg = ScenarioConfig(alpha0_tilde=0.6, beta0_tilde=0.2, chi=-2.25,
                         z_abs=0.8, dyson_source="integrated", tau_max=25.0,
                         kappa=1.97)
    src = MapSource(cfg.drive_params(), "integrated",
                    constraint0=cfg.constraint0())
    return src, cfg.time_grid()


def worst_rel(n, n_ref, floor=1e-3):
    hi = n_ref > floor
    assert hi.any()
    return float((np.abs(n - n_ref)[hi] / n_ref[hi]).max())


class TestVacuumStart:
    """The chart's start state is a gauge: the vacuum's pair does not see it."""

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
                        constraint0=ConstraintState.from_chi(chi, 0.8, VARPHI0))
        tg = np.linspace(0.0, 0.5, 51)
        traj = evolve(src, tg)
        assert traj.r[0] == 0.0 and traj.mean_photon()[0] == 0.0
        assert traj.phi_sq[0] == phase
        if at != chi * bt:
            # The oracle's v leaves 0 in that direction.
            _, v = bogoliubov_ode_oracle(src, tg)
            assert abs(np.angle(v[1] * np.exp(-1j * phase))) < 1e-2

    @pytest.mark.parametrize("cell", ["fig1", "moderate"])
    def test_photon_number_does_not_depend_on_the_start(self, fig1_params, cell):
        if cell == "fig1":
            src, tg = frozen(fig1_params), ScenarioConfig().time_grid()
        else:
            src, tg = moderate_cell()
        n = [evolve(src, tg, seed_r_eps=seed).mean_photon()
             for seed in (1e-2, 3e-2, 1e-8)]
        assert worst_rel(n[1], n[0]) < 1e-8
        assert worst_rel(n[2], n[0]) < 1e-8

    def test_riding_oracle_matches_the_standalone_one(self):
        src, tg = moderate_cell()
        traj = evolve(src, tg)
        _, v = bogoliubov_ode_oracle(src, tg)
        assert worst_rel(np.abs(traj.oracle[1]) ** 2, np.abs(v) ** 2) < 1e-9

    def test_oracle_rides_only_on_aperiodic_sources(self, fig1_params):
        tg = np.linspace(0.0, 5.0, 101)
        assert evolve(frozen(fig1_params), tg).oracle is None
        assert evolve(moderate_cell()[0], tg).oracle is not None


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
