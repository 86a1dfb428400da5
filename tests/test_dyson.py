import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from pseudo_dce.dyson import (DysonState, bogoliubov_matrix, epsilon_from_phi,
                              gauss_coefficients, phi_from_z, z_abs_from)
from pseudo_dce.errors import (DegenerateDenominator, DivisionByZero,
                               ImaginaryXi, NonPositiveLambda, OutOfDomain)
from pseudo_dce.fock import FockSpace, eta_matrix
from pseudo_dce.hermitize import MapSource


class TestGaussCoefficients:

    def test_identity_map(self):
        g = gauss_coefficients(0.0, 0.0)
        assert g.lam == 0.0
        assert g.Lambda == 1.0

    @pytest.mark.parametrize("eps0", [0.3, 1.0])
    def test_pure_number_map(self, eps0):
        # mu = 0 keeps the ladder sector empty and Lambda = e^{2 eps0}.
        g = gauss_coefficients(eps0, 0.0)
        assert g.lam == 0.0
        assert abs(g.Lambda - math.exp(2.0 * eps0)) / math.exp(2.0 * eps0) < 1e-12
        # Xi = eps0 exactly: Phi vanishes and Lambda is 1/D^2 at Xi = eps0.
        assert (g.Phi, g.varphi) == (0.0, 0.0)
        assert g.Lambda == 1.0 / (math.cosh(eps0) - math.sinh(eps0)) ** 2

    def test_series_branch_is_continuous(self):
        # The small-Xi series and the closed form must agree at the cutoff.
        for eps0 in (9.999e-7, 1.001e-6):
            g = gauss_coefficients(eps0, 0.0)
            want = math.exp(2.0 * eps0)
            assert abs(g.Lambda - want) / want < 1e-13

    def test_elliptic_regime_rejected(self):
        with pytest.raises(ImaginaryXi):
            gauss_coefficients(0.1, 0.5)

    # Xi = 1 exactly makes cosh(1) - eps*sinh(1) vanish; on phi_from_z that
    # is |z| = 1/cosh(1) at eps = coth(1).
    @pytest.mark.parametrize("call", [
        lambda: gauss_coefficients(1.0 / math.tanh(1.0),
                                   math.sqrt(1.0 / math.tanh(1.0) ** 2 - 1.0) / 2.0),
        lambda: phi_from_z(0.6480542736638856, 1.0 / math.tanh(1.0)),
    ], ids=["gauss_coefficients", "phi_from_z"])
    def test_degenerate_denominator(self, call):
        with pytest.raises(DegenerateDenominator):
            call()

    @pytest.mark.parametrize("call", [
        lambda: gauss_coefficients(800.0, 0.0),
        lambda: phi_from_z(0.5, 900.0),
    ], ids=["gauss_coefficients", "phi_from_z"])
    def test_overflow_guard(self, call):
        with pytest.raises(OutOfDomain):
            call()


class TestPhiFromZ:

    def test_z_one_closed_form(self):
        for eps0 in (0.5, 2.0, 10.0):
            phi, _ = phi_from_z(1.0, eps0)
            assert phi == eps0 / (1.0 - eps0)

    def test_strong_map_reference_point(self):
        phi, chi = phi_from_z(1.0, 10001.0)
        assert phi == -1.0001
        assert chi == 1.0002

    def test_phi_approaches_minus_one_from_below(self):
        vals = [phi_from_z(1.0, e)[0] for e in (10.0, 100.0, 1000.0, 10000.0)]
        assert all(v < -1.0 for v in vals)
        assert vals == sorted(vals)

    def test_zero_z_rejected(self):
        with pytest.raises(DivisionByZero):
            phi_from_z(0.0, 0.5)

    def test_z_above_one_rejected(self):
        with pytest.raises(OutOfDomain):
            phi_from_z(1.5, 0.5)


class TestEpsilonFromPhi:

    def test_zero_phi(self):
        assert epsilon_from_phi(0.7, 0.0) == 0.0

    def test_z_one_closed_form(self):
        # At |z| = 1 the inverse reduces to Phi/(1 + Phi).
        assert epsilon_from_phi(1.0, 0.25) == 0.2

    def test_near_unit_z_strong_branch(self):
        got = epsilon_from_phi(1.0 - 1e-9, -1.0001)
        assert abs(got - 10761.348513123477) / got < 1e-9

    @pytest.mark.parametrize("z_abs,phi", [
        (0.999, -1.0001),   # outside the image of positive-strength maps
        (0.5, -0.2),        # inverts to a negative strength
    ])
    def test_out_of_image(self, z_abs, phi):
        with pytest.raises(OutOfDomain):
            epsilon_from_phi(z_abs, phi)

    def test_phi_equals_minus_z(self):
        with pytest.raises(OutOfDomain):
            epsilon_from_phi(0.5, -0.5)

    def test_roundtrip_grid(self):
        worst = 0.0
        for z in np.linspace(0.05, 0.95, 10):
            for eps0 in np.linspace(0.05, 1.0, 10):
                phi, _ = phi_from_z(z, eps0)
                back = epsilon_from_phi(z, phi)
                worst = max(worst, abs(back - eps0) / eps0)
        assert worst < 1e-10, f"roundtrip rel error {worst}"


class TestDysonState:

    @pytest.mark.parametrize("z_abs,phi", [
        (0.0, 0.5), (-0.2, 0.5), (1.5, 0.5), (0.5, 0.0),
    ])
    def test_rejects_bad_state(self, z_abs, phi):
        with pytest.raises(ValueError):
            DysonState.from_z(z_abs=z_abs, Phi=phi, varphi=0.0)

    @pytest.mark.parametrize("chi, z", [(-2.25, 0.8), (1.0002, 1.0),
                                        (1.02, 1.0), (0.5, 1.0)])
    def test_from_chi_matches_the_written_out_formula(self, chi, z):
        # Phi = -|z|*(chi + 1)/2 and Lambda = Phi^2 - chi, to the last bit.
        s = DysonState.from_chi(chi, z, 0.3)
        phi0 = -z * (chi + 1.0) / 2.0
        assert (s.Phi, s.varphi, s.Lambda) == (phi0, 0.3, phi0 * phi0 - chi)
        assert abs(s.chi - chi) < 1e-15
        assert abs(z_abs_from(s.Phi, s.Lambda) - z) < 1e-15

    def test_chi_lambda_identity(self):
        d = DysonState.from_z(z_abs=0.7, Phi=0.45, varphi=1.3)
        assert abs((abs(d.lam) ** 2 - d.Lambda) - d.chi) < 1e-12

    def test_state_reproduces_gauss_coefficients(self):
        # eps_map and mu recovered from (|z|, Phi) must regenerate the same
        # state through the forward decomposition.  |z| = 1 sits on the
        # Xi = 0 boundary where roundoff flips the regime check, so the grid
        # stays inside it; varphi stays in (-pi, pi], where arg mu lands.
        for z in (0.2, 0.5, 0.8, 0.95):
            for eps0 in (0.05, 0.3, 0.9):
                for varphi in (-2.0, 0.7, 3.0):
                    phi, _ = phi_from_z(z, eps0)
                    d = DysonState.from_z(z_abs=z, Phi=phi, varphi=varphi)
                    g = gauss_coefficients(d.eps_map, d.mu())
                    assert abs(g.lam - d.lam) < 1e-12
                    for got, want in zip((g.Phi, g.varphi, g.Lambda),
                                         (d.Phi, d.varphi, d.Lambda)):
                        assert abs(got - want) <= 1e-12 * abs(want)

    def test_flow_states_are_maps(self, moderate_params, moderate_state0):
        # The integrated flow's (Phi, varphi, Lambda), taken as they are,
        # give a unit-determinant mixing matrix and a Gauss map that reads
        # lam and Lambda off the state and agrees with the exponential.
        run = MapSource(moderate_params, "integrated",
                        constraint0=moderate_state0).integrate(
            lambda m, y: (), (), np.linspace(0.0, 25.0, 11), 1e-9, 1e-12)
        f = FockSpace(128)
        blk = slice(0, 41)
        for s in map(DysonState, run.m.Phi.tolist(), run.m.varphi.tolist(),
                     run.m.Lambda.tolist()):
            assert abs(np.linalg.det(bogoliubov_matrix(s)) - 1.0) < 1e-12
            eta = eta_matrix(s.eps_map, s.mu(), f, form="gauss")
            root = s.Lambda ** 0.25  # <0|eta|0>; <2|eta|0> = root*lam/sqrt(2)
            assert abs(eta[0, 0] - root) <= 1e-12 * root
            assert abs(eta[2, 0] - root * s.lam / math.sqrt(2.0)) <= 1e-12 * root
            want = eta_matrix(s.eps_map, s.mu(), f, form="exponential")[blk, blk]
            assert np.linalg.norm(eta[blk, blk] - want) < 1e-8 * np.linalg.norm(want)

    def test_mu_modulus(self):
        d = DysonState.from_z(z_abs=0.6, Phi=0.3, varphi=2.0)
        assert abs(abs(d.mu()) - 0.5 * d.eps_map * 0.6) < 1e-15


class TestBogoliubovMatrix:

    def test_weak_map_is_near_identity(self):
        d = DysonState.from_z(z_abs=0.5, Phi=1e-12, varphi=0.0)
        assert np.abs(bogoliubov_matrix(d) - np.eye(2)).max() < 1e-11

    def test_negative_lambda_rejected(self):
        # Phi = -0.4 at |z| = 0.2 sits inside the Lambda < 0 band.
        d = DysonState.from_z(z_abs=0.2, Phi=-0.4, varphi=0.0)
        with pytest.raises(NonPositiveLambda):
            bogoliubov_matrix(d)

    @given(z_abs=st.floats(0.05, 1.0),
           phi=st.floats(1e-3, 5.0),
           varphi=st.floats(0.0, 2.0 * math.pi))
    @settings(max_examples=200, deadline=None)
    def test_unit_determinant(self, z_abs, phi, varphi):
        # Phi > 0 keeps Lambda = Phi^2 + 2 Phi/|z| + 1 positive for any |z|.
        d = DysonState.from_z(z_abs=z_abs, Phi=phi, varphi=varphi)
        m = bogoliubov_matrix(d)
        assert abs(np.linalg.det(m) - 1.0) < 1e-12
