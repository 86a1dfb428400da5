import math

import numpy as np
import pytest
import scipy.linalg

from pseudo_dce.drive import DriveParams
from pseudo_dce.dynamics import evolve
from pseudo_dce.dyson import DysonState, bogoliubov_matrix
from pseudo_dce.errors import NormTooLarge, SingularEta, ValidationError
from pseudo_dce.fock import (FockSpace, _edge_limit, drive_hamiltonian,
                             eta_matrix, gauss_product_matrix, inverse_map_state,
                             map_observable, matrix_exponential, metric,
                             nonhermitian_expectation, propagate,
                             quasi_hermiticity_residual, squeeze_trust_bound)
from pseudo_dce.hermitize import (MapSource, approx_dyson_trajectory,
                                  hermitized_coefficients)

TRUSTED = slice(0, 25)


def weak_map(f):
    d = DysonState(z_abs=0.3, Phi=0.15, varphi=0.7)
    return d, eta_matrix(d.eps_map, d.mu(), f, form="gauss")


class TestFockSpace:

    def test_ladder_elements(self):
        f = FockSpace(8)
        assert f.a[0, 1] == 1.0
        assert f.a[2, 3] == math.sqrt(3.0)
        assert np.all(f.adag == f.a.conj().T)

    def test_commutator_away_from_lid(self):
        f = FockSpace(32)
        comm = f.a @ f.adag - f.adag @ f.a
        sub = comm[:20, :20]
        assert np.abs(sub - np.eye(20)).max() < 1e-13

    def test_minimum_dimension(self):
        with pytest.raises(ValueError):
            FockSpace(3)

    def test_trust_bound_rule(self):
        r = squeeze_trust_bound(128)
        assert abs(math.sinh(r) ** 2 - 128 / 20.0) < 1e-12


class TestMatrixExponential:

    def test_zero_matrix(self):
        assert np.array_equal(matrix_exponential(np.zeros((4, 4))), np.eye(4))

    def test_diagonal_phase(self):
        m = np.diag(1j * np.array([0.0, 0.5, 1.0, 1.5]))
        e = matrix_exponential(m)
        assert np.abs(np.diag(e) - np.exp(np.diag(m))).max() < 1e-14

    def test_anti_hermitian_gives_unitary(self):
        rng = np.random.default_rng(5)
        h = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        h = h + h.conj().T
        u = matrix_exponential(1j * h)
        assert np.abs(u @ u.conj().T - np.eye(12)).max() < 1e-11

    def test_norm_guard(self):
        with pytest.raises(NormTooLarge):
            matrix_exponential(np.diag(np.full(8, 1e3)))


class TestEtaMatrix:

    @pytest.mark.parametrize("form", ["exponential", "gauss"])
    def test_trivial_map_is_identity(self, form):
        f = FockSpace(32)
        assert np.array_equal(eta_matrix(0.0, 0.0, f, form=form), np.eye(32))

    def test_unknown_form(self):
        with pytest.raises(ValueError):
            eta_matrix(0.1, 0.0, FockSpace(8), form="pade")

    def test_factorized_matches_exponential(self):
        # Weak maps: both routes agree on the trusted block to machine
        # precision; the factorized product is exact there by construction.
        f = FockSpace(64)
        worst = 0.0
        for eps0 in (0.1, 0.2, 0.3):
            for z in (0.1, 0.2, 0.3):
                mu = 0.5 * eps0 * z
                e_g = eta_matrix(eps0, mu, f, form="gauss")
                e_e = eta_matrix(eps0, mu, f, form="exponential")
                num = np.linalg.norm((e_g - e_e)[TRUSTED, TRUSTED])
                den = np.linalg.norm(e_e[TRUSTED, TRUSTED])
                worst = max(worst, num / den)
        assert worst < 1e-12, f"route disagreement {worst}"

    def test_exponential_norm_guard(self):
        with pytest.raises(NormTooLarge):
            eta_matrix(20.0, 0.0, FockSpace(64), form="exponential")

    def test_mode_mixing_under_conjugation(self):
        # eta a eta^-1 must reproduce the 2x2 mixing matrix on the
        # trusted block.
        f = FockSpace(64)
        worst = 0.0
        for z in (0.2, 0.4):
            for phi in (0.0, 1.1):
                d = DysonState(z_abs=z, Phi=0.3, varphi=phi)
                eta = eta_matrix(d.eps_map, d.mu(), f, form="gauss")
                eta_inv = eta_matrix(-d.eps_map, -d.mu(), f, form="gauss")
                m = bogoliubov_matrix(d)
                got = eta @ f.a @ eta_inv
                want = m[0, 0] * f.a + m[0, 1] * f.adag
                num = np.linalg.norm((got - want)[TRUSTED, TRUSTED])
                den = np.linalg.norm(want[TRUSTED, TRUSTED])
                worst = max(worst, float(num / den))
        assert worst < 1e-10, f"conjugation residual {worst}"


class TestMetric:

    def test_trivial_map(self):
        assert np.array_equal(metric(np.eye(6, dtype=complex)), np.eye(6))

    def test_hermitian_and_positive(self):
        f = FockSpace(64)
        _, eta = weak_map(f)
        th = metric(eta)
        assert np.abs(th - th.conj().T).max() < 1e-12
        assert np.linalg.eigvalsh(th[:44, :44]).min() > 0.0

    def test_metric_expectation_routes_agree(self):
        f = FockSpace(64)
        _, eta = weak_map(f)
        rng = np.random.default_rng(11)
        psi = np.zeros(f.dim, dtype=complex)
        psi[:20] = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        psi /= np.linalg.norm(psi)
        n_op = np.diag(f.n_levels).astype(complex)
        lhs = nonhermitian_expectation(eta, psi, map_observable(eta, n_op))
        psi_h = eta @ psi
        rhs = complex(np.vdot(psi_h, n_op @ psi_h))
        assert abs(lhs - rhs) / abs(rhs) < 1e-8

    def test_trivial_map_expectation_is_plain(self):
        f = FockSpace(16)
        psi = f.vacuum()
        psi[1] = 1.0
        psi /= np.linalg.norm(psi)
        n_op = np.diag(f.n_levels).astype(complex)
        val = nonhermitian_expectation(np.eye(16, dtype=complex), psi, n_op)
        assert abs(val - 0.5) < 1e-15


class TestQuasiHermiticity:

    def test_hermitian_with_static_metric(self):
        h = np.diag(np.arange(16) + 0.5).astype(complex)
        eye = np.eye(16, dtype=complex)
        assert quasi_hermiticity_residual(h, eye, eye, eye, 1e-4) == 0.0

    def test_detects_violation(self):
        f = FockSpace(16)
        h = np.diag(np.arange(16) + 0.5).astype(complex) + 0.3j * f.a_sq
        eye = np.eye(16, dtype=complex)
        assert quasi_hermiticity_residual(h, eye, eye, eye, 1e-4) > 1.0


class TestHamiltonians:

    def test_balanced_drive_is_hermitian(self, hermitian_params):
        f = FockSpace(24)
        h = drive_hamiltonian(0.7, hermitian_params, f)
        assert np.abs(h - h.conj().T).max() < 1e-15

    def test_unbalanced_drive_is_not(self, fig1_params):
        f = FockSpace(24)
        h = drive_hamiltonian(0.7, fig1_params, f)
        assert np.abs(h - h.conj().T).max() > 1e-6


class TestPropagate:

    def test_pure_rotation_phase(self):
        f = FockSpace(64)
        res = propagate(lambda t: (1.3, 0j, 0j), f.vacuum(),
                        np.linspace(0.0, 2.0, 21), f, rtol=1e-11, atol=1e-14)
        got = res.amplitudes[-1][0]
        want = np.exp(-1j * 1.3 * 0.5 * 2.0)
        assert abs(got - want) < 1e-12
        assert res.norm_drift < 1e-12
        assert res.trusted

    def test_vacuum_stays_dark_without_pump(self):
        f = FockSpace(32)
        res = propagate(lambda t: (1.0, 0j, 0j), f.vacuum(),
                        np.linspace(0.0, 5.0, 26), f)
        assert res.mean_photon(f)[-1] < 1e-20
        assert res.max_edge_population == 0.0

    def test_norm_preserved_by_hermitian_generator(self):
        f = FockSpace(64)
        res = propagate(lambda t: (1.0, 0.05 + 0.02j, 0.05 - 0.02j),
                        f.vacuum(), np.linspace(0.0, 10.0, 101), f,
                        rtol=1e-10, atol=1e-13)
        assert res.norm_drift < 1e-9

    def test_lid_contact_flags_untrusted(self):
        f = FockSpace(16)
        res = propagate(lambda t: (0.0, 0.5, 0.5), f.vacuum(),
                        np.linspace(0.0, 6.0, 61), f)
        assert not res.trusted
        assert res.max_edge_population > 1e-3

    def test_shape_validation(self):
        f = FockSpace(16)
        with pytest.raises(ValueError):
            propagate(lambda t: (1.0, 0j, 0j), np.zeros(8, dtype=complex),
                      np.linspace(0.0, 1.0, 5), f)

    def test_zero_state_rejected(self):
        f = FockSpace(8)
        with pytest.raises(ValidationError, match="zero vector"):
            propagate(lambda t: (1.0, 0j, 0j), np.zeros(8, dtype=complex),
                      np.linspace(0.0, 1.0, 5), f)


class TestTrustRule:
    """propagate's flag is squeeze_trust_bound read through the closed-form
    squeezed-vacuum populations."""

    FIG1 = DriveParams(omega0=1.0, eps_mod=0.01, kappa=2.0,
                       alpha0_tilde=0.01, beta0_tilde=0.001)
    CHI = 1.0002
    VARPHI0 = 0.5 * math.pi

    def fig1_vacuum(self, dim, r_end):
        """The fig1 vacuum up to the first 0.005 grid time with r >= r_end."""
        fine = np.linspace(0.0, 8.0, 1601)
        r = evolve(MapSource(self.FIG1, chi=self.CHI, varphi0=self.VARPHI0),
                   fine, rtol=1e-10, atol=1e-13).r
        t_end = float(fine[np.argmax(r >= r_end)])

        def coeffs(t):
            c = hermitized_coefficients(
                approx_dyson_trajectory(t, self.FIG1, self.VARPHI0, self.CHI),
                self.FIG1, t)
            return c.W, c.T(), c.T().conjugate()

        f = FockSpace(dim)
        return propagate(coeffs, f.vacuum(), np.linspace(0.0, t_end, 81), f)

    def test_trusted_up_to_the_bound(self):
        res = self.fig1_vacuum(64, squeeze_trust_bound(64))
        assert res.trusted, res.max_edge_population

    def test_flagged_past_the_bound(self):
        res = self.fig1_vacuum(64, squeeze_trust_bound(64) + 0.1)
        assert not res.trusted, res.max_edge_population

    @pytest.mark.parametrize("dim", [4, 10])
    def test_small_dims_never_trusted(self, dim):
        # Every level is an edge level, so even the vacuum fills the edge.
        assert _edge_limit(dim) == 1.0
        f = FockSpace(dim)
        res = propagate(lambda t: (1.0, 0j, 0j), f.vacuum(),
                        np.linspace(0.0, 1.0, 5), f)
        assert not res.trusted

    @pytest.mark.parametrize("dim", [16, 128, 264])
    def test_limit_matches_closed_form(self, dim):
        # p_2k = tanh(r)^(2k) (2k)!/(4^k (k!)^2) / cosh(r), summed over the
        # even levels below the top ten.
        r = squeeze_trust_bound(dim)
        below = sum(math.exp(2 * k * math.log(math.tanh(r))
                             + math.lgamma(2 * k + 1) - k * math.log(4.0)
                             - 2.0 * math.lgamma(k + 1) - math.log(math.cosh(r)))
                    for k in range(dim) if 2 * k < dim - 10)
        assert abs(_edge_limit(dim) - (1.0 - below)) < 1e-12


class TestPropagateAgainstExpm:
    """Constant generators at small dim against expm(-i*t*H) @ psi0."""

    DIM = 24
    GRID = np.linspace(0.0, 3.0, 7)

    def exact(self, c, psi0, f):
        c_n, c2, c2d = c
        h = (c_n * np.diag(f.n_levels + 0.5) + c2 * f.a_sq
             + c2d * f.adag_sq)
        return np.array([scipy.linalg.expm(-1j * t * h) @ psi0
                         for t in self.GRID])

    @pytest.mark.parametrize("case", ["mixed_parity", "odd_parity",
                                      "non_hermitian"])
    def test_matches_expm(self, case):
        f = FockSpace(self.DIM)
        basis = np.eye(self.DIM, dtype=complex)
        if case == "mixed_parity":
            psi0 = (basis[0] + basis[1]) / math.sqrt(2.0)
            c = (1.0, 0.05 + 0.02j, 0.05 - 0.02j)
        elif case == "odd_parity":
            psi0 = basis[3]
            c = (1.0, 0.05 + 0.02j, 0.05 - 0.02j)
        else:
            psi0 = (basis[0] + 0.5j * basis[2]) / math.sqrt(1.25)
            c = (0.9, 0.04 + 0.01j, 0.01 - 0.03j)
        res = propagate(lambda t: c, psi0, self.GRID, f,
                        rtol=1e-11, atol=1e-14)
        want = self.exact(c, psi0, f)
        assert np.abs(res.amplitudes - want).max() < 1e-8

    def test_single_sector_leaves_other_exactly_zero(self):
        f = FockSpace(self.DIM)
        c = (1.0, 0.05 + 0.02j, 0.05 - 0.02j)
        res = propagate(lambda t: c, f.vacuum(), self.GRID, f)
        assert np.all(res.amplitudes[:, 1::2] == 0.0)
        assert np.any(res.amplitudes[-1, 2::2] != 0.0)
        odd = np.eye(self.DIM, dtype=complex)[3]
        res = propagate(lambda t: c, odd, self.GRID, f)
        assert np.all(res.amplitudes[:, 0::2] == 0.0)


class TestInverseMap:

    def test_roundtrip_weak_map(self):
        f = FockSpace(64)
        _, eta = weak_map(f)
        psi = f.vacuum()
        back = eta @ inverse_map_state(eta, psi)
        assert np.abs(back - psi).max() < 1e-10

    def test_singular_map_rejected(self):
        f = FockSpace(64)
        d = DysonState(z_abs=0.9, Phi=5.0, varphi=0.0)
        eta = eta_matrix(d.eps_map, d.mu(), f, form="gauss")
        with pytest.raises(SingularEta):
            inverse_map_state(eta, f.vacuum())


class TestGaussProduct:

    def test_diagonal_factor_only(self):
        f = FockSpace(16)
        m = gauss_product_matrix(0j, 4.0, f)
        want = np.diag(2.0 ** (np.arange(16) + 0.5))
        assert np.abs(m - want).max() < 1e-10

    def test_nonpositive_lambda_rejected(self):
        with pytest.raises(ValueError):
            gauss_product_matrix(0.1 + 0j, 0.0, FockSpace(8))
