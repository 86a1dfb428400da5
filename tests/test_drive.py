import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from pseudo_dce.drive import (DriveParams, ZetaMode, alpha_beta, heaviside,
                              omega, omega_and_zeta, omega_dot, sgn, zeta,
                              zeta_signed)


def make_params(**overrides) -> DriveParams:
    base = dict(omega0=1.0, eps_mod=0.01, kappa=2.0,
                alpha0_tilde=0.01, beta0_tilde=0.001)
    base.update(overrides)
    return DriveParams(**base)


@pytest.mark.parametrize("t,expected", [
    (0.0, 1.01),
    (math.pi / 2.0, 0.99),
])
def test_omega_values(t, expected):
    p = make_params()
    assert math.isclose(omega(t, p), expected, rel_tol=1e-14)


def test_omega_unmodulated():
    p = make_params(eps_mod=0.0)
    for t in np.linspace(-7.0, 7.0, 23):
        assert omega(float(t), p) == p.omega0


def test_omega_dot_is_analytic_derivative():
    p = make_params()
    h = 1e-6
    for t in np.linspace(0.1, 3.0, 17):
        fd = (omega(t + h, p) - omega(t - h, p)) / (2.0 * h)
        assert math.isclose(omega_dot(t, p), fd, rel_tol=0.0, abs_tol=1e-7)


@pytest.mark.parametrize("mode", list(ZetaMode))
def test_omega_and_zeta_repeat_the_separate_formulas(mode):
    """One cos and one sin of kappa*t give omega and zeta bit for bit."""
    p = make_params(zeta_mode=mode, kappa=1.9123)
    tg = np.linspace(0.0, 25.0, 1001)
    zeta_ref = (omega_dot(tg, p) / (4.0 * omega(tg, p))
                if mode is ZetaMode.EXACT
                else -0.5 * p.eps_mod * p.kappa * np.sin(p.kappa * tg))
    w, zs = omega_and_zeta(tg, p)
    assert w.tobytes() == omega(tg, p).tobytes()
    assert zs.tobytes() == zeta_ref.tobytes()
    for i in range(0, tg.size, 97):
        assert omega_and_zeta(float(tg[i]), p) == (w[i], zs[i])


@pytest.mark.parametrize("x,h_val,s_val", [
    (0.0, 0.0, 1.0),
    (-3.0, 1.0, -1.0),
    (2.0, 0.0, 1.0),
])
def test_heaviside_sgn_conventions(x, h_val, s_val):
    assert heaviside(x) == h_val
    assert sgn(x) == s_val


def test_zeta_zero_at_origin():
    p = make_params()
    assert zeta(0.0, p).modulus == 0.0
    assert zeta_signed(0.0, p) == 0.0


def test_zeta_approximate_quarter_period():
    """At kappa*t = pi/2 the approximate strength is eps*kappa/2 with the
    negative sign carried as phase pi."""
    p = make_params(zeta_mode=ZetaMode.APPROXIMATE)
    t = math.pi / 4.0  # kappa = 2
    z = zeta(t, p)
    assert math.isclose(z.modulus, 0.01, rel_tol=1e-14)
    assert z.phase == math.pi


def test_zeta_exact_vs_approximate_quarter_period():
    p_exact = make_params(eps_mod=1e-3)
    p_approx = make_params(eps_mod=1e-3, zeta_mode=ZetaMode.APPROXIMATE)
    t = math.pi / 4.0
    m_exact = zeta(t, p_exact).modulus
    m_approx = zeta(t, p_approx).modulus
    # The stated small-angle strength is twice the exact omega_dot/(4 omega);
    # compare against that convention, which still agrees to O(eps_mod).
    assert abs(2.0 * m_exact - m_approx) / m_approx < 2e-3


def test_zeta_modes_agree_over_period():
    p_exact = make_params()
    p_approx = make_params(zeta_mode=ZetaMode.APPROXIMATE)
    worst = 0.0
    for t in np.linspace(0.0, p_exact.period(), 257):
        m_exact = 2.0 * zeta(float(t), p_exact).modulus
        m_approx = zeta(float(t), p_approx).modulus
        if m_approx > 1e-12:
            worst = max(worst, abs(m_exact - m_approx) / m_approx)
    assert worst <= 2.0 * p_exact.eps_mod, f"mode disagreement {worst}"


@pytest.mark.parametrize("t,phi_a,phi_b", [
    (math.pi / 4.0, math.pi / 2.0, -math.pi / 2.0),       # sin(kt) > 0
    (3.0 * math.pi / 4.0, 3.0 * math.pi / 2.0, math.pi / 2.0),  # sin < 0
])
def test_alpha_beta_phases(t, phi_a, phi_b):
    a, b = alpha_beta(t, make_params())
    assert a.phase == pytest.approx(phi_a, abs=1e-14)
    assert b.phase == pytest.approx(phi_b, abs=1e-14)


def test_hermitian_balance():
    p = make_params(alpha0_tilde=1.0, beta0_tilde=1.0)
    for t in np.linspace(0.05, p.period(), 41):
        a, b = alpha_beta(float(t), p)
        z = zeta(float(t), p)
        assert math.isclose(a.modulus, z.modulus, rel_tol=1e-14)
        assert math.isclose(b.modulus, z.modulus, rel_tol=1e-14)


def test_cartesian_consistency():
    """Polar alpha, beta never drift from -i*a0*zeta and +i*b0*zeta."""
    p = make_params()
    for t in np.linspace(0.0, 2.0 * p.period(), 101):
        zs = zeta_signed(float(t), p)
        a, b = alpha_beta(float(t), p)
        assert abs(a.to_complex() - (-1j) * p.alpha0_tilde * zs) < 1e-12
        assert abs(b.to_complex() - 1j * p.beta0_tilde * zs) < 1e-12


def test_pt_symmetry():
    p = make_params()
    for t in np.linspace(0.0, p.period(), 53):
        assert abs(omega(float(t), p) - omega(float(-t), p)) < 1e-12
        a_p, b_p = alpha_beta(float(t), p)
        a_m, b_m = alpha_beta(float(-t), p)
        assert abs(a_p.to_complex() - a_m.to_complex().conjugate()) < 1e-12
        assert abs(b_p.to_complex() - b_m.to_complex().conjugate()) < 1e-12


@given(t=st.floats(min_value=-50.0, max_value=50.0,
                   allow_nan=False, allow_infinity=False))
@settings(max_examples=200, deadline=None)
def test_polar_reconstruction_property(t):
    p = make_params()
    for pol, cart in [(zeta(t, p), zeta_signed(t, p))]:
        assert abs(pol.to_complex() - cart) <= 1e-12 * max(1.0, abs(cart))


@given(x=st.floats(allow_nan=False, allow_infinity=False))
@settings(max_examples=200, deadline=None)
def test_heaviside_sgn_partition(x):
    assert heaviside(x) in (0.0, 1.0)
    assert sgn(x) in (-1.0, 1.0)
    assert sgn(x) == 1.0 - 2.0 * heaviside(x)


@pytest.mark.parametrize("bad", [
    dict(omega0=0.0), dict(omega0=-1.0), dict(kappa=0.0),
    dict(eps_mod=1.0), dict(eps_mod=-0.1),
    dict(alpha0_tilde=1.5), dict(beta0_tilde=-0.2),
])
def test_invalid_params_rejected(bad):
    with pytest.raises(ValueError):
        make_params(**bad)
