"""Symbolic proofs of the hermitization flow's identities.

coefficients_general, at lam = Phi*exp(-i*varphi) with the map rates
(Phi', varphi', Lambda') as unknowns, gives the raw mapped (W, T, V).  The
hermiticity conditions Im W = 0 and V = conj(T) are then three real
equations, linear in the rates, whose determinant
-Phi*(1 - chi)^2/(8*Lambda^3) vanishes only where the flow's Phi = 0 and
chi = 1 guards refuse to go.  So the rates that hermitize the map are
unique, and sympy solves for them.  Each test shows that simplify of the
difference from a formula the package writes out by hand is 0:

- the flow of the modulated drive, _flow_rates;
- the flow for arbitrary complex omega, alpha and beta, constraint_rhs_general;
- W and T on the flow, _counterpart;
- the |z| rate the flow once carried: it is the time derivative of
  |z| = -2*Phi/(chi + 1) at every state, so |z| needs no rate of its own.
"""

import types

import pytest
import sympy as sp

from pseudo_dce import hermitize
from pseudo_dce.dyson import DysonState
from pseudo_dce.hermitize import (_counterpart, _flow_rates, coefficients_general,
                                  constraint_rhs_general)

Phi, varphi, Lam, w, at, bt, zeta = sp.symbols(
    "Phi varphi Lambda omega alpha0_tilde beta0_tilde zeta", real=True)
w_r, w_i, a_r, a_i, b_r, b_i = sp.symbols("w_r w_i a_r a_i b_r b_i", real=True)
# Arbitrary complex omega, alpha and beta.
GENERAL = (w_r + sp.I * w_i, a_r + sp.I * a_i, b_r + sp.I * b_i)
RATES = sp.symbols("dPhi dvarphi dLambda", real=True)
chi = Phi**2 - Lam
# The modulated drive: the two tilde amplitudes are all of DriveParams
# that _flow_rates and _counterpart read.
DRIVE = types.SimpleNamespace(alpha0_tilde=at, beta0_tilde=bt)
U = sp.Symbol("u")  # exp(i*varphi)


def exact(e):
    """e with its float constants, all binary fractions here, as rationals."""
    e = sp.sympify(e)
    return e.xreplace({f: sp.Rational(f) for f in e.atoms(sp.Float)})


def rational(e):
    """e as a rational function of the unit u = exp(i*varphi), in which a
    trigonometric identity is a polynomial one."""
    e = exact(e).rewrite(sp.exp).subs(varphi, -sp.I * sp.log(U))
    return e.replace(sp.exp, lambda arg: sp.exp(sp.expand(arg)))


def assert_zero(e):
    assert sp.simplify(rational(e)) == 0


def complex_parts(mp):
    """Give sympy expressions the .real and .imag that the package's complex
    arithmetic reads, as re() and im()."""
    mp.setattr(sp.Expr, "real", property(sp.re), raising=False)
    mp.setattr(sp.Expr, "imag", property(sp.im), raising=False)


def hermitizing_rates(omega, alpha, beta):
    """The unique (Phi', varphi', Lambda') with Im W = 0 and V = conj(T),
    and coefficients_general's W and T at those rates, in rational form."""
    dPhi, dvarphi, dLambda = RATES
    rot = sp.exp(-sp.I * varphi)
    with pytest.MonkeyPatch.context() as mp:
        # coefficients_general takes |lam|^2 as (lam*conj(lam)).real.
        complex_parts(mp)
        W, T, V = coefficients_general(Phi * rot, Lam, omega, alpha, beta,
                                       (dPhi - sp.I * Phi * dvarphi) * rot, dLambda)
    D = V - sp.conjugate(T)
    # Im W, Re D and Im D.
    conditions = [(W - sp.conjugate(W)) / (2 * sp.I), (D + sp.conjugate(D)) / 2,
                  (D - sp.conjugate(D)) / (2 * sp.I)]
    A, rhs = sp.linear_eq_to_matrix([rational(c) for c in conditions], RATES)
    assert_zero(A.det() + Phi * (1 - chi)**2 / (8 * Lam**3))
    rates = [sp.cancel(r) for r in A.LUsolve(rhs)]
    on_flow = dict(zip(RATES, rates))
    return rates, rational(W).subs(on_flow), rational(T).subs(on_flow)


@pytest.fixture(scope="module")
def modulated():
    """The flow for the modulated drive: alpha = -i*at*zeta, beta = i*bt*zeta."""
    return hermitizing_rates(w, -sp.I * at * zeta, sp.I * bt * zeta)


def modulated_code_rates():
    return _flow_rates(DRIVE, w, zeta, Phi, Lam, sp.cos(varphi), sp.sin(varphi))


def general_code_rates(monkeypatch):
    """constraint_rhs_general on symbols: sympy's exp stands in for cmath's,
    re and im for .real and .imag, and the numeric guards are off."""
    monkeypatch.setattr(hermitize, "cmath", types.SimpleNamespace(exp=sp.exp))
    complex_parts(monkeypatch)
    monkeypatch.setattr(hermitize, "_check_guards", lambda *args: None)
    return constraint_rhs_general(
        DysonState(Phi=Phi, varphi=varphi, Lambda=Lam), *GENERAL)


def test_flow_rates_hermitize_the_modulated_drive(modulated):
    rates, _, _ = modulated
    for derived, written in zip(rates, modulated_code_rates()):
        assert_zero(derived - written)


def test_general_flow_hermitizes_complex_inputs(monkeypatch):
    rates, _, _ = hermitizing_rates(*GENERAL)
    written = general_code_rates(monkeypatch)
    assert len(written) == 3
    for derived, written_rate in zip(rates, written):
        assert_zero(derived - written_rate)


def test_counterpart_is_w_and_t_on_the_flow(modulated):
    _, W, T = modulated
    _, W_code, T_code = _counterpart(DRIVE, w, zeta, Phi, Lam, sp.sin(varphi))
    assert_zero(W - W_code)
    assert_zero(T - T_code)


@pytest.mark.parametrize("inputs", ["modulated", "general"])
def test_z_rate_is_the_derivative_of_the_reconstruction(inputs, monkeypatch):
    # The |z| rates the two flows carried beside their other three rates.
    z = -2 * Phi / (chi + 1)
    if inputs == "modulated":
        dPhi, _, dLambda = modulated_code_rates()
        z_rate = 2 * zeta * z**2 * (at - bt * chi) * sp.cos(varphi)
    else:
        dPhi, _, dLambda = general_code_rates(monkeypatch)
        omega, alpha, beta = GENERAL
        A, B = alpha * sp.exp(-sp.I * varphi), beta * sp.exp(sp.I * varphi)
        z_rate = -z**2 * ((Phi**2 + chi) / Phi * sp.im(omega)
                          + 2 * (sp.im(A) + chi * sp.im(B)))
    z_rate += (z / Phi) * dPhi
    assert_zero(sp.diff(z, Phi) * dPhi + sp.diff(z, Lam) * dLambda - z_rate)
