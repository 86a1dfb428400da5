"""Checks of the benchmark's reference on its own, without pseudo_dce.

    python3 -m pytest perfbench/test_reference.py
"""

import math

import numpy as np

import reference as ref

FIG1 = ref.Drive(1.0, 0.01, 2.0, 0.01, 0.001)
MODERATE = ref.Drive(1.0, 0.01, 2.0, 0.6, 0.2)
CHI_FIG = 1.0002


def fig1_grid() -> np.ndarray:
    return np.linspace(0.0, 50.0, 3185)


def test_invariant_at_the_float_floor():
    for r in (ref.photon_reference(FIG1, fig1_grid(), source="approximate", chi=CHI_FIG),
              ref.photon_reference(MODERATE, fig1_grid(), source="integrated",
                                   chi=-2.25, z_abs=0.8)):
        assert r.invariant_ulps() <= ref.INVARIANT_ULPS


def test_r_matches_closed_form_on_the_secular_window():
    t = fig1_grid()
    win = (t >= 10.0) & (t <= 50.0)
    for d, chi in ((FIG1, CHI_FIG), (ref.Drive(1.0, 0.01, 2.0, 0.01, 1e-4), CHI_FIG),
                   (ref.Drive(1.0, 0.01, 2.0, 1.0, 1.0), CHI_FIG)):
        r = ref.photon_reference(d, t, source="approximate", chi=chi).r[win]
        rc = ref.closed_form_r(d, chi, t[win])
        assert np.max(np.abs(r - rc) / rc) <= ref.CLOSED_FORM_BOUND


def test_complex_pump_equals_the_heaviside_polar_form():
    # T = -i*zeta*(at - chi*bt)/(1 - chi) against |T|*exp(i*phi_T) with
    # phi_T = h[sin kt]*pi + h(1 - chi)*pi + h(at - chi*bt)*pi + pi/2.
    h = lambda x: 0.0 if x >= 0.0 else 1.0  # noqa: E731
    rng = np.random.default_rng(3)
    for _ in range(500):
        t, chi = rng.uniform(0.0, 50.0), rng.uniform(-3.0, 3.0)
        at, bt = rng.uniform(0.0, 1.0, 2)
        w = 1.0 + 0.01 * math.cos(2.0 * t)
        zeta = -0.01 * 2.0 * math.sin(2.0 * t) / (4.0 * w)
        z = -1j * zeta * (at - chi * bt) / (1.0 - chi)
        mag = abs(zeta * (at - bt * chi) / (1.0 - chi))
        phase = (h(math.sin(2.0 * t)) + h(1.0 - chi) + h(at - chi * bt)) * math.pi + 0.5 * math.pi
        assert abs(z - mag * complex(math.cos(phase), math.sin(phase))) <= 1e-15 * max(mag, 1e-300)


def test_map_strength_inverts_the_gauss_radial_coordinate():
    # Phi = eps*z*sinh(X)/(X*cosh(X) - eps*sinh(X)), X = eps*sqrt(1 - z^2).
    for eps, z in ((0.1, 0.3), (0.39, 0.8), (0.5, 0.95)):
        x = eps * math.sqrt(1.0 - z * z)
        phi = eps * z * math.sinh(x) / (x * math.cosh(x) - eps * math.sinh(x))
        assert math.isclose(float(ref.map_strength(np.array(z), np.array(phi))), eps,
                            rel_tol=1e-13)


def test_squeezed_vacuum_populations():
    r = np.array([0.0, 0.5, 1.2])
    p = ref.squeezed_vacuum_populations(r, 400)
    n = 2.0 * np.arange(p.shape[1])
    assert np.allclose(p.sum(axis=1), 1.0, rtol=0.0, atol=1e-13)
    assert np.allclose(p @ n, np.sinh(r) ** 2, rtol=1e-12, atol=1e-15)
