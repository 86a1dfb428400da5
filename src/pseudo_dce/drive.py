"""Modulated-frequency drive: omega(t), zeta(t), and the couplings alpha, beta.

The drive is a cosine modulation omega(t) = omega0*(1 + eps_mod*cos(kappa*t)).
The parametric strength zeta and the non-Hermitian couplings
alpha = -i*alpha0_tilde*zeta, beta = +i*beta0_tilde*zeta derive from it.
Complex quantities are carried in polar form; phase branches are
bookkept with the step function h(x) = 0 for x >= 0, 1 for x < 0
(an indicator of negativity, not the usual unit step) so that e.g.
zeta = |zeta|*exp(i*[h[sin(kappa t)]*pi + pi]).

Phases are stored in radians and never reduced modulo 2*pi here;
reduction happens only at comparison time.  omega, omega_dot, zeta_signed
and omega_and_zeta take a scalar t or a whole grid; sin and cos below let
one expression serve both.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np


class ZetaMode(enum.Enum):
    """Which form of the parametric strength zeta to use.

    EXACT is omega_dot/(4*omega).  APPROXIMATE is the stated leading-order
    form with modulus (eps_mod*kappa/2)*|sin(kappa t)|, which is twice the
    small-eps_mod limit of EXACT; the two are not interchangeable in
    quantitative runs.  All presets use EXACT.
    """

    EXACT = "exact"
    APPROXIMATE = "approximate"


@dataclass(frozen=True)
class PolarComplex:
    """A complex number as (modulus, phase), modulus >= 0."""

    modulus: float
    phase: float

    def to_complex(self) -> complex:
        return self.modulus * complex(math.cos(self.phase), math.sin(self.phase))


def _math_or_numpy(f, g):
    """f from math on a float, g from numpy on an array.

    numpy costs about a microsecond per call on a scalar, which a
    right-hand side pays thousands of times.  The two routes must agree
    bit for bit; tests/test_hermitize.py compares them on whole grids.
    """
    return lambda x: f(x) if isinstance(x, float) else g(x)


sin = _math_or_numpy(math.sin, np.sin)
cos = _math_or_numpy(math.cos, np.cos)


def heaviside(x: float) -> float:
    """h(x) = (1 - sgn(x))/2: 0 for x >= 0, 1 for x < 0.

    Note this is an indicator of negativity; sgn(0) = +1 so h(0) = 0.
    """
    return 0.0 if x >= 0.0 else 1.0


def sgn(x: float) -> float:
    """Sign with sgn(0) = +1."""
    return 1.0 if x >= 0.0 else -1.0


@dataclass(frozen=True)
class DriveParams:
    """Static drive parameters.

    omega0        base frequency (> 0)
    eps_mod       modulation depth (0 <= eps_mod < 1)
    kappa         modulation frequency (> 0); resonance is kappa = 2*omega0
    alpha0_tilde  dimensionless weight of the a^2 coupling, in [0, 1]
    beta0_tilde   dimensionless weight of the a^dag^2 coupling, in [0, 1]
    zeta_mode     EXACT or APPROXIMATE, see ZetaMode

    The Hamiltonian is Hermitian iff alpha0_tilde == beta0_tilde.
    """

    omega0: float
    eps_mod: float
    kappa: float
    alpha0_tilde: float = 1.0
    beta0_tilde: float = 1.0
    zeta_mode: ZetaMode = ZetaMode.EXACT

    def __post_init__(self):
        if not (self.omega0 > 0.0):
            raise ValueError(f"omega0 must be > 0, got {self.omega0}")
        if not (0.0 <= self.eps_mod < 1.0):
            raise ValueError(f"eps_mod must be in [0, 1), got {self.eps_mod}")
        if not (self.kappa > 0.0):
            raise ValueError(f"kappa must be > 0, got {self.kappa}")
        if not (0.0 <= self.alpha0_tilde <= 1.0):
            raise ValueError(f"alpha0_tilde must be in [0, 1], got {self.alpha0_tilde}")
        if not (0.0 <= self.beta0_tilde <= 1.0):
            raise ValueError(f"beta0_tilde must be in [0, 1], got {self.beta0_tilde}")
        if not isinstance(self.zeta_mode, ZetaMode):
            raise ValueError(f"zeta_mode must be a ZetaMode, got {self.zeta_mode!r}")

    def period(self) -> float:
        return 2.0 * math.pi / self.kappa

    def on_resonance(self) -> bool:
        """kappa = 2*omega0 to 1e-12: the closed forms hold, and the
        frozen-chi map's W and T repeat every period."""
        return abs(self.kappa - 2.0 * self.omega0) <= 1e-12


def omega(t: float, p: DriveParams) -> float:
    """omega(t) = omega0*(1 + eps_mod*cos(kappa t)).  Always > 0."""
    return p.omega0 * (1.0 + p.eps_mod * cos(p.kappa * t))


def omega_dot(t: float, p: DriveParams) -> float:
    """Analytic derivative of omega; never finite-differenced."""
    return -p.omega0 * p.eps_mod * p.kappa * sin(p.kappa * t)


def zeta_signed(t: float, p: DriveParams) -> float:
    """zeta as a signed real number.

    EXACT: omega_dot/(4*omega).  APPROXIMATE: -(eps_mod*kappa/2)*sin(kappa t),
    which carries the same sign structure but twice the exact magnitude at
    leading order in eps_mod.
    """
    return omega_and_zeta(t, p)[1]


def omega_and_zeta(t: float, p: DriveParams) -> tuple[float, float]:
    """(omega(t), zeta_signed(t)) from one cos and one sin of kappa*t."""
    kt = p.kappa * t
    w = p.omega0 * (1.0 + p.eps_mod * cos(kt))
    if p.zeta_mode is ZetaMode.EXACT:
        return w, -p.omega0 * p.eps_mod * p.kappa * sin(kt) / (4.0 * w)
    return w, -0.5 * p.eps_mod * p.kappa * sin(kt)


def zeta(t: float, p: DriveParams) -> PolarComplex:
    """Parametric strength in polar form: modulus |zeta|, phase h[sin kappa t]*pi + pi.

    The phase convention makes the reconstruction equal the signed value:
    exp(i*(h*pi + pi)) = -sgn(sin kappa t).  Nodes of sin(kappa t) carry
    phase pi (h(0) = 0); the modulus vanishes there so the choice only
    affects bookkeeping, kept fixed for reproducible output.
    """
    s = math.sin(p.kappa * t)
    return PolarComplex(abs(zeta_signed(t, p)), heaviside(s) * math.pi + math.pi)


def alpha_beta(t: float, p: DriveParams) -> tuple[PolarComplex, PolarComplex]:
    """Couplings alpha = -i*alpha0_tilde*zeta and beta = +i*beta0_tilde*zeta.

    Polar forms: |alpha| = alpha0_tilde*|zeta| with phase h[sin kappa t]*pi + pi/2,
    |beta| = beta0_tilde*|zeta| with phase h[sin kappa t]*pi - pi/2.
    """
    z = zeta(t, p)
    h = heaviside(math.sin(p.kappa * t))
    alpha = PolarComplex(p.alpha0_tilde * z.modulus, h * math.pi + 0.5 * math.pi)
    beta = PolarComplex(p.beta0_tilde * z.modulus, h * math.pi - 0.5 * math.pi)
    return alpha, beta
