"""The Dyson map, its one record DysonState, and its Gauss decomposition.

The map is eta = exp[eps_map*(n + 1/2) + mu*a^2 + conj(mu)*a^dag^2], a
positive operator for eps_map > 2*|mu| >= 0.  Its Gauss (normal-ordered)
decomposition is

    eta = exp(lam*K+) * Lambda^{ K0 } * exp(conj(lam)*K-)

with K0 = (n + 1/2)/2, K+ = a^dag^2/2, K- = a^2/2, and

    lam    = 2*conj(mu)*sinh(Xi)/D
    Lambda = Xi^2/D^2
    Xi     = sqrt(eps_map^2 - 4*|mu|^2)
    D      = Xi*cosh(Xi) - eps_map*sinh(Xi).

Writing lam = Phi*exp(-i*varphi), with varphi = arg mu and a signed radial
coordinate Phi, DysonState holds the map as (Phi, varphi, Lambda): the
chart the hermitization flow integrates.  The mixing ratio is
chi = Phi^2 - Lambda, and z = 2*mu/eps_map has modulus
|z| = -2*Phi/(chi + 1) (z_abs_from).  The pair (|z|, Phi) and the map
strength eps_map are interconvertible; the inverse is

    eps_map = (1/(2*s)) * ln[ ((1+s)*Phi + z) / ((1-s)*Phi + z) ],
    s = sqrt(1 - z^2),  z = |z|,

evaluated here in the equivalent form (Phi/(z+Phi)) * artanh(x)/x with
x = Phi*s/(z+Phi), which is finite through s -> 0 and Phi -> 0.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    ChiSingular,
    DegenerateDenominator,
    DivisionByZero,
    ImaginaryXi,
    NonPositiveLambda,
    OutOfDomain,
)

# Below this xi the direct ratio sinh(Xi)/D loses digits to cancellation;
# the Taylor expansions in Xi^2 are exact to double precision there.
_XI_SERIES_CUTOFF = 1e-6

# Threshold on the normalized denominator under which the decomposition
# is treated as singular (eps_map at the cosh/sinh crossing).
_DEGENERATE_TOL = 1e-14


def _d_over_xi(eps_map: float, xi: float) -> float:
    """D/Xi = cosh(Xi) - eps_map*sinh(Xi)/Xi, series-evaluated for tiny Xi;
    raises OutOfDomain where cosh overflows, DegenerateDenominator at D = 0."""
    if xi > 700.0:
        raise OutOfDomain(f"xi = {xi:.3e} overflows cosh in double precision")
    if xi < _XI_SERIES_CUTOFF:
        x2 = xi * xi
        d_norm = (1.0 - eps_map) + x2 * (0.5 - eps_map / 6.0) + x2 * x2 * (
            1.0 / 24.0 - eps_map / 120.0
        )
    else:
        d_norm = math.cosh(xi) - eps_map * math.sinh(xi) / xi
    if abs(d_norm) < _DEGENERATE_TOL * max(1.0, math.cosh(xi)):
        raise DegenerateDenominator(
            "Xi*cosh(Xi) - eps_map*sinh(Xi) vanishes at "
            f"eps_map={eps_map!r}, Xi={xi!r}"
        )
    return d_norm


def _sinh_over_xi(xi: float) -> float:
    if xi < _XI_SERIES_CUTOFF:
        x2 = xi * xi
        return 1.0 + x2 / 6.0 + x2 * x2 / 120.0
    return math.sinh(xi) / xi


def gauss_coefficients(eps_map: float, mu: complex) -> DysonState:
    """The map's Gauss decomposition as its record: Phi = 2*|mu|*sinh(Xi)/D,
    varphi = arg mu and Lambda = Xi^2/D^2.

    Raises ImaginaryXi when eps_map^2 < 4*|mu|^2 (xi would be imaginary),
    DegenerateDenominator when D is numerically zero, and OutOfDomain when
    xi is so large that cosh overflows double precision.
    """
    xi2 = eps_map * eps_map - 4.0 * (mu.real * mu.real + mu.imag * mu.imag)
    if xi2 < 0.0:
        raise ImaginaryXi(
            f"eps_map^2 - 4|mu|^2 = {xi2:.3e} < 0; the map is not in the "
            "hyperbolic regime"
        )
    xi = math.sqrt(xi2)
    d_norm = _d_over_xi(eps_map, xi)
    return DysonState(Phi=2.0 * abs(mu) * _sinh_over_xi(xi) / d_norm,
                      varphi=cmath.phase(mu), Lambda=1.0 / (d_norm * d_norm))


def phi_from_z(z_abs: float, eps_map: float) -> tuple[float, float]:
    """Map (|z|, eps_map) to the radial coordinate Phi and chi = -2*Phi/|z| - 1.

    Phi = eps_map*|z|*sinh(Xi)/D with Xi = eps_map*sqrt(1-|z|^2), signed by
    the sign of D.  Raises DivisionByZero at z_abs = 0 (chi is undefined
    there) and DegenerateDenominator when D vanishes.
    """
    if z_abs == 0.0:
        raise DivisionByZero("chi = -2*Phi/|z| - 1 is undefined at |z| = 0")
    if not (0.0 < z_abs <= 1.0):
        raise OutOfDomain(f"|z| must lie in (0, 1], got {z_abs}")
    xi = eps_map * math.sqrt(max(0.0, 1.0 - z_abs * z_abs))
    d_norm = _d_over_xi(eps_map, xi)
    phi = eps_map * z_abs * _sinh_over_xi(xi) / d_norm
    chi = -2.0 * phi / z_abs - 1.0
    return phi, chi


def _artanh_over_x(x: float) -> float:
    if abs(x) < 1e-4:
        x2 = x * x
        return 1.0 + x2 / 3.0 + x2 * x2 / 5.0
    return math.atanh(x) / x


def epsilon_from_phi(z_abs: float, phi: float) -> float:
    """Invert Phi(|z|, eps_map) for the map strength eps_map.

    Evaluated as (Phi/(z+Phi)) * artanh(x)/x with x = Phi*s/(z+Phi) and
    s = sqrt(1-z^2), which stays finite as s -> 0 (|z| -> 1).  Phi = 0 maps
    to eps_map = 0 (the identity).  Raises OutOfDomain when |x| >= 1 or the
    resulting strength is not positive; both mean no positive map realizes
    the requested (|z|, Phi).
    """
    if not (0.0 <= z_abs <= 1.0):
        raise OutOfDomain(f"|z| must lie in [0, 1], got {z_abs}")
    if phi == 0.0:
        return 0.0
    denom = z_abs + phi
    if denom == 0.0:
        raise OutOfDomain(
            f"Phi = -|z| (got Phi={phi!r}, |z|={z_abs!r}) is not realizable"
        )
    s = math.sqrt(max(0.0, (1.0 - z_abs) * (1.0 + z_abs)))
    x = phi * s / denom
    if abs(x) >= 1.0:
        raise OutOfDomain(
            f"(|z|, Phi) = ({z_abs!r}, {phi!r}) lies outside the image of "
            "positive maps (|x| >= 1 in the artanh inversion)"
        )
    eps_map = (phi / denom) * _artanh_over_x(x)
    if eps_map <= 0.0:
        raise OutOfDomain(
            f"(|z|, Phi) = ({z_abs!r}, {phi!r}) inverts to a nonpositive "
            f"map strength {eps_map!r}"
        )
    return eps_map


def z_abs_from(Phi, Lambda):
    """|z| = -2*Phi/(chi + 1) with chi = Phi^2 - Lambda, clipped at 1
    against rounding; scalars or arrays."""
    denom = Phi * Phi - Lambda + 1.0
    if np.count_nonzero(denom == 0.0):
        raise ChiSingular("chi = -1 leaves |z| undetermined")
    return np.minimum(1.0, -2.0 * Phi / denom)


@dataclass(frozen=True)
class DysonState:
    """The map's one record: Phi, varphi and Lambda, with lam = Phi*exp(-i*varphi).

    chi, |z|, the map strength eps_map and mu are derived.  Bare
    construction checks nothing (the fields may be arrays or symbols);
    from_z and from_chi build a state from |z|.
    """

    Phi: float
    varphi: float
    Lambda: float

    @classmethod
    def from_z(cls, z_abs: float, Phi: float, varphi: float) -> "DysonState":
        """The state at modulus z_abs (in (0, 1]) and Phi (nonzero), where
        chi = -2*Phi/|z| - 1 and Lambda = Phi^2 - chi."""
        if not (0.0 < z_abs <= 1.0):
            raise ValueError(f"z_abs must lie in (0, 1], got {z_abs}")
        if Phi == 0.0:
            raise ValueError("Phi = 0 is the identity map; use a finite Phi")
        chi = -2.0 * Phi / z_abs - 1.0
        return cls(Phi=Phi, varphi=varphi, Lambda=Phi * Phi - chi)

    @classmethod
    def from_chi(cls, chi: float, z_abs: float, varphi: float) -> "DysonState":
        """The state at mixing ratio chi and modulus z_abs:
        Phi = -|z|*(chi + 1)/2 and Lambda = Phi^2 - chi."""
        Phi = -0.5 * z_abs * (chi + 1.0)
        return cls(Phi=Phi, varphi=varphi, Lambda=Phi * Phi - chi)

    @property
    def chi(self) -> float:
        return self.Phi * self.Phi - self.Lambda

    @property
    def z_abs(self) -> float:
        return z_abs_from(self.Phi, self.Lambda)

    @property
    def lam(self) -> complex:
        return self.Phi * cmath.exp(-1j * self.varphi)

    @cached_property
    def eps_map(self) -> float:
        return epsilon_from_phi(self.z_abs, self.Phi)

    def mu(self) -> complex:
        return 0.5 * self.eps_map * self.z_abs * cmath.exp(1j * self.varphi)


def bogoliubov_matrix(state: DysonState) -> np.ndarray:
    """Matrix of the map's action on (a, a^dag): [[1, -lam], [conj(lam), -chi]]/sqrt(Lambda).

    Unit determinant by construction.  Raises NonPositiveLambda when
    Lambda <= 0 (the square root would leave the reals).
    """
    big_lambda = state.Lambda
    if big_lambda <= 0.0:
        raise NonPositiveLambda(
            f"Lambda = {big_lambda!r} <= 0 at Phi = {state.Phi!r}"
        )
    root = math.sqrt(big_lambda)
    lam = state.lam
    return np.array(
        [[1.0 / root, -lam / root], [lam.conjugate() / root, -state.chi / root]],
        dtype=complex,
    )
