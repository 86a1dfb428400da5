"""Truncated-Fock-space brute-force checks of the operator algebra.

The map, metric and generator helpers work on explicit (dim x dim)
matrices so that the closed-form layers can be verified against direct
linear algebra: the map's Gauss factorization and the metric identity.
Wave-function propagation under quadratic generators (`propagate`) forms
no matrix: it applies a^2 and a^dag^2 as O(dim) shifted slices on the
parity sectors the initial state occupies, in the interaction frame that
rotates out Re(c_n)*(n+1/2), so its step is no longer bound to the top
level's phase, which turns at about Re(c_n)*dim.  The exponential map
likewise exponentiates the two parity sectors apart.

Truncation policy: one rule, squeeze_trust_bound(dim) (sinh(r)^2 <=
dim/20).  `propagate` turns it into its flag through the closed-form
squeezed-vacuum populations: a run is trusted while the population of the
top _EDGE_LEVELS (10) levels stays below what a squeezed vacuum at the bound
puts there.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .drive import DriveParams, couplings, omega as drive_omega
from .dyson import gauss_coefficients
from .errors import NormTooLarge, SingularEta, ValidationError
from .integrate import IntegrationStats, IvpProblem, integrate

_EDGE_LEVELS = 10
_EXPM_MAX_NORM = 600.0
_COND_LIMIT = 1e14


class FockSpace:
    """Ladder operators on a dim-level truncation.

    Only dim and n_levels are set up front.  The dense (dim x dim) ladder
    matrices a, adag, a_sq and adag_sq are built on first read and kept;
    propagate, mean_photon and squeeze_trust_bound read none of them.
    """

    def __init__(self, dim: int = 128):
        if isinstance(dim, bool) or not isinstance(dim, numbers.Integral):
            raise ValueError(f"dim must be an integer, got {dim!r}")
        if dim < 4:
            raise ValueError(f"dim must be at least 4, got {dim}")
        self.dim = dim
        self.n_levels = np.arange(dim, dtype=float)

    @cached_property
    def a(self) -> np.ndarray:
        return np.diag(np.sqrt(np.arange(1, self.dim, dtype=float)), 1).astype(complex)

    @cached_property
    def adag(self) -> np.ndarray:
        return self.a.conj().T.copy()

    @cached_property
    def a_sq(self) -> np.ndarray:
        # a^2 has one band, sqrt(n + 1)*sqrt(n + 2): what a @ a computes.
        root = np.sqrt(np.arange(1, self.dim, dtype=float))
        return np.diag(root[:-1] * root[1:], 2).astype(complex)

    @cached_property
    def adag_sq(self) -> np.ndarray:
        return self.a_sq.T.copy()

    def number_plus_half(self) -> np.ndarray:
        return np.diag(self.n_levels + 0.5).astype(complex)

    def vacuum(self) -> np.ndarray:
        psi = np.zeros(self.dim, dtype=complex)
        psi[0] = 1.0
        return psi


def squeeze_trust_bound(dim: int) -> float:
    """Largest squeeze r whose photon number the truncation resolves.

    Conservative rule sinh(r)^2 <= dim/20, which keeps the occupied tail
    well below the lid for a squeezed vacuum.  It is the module's only
    trust rule: `propagate` flags runs against the edge population this r
    implies (`_edge_limit`).
    """
    return math.asinh(math.sqrt(dim / 20.0))


def _edge_limit(dim: int) -> float:
    """Population a squeezed vacuum at r = squeeze_trust_bound(dim) puts on
    the top _EDGE_LEVELS levels and beyond.

    Counted as 1 - sum of p_2k = tanh(r)^(2k) (2k)!/(4^k (k!)^2) / cosh(r)
    (Gerry & Knight, Introductory Quantum Optics, ch. 7) over the even
    levels below the lid.  For dim <= _EDGE_LEVELS no level lies below it
    and the limit is 1, which no edge population stays under.
    """
    r = squeeze_trust_bound(dim)
    t2 = math.tanh(r) ** 2
    p = 1.0 / math.cosh(r)
    below = 0.0
    for n in range(0, dim - _EDGE_LEVELS, 2):
        below += p
        p *= t2 * (n + 1) / (n + 2)
    return 1.0 - below


def matrix_exponential(m: np.ndarray) -> np.ndarray:
    """exp(m) with finite-entry and norm guards.

    Raises NormTooLarge when the 1-norm exceeds _EXPM_MAX_NORM (600);
    beyond that the result would overflow or lose all accuracy in double
    precision.  scipy.linalg is imported here, on first use, so that
    importing the package loads no scipy module.
    """
    import scipy.linalg

    m = np.asarray(m)
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    norm1 = float(np.linalg.norm(m, 1))
    if norm1 > _EXPM_MAX_NORM:
        raise NormTooLarge(f"1-norm {norm1:.3e} exceeds {_EXPM_MAX_NORM:.3e}")
    return scipy.linalg.expm(m)


def gauss_product_matrix(lam: complex, big_lambda: float, f: FockSpace) -> np.ndarray:
    """exp(lam*K+) * Lambda^K0 * exp(conj(lam)*K-) assembled factor by factor.

    The raising and lowering factors are built from the exact Fock-basis
    series; because K- only descends and K+ only ascends, every matrix
    element of the product inside the truncation is exact (no leakage
    through the lid for this factor ordering).
    """
    if big_lambda <= 0.0:
        raise ValueError(f"Lambda must be positive, got {big_lambda}")
    half_log = 0.5 * math.log(big_lambda)
    diag = np.exp(half_log * (f.n_levels + 0.5)).astype(complex)
    # exp(conj(lam)*K-) is the raising factor at conj(lam), transposed.
    down = _raising_factor(complex(lam).conjugate(), f.dim).T.copy()
    return (_raising_factor(lam, f.dim) * diag[np.newaxis, :]) @ down


def _raising_factor(lam: complex, dim: int) -> np.ndarray:
    """exp(lam*K+) on the truncation from its exact Fock-basis series.

    Entry (n + 2k, n) is (lam/2)^k/k! * sqrt((n+2k)!/n!): the product over
    j <= k of the factors (lam/2)/j * sqrt(m*(m-1)), m = n + 2j, taken for
    every column at once by one cumulative product over k.  Factors past
    the lid are zero, so they leave the entries inside it unchanged.
    """
    ks = range(1, (dim + 1) // 2)
    m = np.arange(dim) + 2 * np.array(ks)[:, np.newaxis]
    inside = m < dim
    half = np.array([(lam / 2.0) / k for k in ks])[:, np.newaxis]
    factors = np.where(inside, half * np.sqrt(m * (m - 1.0)), 0.0)
    kk, n = np.nonzero(inside)
    up = np.eye(dim, dtype=complex)
    up[n + 2 * (kk + 1), n] = np.cumprod(factors, axis=0)[kk, n]
    return up


def eta_matrix(eps_map: float, mu: complex, f: FockSpace,
               form: str = "exponential") -> np.ndarray:
    """The map as a dim x dim matrix.

    form "exponential" exponentiates the generator directly (suffers
    genuine truncation error near the lid); form "gauss" assembles the
    factorized product (exact within the truncation).  The generator
    never mixes even and odd levels, so "exponential" exponentiates the
    two parity sectors apart; the NormTooLarge verdict is unchanged,
    since a block-diagonal matrix's 1-norm is its largest block's.
    """
    if form == "exponential":
        gen = (eps_map * f.number_plus_half()
               + mu * f.a_sq + np.conj(mu) * f.adag_sq)
        eta = np.zeros_like(gen)
        for p in (0, 1):
            eta[p::2, p::2] = matrix_exponential(gen[p::2, p::2])
        return eta
    if form == "gauss":
        s = gauss_coefficients(eps_map, mu)
        return gauss_product_matrix(s.lam, s.Lambda, f)
    raise ValueError(f"form must be 'exponential' or 'gauss', got {form!r}")


def metric(eta: np.ndarray) -> np.ndarray:
    """Theta = eta^dag * eta."""
    return eta.conj().T @ eta


def quasi_hermiticity_residual(H: np.ndarray, theta_center: np.ndarray,
                               theta_plus: np.ndarray,
                               theta_minus: np.ndarray, h: float) -> float:
    """Relative Frobenius residual of H^dag*Theta - Theta*H = i*dTheta/dt.

    The time derivative is the central difference of the two offset
    metrics; the norm is taken on the sub-block that excludes the top
    _EDGE_LEVELS levels in both indices.
    """
    dtheta = (theta_plus - theta_minus) / (2.0 * h)
    residual = H.conj().T @ theta_center - theta_center @ H - 1j * dtheta
    cut = residual.shape[0] - _EDGE_LEVELS
    sub = residual[:cut, :cut]
    ref = theta_center[:cut, :cut]
    return float(np.linalg.norm(sub) / np.linalg.norm(ref))


def drive_hamiltonian(t: float, p: DriveParams, f: FockSpace) -> np.ndarray:
    """H(t) = omega*(n + 1/2) + alpha*a^2 + beta*a^dag^2 as a matrix."""
    alpha, beta = couplings(t, p)
    return drive_omega(t, p) * f.number_plus_half() + alpha * f.a_sq + beta * f.adag_sq


@dataclass(frozen=True)
class PropagationResult:
    """Sampled wave function with truncation and norm diagnostics."""

    t: np.ndarray
    amplitudes: np.ndarray
    norm_drift: float
    max_edge_population: float
    trusted: bool
    stats: IntegrationStats

    def mean_photon(self, f: FockSpace) -> np.ndarray:
        probs = np.abs(self.amplitudes) ** 2
        totals = probs.sum(axis=1)
        return (probs @ f.n_levels) / totals


CoeffFn = Callable[[float], tuple[complex, complex, complex]]


def propagate(coeffs: CoeffFn, psi0: np.ndarray, t_grid: np.ndarray,
              f: FockSpace, rtol: float = 1e-10, atol: float = 1e-13
              ) -> PropagationResult:
    """Integrate i dpsi/dt = H(t) psi with H = c_n*(n+1/2) + c2*a^2 + c2d*a^dag^2.

    coeffs(t) returns (c_n, c2, c2d); Hermitian generators have
    c2d = conj(c2) and real c_n, in which case norm_drift measures
    integrator quality.  The population of the top _EDGE_LEVELS levels
    is sampled on the reporting grid; the result is trusted while it
    stays below what a squeezed vacuum at r = squeeze_trust_bound(dim)
    puts there (3.6e-5 at dim 128, 1.7e-5 at dim 264; every run at
    dim <= 10 is untrusted).

    Interaction frame: the integrated state is phi = exp(+i*theta*(n+1/2))
    psi with theta' = Re c_n, carried as one extra real component, so

        phi' = Im(c_n)(n+1/2) phi - i*c2*e^{-2i theta} a^2 phi
               - i*c2d*e^{+2i theta} a^dag^2 phi,

    and psi = exp(-i*theta*(n+1/2)) phi is rebuilt on the reporting grid
    only.  The free rotation, whose top level turns at about Re(c_n)*dim
    even while empty, no longer limits the step: the phases left turn at
    2*Re(c_n), and the couplings grow only with the levels occupied.

    Parity rule: H never mixes even and odd levels, so only the parity
    sectors psi0 occupies are integrated; the other sector's amplitudes
    are exact zeros.  No ladder matrix is formed: (a^2 phi)_n =
    sqrt((n+1)(n+2)) phi_{n+2} and its adjoint are applied as shifted,
    weighted slices, so one right-hand-side call costs O(dim).

    rtol and atol are DOP853's, and nothing caps the step.  The default
    is the third row below: on the fig1 vacuum at dims 128 and 264, each
    run to its trust bound, nfev summed over both, and the photon number's
    worst relative error against a tight-tolerance squeeze reference:

        rule                          steps (128, 264)  nfev    error
        rtol 1e-9, cap span/300       317, 400          9,124   1.27e-11
        rtol 1e-9, no cap             165, 287          6,286   5.90e-11
        rtol 1e-10, atol 1e-13        219, 382          7,960   6.80e-12
        rtol 3e-11, atol 3e-14        254, 443          9,040   1.86e-12
        rtol 1e-11, atol 1e-14        291, 509          10,264  8.7e-13
    """
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (f.dim,):
        raise ValueError(f"psi0 must have shape ({f.dim},), got {psi0.shape}")
    occupied = [p for p in (0, 1) if np.any(psi0[p::2])]
    if not occupied:
        raise ValidationError("psi0 is the zero vector; it has no norm to propagate")
    # With one sector occupied only its levels are integrated; inside the
    # sector a^2 is a shift by one, across both sectors a shift by two.
    sector, shift = ((slice(occupied[0], None, 2), 1) if len(occupied) == 1
                     else (slice(None), 2))
    levels = f.n_levels[sector]
    n_half = levels + 0.5
    # Complex, so that scaling weight needs no cast of it on each call.
    weight = np.sqrt((levels[:-shift] + 1.0) * (levels[:-shift] + 2.0)).astype(complex)

    def rhs(t, y):
        c_n, c2, c2d = coeffs(t)
        # The real state holds phi as interleaved (re, im) pairs, then theta.
        phi = y[:-1].view(complex)
        turn = cmath.exp(-2j * y[-1])
        d = np.empty_like(y)
        d[-1] = c_n.real
        dphi = d[:-1].view(complex)
        # dphi is the a^2 band (0 on the top shift levels) plus its adjoint.
        np.multiply(weight * (-1j * c2 * turn), phi[shift:], out=dphi[:-shift])
        dphi[-shift:] = 0.0
        down = weight * (-1j * c2d * turn.conjugate())
        down *= phi[:-shift]
        dphi[shift:] += down
        if c_n.imag != 0.0:
            dphi += (c_n.imag * n_half) * phi
        return d

    y0 = np.append(np.ascontiguousarray(psi0[sector]).view(float), 0.0)
    sol = integrate(IvpProblem(rhs=rhs, t_eval=t_grid, y0=y0), rtol=rtol, atol=atol)

    phi = np.ascontiguousarray(sol.y[:, :-1]).view(complex)
    amps = np.zeros((sol.t.size, f.dim), dtype=complex)
    amps[:, sector] = phi * np.exp(-1j * np.outer(sol.y[:, -1], n_half))
    norms = np.linalg.norm(amps, axis=1)
    norm_drift = float(np.max(np.abs(norms - np.linalg.norm(psi0))))
    probs = np.abs(amps) ** 2
    max_edge = float(np.max(probs[:, -_EDGE_LEVELS:].sum(axis=1) / probs.sum(axis=1)))
    return PropagationResult(t=sol.t, amplitudes=amps, norm_drift=norm_drift,
                             max_edge_population=max_edge,
                             trusted=max_edge < _edge_limit(f.dim),
                             stats=sol.stats)


def nonhermitian_expectation(eta: np.ndarray, psi: np.ndarray,
                             observable: np.ndarray) -> complex:
    """Metric expectation <psi| eta^dag eta O |psi> without forming Theta.

    Assembled as (eta psi)^dag (eta O psi), which is exact for the
    metric ordering Theta*O and avoids the explicit product.
    """
    left = eta @ psi
    right = eta @ (observable @ psi)
    return complex(np.vdot(left, right))


def inverse_map_state(eta: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """eta^{-1} psi with a conditioning guard (SingularEta beyond it)."""
    return _solve_conditioned(eta, psi)


def map_observable(eta: np.ndarray, observable: np.ndarray) -> np.ndarray:
    """eta^{-1} O eta, the observable carried to the non-Hermitian side."""
    return _solve_conditioned(eta, observable @ eta)


def _solve_conditioned(eta: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    cond = float(np.linalg.cond(eta))
    if not math.isfinite(cond) or cond > _COND_LIMIT:
        raise SingularEta(f"map condition number {cond:.3e} exceeds {_COND_LIMIT:.1e}")
    return np.linalg.solve(eta, rhs)
