"""Exception types shared across the package.

Every guard raises a subclass of PseudoDceError so callers can catch one
base type at a boundary (CLI, sweep workers) without masking stdlib bugs.
"""


class PseudoDceError(Exception):
    """Base class for all errors raised by this package."""


class ImaginaryXi(PseudoDceError):
    """Gauss decomposition requested where Xi^2 = eps^2 - 4|mu|^2 < 0."""


class DegenerateDenominator(PseudoDceError):
    """Gauss denominator D = Xi cosh(Xi) - eps sinh(Xi) vanished."""


class DivisionByZero(PseudoDceError):
    """A structurally required denominator (e.g. |z|, Phi) is zero."""


class OutOfDomain(PseudoDceError):
    """Parameters outside the realizable (z, Phi) -> eps domain."""


class NonPositiveLambda(PseudoDceError):
    """Lambda = Phi^2 - chi must be positive for a Bogoliubov map."""


class ZeroLambda(PseudoDceError):
    """Lambda vanished during constraint evolution."""


class ChiSingular(PseudoDceError):
    """|chi - 1| fell below the configured guard threshold."""


class PhiZero(PseudoDceError):
    """Phi crossed zero where a formula divides by it."""


class NegativeMeanPhoton(PseudoDceError):
    """Mean photon number evaluated negative beyond roundoff."""


class NotOnResonance(PseudoDceError):
    """Closed-form squeeze solution requested with kappa != 2*omega0."""


class StepRejected(PseudoDceError):
    """Adaptive integrator could not meet tolerance above min step size."""


class NonFiniteState(PseudoDceError):
    """NaN or Inf appeared in an integration state vector."""


class NormTooLarge(PseudoDceError):
    """Matrix exponential argument exceeds the configured norm bound."""


class SingularEta(PseudoDceError):
    """Dyson matrix is numerically singular; cannot invert."""


class ParseError(PseudoDceError):
    """Config file could not be parsed. Message carries the line number."""


class ValidationError(PseudoDceError):
    """Config parsed but a value is out of range or inconsistent."""
