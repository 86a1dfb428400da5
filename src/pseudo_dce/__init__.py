"""Pseudo-Hermitian parametric oscillator: map construction, hermitization,
squeeze dynamics, photon numbers, and truncated-Fock-space verification.

The top level re-exports the entry points; every other name is imported
from its module (drive, dyson, hermitize, dynamics, fock, integrate,
scenario, verify, errors).
"""

from .drive import DriveParams
from .dynamics import evolve
from .errors import PseudoDceError
from .fock import FockSpace, eta_matrix, propagate, squeeze_trust_bound
from .hermitize import MapSource, approx_dyson_trajectory, hermitized_coefficients
from .scenario import (ScenarioConfig, SweepFailure, load_config, parse_config,
                       run, run_preset, sweep)

__version__ = "0.1.0"
