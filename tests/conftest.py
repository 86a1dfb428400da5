import math

import numpy as np
import pytest

from pseudo_dce.drive import DriveParams
from pseudo_dce.dyson import DysonState

CHI_FIG = 1.0002
VARPHI0 = 0.5 * math.pi


@pytest.fixture
def fig1_params() -> DriveParams:
    return DriveParams(omega0=1.0, eps_mod=0.01, kappa=2.0,
                       alpha0_tilde=0.01, beta0_tilde=0.001)


@pytest.fixture
def hermitian_params() -> DriveParams:
    return DriveParams(omega0=1.0, eps_mod=0.01, kappa=2.0,
                       alpha0_tilde=1.0, beta0_tilde=1.0)


@pytest.fixture
def moderate_params() -> DriveParams:
    # Constraint-flow test point far from the chi = 1 singularity (the
    # figure regime reaches it near tau = 2 and cannot be integrated).
    return DriveParams(omega0=1.0, eps_mod=0.01, kappa=2.0,
                       alpha0_tilde=0.6, beta0_tilde=0.2)


@pytest.fixture
def moderate_state0() -> DysonState:
    return DysonState.from_chi(-2.25, 0.8, VARPHI0)


@pytest.fixture
def tau_grid_50() -> np.ndarray:
    return np.linspace(0.0, 50.0, 1001)
