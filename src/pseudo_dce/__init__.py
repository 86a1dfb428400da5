"""Pseudo-Hermitian parametric oscillator: map construction, hermitization,
squeeze dynamics, photon numbers, and truncated-Fock-space verification."""

from .drive import DriveParams, PolarComplex, ZetaMode, alpha_beta, heaviside, omega, omega_dot, sgn, zeta, zeta_signed
from .dynamics import (
    BogoliubovTriple,
    InitialMoments,
    SqueezeState,
    Trajectory,
    amplification_factor,
    analytic_squeeze,
    bogoliubov_ode_oracle,
    bogoliubov_uvw,
    evolve,
    mean_photon_general,
    squeeze_rhs,
)
from .dyson import (
    DysonState,
    GaussCoefficients,
    bogoliubov_matrix,
    epsilon_from_phi,
    gauss_coefficients,
    phi_from_z,
)
from .errors import (
    ChiSingular,
    DegenerateDenominator,
    DivisionByZero,
    ImaginaryXi,
    NegativeMeanPhoton,
    NonFiniteState,
    NonPositiveLambda,
    NormTooLarge,
    NotOnResonance,
    OutOfDomain,
    ParseError,
    PhiZero,
    PseudoDceError,
    SingularEta,
    StepRejected,
    ValidationError,
    ZeroLambda,
)
from .fock import (
    FockSpace,
    PropagationResult,
    drive_hamiltonian,
    eta_matrix,
    gauss_product_matrix,
    inverse_map_state,
    map_observable,
    matrix_exponential,
    metric,
    nonhermitian_expectation,
    propagate,
    quasi_hermiticity_residual,
    squeeze_trust_bound,
)
from .hermitize import (
    ConstraintState,
    ConstraintTrajectory,
    HermitizedCoeffs,
    MapSource,
    approx_dyson_trajectory,
    coefficients_from_flow,
    coefficients_general,
    constraint_rhs_general,
    constraint_rhs_polar,
    guard_flow_crossings,
    hermitized_coefficients,
    hermitized_coefficients_general,
    integrate_constraints,
    z_abs_from,
)
from .integrate import (
    IntegrationStats,
    IvpProblem,
    IvpSolution,
    integrate,
)
from .scenario import (
    CANONICAL_COLUMNS,
    PRESETS,
    RunRecord,
    ScenarioConfig,
    SweepFailure,
    load_config,
    parse_config,
    run,
    run_preset,
    sweep,
    write_outputs,
)

__version__ = "0.1.0"
