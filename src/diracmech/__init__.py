"""Geometric integration of constrained discrete mechanical systems.

Discrete Lagrangian and Hamiltonian dynamics, with kinematic and pair
constraints allowed to be independent, are solved step by step through
implicit Newton iteration; every accepted step is certified against the
membership residual of the underlying inclusion in the structure induced on
the discrete Pontryagin bundle.
"""

from .bundle import (
    DiscreteCurve,
    KinematicDistribution,
    PontryaginPoint,
    check_admissibility,
)
from .errors import (
    CertificationError,
    ConfigError,
    ConvergenceError,
    DegenerateConstraintError,
    DimensionMismatchError,
    DiracMechError,
    EvaluationError,
    RankDeficiencyError,
    SingularJacobianError,
    StepFailureError,
    UnsupportedOperationError,
)
from .linalg import (
    LinSubspace,
    PairedVector,
    SkewForm,
    induced_dirac,
    is_dirac,
    membership_residual,
    pairing,
)
from .stepper import (
    SolverOptions,
    StepDiagnostics,
    StepResult,
    Trajectory,
    check_initial_data,
    newton_solve,
    run_trajectory,
    step_hamiltonian,
    step_lagrangian,
)
from .systems import (
    DerivativeProvider,
    DiscreteConstraint,
    DiscreteHamiltonian,
    DiscreteLagrangian,
    DiscreteSystem,
    dirac_inclusion_residual,
    retraction_constraint,
)

__version__ = "0.1.0"

__all__ = [
    "CertificationError",
    "ConfigError",
    "ConvergenceError",
    "DegenerateConstraintError",
    "DerivativeProvider",
    "DimensionMismatchError",
    "DiracMechError",
    "DiscreteConstraint",
    "DiscreteCurve",
    "DiscreteHamiltonian",
    "DiscreteLagrangian",
    "DiscreteSystem",
    "EvaluationError",
    "KinematicDistribution",
    "LinSubspace",
    "PairedVector",
    "PontryaginPoint",
    "RankDeficiencyError",
    "SingularJacobianError",
    "SkewForm",
    "SolverOptions",
    "StepDiagnostics",
    "StepFailureError",
    "StepResult",
    "Trajectory",
    "UnsupportedOperationError",
    "check_admissibility",
    "check_initial_data",
    "dirac_inclusion_residual",
    "induced_dirac",
    "is_dirac",
    "membership_residual",
    "newton_solve",
    "pairing",
    "retraction_constraint",
    "run_trajectory",
    "step_hamiltonian",
    "step_lagrangian",
]
