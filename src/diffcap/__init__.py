"""Caputo fractional derivatives via a diffusive representation.

The derivative of order alpha on a time grid is computed by Gauss-Laguerre
quadrature over an auxiliary variable combined with A-stable one-step
integration of a family of stiff linear ODEs: O(N) time, O(1) memory in the
grid length.  The analysis and oracle modules empirically verify the scheme's
error decomposition and convergence behaviour.
"""

from .analysis import (
    DecayStudy,
    ErrorDecomposition,
    OdeBoundReport,
    LogScaledValue,
    RateFit,
    decompose_error,
    fit_rate,
    ode_error_constant,
    ode_error_profile,
    quadrature_decay_study,
    quadrature_error,
    verify_ode_error_bound,
)
from .corpus import CorpusEntry, corpus_function, corpus_names, make_problem
from .diffusive import (
    DerivativeProblem,
    DiffusiveSystem,
    TimeGrid,
    build_system,
    graded_grid,
    fractional_part,
    signed_prefactor,
    stiffness_report,
    uniform_grid,
)
from .errors import (
    EvaluationError,
    InsufficientDataError,
    InvalidOrderError,
    InvalidParameterError,
    OracleError,
    UnsupportedOperationError,
)
from .oracle import brute_force_caputo, exact_combination, exact_phi, reference_quadrature
from .quadrature import MAX_NODES, QuadratureRule, gauss_laguerre_rule, truncate_rule
from .steppers import (
    BACKWARD_EULER,
    METHODS,
    TRAPEZOIDAL,
    advance,
    backward_euler_log_amplification,
    evaluate_derivative,
    iter_solution,
)

__version__ = "0.1.0"
