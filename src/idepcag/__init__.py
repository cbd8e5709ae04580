"""Floquet analysis of periodic linear impulsive systems with piecewise
constant generalized arguments.

The package analyzes omega-periodic systems

    x'(t) = A(t) x(t) + B(t) x(gamma(t)),   t != t_k,
    x(t_k) = (I + C_k) x(t_k^-),

where ``gamma`` is a step function constant on each grid interval.  It
builds the transition and monodromy matrices, extracts Floquet multipliers
and exponents, classifies stability, computes the normal form
``X(t) = Q(t) exp(P t)``, and simulates trajectories with an independent
cross-validation integrator.
"""

import logging

from .expressions import Expression, ExpressionSyntaxError, parse_expression
from .linalg import (
    ConvergenceError,
    NumericalError,
    RealificationError,
    SingularMatrixError,
    Spectrum,
    eig,
    expm,
    inv,
    logm_principal,
    logm_real_doubled,
    norm1,
)
from .model import (
    ArgumentGrid,
    MatrixFunction,
    SystemSpec,
    Tolerances,
    ValidationError,
    BUNDLED_SYSTEMS,
    bundled_system_path,
    gamma_at,
    load_bundled_system,
    load_system,
    load_system_file,
)
from .transition import (
    HypothesisReport,
    IntervalOperators,
    e_matrix,
    fundamental_matrix,
    hypothesis_check,
    interval_operators,
    j_matrix,
    w_local,
)
from .floquet import (
    BOUNDED_NON_PERIODIC,
    EXPONENTIALLY_STABLE,
    MARGINAL_DEFECTIVE,
    PERIODIC_N_OMEGA,
    PERIODIC_OMEGA,
    UNBOUNDED,
    DiagonalClosedForm,
    FloquetReport,
    NormalFormResiduals,
    ResidualCheck,
    SpectralData,
    Verdict,
    analyze,
    structural_residuals,
    cauchy_matrix,
    cauchy_matrix_left,
    classify,
    closed_form_diagonal,
    floquet_P,
    floquet_P_real,
    floquet_exponents,
    is_oscillatory,
    monodromy,
    periodic_solution_test,
    q_factor,
    verify_normal_form,
)
from .simulate import Trajectory, max_discrepancy, solve_cauchy, solve_direct

__version__ = "0.1.0"

# Library records reach only the caller's handlers, never last-resort stderr.
logging.getLogger(__name__).addHandler(logging.NullHandler())

__all__ = [
    "Expression",
    "ExpressionSyntaxError",
    "parse_expression",
    "ConvergenceError",
    "NumericalError",
    "RealificationError",
    "SingularMatrixError",
    "Spectrum",
    "eig",
    "expm",
    "inv",
    "logm_principal",
    "logm_real_doubled",
    "norm1",
    "ArgumentGrid",
    "MatrixFunction",
    "SystemSpec",
    "Tolerances",
    "ValidationError",
    "BUNDLED_SYSTEMS",
    "bundled_system_path",
    "gamma_at",
    "load_bundled_system",
    "load_system",
    "load_system_file",
    "HypothesisReport",
    "IntervalOperators",
    "e_matrix",
    "fundamental_matrix",
    "hypothesis_check",
    "interval_operators",
    "j_matrix",
    "w_local",
    "BOUNDED_NON_PERIODIC",
    "EXPONENTIALLY_STABLE",
    "MARGINAL_DEFECTIVE",
    "PERIODIC_N_OMEGA",
    "PERIODIC_OMEGA",
    "UNBOUNDED",
    "DiagonalClosedForm",
    "FloquetReport",
    "NormalFormResiduals",
    "ResidualCheck",
    "SpectralData",
    "Verdict",
    "analyze",
    "structural_residuals",
    "cauchy_matrix",
    "cauchy_matrix_left",
    "classify",
    "closed_form_diagonal",
    "floquet_P",
    "floquet_P_real",
    "floquet_exponents",
    "is_oscillatory",
    "monodromy",
    "periodic_solution_test",
    "q_factor",
    "verify_normal_form",
    "Trajectory",
    "max_discrepancy",
    "solve_cauchy",
    "solve_direct",
]
