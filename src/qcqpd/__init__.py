"""Distributed first-order solver for convex quadratically constrained
quadratic programs, with reproducible benchmark-instance generators and
optimality diagnostics."""

from .core import (
    SolverConfig,
    SolveReport,
    analytic_comm_stats,
    solve,
)
from .diagnostics import (
    TerminationStatus,
    classify_termination,
    compute_residuals,
    kkt_residual_max,
    test_set_accuracy,
)
from .dist import CommStats
from .generators import (
    EIGENVALUE_RANGES,
    Kernel,
    MklSpec,
    RandomQcqpSpec,
    build_mkl_qcqp,
    gen_infeasible,
    gen_random_qcqp,
    gen_twonorm,
    gen_unbounded,
    gram_matrix,
    load_csv_dataset,
)
from .model import (
    ProblemFormatError,
    QcqpProblem,
    ValidationReport,
    load_problem,
    save_problem,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "QcqpProblem",
    "ValidationReport",
    "ProblemFormatError",
    "validate",
    "load_problem",
    "save_problem",
    "CommStats",
    "SolverConfig",
    "SolveReport",
    "solve",
    "analytic_comm_stats",
    "TerminationStatus",
    "compute_residuals",
    "classify_termination",
    "kkt_residual_max",
    "test_set_accuracy",
    "RandomQcqpSpec",
    "MklSpec",
    "Kernel",
    "EIGENVALUE_RANGES",
    "gen_random_qcqp",
    "gen_infeasible",
    "gen_unbounded",
    "gen_twonorm",
    "gram_matrix",
    "build_mkl_qcqp",
    "load_csv_dataset",
]
