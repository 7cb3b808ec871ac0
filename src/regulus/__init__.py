"""Regularized limited-memory BFGS solvers with a benchmarking harness."""

from .core import (
    EvalCounter,
    Objective,
    RunReport,
    SolverConfig,
    Status,
    check_termination,
    evaluate,
)
from .problems import ProblemDef, get_problem, make_problem, registry
from .solvers import SOLVERS, TraceRecord, solve_lbfgs, solve_rlbfgs, solve_rlbfgs_sw

__version__ = "0.1.0"

# The batch harness (CSV records, profiles) is imported on first use of one
# of its names, so that solving pays nothing for it.
_HARNESS_NAMES = frozenset({
    "EmptyIntersectionError",
    "ProfileCurve",
    "RunRecord",
    "performance_profile",
    "run_batch",
})

__all__ = [
    "EvalCounter",
    "Objective",
    "RunReport",
    "SolverConfig",
    "Status",
    "check_termination",
    "evaluate",
    "EmptyIntersectionError",
    "ProfileCurve",
    "RunRecord",
    "performance_profile",
    "run_batch",
    "ProblemDef",
    "get_problem",
    "make_problem",
    "registry",
    "SOLVERS",
    "TraceRecord",
    "solve_lbfgs",
    "solve_rlbfgs",
    "solve_rlbfgs_sw",
    "__version__",
]


def __getattr__(name):
    if name in _HARNESS_NAMES:
        from . import harness

        return getattr(harness, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
