"""Running (problem, solver) cells through the public solver entry points,
and checking each result from outside the solver.

Only the solver call itself is timed. Around every cell the workload's
probe is timed too, to measure the host's speed while the cell ran. The checks (raw call counts against
``report.counters``, the residual recomputed at ``report.x``) run after a
pass has ended.
"""

from __future__ import annotations

import time
from typing import List, NamedTuple, Optional

import numpy as np

import regulus
from regulus import Objective, RunReport, SolverConfig, Status

from workloads import Problem, Workload


class CheckError(Exception):
    """A result disagrees with what the benchmark observed from outside."""


class CountingObjective:
    """Objective whose callables count their raw calls, independent of the
    solver's own ``EvalCounter``."""

    def __init__(self, inner: Objective):
        self.value_calls = 0
        self.gradient_calls = 0
        self._inner = inner
        self.objective = Objective(inner.dim, self._value, self._gradient)

    def _value(self, x):
        self.value_calls += 1
        return self._inner.value(x)

    def _gradient(self, x):
        self.gradient_calls += 1
        return self._inner.gradient(x)


class CellResult(NamedTuple):
    problem: Problem
    solver: str
    report: Optional[RunReport]
    error: Optional[str]
    value_calls: int
    gradient_calls: int
    wall_s: float
    probe_s: float = 0.0
    """Mean time of the probes run just before and just after the cell."""

    def record(self, converged: Optional[bool]) -> dict:
        """Everything needed to diagnose the cell without running it again."""
        r = self.report
        return {
            "problem": self.problem.label,
            "solver": self.solver,
            "status": r.status.value if r else "raised",
            "converged": converged,
            "n_f": r.counters.n_f if r else self.value_calls,
            "n_g": r.counters.n_g if r else self.gradient_calls,
            "iterations": r.iterations if r else 0,
            "inner_iterations": r.inner_iterations if r else 0,
            "final_residual": r.final_residual if r else None,
            "wall_s": self.wall_s,
            "probe_s": self.probe_s,
            "error": self.error,
        }


def run_cell(problem: Problem, solver: str, config: SolverConfig, tracer=None) -> CellResult:
    """Solve one cell through ``regulus.SOLVERS``. With a ``tracer``, the
    solver call and the objective's callables are recorded as spans; the
    counting wrapper stays outermost either way."""
    objective, solve = problem.objective, regulus.SOLVERS[solver]
    if tracer is not None:
        objective, solve = tracer.wrap_objective(objective), tracer.wrap_driver(solve)
    counted = CountingObjective(objective)
    error = report = None
    t0 = time.perf_counter()
    try:
        report = solve(counted.objective, problem.x0, config)
    except Exception as exc:  # a raising solver is a failed cell, not a crashed run
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    return CellResult(problem, solver, report, error, counted.value_calls,
                      counted.gradient_calls, wall)


def timed_probe(workload: Workload) -> float:
    t0 = time.perf_counter()
    workload.probe()
    return time.perf_counter() - t0


def run_pass(workload: Workload, tracer=None) -> List[CellResult]:
    """Every cell of the workload, back to back in this process, with the
    workload's probe timed between cells and at both ends."""
    results = []
    before = timed_probe(workload)
    for problem, solver in workload.cells:
        result = run_cell(problem, solver, workload.config, tracer)
        after = timed_probe(workload)
        results.append(result._replace(probe_s=0.5 * (before + after)))
        before = after
    return results


def check_cell(result: CellResult, config: SolverConfig) -> bool:
    """True when the cell converged with a verified residual, False when it
    ended in any other status or raised. Raises :class:`CheckError` when the
    report's counters disagree with the raw call counts or a converged
    report's residual is not below ``grad_tol``."""
    report = result.report
    if report is None:
        return False
    counted = (result.value_calls, result.gradient_calls)
    claimed = (report.counters.n_f, report.counters.n_g)
    if claimed != counted:
        raise CheckError(f"{result.problem.label} {result.solver}: report counts "
                         f"(n_f, n_g) = {claimed}, objective saw {counted}")
    if report.status is not Status.CONVERGED:
        return False
    x = np.asarray(report.x, dtype=float)
    g = np.asarray(result.problem.objective.gradient(x), dtype=float)
    residual = float(np.linalg.norm(g)) / max(1.0, float(np.linalg.norm(x)))
    if not residual < config.grad_tol:
        raise CheckError(f"{result.problem.label} {result.solver}: converged with "
                         f"residual {residual!r} >= grad_tol {config.grad_tol!r}")
    return True
