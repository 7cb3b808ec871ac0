"""Batch runner and performance-profile computation.

Runs solver-by-problem grids into flat records, persists them as CSV, and
computes the fraction-of-problems-solved-within-factor-tau distribution
curves used to compare solvers.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, TextIO, Tuple, Union, get_type_hints

import numpy as np

from .core import RunReport, SolverConfig, Status
from .problems import ProblemDef
from .solvers import SOLVERS

DEFAULT_TAU_GRID = (1.0, 1.25, 1.5, 2.0, 3.0, 5.0, 8.0, 13.0, 21.0)


class EmptyIntersectionError(Exception):
    """No problem qualifies for a profile: none was solved by every selected
    solver, or under ``union`` by any."""


@dataclass(frozen=True)
class RunRecord:
    """One (problem, solver) cell of a batch."""

    problem: str
    solver: str
    status: Status
    n_f: int
    n_g: int
    iterations: int
    wall_time: float
    final_residual: float

    def __post_init__(self) -> None:
        for name in ("n_f", "n_g", "iterations"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not 0.0 <= self.wall_time < math.inf:
            raise ValueError(f"wall_time must be finite and >= 0, got {self.wall_time!r}")

    @classmethod
    def from_report(cls, problem: str, report: RunReport) -> "RunRecord":
        return cls(
            problem=problem,
            solver=report.solver_name,
            status=report.status,
            n_f=report.counters.n_f,
            n_g=report.counters.n_g,
            iterations=report.iterations,
            wall_time=report.wall_time,
            final_residual=report.final_residual,
        )


# The CSV columns are RunRecord's fields, in order; each annotation parses
# its column back.
_COLUMN_TYPES = get_type_hints(RunRecord)
CSV_FIELDS = tuple(f.name for f in fields(RunRecord))


@dataclass(frozen=True)
class ProfileCurve:
    """Distribution curve of one solver over the commonly solved problems."""

    solver: str
    points: Tuple[Tuple[float, float], ...]


def check_batch(problems: Sequence[ProblemDef], solvers: Sequence[str]) -> None:
    """Accept a batch selection only when both lists are nonempty, every
    solver is known (else ``KeyError``) and no (problem name, solver) cell
    repeats (else ``ValueError``; ``beale`` is named ``beale:2``)."""
    if not problems or not solvers:
        raise ValueError("problem and solver selections must be nonempty")
    unknown = [s for s in solvers if s not in SOLVERS]
    if unknown:
        raise KeyError(f"unknown solvers: {unknown}")
    cells = sorted((p.name, s) for p in problems for s in solvers)
    for (problem, solver), later in zip(cells, cells[1:]):
        if (problem, solver) == later:
            raise ValueError(f"the cell ({problem}, {solver}) is selected twice")


def run_batch(
    problems: Sequence[ProblemDef],
    solvers: Sequence[str],
    config: Optional[SolverConfig] = None,
) -> List[RunRecord]:
    """Run every (problem, solver) cell with fresh state, one after another.

    A solver failure (a :class:`~regulus.core.SolverError`, which includes
    a NaN or inf value or gradient) becomes that record's status and the
    batch goes on. Any other exception, such as one the objective raises
    itself, is a bug and propagates. Records come back in canonical
    (problem, solver) order and their contents are deterministic for a fixed
    config, apart from wall times. The selection must pass :func:`check_batch`.
    """
    check_batch(problems, solvers)
    records = [
        RunRecord.from_report(p.name, SOLVERS[s](p.objective, p.x0, config))
        for p in problems
        for s in solvers
    ]
    records.sort(key=lambda r: (r.problem, r.solver))
    return records


def performance_profile(
    records: Sequence[RunRecord],
    metric: str = "n_f",
    tau_grid: Sequence[float] = DEFAULT_TAU_GRID,
    union: bool = False,
) -> List[ProfileCurve]:
    """Distribution curves F_s(tau) over the given tau grid.

    By default restricts to the problems solved by every solver present in
    the records relative to the per-problem best cost; ``union=True`` keeps
    problems solved by at least one solver instead, assigning failed runs an
    infinite cost. Raises :class:`EmptyIntersectionError` when no problem
    qualifies.
    """
    if metric not in ("n_f", "wall_time"):
        raise ValueError(f"unsupported metric: {metric!r}")
    # inf would count a failed run, whose cost is inf, as solved; NaN fails too
    if not tau_grid or any(not 1.0 <= t < float("inf") for t in tau_grid):
        raise ValueError("tau grid values must be finite and >= 1")
    row = {p: i for i, p in enumerate(sorted({r.problem for r in records}))}
    solvers = sorted({r.solver for r in records})
    column = {s: j for j, s in enumerate(solvers)}
    # A cell is the converged run's cost, inf for a failed run, NaN for no run.
    cost = np.full((len(row), len(solvers)), np.nan)
    for r in records:
        cell = row[r.problem], column[r.solver]
        if not np.isnan(cost[cell]):
            raise ValueError(f"duplicate record for ({r.problem}, {r.solver})")
        cost[cell] = getattr(r, metric) if r.status is Status.CONVERGED else np.inf
    solved = np.isfinite(cost)
    rows = solved.any(axis=1) if union else solved.all(axis=1)
    cost, solved = cost[rows], solved[rows]
    if not len(cost):
        who = "any selected solver" if union else "all selected solvers"
        raise EmptyIntersectionError(f"no problem was solved by {who}")

    taus = sorted({float(t) for t in tau_grid})
    best = np.nanmin(cost, axis=1, keepdims=True)
    # tau * best, not cost / best <= tau: the quotient rounds differently.
    # Where the product overflows every solved cell is within it, and a
    # failed cell (inf <= inf) must still not count.
    with np.errstate(over="ignore"):
        hits = [np.count_nonzero(solved & (cost <= tau * best), axis=0) for tau in taus]
    return [
        ProfileCurve(s, tuple((tau, int(h[j]) / len(cost)) for tau, h in zip(taus, hits)))
        for j, s in enumerate(solvers)
    ]


def write_records(records: Iterable[RunRecord], handle: TextIO) -> None:
    """Write the records as CSV to a text file opened with ``newline=""``."""
    writer = csv.writer(handle)
    writer.writerow(CSV_FIELDS)
    # csv writes a float as its repr, so every value reads back exactly.
    for r in records:
        cells = (getattr(r, name) for name in CSV_FIELDS)
        writer.writerow([c.value if isinstance(c, Status) else c for c in cells])


def read_records(path: Union[str, Path]) -> List[RunRecord]:
    records = []
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        missing = set(CSV_FIELDS) - set(reader.fieldnames or ())
        if missing:
            raise ValueError(f"records file is missing columns: {sorted(missing)}")
        for row in reader:
            where = f"{path}:{reader.line_num}"
            # DictReader fills a short row with None and keys extra fields None.
            if None in row or None in row.values():
                raise ValueError(f"{where}: expected {len(reader.fieldnames)} fields")
            try:
                cells = {name: _COLUMN_TYPES[name](row[name]) for name in CSV_FIELDS}
                records.append(RunRecord(**cells))
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
    return records


def write_profile(curves: Iterable[ProfileCurve], handle: TextIO) -> None:
    """Write the curves as CSV to a text file opened with ``newline=""``."""
    writer = csv.writer(handle)
    writer.writerow(["solver", "tau", "fraction"])
    for curve in curves:
        for tau, fraction in curve.points:
            writer.writerow([curve.solver, tau, fraction])
