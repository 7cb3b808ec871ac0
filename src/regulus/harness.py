"""Batch runner and performance-profile computation.

Runs solver-by-problem grids into flat records, persists them as CSV, and
computes the fraction-of-problems-solved-within-factor-tau distribution
curves used to compare solvers.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields
from pathlib import Path
from typing import (
    Dict, Iterable, List, Optional, Sequence, TextIO, Tuple, Union, get_type_hints,
)

from .core import RunReport, SolverConfig, Status
from .problems import ProblemDef
from .solvers import SOLVERS

DEFAULT_TAU_GRID = (1.0, 1.25, 1.5, 2.0, 3.0, 5.0, 8.0, 13.0, 21.0)


class EmptyIntersectionError(Exception):
    """No problem was solved by every selected solver."""


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
    config = config or SolverConfig()

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
    if not tau_grid or any(not t >= 1.0 for t in tau_grid):  # NaN too
        raise ValueError("tau grid values must be >= 1")
    solvers = sorted({r.solver for r in records})
    by_problem: Dict[str, Dict[str, RunRecord]] = {}
    for record in records:
        cell = by_problem.setdefault(record.problem, {})
        if record.solver in cell:
            raise ValueError(f"duplicate record for ({record.problem}, {record.solver})")
        cell[record.solver] = record

    costs: Dict[str, Dict[str, float]] = {}
    for problem, cell in by_problem.items():
        solved = {
            s: r for s, r in cell.items() if r.status is Status.CONVERGED
        }
        if union:
            if not solved:
                continue
        else:
            if len(solved) != len(solvers):
                continue
        costs[problem] = {
            s: (getattr(cell[s], metric) if s in solved else float("inf"))
            for s in solvers
        }
    if not costs:
        raise EmptyIntersectionError("no problem was solved by all selected solvers")

    taus = sorted(float(t) for t in tau_grid)
    best = {p: min(c.values()) for p, c in costs.items()}
    total = len(costs)
    curves = []
    for solver in solvers:
        points = []
        for tau in taus:
            hits = sum(
                1 for p in costs if costs[p][solver] <= tau * best[p]
            )
            points.append((tau, hits / total))
        curves.append(ProfileCurve(solver=solver, points=tuple(points)))
    return curves


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
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
            records.append(RunRecord(**cells))
    return records


def write_profile(curves: Iterable[ProfileCurve], handle: TextIO) -> None:
    """Write the curves as CSV to a text file opened with ``newline=""``."""
    writer = csv.writer(handle)
    writer.writerow(["solver", "tau", "fraction"])
    for curve in curves:
        for tau, fraction in curve.points:
            writer.writerow([curve.solver, repr(tau), repr(fraction)])
