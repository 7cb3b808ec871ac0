import re
import warnings

import numpy as np
import pytest

from regulus.core import Objective, SolverConfig, Status
from regulus.harness import (
    DEFAULT_TAU_GRID,
    EmptyIntersectionError,
    ProfileCurve,
    RunRecord,
    performance_profile,
    read_records,
    run_batch,
    write_records,
)
from regulus.problems import get_problem


def reference_profile(records, metric, tau_grid, union):
    """The per-problem dict form of the profile, one branch for union and
    one for intersection. `performance_profile` must match it exactly."""
    solvers = sorted({r.solver for r in records})
    by_problem = {}
    for r in records:
        cell = by_problem.setdefault(r.problem, {})
        assert r.solver not in cell
        cell[r.solver] = r
    costs = {}
    for problem, cell in by_problem.items():
        solved = {s: r for s, r in cell.items() if r.status is Status.CONVERGED}
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
        return None
    taus = sorted(float(t) for t in tau_grid)
    best = {p: min(c.values()) for p, c in costs.items()}
    return [
        ProfileCurve(s, tuple(
            (tau, sum(1 for p in costs if costs[p][s] <= tau * best[p]) / len(costs))
            for tau in taus
        ))
        for s in solvers
    ]


def record(problem, solver, status=Status.CONVERGED, n_f=10, wall_time=1.0):
    return RunRecord(
        problem=problem,
        solver=solver,
        status=status,
        n_f=n_f,
        n_g=n_f,
        iterations=5,
        wall_time=wall_time,
        final_residual=1e-6,
    )


SMALL = [get_problem("rosenbrock:2"), get_problem("beale")]


def test_batch_cardinality_and_order():
    records = run_batch(SMALL, ["rlbfgs", "lbfgs", "rlbfgs-sw"])
    assert len(records) == 6
    keys = [(r.problem, r.solver) for r in records]
    assert keys == sorted(keys)


def test_batch_records_failures_without_aborting():
    records = run_batch(SMALL, ["rlbfgs"], SolverConfig(max_fevals=2))
    assert len(records) == 2
    assert all(r.status is Status.EVAL_BUDGET_EXCEEDED for r in records)


def test_batch_serial_determinism():
    first = run_batch(SMALL, ["rlbfgs", "lbfgs"])
    second = run_batch(SMALL, ["rlbfgs", "lbfgs"])
    for a, b in zip(first, second):
        assert (a.problem, a.solver, a.status, a.n_f, a.n_g, a.iterations) == (
            b.problem, b.solver, b.status, b.n_f, b.n_g, b.iterations
        )
        assert a.final_residual == b.final_residual


def test_batch_validates_selections():
    with pytest.raises(ValueError):
        run_batch([], ["rlbfgs"])
    with pytest.raises(KeyError):
        run_batch(SMALL, ["nope"])
    with pytest.raises(ValueError, match="selected twice"):
        run_batch([SMALL[0], SMALL[0]], ["rlbfgs"])


def test_batch_propagates_objective_exceptions():
    # An exception the objective raises itself is a bug, not a solver
    # outcome: it must not be recorded as a status with n_f = 0.
    calls = []

    def value(x):
        calls.append(x)
        raise TypeError("broken objective")

    broken = SMALL[0]._replace(
        name="broken:2", objective=Objective(2, value, lambda x: np.zeros(2))
    )
    with pytest.raises(TypeError, match="broken objective"):
        run_batch([broken], ["rlbfgs"])
    assert len(calls) == 1


def test_profile_two_solver_example():
    # n_f: p1 -> (2, 4), p2 -> (6, 3); best (2, 3)
    # ratios: s1 -> (1, 2), s2 -> (2, 1); cost within tau*best counts
    # wall_time ranks p1 the other way: p1 -> (0.75, 0.25), p2 -> (0.5, 0.5)
    # ratios: s1 -> (3, 1), s2 -> (1, 1)
    records = [
        record("p1", "s1", n_f=2, wall_time=0.75),
        record("p1", "s2", n_f=4, wall_time=0.25),
        record("p2", "s1", n_f=6, wall_time=0.5),
        record("p2", "s2", n_f=3, wall_time=0.5),
    ]
    for metric, expected in [
        ("n_f", {"s1": (0.5, 1.0, 1.0), "s2": (0.5, 1.0, 1.0)}),
        ("wall_time", {"s1": (0.5, 0.5, 1.0), "s2": (1.0, 1.0, 1.0)}),
    ]:
        curves = performance_profile(records, metric, (1.0, 2.0, 3.0))
        assert {c.solver: c.points for c in curves} == {
            s: tuple(zip((1.0, 2.0, 3.0), f)) for s, f in expected.items()
        }


def test_profile_single_solver_is_self_best():
    records = [record("p1", "s1", n_f=7), record("p2", "s1", n_f=3)]
    (curve,) = performance_profile(records, "n_f", (1.0, 2.0))
    assert dict(curve.points)[1.0] == 1.0


def test_profile_identical_times_tie():
    records = [
        record("p1", "s1", n_f=5),
        record("p1", "s2", n_f=5),
    ]
    curves = performance_profile(records, "n_f", (1.0,))
    assert all(c.points[0][1] == 1.0 for c in curves)


def test_profile_restricts_to_commonly_solved():
    records = [
        record("p1", "s1", n_f=2),
        record("p1", "s2", n_f=4),
        record("p2", "s1", n_f=6),
        record("p2", "s2", status=Status.EVAL_BUDGET_EXCEEDED),
    ]
    curves = {
        c.solver: dict(c.points)
        for c in performance_profile(records, "n_f", (1.0, 2.0))
    }
    # only p1 qualifies
    assert curves["s1"][1.0] == 1.0
    assert curves["s2"][2.0] == 1.0


def test_profile_union_keeps_partially_solved():
    records = [
        record("p1", "s1", n_f=2),
        record("p1", "s2", n_f=4),
        record("p2", "s1", n_f=6),
        record("p2", "s2", status=Status.EVAL_BUDGET_EXCEEDED),
    ]
    curves = {
        c.solver: dict(c.points)
        for c in performance_profile(records, "n_f", (1.0, 2.0), union=True)
    }
    assert curves["s1"][1.0] == 1.0  # best on both problems
    assert curves["s2"][2.0] == 0.5  # never finishes p2


def test_profile_empty_intersection():
    records = [
        record("p1", "s1", status=Status.LINE_SEARCH_FAILURE),
        record("p1", "s2", n_f=4),
        record("p2", "s1", n_f=6),
        record("p2", "s2", status=Status.EVAL_BUDGET_EXCEEDED),
    ]
    with pytest.raises(EmptyIntersectionError):
        performance_profile(records, "n_f", (1.0,))


def test_profile_never_counts_a_failed_run_when_tau_times_best_overflows():
    # 1e308 * 10 overflows to inf, and a failed cell's cost is inf too.
    records = [record("p", "a", n_f=10), record("p", "b", status=Status.LINE_SEARCH_FAILURE)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        curves = performance_profile(records, "n_f", (1.0, 1e307, 1e308), union=True)
    assert curves == [
        ProfileCurve("a", ((1.0, 1.0), (1e307, 1.0), (1e308, 1.0))),
        ProfileCurve("b", ((1.0, 0.0), (1e307, 0.0), (1e308, 0.0))),
    ]


def test_profile_empty_message_names_the_rule():
    records = [record("p1", "s1", status=Status.LINE_SEARCH_FAILURE)]
    with pytest.raises(EmptyIntersectionError, match="^no problem was solved by all selected solvers$"):
        performance_profile(records, "n_f", (1.0,))
    with pytest.raises(EmptyIntersectionError, match="^no problem was solved by any selected solver$"):
        performance_profile(records, "n_f", (1.0,), union=True)


def test_profile_rejects_duplicates_and_bad_grid():
    records = [record("p1", "s1"), record("p1", "s1")]
    with pytest.raises(ValueError):
        performance_profile(records, "n_f", (1.0,))
    with pytest.raises(ValueError):
        performance_profile([record("p1", "s1")], "n_f", (0.5,))
    with pytest.raises(ValueError):
        performance_profile([record("p1", "s1")], "n_f", (1.0, float("inf")))
    with pytest.raises(ValueError):
        performance_profile([record("p1", "s1")], "iterations", (1.0,))


def test_profile_curves_monotone_and_bounded(rng):
    # randomized record sets always give nondecreasing curves capped at 1
    solvers = ["a", "b", "c"]
    for _ in range(25):
        records = []
        for p in range(6):
            for s in solvers:
                status = Status.CONVERGED if rng.random() > 0.2 else Status.EVAL_BUDGET_EXCEEDED
                records.append(
                    record(f"p{p}", s, status=status, n_f=int(rng.integers(1, 100)))
                )
        try:
            curves = performance_profile(records, "n_f", DEFAULT_TAU_GRID, union=True)
        except EmptyIntersectionError:
            continue
        for curve in curves:
            fractions = [f for _, f in curve.points]
            assert all(0.0 <= f <= 1.0 for f in fractions)
            assert all(a <= b for a, b in zip(fractions, fractions[1:]))


def test_profile_matches_the_reference(rng):
    # Missing cells, failed runs, ties, both metrics, union and intersection,
    # and a repeated tau, which the profile counts once.
    statuses = [Status.CONVERGED] * 3 + [Status.EVAL_BUDGET_EXCEEDED]
    compared = 0
    for _ in range(400):
        solvers = [f"s{j}" for j in range(int(rng.integers(1, 5)))]
        records = [
            record(f"p{i}", s, statuses[rng.integers(len(statuses))],
                   n_f=int(rng.integers(0, 2**52)) if rng.random() < 0.2 else int(rng.integers(0, 9)),
                   wall_time=float(rng.choice([0.0, 0.5, 1.0, 1e6, rng.random()])))
            for i in range(int(rng.integers(0, 8)))
            for s in solvers
            if rng.random() > 0.15
        ]
        taus = rng.choice([1.0, 1.25, 1.5, 2.0, 3.0], size=int(rng.integers(1, 6))).tolist()
        for metric in ("n_f", "wall_time"):
            for union in (False, True):
                expected = reference_profile(records, metric, sorted(set(taus)), union)
                if expected is None:
                    with pytest.raises(EmptyIntersectionError):
                        performance_profile(records, metric, taus, union)
                    continue
                curves = performance_profile(records, metric, taus, union)
                assert curves == expected
                assert all(type(v) is float for c in curves for point in c.points for v in point)
                compared += 1
    assert compared > 400


def test_records_csv_round_trip(tmp_path):
    records = run_batch(SMALL, ["rlbfgs", "lbfgs"])
    path = tmp_path / "records.csv"
    with open(path, "w", newline="") as handle:
        write_records(records, handle)
    loaded = read_records(path)
    assert loaded == records


def test_read_records_rejects_missing_columns(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("problem,solver\nrosenbrock:2,rlbfgs\n")
    with pytest.raises(ValueError):
        read_records(path)


HEADER = "problem,solver,status,n_f,n_g,iterations,wall_time,final_residual\n"


@pytest.mark.parametrize("row", [
    "beale:2,lbfgs,Converged,10\n",
    "beale:2,lbfgs,Converged,10,9,8,0.01,2e-06,extra\n",
], ids=["short-row", "long-row"])
def test_read_records_rejects_rows_of_the_wrong_length(tmp_path, row):
    path = tmp_path / "bad.csv"
    path.write_text(HEADER + "beale:2,rlbfgs,Converged,10,9,8,0.01,2e-06\n" + row)
    with pytest.raises(ValueError, match=re.escape(f"{path}:3: expected 8 fields")):
        read_records(path)


@pytest.mark.parametrize("row, message", [
    ("beale:2,lbfgs,Converged,x,9,8,0.01,2e-06\n", "invalid literal for int()"),
    ("beale:2,lbfgs,Done,10,9,8,0.01,2e-06\n", "'Done' is not a valid Status"),
    ("beale:2,lbfgs,Converged,-2,9,8,0.01,2e-06\n", "n_f must be >= 0, got -2"),
    ("beale:2,lbfgs,Converged,10,9,8,nan,2e-06\n", "wall_time must be finite and >= 0, got nan"),
    ("beale:2,lbfgs,Converged,10,9,-1,0.01,2e-06\n", "iterations must be >= 0, got -1"),
    ("beale:2,lbfgs,Converged,10,9,8,inf,2e-06\n", "wall_time must be finite and >= 0, got inf"),
    ("beale:2,lbfgs,Converged,10,9,8,-0.5,2e-06\n", "wall_time must be finite and >= 0, got -0.5"),
], ids=["bad-count", "bad-status", "negative-count", "nan-time", "negative-iterations",
        "inf-time", "negative-time"])
def test_read_records_names_the_line_of_a_bad_value(tmp_path, row, message):
    path = tmp_path / "bad.csv"
    path.write_text(HEADER + "beale:2,rlbfgs,Converged,10,9,8,0.01,2e-06\n" + row)
    with pytest.raises(ValueError, match=re.escape(f"{path}:3: {message}")):
        read_records(path)
