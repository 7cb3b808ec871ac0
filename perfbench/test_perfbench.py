"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import regulus  # noqa: E402
import regulus.solvers  # noqa: E402
from regulus import SolverConfig  # noqa: E402

import cells  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def fingerprint(workload):
    """Starts, solvers, and the objective at a point off the start (the
    logistic start is zero whatever the data)."""
    out = []
    for problem, solver in workload.cells:
        probe = problem.x0 + 0.01
        out.append((problem.label, solver, problem.x0.tobytes(), problem.objective.value(probe)))
    return out


def test_command_line_names_every_workload():
    assert run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_repeat_per_seed_and_differ_between_seeds(name):
    build = workloads.WORKLOADS[name]
    assert fingerprint(build(7)) == fingerprint(build(7))
    assert fingerprint(build(7)) != fingerprint(build(8))


def test_jitter_keeps_zero_coordinates_and_stays_within_five_percent():
    for (problem, _), base in zip(workloads.grid(3).cells[::3], regulus.registry()):
        assert np.array_equal(problem.x0 == 0.0, base.x0 == 0.0)
        ratio = problem.x0[base.x0 != 0.0] / base.x0[base.x0 != 0.0]
        assert np.all(np.abs(ratio - 1.0) <= workloads.JITTER)


def small_workload():
    """A few grid cells that finish in well under a second."""
    wanted = {"rosenbrock:2#0", "powell-singular:100#1", "penalty1:100#0", "beale:2#1"}
    grid = workloads.grid(1)
    return grid._replace(cells=[c for c in grid.cells if c[0].label in wanted])


def keys(results):
    """What a run requires to repeat between passes, per cell."""
    return run.repeat_key([r.record(converged=None) for r in results])


def test_check_rejects_counters_that_disagree_with_raw_calls():
    problem, solver = small_workload().cells[0]
    result = cells.run_cell(problem, solver, SolverConfig())
    assert cells.check_cell(result, SolverConfig()) is True
    with pytest.raises(cells.CheckError, match="objective saw"):
        cells.check_cell(result._replace(value_calls=result.value_calls + 1), SolverConfig())
    with pytest.raises(cells.CheckError, match="objective saw"):
        cells.check_cell(result._replace(gradient_calls=result.gradient_calls - 1), SolverConfig())


def test_check_rejects_a_converged_report_with_a_bad_residual():
    problem, solver = small_workload().cells[0]
    result = cells.run_cell(problem, solver, SolverConfig())
    result.report.x = problem.x0
    with pytest.raises(cells.CheckError, match="residual"):
        cells.check_cell(result, SolverConfig())


def test_other_statuses_and_exceptions_count_as_failed_cells():
    problem, solver = small_workload().cells[0]
    config = SolverConfig(max_fevals=3)
    result = cells.run_cell(problem, solver, config)
    assert result.report.status is regulus.Status.EVAL_BUDGET_EXCEEDED
    assert cells.check_cell(result, config) is False

    def broken(x):
        raise RuntimeError("objective failed")

    raising = problem._replace(objective=regulus.Objective(problem.objective.dim, broken, broken))
    result = cells.run_cell(raising, solver, config)
    assert result.report is None and "objective failed" in result.error
    assert cells.check_cell(result, config) is False


def test_traced_and_untraced_runs_agree_and_self_times_add_up():
    workload = small_workload()
    untraced = cells.run_pass(workload)
    original = regulus.solvers.two_loop_direction
    tracer = tracing.Tracer()
    with tracer.installed():
        assert regulus.solvers.two_loop_direction is not original
        traced = cells.run_pass(workload, tracer)
    assert regulus.solvers.two_loop_direction is original
    assert tracer.absent == []
    assert keys(traced) == keys(untraced)
    assert all(r.probe_s > 0.0 for r in traced + untraced)

    summary = tracing.summarize(tracer.spans)
    nf = sum(r.value_calls for r in untraced)
    ng = sum(r.gradient_calls for r in untraced)
    assert summary[tracing.OBJECTIVE_VALUE]["calls"] == nf
    assert summary[tracing.OBJECTIVE_GRADIENT]["calls"] == ng
    assert summary[tracing.DRIVER]["calls"] == len(workload.cells)
    self_sum = sum(v["self_s"] for v in summary.values())
    assert self_sum == pytest.approx(summary[tracing.DRIVER]["total_s"], rel=1e-9)


def test_absent_entry_point_is_reported_and_the_run_goes_on(monkeypatch):
    entry_points = dict(tracing.ENTRY_POINTS)
    entry_points["direction.two_loop_direction"] = ("regulus.solvers", "renamed_direction")
    monkeypatch.setattr(tracing, "ENTRY_POINTS", entry_points)
    workload = small_workload()
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = cells.run_pass(workload, tracer)
    assert tracer.absent == ["direction.two_loop_direction"]
    assert tracing.summarize(tracer.spans)["direction.two_loop_direction"]["calls"] == 0
    assert keys(traced) == keys(cells.run_pass(workload))


def test_run_fails_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("trace, group", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_every_declared_metric(trace, group):
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())[group]
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "logistic", "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if trace:
        assert result["metrics"]["trace.absent"]["value"] == 0
        assert result["metrics"]["direction.calls"]["value"] > 0
