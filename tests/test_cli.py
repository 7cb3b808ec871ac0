import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import regulus.cli
from regulus.cli import main
from regulus.harness import read_records
from regulus.solvers import SOLVERS


def _no_solve(*args, **kwargs):
    raise AssertionError("a solve started despite a usage error")


def test_solve_happy_path(capsys):
    code = main(["solve", "rosenbrock:2", "--solver", "rlbfgs"])
    out = capsys.readouterr().out
    report = json.loads(out)
    assert code == 0
    assert report["status"] == "Converged"
    assert report["solver_name"] == "rlbfgs"
    assert report["n_f"] <= 10000
    assert report["final_residual"] < 1e-5


def test_solve_unknown_solver_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["solve", "rosenbrock:2", "--solver", "sgd"])
    assert info.value.code == 2


def test_solve_unknown_problem_is_usage_error(capsys):
    assert main(["solve", "no-such-problem"]) == 2
    assert "error" in capsys.readouterr().err


def test_solve_failure_exit_code(capsys):
    code = main([
        "solve", "rosenbrock:2", "--solver", "rlbfgs", "-p", "max_fevals=5",
    ])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["status"] == "EvalBudgetExceeded"


def test_solve_bad_param_is_usage_error(capsys):
    assert main(["solve", "rosenbrock:2", "-p", "max_fevals"]) == 2
    assert main(["solve", "rosenbrock:2", "-p", "bogus=1"]) == 2


@pytest.mark.parametrize("argv", [
    ["beale", "-p", "m=inf"],
    ["beale", "-p", "max_fevals=1e400"],
    ["beale", "-p", "m=1e30"],
    ["beale", "-p", "M=1e30"],
    ["trigonometric:0"],
    ["beale@0"],
    ["beale@nan"],
], ids=["m-inf", "max_fevals-overflow", "m-huge", "M-huge", "dimension-zero",
        "scale-zero", "scale-nan"])
def test_solve_out_of_range_input_is_usage_error(argv, monkeypatch, capsys):
    # Non-finite or oversized integers and empty problems are usage errors,
    # not an OverflowError or ZeroDivisionError traceback or an empty solve.
    monkeypatch.setitem(SOLVERS, "rlbfgs", _no_solve)
    assert main(["solve", *argv]) == 2
    assert "error" in capsys.readouterr().err


def test_solve_far_start(capsys):
    assert main(["solve", "penalty1:100@100", "--solver", "lbfgs"]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "Converged"


def test_solve_trace_file(tmp_path, capsys):
    trace_path = tmp_path / "trace.jsonl"
    code = main(["solve", "beale", "--trace", str(trace_path)])
    assert code == 0
    lines = trace_path.read_text().splitlines()
    assert lines
    for k, line in enumerate(lines):
        entry = json.loads(line)
        assert entry["k"] == k
        assert set(entry) >= {"k", "mu", "ratio", "gnorm", "alpha", "nf"}


def test_solve_unwritable_trace_is_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(SOLVERS, "rlbfgs", _no_solve)
    trace_path = tmp_path / "missing-dir" / "trace.jsonl"
    assert main(["solve", "rosenbrock:2", "--trace", str(trace_path)]) == 2
    assert "error" in capsys.readouterr().err


def test_solve_with_config_file(tmp_path, capsys):
    config = tmp_path / "solver.cfg"
    config.write_text("max_fevals = 5\n")
    code = main(["solve", "rosenbrock:2", "--config", str(config)])
    assert code == 1  # budget too small to converge
    # explicit params override the file
    code = main([
        "solve", "rosenbrock:2", "--config", str(config), "-p", "max_fevals=10000",
    ])
    assert code == 0


def test_bench_profile_pipeline(tmp_path, capsys):
    records_path = tmp_path / "records.csv"
    code = main([
        "bench",
        "--problems", "rosenbrock:2,beale:2",
        "--solvers", "lbfgs,rlbfgs",
        "--out", str(records_path),
    ])
    assert code == 0
    records = read_records(records_path)
    assert len(records) == 4

    profile_path = tmp_path / "profile.csv"
    code = main([
        "profile", "--in", str(records_path),
        "--metric", "nf",
        "--tau", "1,2,4",
        "--out", str(profile_path),
    ])
    assert code == 0
    lines = profile_path.read_text().splitlines()
    assert lines[0] == "solver,tau,fraction"
    assert len(lines) == 1 + 2 * 3


def test_bench_unknown_solver_is_usage_error(capsys):
    assert main(["bench", "--solvers", "nope", "--out", "/tmp/x.csv"]) == 2


def test_bench_unwritable_out_is_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(regulus.cli, "run_batch", _no_solve)
    records_path = tmp_path / "missing-dir" / "records.csv"
    assert main(["bench", "--problems", "rosenbrock:2", "--out", str(records_path)]) == 2
    assert "error" in capsys.readouterr().err


RECORD_HEADER = "problem,solver,status,n_f,n_g,iterations,wall_time,final_residual\n"
RECORD_ROW = "beale:2,rlbfgs,Converged,16,14,13,0.01,2.1e-06\n"


@pytest.mark.parametrize("rows, extra", [
    (RECORD_ROW, ["--tau", "0.5"]),
    (RECORD_ROW, ["--tau", "nan,2"]),
    (RECORD_ROW * 2, []),  # a repeated (problem, solver) record
], ids=["tau-below-one", "tau-nan", "duplicate-record"])
def test_profile_bad_input_is_usage_error(tmp_path, capsys, rows, extra):
    records_path = tmp_path / "records.csv"
    records_path.write_text(RECORD_HEADER + rows)
    profile_path = tmp_path / "profile.csv"
    code = main(["profile", "--in", str(records_path), "--out", str(profile_path), *extra])
    assert code == 2
    assert "error" in capsys.readouterr().err
    assert not profile_path.exists()


def test_profile_empty_intersection_exit_code(tmp_path, capsys):
    records_path = tmp_path / "records.csv"
    main([
        "bench",
        "--problems", "rosenbrock:2",
        "--solvers", "lbfgs,rlbfgs",
        "-p", "max_fevals=3",
        "--out", str(records_path),
    ])
    profile_path = tmp_path / "profile.csv"
    code = main([
        "profile", "--in", str(records_path), "--out", str(profile_path),
    ])
    assert code == 1
    assert "no problem" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "bench"])
def test_closed_stdout_exits_without_traceback(tmp_path, command):
    argv = {
        "solve": ["solve", "rosenbrock:1000"],
        "bench": ["bench", "--problems", "beale", "--solvers", "rlbfgs",
                  "--out", str(tmp_path / "records.csv")],
    }[command]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen([sys.executable, "-m", "regulus", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()  # the reader goes away before the command writes
    with proc.stderr:
        err = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == regulus.cli.BROKEN_PIPE
    assert "Traceback" not in err and "BrokenPipeError" not in err, err
