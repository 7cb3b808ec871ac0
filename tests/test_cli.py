import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import regulus.cli
from regulus.cli import main
from regulus.harness import read_records
from regulus.core import SolverConfig
from regulus.solvers import SOLVERS, solve_rlbfgs


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
    assert "error: unknown problem family: 'no-such-problem'\n" in capsys.readouterr().err


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
    assert main(["solve", "rosenbrock:2", "-p", "=1"]) == 2
    assert main(["solve", "rosenbrock:2", "-p", "m="]) == 2


def test_params_reach_the_solver_exactly(monkeypatch, capsys):
    # Integers are read as integers: 2**53 + 1 is no float, the largest
    # memory m the config allows is accepted by -p as by the constructor,
    # and an integral 5.0 reaches the solver as the int 5.
    configs = []

    def capture(objective, x0, config, trace=None):
        configs.append(config)
        return solve_rlbfgs(objective, x0, config, trace)

    monkeypatch.setitem(SOLVERS, "rlbfgs", capture)
    assert main(["solve", "beale", "-p", "max_fevals=9007199254740993"]) == 0
    assert main(["solve", "beale", "-p", f"m={sys.maxsize}"]) == 0
    assert main(["solve", "beale", "-p", "m=5.0"]) == 0
    assert configs[0].max_fevals == 9007199254740993
    assert configs[1].m == sys.maxsize
    assert type(configs[2].m) is int and configs[2].m == 5


@pytest.mark.parametrize("argv", [
    ["beale", "-p", "m=inf"],
    ["beale", "-p", "max_fevals=1e400"],
    ["beale", "-p", "m=1e30"],
    ["beale", "-p", "M=1e30"],
    ["trigonometric:0"],
    ["beale@0"],
    ["beale@nan"],
    ["beale", "-p", "mu_max=inf"],
    ["beale", "-p", "alpha_floor=1e-8"],
    ["beale", "-p", "grad_tol=inf"],
    ["beale", "-p", "gamma2=inf"],
    ["beale", "-p", "m=5.5"],
    ["powell-singular:6"],
    ["quadratic-ill:10"],
    ["hilbert:1"],
    ["hilbert:65"],
    ["dixon-price:1"],
    ["engval1:1"],
    ["beale", "--trace", ""],
    ["beale", "--config", ""],
], ids=["m-inf", "max_fevals-overflow", "m-huge", "M-huge", "dimension-zero",
        "scale-zero", "scale-nan", "mu_max-inf", "alpha_floor-gone", "grad_tol-inf",
        "gamma2-inf", "m-fraction", "powell-singular-6", "quadratic-ill-10", "hilbert-1",
        "hilbert-65", "dixon-price-1", "engval1-1", "trace-empty", "config-empty"])
def test_solve_out_of_range_input_is_usage_error(argv, monkeypatch, capsys):
    # Non-finite, fractional or oversized integers, empty problems and
    # dimensions outside a family's range are usage errors, not an
    # OverflowError or ZeroDivisionError traceback or an empty solve.
    monkeypatch.setitem(SOLVERS, "rlbfgs", _no_solve)
    assert main(["solve", *argv]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "bench"])
def test_out_of_memory_problem_is_usage_error(command, monkeypatch, capsys, tmp_path):
    # A dimension that fits the address space but not memory makes numpy
    # raise MemoryError while the problem is built, or later, once the solve
    # has started. Both are faked here; nothing is allocated.
    def no_memory(name):
        raise MemoryError(f"unable to allocate the problem {name!r}")

    def no_memory_in_solve(*args, **kwargs):
        raise MemoryError("unable to allocate a trial point")

    out = tmp_path / "records.csv"
    argv = {
        "solve": ["solve", "beale"],
        "bench": ["bench", "--problems", "beale", "--solvers", "rlbfgs", "--out", str(out)],
    }[command]
    with monkeypatch.context() as patch:
        patch.setattr(regulus.cli, "get_problem", no_memory)
        patch.setitem(SOLVERS, "rlbfgs", _no_solve)
        assert main(argv) == 2
        assert "unable to allocate the problem 'beale'" in capsys.readouterr().err
    monkeypatch.setitem(SOLVERS, "rlbfgs", no_memory_in_solve)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "error: unable to allocate a trial point" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""
    if command == "bench":
        assert out.read_text() == ""


def test_solve_far_start(capsys):
    assert main(["solve", "penalty1:100@100", "--solver", "lbfgs"]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "Converged"


def _strict_json(text):
    """``json.loads`` that rejects NaN, Infinity and -Infinity, as RFC 8259 does."""

    def reject(constant):
        raise ValueError(f"not strict JSON: {constant}")

    return json.loads(text, parse_constant=reject)


def test_solve_report_is_strict_json(capsys):
    # The start overflows the value to NaN and the scaled residual to inf.
    code = main(["solve", "hilbert:10@1e300"])
    report = _strict_json(capsys.readouterr().out)
    assert code == 1
    assert report["status"] == "NumericalBreakdown"
    assert (report["final_f"], report["final_residual"]) == ("nan", "inf")
    assert float(report["final_residual"]) == float("inf")


def test_far_starts_print_nothing_on_stderr(tmp_path):
    # Each start overflows the objective at x0; the overflow ends as a status
    # in the report, and numpy prints no RuntimeWarning on the way.
    proc = _cli_process(["solve", "hilbert:10@1e300"], subprocess.PIPE)
    out, err = proc.communicate(timeout=120)
    report = _strict_json(out)
    assert (proc.returncode, err) == (1, b"")
    assert (report["status"], report["n_f"], report["n_g"]) == ("NumericalBreakdown", 1, 0)
    assert (report["final_f"], report["final_residual"]) == ("nan", "inf")

    records_path = tmp_path / "records.csv"
    proc = _cli_process(["bench", "--problems", "rosenbrock:2@1e300,powell-singular:100@1e200",
                         "--out", str(records_path)], subprocess.PIPE)
    out, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (0, b"")
    assert out == f"wrote 6 records to {records_path} (0 converged)\n".encode()
    rows = [(r.problem, r.solver, r.status.value, r.n_f, r.n_g, r.iterations, r.final_residual)
            for r in read_records(records_path)]
    assert rows == [(problem, solver, "NumericalBreakdown", 1, 0, 0, float("inf"))
                    for problem in ("powell-singular:100@1e+200", "rosenbrock:2@1e+300")
                    for solver in ("lbfgs", "rlbfgs", "rlbfgs-sw")]


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


def test_empty_config_path_is_named_as_given(monkeypatch, capsys):
    # An empty path names itself, not the current directory that
    # Path("") stands for.
    monkeypatch.setitem(SOLVERS, "rlbfgs", _no_solve)
    assert main(["solve", "beale", "--config", ""]) == 2
    err = capsys.readouterr().err
    assert "''" in err and "'.'" not in err, err


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


def test_config_file_and_params_are_validated_once_merged(tmp_path, monkeypatch, capsys):
    # The file alone (mu_min above the default mu0) and the overrides alone
    # are invalid; merged, they make a valid config, the same as passing
    # every entry by -p. A file that is valid alone can merge into an
    # invalid config.
    configs = []

    def capture(objective, x0, config, trace=None):
        configs.append(config)
        return solve_rlbfgs(objective, x0, config, trace)

    monkeypatch.setitem(SOLVERS, "rlbfgs", capture)
    config = tmp_path / "solver.cfg"
    config.write_text("mu_min = 2\n")
    assert main(["solve", "beale", "--config", str(config), "-p", "mu0=3"]) == 0
    assert main(["solve", "beale", "-p", "mu_min=2", "-p", "mu0=3"]) == 0
    assert configs[0] == configs[1] == SolverConfig(mu_min=2.0, mu0=3.0)
    config.write_text("mu0 = 3\n")
    assert main(["solve", "beale", "--config", str(config), "-p", "mu_min=4"]) == 2
    assert len(configs) == 2


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
    assert all(0.0 <= float(line.split(",")[2]) <= 1.0 for line in lines[1:])


def _bench(tmp_path, name, problems, solvers):
    path = tmp_path / name
    assert main(["bench", "--problems", problems, "--solvers", solvers, "--out", str(path)]) == 0
    return path.read_text()


def test_profile_of_a_missing_cell(tmp_path, capsys):
    # beale has no rlbfgs record: intersection drops it, --union charges it inf.
    both = _bench(tmp_path, "both.csv", "rosenbrock:2", "lbfgs,rlbfgs")
    one = _bench(tmp_path, "one.csv", "beale", "lbfgs")
    records_path = tmp_path / "records.csv"
    records_path.write_text(both + one.split("\n", 1)[1])
    profile_path = tmp_path / "profile.csv"
    fractions = {}
    for extra in ([], ["--union"]):
        argv = ["profile", "--in", str(records_path), "--out", str(profile_path), "--tau", "1e9"]
        assert main(argv + extra) == 0
        fractions[tuple(extra)] = profile_path.read_text().splitlines()[1:]
    assert fractions[()] == ["lbfgs,1000000000.0,1.0", "rlbfgs,1000000000.0,1.0"]
    assert fractions[("--union",)] == ["lbfgs,1000000000.0,1.0", "rlbfgs,1000000000.0,0.5"]


def test_profile_union_on_time(tmp_path, capsys):
    records_path = tmp_path / "records.csv"
    records_path.write_text(
        "problem,solver,status,n_f,n_g,iterations,wall_time,final_residual\n"
        "p1,a,Converged,9,9,8,0.5,1e-06\n"
        "p1,b,Converged,1,1,1,1.0,1e-06\n"
        "p2,a,Converged,9,9,8,0.25,1e-06\n"
        "p2,b,EvalBudgetExceeded,1,1,1,0.25,1e-06\n"
    )
    profile_path = tmp_path / "profile.csv"
    argv = ["profile", "--in", str(records_path), "--out", str(profile_path),
            "--union", "--metric", "time", "--tau", "2,1,2"]
    assert main(argv) == 0
    assert profile_path.read_text().splitlines() == [
        "solver,tau,fraction", "a,1.0,1.0", "a,2.0,1.0", "b,1.0,0.0", "b,2.0,0.5",
    ]


def test_profile_tau_whose_product_overflows_never_counts_a_failed_run(tmp_path, capsys):
    # 1e308 * 10 overflows to inf, which a failed cell's inf cost does not pass.
    records_path = tmp_path / "records.csv"
    records_path.write_text(
        RECORD_HEADER
        + "p,a,Converged,10,10,9,0.5,1e-06\n"
        + "p,b,LineSearchFailure,10,10,9,0.5,1e-06\n"
    )
    profile_path = tmp_path / "profile.csv"
    argv = ["profile", "--in", str(records_path), "--out", str(profile_path),
            "--union", "--metric", "nf", "--tau", "1,1e308"]
    assert main(argv) == 0
    assert profile_path.read_text().splitlines() == [
        "solver,tau,fraction", "a,1.0,1.0", "a,1e+308,1.0", "b,1.0,0.0", "b,1e+308,0.0",
    ]
    assert capsys.readouterr().err == ""


def test_bench_unknown_solver_is_usage_error(capsys):
    assert main(["bench", "--solvers", "nope", "--out", "/tmp/x.csv"]) == 2
    assert "error: unknown solvers: ['nope']\n" in capsys.readouterr().err


@pytest.mark.parametrize("problems, solvers", [
    ("beale,beale", "lbfgs"),
    ("beale,beale:2", "lbfgs"),
    ("beale", "lbfgs,lbfgs"),
    ("beale@10,beale@1e1", "lbfgs"),
])
def test_bench_repeated_cell_is_usage_error(tmp_path, monkeypatch, capsys, problems, solvers):
    # A repeated (problem, solver) cell would write records that profile
    # rejects; no records file is created.
    monkeypatch.setattr(regulus.cli, "run_batch", _no_solve)
    records_path = tmp_path / "records.csv"
    argv = ["bench", "--problems", problems, "--solvers", solvers, "--out", str(records_path)]
    assert main(argv) == 2
    assert "selected twice" in capsys.readouterr().err
    assert not records_path.exists()


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
    (RECORD_ROW, ["--tau", "1,2,inf"]),
    (RECORD_ROW * 2, []),  # a repeated (problem, solver) record
    ("beale:2,lbfgs,Converged,10\n", []),  # a row with fields missing
    (RECORD_ROW, ["--tau", ""]),
], ids=["tau-below-one", "tau-nan", "tau-inf", "duplicate-record", "short-row", "tau-empty"])
def test_profile_bad_input_is_usage_error(tmp_path, capsys, rows, extra):
    records_path = tmp_path / "records.csv"
    records_path.write_text(RECORD_HEADER + rows)
    profile_path = tmp_path / "profile.csv"
    code = main(["profile", "--in", str(records_path), "--out", str(profile_path), *extra])
    assert code == 2
    assert "error" in capsys.readouterr().err
    assert not profile_path.exists()


@pytest.mark.parametrize("row", [
    "beale:2,lbfgs,Converged,x,9,8,0.01,2e-06\n",
    "beale:2,lbfgs,Done,10,9,8,0.01,2e-06\n",
    "beale:2,lbfgs,Converged,-2,9,8,0.01,2e-06\n",
    "beale:2,lbfgs,Converged,10,9,8,nan,2e-06\n",
], ids=["bad-count", "bad-status", "negative-count", "nan-time"])
def test_profile_bad_value_is_usage_error_naming_its_line(tmp_path, capsys, row):
    records_path = tmp_path / "records.csv"
    records_path.write_text(RECORD_HEADER + row)
    profile_path = tmp_path / "profile.csv"
    code = main(["profile", "--in", str(records_path), "--out", str(profile_path)])
    assert code == 2
    assert f"error: {records_path}:2: " in capsys.readouterr().err
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


def test_profile_empty_union_exit_code(tmp_path, capsys):
    records_path = tmp_path / "records.csv"
    records_path.write_text(RECORD_HEADER + "beale:2,lbfgs,LineSearchFailure,10,9,8,0.01,2e-06\n")
    profile_path = tmp_path / "profile.csv"
    code = main(["profile", "--in", str(records_path), "--out", str(profile_path), "--union"])
    assert code == 1
    assert capsys.readouterr().err == "error: no problem was solved by any selected solver\n"
    assert not profile_path.exists()


def _cli_process(argv, stdout):
    """``python -m regulus *argv`` on the ``regulus`` these tests imported,
    whether a source tree or an installed package."""
    root = str(Path(regulus.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")])))
    return subprocess.Popen([sys.executable, "-m", "regulus", *argv], env=env,
                            stdout=stdout, stderr=subprocess.PIPE)


@pytest.mark.parametrize("command", ["solve", "bench"])
def test_closed_stdout_exits_without_traceback(tmp_path, command):
    argv = {
        "solve": ["solve", "rosenbrock:1000"],
        "bench": ["bench", "--problems", "beale", "--solvers", "rlbfgs",
                  "--out", str(tmp_path / "records.csv")],
    }[command]
    proc = _cli_process(argv, subprocess.PIPE)
    proc.stdout.close()  # the reader goes away before the command writes
    with proc.stderr:
        err = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == regulus.cli.BROKEN_PIPE
    assert "Traceback" not in err and "BrokenPipeError" not in err, err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that is always full")
@pytest.mark.parametrize("argv, stdout", [
    (["solve", "beale", "--trace", "/dev/full"], os.devnull),
    (["bench", "--problems", "beale", "--solvers", "lbfgs", "--out", "/dev/full"], os.devnull),
    (["solve", "beale"], "/dev/full"),
], ids=["trace", "records", "stdout"])
def test_failed_write_is_an_io_error(argv, stdout):
    # A full disk is neither "did not converge" (1) nor a traceback.
    with open(stdout, "w") as out:
        proc = _cli_process(argv, out)
        with proc.stderr:
            err = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == regulus.cli.IO_ERROR
    assert "Traceback" not in err and "No space left on device" in err, err
