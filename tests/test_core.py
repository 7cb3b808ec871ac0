import math
from dataclasses import fields

import numpy as np
import pytest

from regulus.core import (
    EvalCounter,
    NumericalBreakdownError,
    Objective,
    RunReport,
    SolverConfig,
    Status,
    check_termination,
    evaluate,
    read_config_file,
    scaled_gradient_norm,
)

from conftest import quadratic_objective


def test_defaults_match_documented_values():
    cfg = SolverConfig()
    assert cfg.eta1 == 0.01
    assert cfg.eta2 == 0.9
    assert cfg.mu_min == 1e-3
    assert cfg.m == 5
    assert cfg.gamma1 == 0.1
    assert cfg.gamma2 == 10.0
    assert cfg.M == 10
    assert cfg.grad_tol == 1e-5
    assert cfg.max_fevals == 10000
    assert cfg.mu0 == 1.0
    assert cfg.c1 == 1e-4
    assert cfg.c2 == 0.9


@pytest.mark.parametrize(
    "bad",
    [
        {"mu0": 0.0},
        {"mu_min": 2.0, "mu0": 1.0},
        {"gamma1": 0.0},
        {"gamma1": 1.5},
        {"gamma2": 1.0},
        {"eta1": 0.0},
        {"eta1": 0.9, "eta2": 0.9},
        {"eta2": 1.5},
        {"m": 0},
        {"M": -1},
        {"c1": 0.5, "c2": 0.4},
        {"c2": 1.0},
        {"grad_tol": 0.0},
        {"max_fevals": 0},
        {"mu_max": math.inf},
        {"max_ls_iters": 0},
        {"grad_tol": math.inf},
        {"grad_tol": 10**400},
    ],
)
def test_config_validation(bad):
    with pytest.raises(ValueError):
        SolverConfig(**bad)


@pytest.mark.parametrize(
    "field", [f.name for f in fields(SolverConfig) if f.type in (float, "float")]
)
def test_config_rejects_nan(field):
    with pytest.raises(ValueError):
        SolverConfig(**{field: math.nan})
    with pytest.raises(ValueError):
        SolverConfig.from_mapping({field: "nan"})


def test_config_from_file(tmp_path):
    path = tmp_path / "solver.cfg"
    path.write_text(
        "# comment line\n"
        "\n"
        "mu0 = 2.5\n"
        "M = 8   # inline comment\n"
        "m=7\n"
        "grad_tol = 1e-6\n"
    )
    cfg = SolverConfig.from_mapping(read_config_file(path))
    assert cfg.mu0 == 2.5
    assert cfg.M == 8
    assert cfg.m == 7
    assert cfg.grad_tol == 1e-6
    # untouched fields keep their defaults
    assert cfg.gamma2 == 10.0


def test_config_from_file_rejects_unknown_key(tmp_path):
    path = tmp_path / "solver.cfg"
    path.write_text("not_a_field = 3\n")
    with pytest.raises(ValueError, match="unknown config key"):
        SolverConfig.from_mapping(read_config_file(path))


@pytest.mark.parametrize("line", ["mu0", "mu0 =", "= 2", "mu0 2"])
def test_config_file_rejects_a_line_without_key_and_value(tmp_path, line):
    path = tmp_path / "solver.cfg"
    path.write_text(f"m = 3\n{line}\n")
    with pytest.raises(ValueError, match="solver.cfg:2: expected 'key = value'"):
        read_config_file(path)


def test_config_from_mapping_rejects_fractional_int(tmp_path):
    with pytest.raises(ValueError, match="integer"):
        SolverConfig.from_mapping({"m": "2.5"})


@pytest.mark.parametrize("field", ["m", "M", "max_fevals", "max_ls_iters"])
def test_config_int_fields_take_integral_values_only(field):
    # An integral float or numpy scalar is stored as an int, so the deques
    # that m and M size accept it; anything else is a ValueError at
    # construction, not a TypeError inside a run.
    for value in (5.0, np.int64(5), np.float64(5.0)):
        stored = getattr(SolverConfig(**{field: value}), field)
        assert stored == 5 and type(stored) is int
    for value in (5.5, math.nan, math.inf, "5"):
        with pytest.raises(ValueError, match="integer"):
            SolverConfig(**{field: value})


def test_config_reads_integers_exactly():
    # 2**53 + 1 is the first integer a float cannot hold.
    for value in (2**53 + 1, str(2**53 + 1)):
        assert SolverConfig.from_mapping({"max_fevals": value}).max_fevals == 2**53 + 1
    assert SolverConfig.from_mapping({"max_fevals": 10**400}) == SolverConfig(max_fevals=10**400)
    assert SolverConfig.from_mapping({"max_fevals": "1e4"}).max_fevals == 10000


def test_config_float_fields_store_finite_floats():
    # An int in a float field is stored as a float, so a trace prints 1.0.
    stored = SolverConfig(mu0=1).mu0
    assert stored == 1.0 and type(stored) is float
    for value in (math.inf, -math.inf, 10**400, "1"):
        with pytest.raises(ValueError, match="gamma2 must be finite"):
            SolverConfig(gamma2=value)


def test_reprs():
    assert repr(EvalCounter(2, 3)) == "EvalCounter(n_f=2, n_g=3)"
    report = RunReport(Status.CONVERGED, 4, 1, EvalCounter(6, 5), 0.5, 1e-6, 0.01, "rlbfgs")
    assert repr(report) == f"RunReport({report.to_dict()!r})"


def test_evaluate_counts_and_values():
    obj = quadratic_objective(np.ones(2))
    counters = EvalCounter()
    x = np.array([3.0, 4.0])
    assert evaluate(obj, x, counters, "value") == 12.5
    assert counters.n_f == 1 and counters.n_g == 0
    np.testing.assert_array_equal(evaluate(obj, x, counters, "gradient"), [3.0, 4.0])
    assert counters.n_f == 1 and counters.n_g == 1
    value, gradient = evaluate(obj, x, counters, "both")
    assert value == 12.5
    np.testing.assert_array_equal(gradient, [3.0, 4.0])
    assert counters.n_f == 2 and counters.n_g == 2


def test_evaluate_rejects_nonfinite():
    bad = Objective(dim=1, value=lambda x: math.inf, gradient=lambda x: np.array([1.0]))
    with pytest.raises(NumericalBreakdownError):
        evaluate(bad, np.zeros(1), EvalCounter(), "value")
    bad_grad = Objective(
        dim=1, value=lambda x: 0.0, gradient=lambda x: np.array([math.nan])
    )
    with pytest.raises(NumericalBreakdownError):
        evaluate(bad_grad, np.zeros(1), EvalCounter(), "gradient")


def test_evaluate_rejects_dimension_mismatch():
    obj = quadratic_objective(np.ones(3))
    with pytest.raises(ValueError):
        evaluate(obj, np.zeros(2), EvalCounter(), "value")


def test_evaluate_rejects_an_unknown_request_and_charges_nothing():
    def never(x):
        raise AssertionError("an unknown request evaluated the objective")

    counters = EvalCounter()
    with pytest.raises(ValueError, match="unknown evaluation request: 'hessian'"):
        evaluate(Objective(2, never, never), np.zeros(2), counters, "hessian")
    assert (counters.n_f, counters.n_g) == (0, 0)


@pytest.mark.parametrize("bad", [np.zeros(2), np.zeros(4), np.zeros((3, 1))],
                         ids=["short", "long", "matrix"])
def test_evaluate_rejects_gradient_of_wrong_shape(bad):
    obj = Objective(dim=3, value=lambda x: 0.0, gradient=lambda x: bad)
    counters = EvalCounter()
    with pytest.raises(ValueError, match="gradient has shape"):
        evaluate(obj, np.zeros(3), counters, "gradient")
    assert counters.n_g == 1


def test_termination_zero_gradient_converges():
    cfg = SolverConfig()
    decision = check_termination(
        np.zeros(3), np.array([5.0, -2.0, 1.0]), EvalCounter(), cfg
    )
    assert decision is Status.CONVERGED


def test_termination_budget_checked_after_convergence():
    cfg = SolverConfig()
    counters = EvalCounter(n_f=10001)
    g = np.array([0.3, 0.0])
    x = np.array([0.0, 0.0])
    assert check_termination(g, x, counters, cfg) is Status.EVAL_BUDGET_EXCEEDED
    # a converged point at the same counter level still counts as success
    assert check_termination(np.zeros(2), x, counters, cfg) is Status.CONVERGED
    # at exactly the budget the run may continue
    assert check_termination(g, x, EvalCounter(n_f=10000), cfg) is None


def test_termination_scaled_residual():
    cfg = SolverConfig()
    g = np.array([1e-6, 0.0])
    x = np.array([0.3, 0.4])  # norm 0.5 -> denominator max(1, .5) = 1
    assert check_termination(g, x, EvalCounter(), cfg) is Status.CONVERGED
    assert scaled_gradient_norm(g, x) == 1e-6


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_scaled_residual_when_squares_overflow():
    # Every entry is finite although x'x, and here g'g too, overflow.
    assert scaled_gradient_norm(np.array([1e200]), np.array([1e210])) == pytest.approx(1e-10)
    assert scaled_gradient_norm(np.array([1e152]), np.array([1e155])) == pytest.approx(1e-3)


def test_termination_scale_correct_below_unit_ball(rng):
    # for ||x|| <= 1 the test reduces exactly to ||g|| < grad_tol
    cfg = SolverConfig()
    for _ in range(100):
        x = rng.standard_normal(4)
        x *= rng.uniform(0.0, 1.0) / max(1e-12, np.linalg.norm(x))
        g = rng.standard_normal(4) * 10.0 ** rng.uniform(-8, 2)
        expected = float(np.linalg.norm(g)) < cfg.grad_tol
        decision = check_termination(g, x, EvalCounter(), cfg)
        assert (decision is Status.CONVERGED) == expected


def test_termination_rejects_lengths_that_differ():
    with pytest.raises(ValueError, match="lengths differ"):
        check_termination(np.zeros(2), np.zeros(3), EvalCounter(), SolverConfig())


def test_termination_rejects_nonfinite_gradient():
    with pytest.raises(NumericalBreakdownError):
        check_termination(
            np.array([math.nan]), np.zeros(1), EvalCounter(), SolverConfig()
        )


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_termination_finite_gradient_with_overflowing_norm():
    g = np.array([1e200, -1e200, 1e200])  # every entry finite, ||g|| = inf
    assert check_termination(g, np.zeros(3), EvalCounter(), SolverConfig()) is None
    for bad in (math.nan, math.inf):
        g[1] = bad
        with pytest.raises(NumericalBreakdownError):
            check_termination(g, np.zeros(3), EvalCounter(), SolverConfig())
