import json
import math
from collections import deque

import numpy as np
import pytest

from regulus.core import (
    EvalBudgetExceededError,
    NumericalBreakdownError,
    Objective,
    RegularizationOverflowError,
    SolverConfig,
    Status,
)
from regulus.curvature import PairHistory, shifted_curvature, two_loop_direction
from regulus.problems import get_problem
from regulus.solvers import (
    SOLVERS,
    IterateState,
    TraceRecord,
    accept_step_rlbfgs,
    acceptance_ratio,
    model_reduction,
    nonmonotone_reference,
    solve_lbfgs,
    solve_rlbfgs,
    solve_rlbfgs_sw,
    update_mu,
    wolfe_extension_step,
)
from regulus.linesearch import strong_wolfe_search
from conftest import (
    CountingObjective,
    dense_bfgs_oracle,
    faulty,
    quadratic_objective,
    random_history,
    scale_of,
)


def fresh_state(objective, x0, config):
    """A run's state at ``x0`` after its first evaluations, and its counters."""
    state = IterateState(objective, np.asarray(x0, dtype=float), config)
    state.f = objective.value(state.x)
    state.g = np.asarray(objective.gradient(state.x), float)
    state.counters.n_f, state.counters.n_g = 1, 1
    return state, state.counters


# --- update_mu -------------------------------------------------------------

def test_update_mu_keeps_on_ordinary_success():
    assert update_mu(2.0, 0.5, SolverConfig()) == 2.0


def test_update_mu_shrinks_on_strong_success():
    assert update_mu(2.0, 0.95, SolverConfig()) == pytest.approx(0.2)


def test_update_mu_floors_at_minimum():
    assert update_mu(0.005, 0.95, SolverConfig()) == 1e-3


# --- accept_step -----------------------------------------------------------

def test_accept_step_exact_quadratic_accepts_first_trial():
    # the first-iteration model Hessian is (1/gamma + mu0) I = 2 I; a
    # quadratic with exactly that curvature gives ratio 1 and no escalation
    objective = quadratic_objective(2.0 * np.ones(2))
    config = SolverConfig()
    state, counters = fresh_state(objective, [3.0, 4.0], config)
    x, d, (f, mu, ratio, *_) = accept_step_rlbfgs(state)
    assert state.inner == 0
    assert mu == config.mu0
    assert ratio == pytest.approx(1.0)
    np.testing.assert_array_equal(x, state.x + d)
    assert f == objective.value(x)


def test_accept_step_two_trial_script():
    # first trial engineered to land at ratio 0.005, second at ~0.5
    table = {0.0: 1.0, -0.5: 1.0 - 0.00125, -1.0 / 11.0: 1.0 - 1.0 / 44.0}

    def value(x):
        return table[float(x[0])]

    objective = Objective(dim=1, value=value, gradient=lambda x: np.array([1.0]))
    config = SolverConfig()
    state, counters = fresh_state(objective, [0.0], config)
    x, d, (f, mu, ratio, *_) = accept_step_rlbfgs(state)
    assert state.inner == 1
    assert mu == 10.0
    assert f == 1.0 - 1.0 / 44.0
    assert ratio == pytest.approx(0.5)
    assert counters.n_f == 3  # initial + two trials


@pytest.mark.parametrize("diag", [2.0, 3.0])
def test_accept_step_owns_mu_and_window(diag):
    # Ratio 1 on the exact quadratic shrinks mu; ratio 0.5 on a stiffer one
    # keeps it.
    objective = quadratic_objective(diag * np.ones(2))
    config = SolverConfig()
    state, counters = fresh_state(objective, [3.0, 4.0], config)
    f_before = state.f
    x, d, (f, mu, ratio, *_) = accept_step_rlbfgs(state)
    assert state.mu == update_mu(mu, ratio, config)
    assert state.fwindow[-1] == f_before


def test_accept_step_overflow_on_hostile_objective():
    def value(x):
        return 1.0 if float(x[0]) == 0.0 else 2.0  # every trial is worse

    objective = Objective(dim=1, value=value, gradient=lambda x: np.array([1.0]))
    config = SolverConfig()
    state, counters = fresh_state(objective, [0.0], config)
    with pytest.raises(RegularizationOverflowError):
        accept_step_rlbfgs(state)


def test_accept_step_breakdown_when_every_trial_is_nonfinite():
    # Escalating mu past mu_max on a trial that could not be evaluated is a
    # breakdown, not an overflow of the regularization.
    def value(x):
        return 1.0 if float(x[0]) == 0.0 else math.inf

    objective = Objective(dim=1, value=value, gradient=lambda x: np.array([1.0]))
    config = SolverConfig()
    state, counters = fresh_state(objective, [0.0], config)
    with pytest.raises(NumericalBreakdownError, match="non-finite trial"):
        accept_step_rlbfgs(state)


def test_accept_step_vanishing_step_is_an_overflow():
    # g'd = 1e-320/(1 + mu) underflows to zero at mu = 1e4, far below
    # mu_max: escalation cannot go on, as if past the cap.
    def value(x):
        return 1.0 if float(x[0]) == 0.0 else 2.0  # every trial is worse

    objective = Objective(dim=1, value=value, gradient=lambda x: np.array([1e-160]))
    config = SolverConfig()
    state, counters = fresh_state(objective, [0.0], config)
    with pytest.raises(RegularizationOverflowError):
        accept_step_rlbfgs(state)
    assert counters.n_f == 5  # initial + trials at mu = 1, 10, 100, 1000
    assert state.mu == config.mu0


def test_accept_step_vanishing_step_after_nonfinite_trial_is_a_breakdown():
    def value(x):
        return 1.0 if float(x[0]) == 0.0 else math.inf

    objective = Objective(dim=1, value=value, gradient=lambda x: np.array([1e-160]))
    config = SolverConfig()
    state, counters = fresh_state(objective, [0.0], config)
    with pytest.raises(NumericalBreakdownError, match="non-finite trial"):
        accept_step_rlbfgs(state)


def test_accept_step_ascent_direction_stays_a_breakdown():
    # The two-loop gives no ascent direction for a positive scale, so a
    # negative one forces it.
    objective = quadratic_objective(np.ones(1))
    config = SolverConfig()
    state, counters = fresh_state(objective, [1.0], config)
    state.gamma = -0.5
    with pytest.raises(NumericalBreakdownError, match="no reduction"):
        accept_step_rlbfgs(state)


def test_mu_max_must_be_finite():
    # An infinite cap could never be passed: mu would run to inf.
    with pytest.raises(ValueError, match="mu_max must be finite"):
        SolverConfig(mu_max=math.inf)


@pytest.mark.parametrize("solve", [solve_rlbfgs, solve_rlbfgs_sw])
@pytest.mark.parametrize("mu_max, n_f", [
    (1e300, 337),
    # mu reaches about 1e301, where g'd underflows to -0.0 before the cap:
    # the vanished step ends the run as the cap would.
    (1e305, 338),
    (1.7976931348623157e308, 338),
])
def test_mu_escalation_ends_in_overflow(solve, mu_max, n_f):
    # With a gradient tolerance no run reaches, mu escalates on engval1:100
    # until it can go no further.
    problem = get_problem("engval1:100")
    config = SolverConfig(grad_tol=1e-300, mu_max=mu_max)
    report = solve(problem.objective, problem.x0, config)
    assert report.status is Status.REGULARIZATION_OVERFLOW
    assert report.counters.n_f == n_f


def test_accept_step_budget_exhaustion_mid_loop():
    def value(x):
        return 1.0 if float(x[0]) == 0.0 else 2.0  # every trial is worse

    objective = Objective(dim=1, value=value, gradient=lambda x: np.array([1.0]))
    config = SolverConfig(max_fevals=3)
    state, counters = fresh_state(objective, [0.0], config)
    with pytest.raises(EvalBudgetExceededError):
        accept_step_rlbfgs(state)
    assert counters.n_f == 4
    # a step that raises adds no rejections and leaves mu as it was
    assert state.inner == 0
    assert state.mu == config.mu0


# --- the Wolfe step extension ----------------------------------------------

def extend(state, x_unit, d, f_unit, g_unit, mu_used):
    """:func:`wolfe_extension_step` after the unit step ``d`` to ``x_unit``,
    taken at ``mu_used``; returns ``(x, f, g, s, alpha, ls_failed)``."""
    x, g, s, record = wolfe_extension_step(
        state, x_unit, g_unit, d, TraceRecord(f_unit, mu_used, None, None, f_unit))
    return x, record.f, g, s, record.alpha, record.ls_failed


def test_extension_trigger_requires_mu_at_floor():
    objective = quadratic_objective(np.ones(1))
    state = IterateState(objective, np.array([10.0]), SolverConfig())
    state.g = np.array([10.0])  # the gradient the unit step was taken from
    counters = state.counters
    x_unit = np.array([9.901])
    d = np.array([-0.099])
    x, f, g, s, alpha, ls_failed = extend(
        state, x_unit, d, f_unit=objective.value(x_unit), g_unit=np.array([9.901]),
        mu_used=1.0,
    )
    assert alpha is None and not ls_failed
    np.testing.assert_array_equal(x, x_unit)
    np.testing.assert_array_equal(s, d)
    assert counters.n_f == 0 and counters.n_g == 0


def test_extension_scripted_short_step():
    # scripted state on f = x^2/2: a short accepted step leaves a steep
    # slope, the curvature trigger fires, and the Wolfe search extends it
    objective = quadratic_objective(np.ones(1))
    config = SolverConfig()
    state = IterateState(objective, np.array([10.0]), config)
    state.g = objective.gradient(state.x)
    d = np.array([-0.099])
    x_unit = state.x + d
    f_unit = objective.value(x_unit)
    g_unit = objective.gradient(x_unit)
    x_new, f, g, s, alpha, ls_failed = extend(
        state, x_unit, d, f_unit=f_unit, g_unit=g_unit, mu_used=config.mu_min,
    )
    assert not ls_failed
    assert alpha is not None and alpha >= 1.0
    assert f < f_unit
    np.testing.assert_allclose(x_new, x_unit + alpha * d)
    np.testing.assert_allclose(s, (1.0 + alpha) * d)
    # the step satisfies both Wolfe conditions measured from the unit point
    dphi0 = float(d @ g_unit)
    assert f <= f_unit + config.c1 * alpha * dphi0
    assert abs(float(d @ g)) <= config.c2 * abs(dphi0)


def test_extension_failure_falls_back_to_unit_step():
    # a curvature condition that can never be met: linear descent profile
    objective = Objective(
        dim=1, value=lambda x: -float(x[0]), gradient=lambda x: np.array([-1.0])
    )
    config = SolverConfig()
    state = IterateState(objective, np.array([0.0]), config)
    state.g = np.array([-1.0])
    counters = state.counters
    x_unit = np.array([1.0])
    d = np.array([1.0])
    x, f, g, s, alpha, ls_failed = extend(
        state, x_unit, d, f_unit=-1.0, g_unit=np.array([-1.0]), mu_used=config.mu_min,
    )
    assert ls_failed
    assert alpha is None
    np.testing.assert_array_equal(x, x_unit)
    assert f == -1.0
    np.testing.assert_array_equal(s, d)
    assert counters.n_f > 0  # the search ran before falling back


def test_extension_gives_up_on_broken_probes_and_falls_back():
    # every probe beyond the unit point breaks down; the run keeps the
    # accepted unit step all the same
    objective = Objective(
        dim=1,
        value=lambda x: -float(x[0]) if float(x[0]) <= 1.0 else math.nan,
        gradient=lambda x: np.array([-1.0]),
    )
    config = SolverConfig()
    state = IterateState(objective, np.array([0.0]), config)
    state.g = np.array([-1.0])
    counters = state.counters
    x_unit = np.array([1.0])
    d = np.array([1.0])
    x, f, g, s, alpha, ls_failed = extend(
        state, x_unit, d, f_unit=-1.0, g_unit=np.array([-1.0]), mu_used=config.mu_min,
    )
    assert ls_failed
    assert alpha is None
    np.testing.assert_array_equal(x, x_unit)
    np.testing.assert_array_equal(s, d)
    assert counters.n_f == config.max_ls_iters


# --- full runs --------------------------------------------------------------

@pytest.mark.parametrize("solve", [solve_lbfgs, solve_rlbfgs, solve_rlbfgs_sw])
def test_immediate_convergence_at_stationary_start(solve):
    objective = quadratic_objective(np.ones(2))
    report = solve(objective, np.zeros(2))
    assert report.status is Status.CONVERGED
    assert report.iterations == 0
    assert report.counters.n_f == 1
    assert report.counters.n_g == 1


@pytest.mark.parametrize("solve, status", [
    (solve_lbfgs, Status.LINE_SEARCH_FAILURE),
    (solve_rlbfgs, Status.NUMERICAL_BREAKDOWN),
    (solve_rlbfgs_sw, Status.NUMERICAL_BREAKDOWN),
])
def test_linear_objective_ends_in_a_report(solve, status):
    # f = c'x has a constant gradient, so the first stored pair has y = 0
    # and the scale of the initial matrix is undefined.
    c = np.array([1.0, -2.0, 0.5])
    objective = Objective(3, lambda x: float(c.dot(x)), lambda x: c.copy())
    report = solve(objective, np.zeros(3))
    assert report.status is status
    assert report.iterations == 0


@pytest.mark.parametrize("solve", [solve_lbfgs, solve_rlbfgs, solve_rlbfgs_sw])
def test_gradient_in_a_reused_buffer_is_rejected(solve):
    # A gradient written into one buffer would overwrite the kept gradient,
    # so every pair would have y = 0.
    diag = np.arange(1.0, 11.0)
    buf = np.empty(10)
    objective = Objective(10, lambda x: 0.5 * float(x.dot(diag * x)),
                          lambda x: np.multiply(diag, x, out=buf))
    with pytest.raises(ValueError, match="new array on each call"):
        solve(objective, np.ones(10))
    fresh = Objective(10, objective.value, lambda x: diag * x)
    assert solve(fresh, np.ones(10)).status is Status.CONVERGED


def test_lbfgs_quadratic_single_iteration():
    # With ||g0|| <= 1 the first trial is the unit step, the exact minimizer.
    objective = quadratic_objective(np.ones(3))
    report = solve_lbfgs(objective, np.array([0.2, -0.4, 0.4]))
    assert report.status is Status.CONVERGED
    assert report.iterations == 1
    np.testing.assert_allclose(report.x, np.zeros(3), atol=1e-12)
    # With ||g0|| = 3 the initial scale is 1/3, so the unit step moves by
    # g0/3, which the Wolfe conditions accept; the stored pair then makes
    # the second step exact.
    report = solve_lbfgs(objective, np.array([1.0, -2.0, 2.0]))
    assert report.status is Status.CONVERGED
    assert report.iterations == 2
    np.testing.assert_allclose(report.x, np.zeros(3), atol=1e-12)


def _recording(objective, points):
    def value(x):
        points.append(x.copy())
        return objective.value(x)

    return objective._replace(value=value)


def test_lbfgs_first_trial_step_is_one_over_gradient_norm():
    # Liu & Nocedal's first step: the first point probed after x0 is
    # x0 - a * g0 with a = min(1, 1/||g0||), to the last bit. The scale sits
    # in the initial matrix, and the search tries the unit step.
    problem = get_problem("rosenbrock:2")
    points = []
    solve_lbfgs(_recording(problem.objective, points), problem.x0)
    g0 = problem.objective.gradient(problem.x0)
    a = min(1.0, 1.0 / math.sqrt(g0.dot(g0)))
    assert a < 1.0
    assert np.array_equal(points[0], problem.x0)
    assert np.array_equal(points[1], problem.x0 + a * (-g0))


def test_lbfgs_tries_the_unit_step_once_a_pair_is_stored(monkeypatch):
    import regulus.solvers as solvers_mod

    first_trials = []

    def recording_search(phi, *args):
        trials = []

        def recording_phi(alpha):
            trials.append(alpha)
            return phi(alpha)

        try:
            return strong_wolfe_search(recording_phi, *args)
        finally:
            first_trials.append(trials[0])

    monkeypatch.setattr(solvers_mod, "strong_wolfe_search", recording_search)
    problem = get_problem("rosenbrock:2")
    report = solve_lbfgs(problem.objective, problem.x0)
    # The first direction carries the scale min(1, 1/||g0||), so every
    # search, the first one included, tries the unit step first.
    assert report.iterations == len(first_trials) > 1
    assert first_trials == [1.0] * report.iterations


def test_lbfgs_first_step_with_overflowing_gradient_norm():
    # Every gradient entry is finite but g'g overflows: the first trial step
    # stays positive, the first probe moves by one, and the run ends in a
    # report.
    c = 1e200
    objective = Objective(2, lambda x: 0.5 * c * float(x.dot(x)), lambda x: c * x)
    x0 = np.array([1.0, 1.0])
    points = []
    report = solve_lbfgs(_recording(objective, points), x0)
    assert isinstance(report.status, Status)
    assert np.linalg.norm(points[1] - x0) == pytest.approx(1.0)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_lbfgs_overflowing_directional_derivative_is_a_breakdown():
    # A stored pair and a gradient whose entries are finite but whose g'g
    # overflows: d'g is -inf, and the step ends as a breakdown before any
    # probe rather than as a search that cannot satisfy sufficient decrease.
    from regulus.solvers import _line_search_step

    counting = CountingObjective(quadratic_objective(np.ones(2)))
    config = SolverConfig()
    state, counters = fresh_state(counting.objective, np.zeros(2), config)
    state.history.push(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    state.g = np.array([1e200, 1e200])
    calls = (counting.value_calls, counting.grad_calls)
    with pytest.raises(NumericalBreakdownError, match="d'g = -inf"):
        _line_search_step(state)
    assert (counting.value_calls, counting.grad_calls) == calls


@pytest.mark.parametrize("solve", [solve_rlbfgs, solve_rlbfgs_sw])
def test_regularized_first_step_is_not_rejected_from_a_steep_start(solve):
    # ||g0|| is large on penalty1:100; the initial scale 1/||g0|| makes the
    # first unit trial short enough for the ratio test to accept it at mu0.
    problem = get_problem("penalty1:100")
    trace = []
    solve(problem.objective, problem.x0, trace=trace)
    assert (trace[0].nf, trace[0].mu) == (2, SolverConfig().mu0)


@pytest.mark.parametrize("solve", [solve_lbfgs, solve_rlbfgs, solve_rlbfgs_sw])
def test_start_whose_square_overflows_is_not_converged(solve):
    # ||x0||^2 overflows although x0 = 1e155 is finite; the scaled residual
    # ||g|| / ||x|| is 1e-3, above grad_tol, and must not read as 0.
    objective = Objective(1, lambda x: float(5e-4 * x[0] * x[0]), lambda x: 1e-3 * x)
    report = solve(objective, np.array([1e155]))
    assert report.status is not Status.CONVERGED
    assert report.final_residual == pytest.approx(1e-3)


def test_trace_gnorm_when_its_square_overflows():
    # g'g overflows at x0 = (1, 1) although g0 = 1e155 * (1, 1) / sqrt(2) is finite.
    objective = Objective(2, lambda x: float((1e155 * np.sqrt(1.0 + x * x)).sum()),
                          lambda x: 1e155 * x / np.sqrt(1.0 + x * x))
    trace = []
    solve_lbfgs(objective, np.ones(2), trace=trace)
    assert trace[0].gnorm == pytest.approx(1e155)


@pytest.mark.parametrize("solve", [solve_lbfgs, solve_rlbfgs, solve_rlbfgs_sw])
@pytest.mark.parametrize("x0", [
    np.zeros(2), np.zeros(4), np.zeros((3, 1)),
    np.array([0.0, math.nan, 0.0]), np.array([math.inf, 0.0, 0.0]),
], ids=["short", "long", "matrix", "nan", "inf"])
def test_bad_start_is_rejected_before_any_evaluation(solve, x0):
    counting = CountingObjective(quadratic_objective(np.ones(3)))
    with pytest.raises(ValueError, match="x0 must be"):
        solve(counting.objective, x0)
    assert (counting.value_calls, counting.grad_calls) == (0, 0)


def test_rlbfgs_rosenbrock_converges():
    problem = get_problem("rosenbrock:2")
    trace = []
    report = solve_rlbfgs(problem.objective, problem.x0, trace=trace)
    assert report.status is Status.CONVERGED
    assert report.counters.n_f <= 10000
    assert report.final_residual < 1e-5
    np.testing.assert_allclose(report.x, np.ones(2), atol=1e-4)
    # every accepted step cleared the ratio threshold with mu at or above
    # the floor, and mu escalations were charged to inner_iterations
    config = SolverConfig()
    assert all(t.ratio >= config.eta1 for t in trace)
    assert all(t.mu >= config.mu_min for t in trace)
    assert report.inner_iterations >= 0
    assert len(trace) == report.iterations


def test_rlbfgs_large_quadratic():
    objective = quadratic_objective(np.arange(1.0, 101.0))
    report = solve_rlbfgs(objective, np.ones(100))
    assert report.status is Status.CONVERGED
    assert report.final_residual < 1e-5


def test_counter_exactness_against_wrapper():
    problem = get_problem("rosenbrock:2")
    for solve in (solve_lbfgs, solve_rlbfgs, solve_rlbfgs_sw):
        counting = CountingObjective(problem.objective)
        report = solve(counting.objective, problem.x0)
        assert report.counters.n_f == counting.value_calls
        assert report.counters.n_g == counting.grad_calls


def test_rlbfgs_monotone_when_window_disabled():
    problem = get_problem("rosenbrock:2")
    trace = []
    report = solve_rlbfgs(problem.objective, problem.x0, SolverConfig(M=0), trace=trace)
    assert report.status is Status.CONVERGED
    values = [problem.objective.value(problem.x0)] + [t.f for t in trace]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_rlbfgs_sw_extension_only_at_mu_floor():
    problem = get_problem("rosenbrock:2")
    trace = []
    solve_rlbfgs_sw(problem.objective, problem.x0, trace=trace)
    config = SolverConfig()
    for record in trace:
        if record.alpha is not None or record.ls_failed:
            assert record.mu == config.mu_min


def test_budget_exceeded_status():
    problem = get_problem("rosenbrock:2")
    report = solve_rlbfgs(problem.objective, problem.x0, SolverConfig(max_fevals=5))
    assert report.status is Status.EVAL_BUDGET_EXCEEDED
    assert report.counters.n_f > 5


def test_regularization_overflow_status():
    def value(x):
        return 1.0 if float(x[0]) == 0.0 else 2.0  # every trial is worse

    objective = Objective(dim=1, value=value, gradient=lambda x: np.array([1.0]))
    report = solve_rlbfgs(objective, np.zeros(1))
    assert report.status is Status.REGULARIZATION_OVERFLOW


def test_line_search_failure_status():
    # unbounded below with constant slope: no Wolfe step exists
    objective = Objective(
        dim=1, value=lambda x: -float(x[0]), gradient=lambda x: -np.ones(1)
    )
    report = solve_lbfgs(objective, np.zeros(1))
    assert report.status is Status.LINE_SEARCH_FAILURE


@pytest.mark.parametrize("solve", [solve_lbfgs, solve_rlbfgs, solve_rlbfgs_sw])
@pytest.mark.parametrize("broken", ["value", "gradient"])
def test_numerical_breakdown_at_start(solve, broken):
    # The report keeps x0 and whatever was evaluated there before the
    # breakdown: f(x0) when only the gradient broke.
    problem = get_problem("rosenbrock:2")
    nan = {"value": lambda x: math.nan, "gradient": lambda x: np.full(2, math.nan)}
    objective = problem.objective._replace(**{broken: nan[broken]})
    report = solve(objective, problem.x0)
    assert report.status is Status.NUMERICAL_BREAKDOWN
    assert np.array_equal(report.x, problem.x0)
    assert report.final_residual == math.inf
    assert (report.iterations, report.inner_iterations) == (0, 0)
    if broken == "value":
        assert math.isnan(report.final_f)
        assert (report.counters.n_f, report.counters.n_g) == (1, 0)
    else:
        assert report.final_f == problem.objective.value(problem.x0)
        assert (report.counters.n_f, report.counters.n_g) == (1, 1)


@pytest.mark.parametrize("solve, target", [
    (solve_lbfgs, "value"),
    (solve_lbfgs, "gradient"),
    (solve_rlbfgs, "value"),
    (solve_rlbfgs_sw, "value"),
])
def test_persistent_fault_is_a_breakdown(solve, target):
    # From the 10th call on every value (or gradient) is NaN: the line
    # search runs out of probes, or mu escalates past mu_max, on evaluations
    # that broke down, and the run reports that breakdown.
    problem = get_problem("rosenbrock:2")
    objective = faulty(problem.objective, target, 10, math.nan, persistent=True)
    report = solve(objective, problem.x0)
    assert report.status is Status.NUMERICAL_BREAKDOWN


def test_pushed_pairs_keep_positive_shifted_curvature(monkeypatch):
    import regulus.solvers as solvers_mod

    pushed = []

    class RecordingHistory(PairHistory):
        def push(self, s, y):
            ok = super().push(s, y)
            if ok:
                pushed.append(self.newest)
            return ok

    monkeypatch.setattr(solvers_mod, "PairHistory", RecordingHistory)
    problem = get_problem("two-well:100")
    config = SolverConfig()
    report = solve_rlbfgs(problem.objective, problem.x0, config)
    assert report.status is Status.CONVERGED
    assert pushed
    for pair in pushed:
        _, s_ty = shifted_curvature(pair, config.mu_min)
        assert s_ty > 0.0


def test_trace_json_schema():
    problem = get_problem("rosenbrock:2")
    trace = []
    solve_rlbfgs_sw(problem.objective, problem.x0, trace=trace)
    for record in trace:
        data = json.loads(record.to_json())
        assert set(data) >= {"k", "mu", "ratio", "gnorm", "alpha", "nf"}


def test_trace_with_an_infinite_ratio_is_strict_json():
    # The first trial falls from 1e308 to -1e308: the actual reduction, and
    # with it the accepted ratio, overflows to inf.
    objective = Objective(1, lambda x: 1e308 if x[0] == 1.0 else -1e308, lambda x: 2.0 * x)
    trace = []
    solve_rlbfgs(objective, np.array([1.0]), trace=trace)
    assert trace[0].ratio == math.inf

    def reject(constant):
        raise ValueError(f"not strict JSON: {constant}")

    lines = [json.loads(record.to_json(), parse_constant=reject) for record in trace]
    assert lines[0]["ratio"] == "inf"
    assert float(lines[0]["ratio"]) == math.inf


def test_model_reduction_values():
    assert model_reduction(np.array([1.0, 0.0]), np.array([-2.0, 0.0])) == 1.0
    assert model_reduction(np.array([1.0]), np.array([-0.5])) == 0.25


def test_model_reduction_degenerate_zero():
    assert model_reduction(np.zeros(2), np.zeros(2)) == 0.0


def test_model_reduction_rejects_ascent():
    with pytest.raises(NumericalBreakdownError):
        model_reduction(np.array([1.0]), np.array([2.0]))
    with pytest.raises(NumericalBreakdownError):
        model_reduction(np.array([1.0]), np.array([math.nan]))
    # A vanished step predicts no reduction; its caller decides what that means.
    assert model_reduction(np.array([1.0]), np.array([0.0])) == 0.0


def test_model_reduction_equals_quadratic_form(rng):
    # -g'd/2 agrees with g'H(mu)g/2 computed through the dense inverse
    for _ in range(50):
        n = int(rng.integers(1, 9))
        hist = random_history(rng, n, int(rng.integers(0, 5)))
        scaling = scale_of(hist)
        g = rng.standard_normal(n)
        mu = float(rng.choice([0.0, 1e-3, 1.0, 1e3]))
        d = two_loop_direction(hist, g, mu, scaling)
        b = dense_bfgs_oracle(hist, mu, scaling, n)
        expected = 0.5 * float(g @ np.linalg.solve(b, g))
        assert model_reduction(g, d) == pytest.approx(expected, rel=1e-10)


def test_acceptance_ratio_values():
    assert acceptance_ratio(1.0, 0.5, 1.0) == 0.5
    assert acceptance_ratio(2.0, 3.0, 4.0) == -0.25
    # a trial matching the model value exactly gives ratio 1
    assert acceptance_ratio(1.0, 0.75, 0.25) == 1.0


def test_reference_monotone_case():
    window = deque((3.0, 1.0, 2.0), maxlen=1)
    assert nonmonotone_reference(window) == 2.0


def test_reference_window_max():
    window = deque((3.0, 1.0, 2.0), maxlen=3)
    assert nonmonotone_reference(window) == 3.0


def test_reference_original_ratio_before_window_fills():
    window = deque((9.0, 4.0, 7.0, 1.0, 2.0, 0.5), maxlen=11)
    # a window not yet full keeps the plain monotone reference
    assert nonmonotone_reference(window) == 0.5


def test_reference_never_below_current(rng):
    values = rng.standard_normal(40).tolist()
    for M in (0, 1, 6):
        window = deque(maxlen=M + 1)
        for k, value in enumerate(values):
            window.append(value)
            ref = nonmonotone_reference(window)
            assert ref >= window[-1]
            # Grippo, Lampariello & Lucidi: the current value for k < M,
            # then the max of the last M + 1 values of the full history
            history = values[:k + 1]
            expected = history[-1] if M == 0 or k < M else max(history[-(M + 1):])
            assert ref.hex() == expected.hex()
