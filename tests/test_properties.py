"""Property tests over whole runs: fault injection into the objective,
global convergence of the regularized solvers on strongly convex quadratics,
and random valid and invalid solver configs.
"""

import contextlib
import dataclasses
import io
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regulus.cli import main
from regulus.core import Objective, SolverConfig, Status
from regulus.problems import get_problem
from regulus.solvers import SOLVERS, solve_rlbfgs, solve_rlbfgs_sw

from conftest import CountingObjective, faulty

FAULT_PROBLEMS = ("rosenbrock:2", "beale:2", "hilbert:10", "trigonometric:100",
                  "engval1:100", "two-well:100")
CONFIGS = {"default": SolverConfig(), "max_ls_iters=2": SolverConfig(max_ls_iters=2)}


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("solver", sorted(SOLVERS))
@settings(max_examples=100, deadline=None)
@given(
    name=st.sampled_from(FAULT_PROBLEMS),
    target=st.sampled_from(["value", "gradient"]),
    j=st.integers(1, 120),
    bad=st.sampled_from([math.nan, math.inf, -math.inf]),
    persistent=st.booleans(),
)
def test_injected_faults_end_in_a_report(solver, config_name, name, target, j, bad,
                                         persistent):
    # A NaN or inf from the objective, at any evaluation, ends the run as a
    # report whose counters equal the raw call counts; it never escapes as
    # an exception.
    problem = get_problem(name)
    counting = CountingObjective(faulty(problem.objective, target, j, bad, persistent))
    config = CONFIGS[config_name]
    trace = []
    report = SOLVERS[solver](counting.objective, problem.x0, config, trace=trace)
    assert isinstance(report.status, Status)
    assert report.counters.n_f == counting.value_calls
    assert report.counters.n_g == counting.grad_calls
    assert report.iterations == len(trace)
    calls = counting.value_calls if target == "value" else counting.grad_calls
    if persistent and calls >= j:
        # Every evaluation from the j-th on is broken, so whichever search
        # met the fault gave up on it.
        assert report.status is Status.NUMERICAL_BREAKDOWN, report.status
    if report.status is Status.CONVERGED:
        assert report.final_residual < config.grad_tol
        if solver == "rlbfgs":
            # one value per iteration plus one per rejected trial
            assert report.counters.n_f == 1 + report.iterations + report.inner_iterations
    if solver == "lbfgs":
        assert report.inner_iterations == 0


def rotated_quadratic(seed, n, log_kappa):
    """``0.5 (x - x*)' A (x - x*)`` with ``A = Q diag(lam) Q'``, eigenvalues
    log-spaced at random in ``[1, 10**log_kappa]`` with both ends taken, and
    a random rotation ``Q``; returns the objective and a start point."""
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.0, 1.0, n)
    u[0], u[-1] = 0.0, 1.0
    lam = 10.0 ** (log_kappa * u)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = (q * lam) @ q.T
    x_star = rng.standard_normal(n)

    def value(x):
        r = x - x_star
        return 0.5 * float(r.dot(a.dot(r)))

    def gradient(x):
        return a.dot(x - x_star)

    return Objective(n, value, gradient), x_star + 10.0 * rng.standard_normal(n)


@pytest.mark.parametrize("solve", [solve_rlbfgs, solve_rlbfgs_sw])
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 50), log_kappa=st.floats(0.0, 4.0))
def test_regularized_solvers_converge_on_convex_quadratics(solve, seed, n, log_kappa):
    # The paper's global convergence on strongly convex functions: every
    # accepted step passed the ratio test and mu stayed within its bounds.
    # Once mu exceeds a multiple of the gradient's Lipschitz constant L (the
    # largest eigenvalue) the ratio test accepts, so mu stays bounded. The
    # largest mu / max(mu0, L) over 4000 seeded runs was 4.66, under half
    # of gamma2.
    objective, x0 = rotated_quadratic(seed, n, log_kappa)
    config = SolverConfig()
    mu_bound = config.gamma2 * max(config.mu0, 10.0 ** log_kappa)
    trace = []
    report = solve(objective, x0, config, trace=trace)
    assert report.status is Status.CONVERGED, report.status
    for record in trace:
        assert record.ratio >= config.eta1
        assert config.mu_min <= record.mu <= config.mu_max
        assert record.mu <= mu_bound, (record.mu, mu_bound)


@pytest.mark.parametrize("solve", [solve_rlbfgs, solve_rlbfgs_sw])
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 50), log_kappa=st.floats(0.0, 4.0))
def test_a_cap_below_the_peak_mu_ends_in_overflow(solve, seed, n, log_kappa):
    # The control for the bound above. When mu had to grow (about a third of
    # the draws), the run capped below its largest mu is the uncapped run
    # until escalation passes the cap, so it ends RegularizationOverflow.
    objective, x0 = rotated_quadratic(seed, n, log_kappa)
    mu0 = SolverConfig().mu0
    trace = []
    solve(objective, x0, SolverConfig(), trace=trace)
    peak = max(record.mu for record in trace)
    if peak > mu0:
        report = solve(objective, x0, SolverConfig(mu_max=max(mu0, peak / 2)))
        assert report.status is Status.REGULARIZATION_OVERFLOW, report.status


# Values that sit on or across the bounds of some field, the non-finite
# ones, non-integral numbers for the int fields, and integers beyond both a
# C ssize_t and a float.
CONFIG_VALUES = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -1.0, 0.0, 1e-300, 1e-4, 0.5,
                     0.9, 1.0, 2.0, 2.5, 10.0, 1e15, 1e300,
                     sys.maxsize, sys.maxsize + 1, 10**400]),
    st.integers(-3, 30),
    st.floats(-2.0, 2.0),
)
# Each drawn key takes one of those values or its default, doubled or halved,
# so that valid configs other than the defaults are drawn too.
CONFIG_MAPPINGS = st.lists(
    st.sampled_from(dataclasses.fields(SolverConfig)), unique=True
).flatmap(lambda drawn: st.fixed_dictionaries({
    f.name: st.one_of(CONFIG_VALUES, st.sampled_from([f.default, 2 * f.default, f.default / 2]))
    for f in drawn
}))


def _satisfies_invariants(c: SolverConfig) -> bool:
    """The invariants ``SolverConfig.__post_init__`` promises, restated."""
    typed = all(
        type(value) is int if f.type in (int, "int")
        else type(value) is float and math.isfinite(value)
        for f in dataclasses.fields(c) for value in [getattr(c, f.name)]
    )
    return typed and (
        0.0 < c.mu_min <= c.mu0 <= c.mu_max
        and 0.0 < c.gamma1 <= 1.0 < c.gamma2
        and 0.0 < c.eta1 < c.eta2 <= 1.0
        and 1 <= c.m <= sys.maxsize
        and 0 <= c.M < sys.maxsize
        and 0.0 < c.c1 < c.c2 < 1.0
        and c.grad_tol > 0.0
        and c.max_fevals >= 1
        and c.max_ls_iters >= 1
    )


@settings(max_examples=400, deadline=None)
@given(data=CONFIG_MAPPINGS)
def test_config_from_mapping_is_valid_or_a_value_error(data):
    try:
        config = SolverConfig.from_mapping(data)
    except ValueError:
        return
    assert _satisfies_invariants(config), config


@settings(max_examples=400, deadline=None)
@given(data=CONFIG_MAPPINGS)
def test_config_routes_agree(data):
    # The constructor, a mapping of numbers and a mapping of their strings
    # (what a config file or -p gives) accept the same values and build the
    # same config from them.
    text = {key: repr(value) for key, value in data.items()}
    configs = []
    for build in (lambda: SolverConfig(**data), lambda: SolverConfig.from_mapping(data),
                  lambda: SolverConfig.from_mapping(text)):
        try:
            configs.append(build())
        except ValueError:
            configs.append(None)
    if configs[0] is None:
        assert configs == [None] * 3, (data, configs)
    else:
        assert configs[0] == configs[1] == configs[2], (data, configs)
        assert all(_satisfies_invariants(c) for c in configs), configs


@settings(max_examples=100, deadline=None)
@given(data=CONFIG_MAPPINGS)
def test_cli_config_is_a_run_or_a_usage_error(data):
    # Exit 2 exactly when the config is invalid; a valid one runs, and exits
    # 0 or, when the run does not converge, 1. Never a traceback.
    text = {key: repr(value) for key, value in data.items()}
    try:
        SolverConfig.from_mapping(text)
        valid = True
    except ValueError:
        valid = False
    argv = ["solve", "beale"]
    for key, value in text.items():
        argv += ["-p", f"{key}={value}"]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in ((0, 1) if valid else (2,)), (argv, code)
