"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines alongside the pytest verdicts.
"""

import math
import time

import numpy as np
import pytest

from regulus.core import SolverConfig, Status
from regulus.curvature import (
    CurvaturePair,
    PairHistory,
    gamma_scale,
    shifted_curvature,
    two_loop_direction,
)
from regulus.harness import DEFAULT_TAU_GRID, RunRecord, performance_profile, run_batch
from regulus.linesearch import strong_wolfe_search
from regulus.problems import get_problem, registry
from regulus.solvers import (
    SOLVERS,
    acceptance_ratio,
    model_reduction,
    solve_rlbfgs,
    solve_rlbfgs_sw,
)

from conftest import (
    dense_bfgs_oracle,
    gradient_check_error,
    mixed_sign_pair,
    random_history,
    scale_of,
)


def announce(n, text):
    print(f"\nACCEPTANCE {n:02d} PASS: {text}")


@pytest.fixture(scope="module")
def suite():
    return registry()


@pytest.fixture(scope="module")
def suite_records(suite):
    return run_batch(suite, sorted(SOLVERS))


def test_c01_oracle_equivalence(rng):
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 9))
        hist = random_history(rng, n, int(rng.integers(0, 5)))
        scaling = scale_of(hist)
        g = rng.standard_normal(n)
        for mu in (0.0, 1e-3, 1.0, 1e3):
            d = two_loop_direction(hist, g, mu, scaling)
            b = dense_bfgs_oracle(hist, mu, scaling, n)
            worst = max(worst, np.linalg.norm(b @ d + g) / np.linalg.norm(g))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10
    assert elapsed < 5.0
    announce(1, f"two-loop matches dense oracle on 200 instances "
                f"(worst {worst:.2e}, {elapsed:.2f}s)")


def test_c02_descent_and_curvature_invariants(rng):
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        hist = random_history(rng, n, int(rng.integers(0, 5)))
        scaling = scale_of(hist)
        g = rng.standard_normal(n)
        while not np.any(g):
            g = rng.standard_normal(n)
        mu = float(rng.choice([0.0, 1e-3, 1.0, 1e3]))
        d = two_loop_direction(hist, g, mu, scaling)
        assert float(g @ d) < 0.0

    negatives = 0
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        s, y = mixed_sign_pair(rng, n)
        pair = CurvaturePair(s, y)
        negatives += pair.sy < 0.0
        mu = float(10.0 ** rng.uniform(-6, 3))
        _, s_ty = shifted_curvature(pair, mu)
        assert s_ty >= mu * pair.ss > 0.0
    assert negatives > 100  # the sample genuinely covers s'y < 0
    announce(2, f"descent on 1000 instances; shifted curvature positive on "
                f"1000 pairs ({negatives} with negative s'y)")


def test_c03_regularization_limit(rng):
    for _ in range(50):
        n = int(rng.integers(2, 9))
        hist = random_history(rng, n, int(rng.integers(1, 5)))
        scaling = gamma_scale(hist[-1])
        g = rng.standard_normal(n)
        d3 = np.linalg.norm(two_loop_direction(hist, g, 1e3, scaling))
        d6 = np.linalg.norm(two_loop_direction(hist, g, 1e6, scaling))
        assert d6 <= 1e-2 * d3
    announce(3, "direction norm shrinks by >= 100x from mu=1e3 to mu=1e6 "
                "on 50 instances")


def test_c04_wolfe_postconditions(rng):
    c1, c2 = 1e-4, 0.9
    for _ in range(100):
        while True:
            curv = rng.uniform(0.1, 5.0)
            center = rng.uniform(0.2, 4.0)
            amp = rng.uniform(0.0, 0.2) * curv * center
            freq = rng.uniform(0.5, 3.0)
            shift = rng.uniform(0.0, 2.0 * math.pi)

            def phi(a):
                return curv * (a - center) ** 2 + amp * math.sin(freq * a + shift)

            def dphi(a):
                return 2.0 * curv * (a - center) + amp * freq * math.cos(freq * a + shift)

            if dphi(0.0) < -1e-3:
                break
        alpha, _, _ = strong_wolfe_search(
            lambda a: (phi(a), dphi(a)), phi(0.0), dphi(0.0), c1, c2, 20
        )
        # independent re-evaluation of both conditions
        assert phi(alpha) <= phi(0.0) + c1 * alpha * dphi(0.0)
        assert abs(dphi(alpha)) <= c2 * abs(dphi(0.0))
    announce(4, "sufficient decrease and strong curvature re-verified on "
                "100 random profiles")


def test_c05_gradient_consistency(suite, rng):
    worst = 0.0
    for problem in suite:
        worst = max(worst, gradient_check_error(problem, problem.x0))
        for _ in range(10):
            x = problem.x0 + rng.standard_normal(problem.dimension)
            worst = max(worst, gradient_check_error(problem, x))
        assert worst <= 1e-6, problem.name
    announce(5, f"analytic gradients match central differences on all "
                f"{len(suite)} problems (worst {worst:.2e})")


# Pinned at the first green run; regression bounds are +-10%. The lbfgs pins
# that left their bounds when the first trial step became min(1, 1/||g||),
# and the rlbfgs/rlbfgs-sw pins that left them when every solver started
# from the initial scale min(1, 1/||g0||), were re-centred on the new counts.
PINNED_NF = {
    ("powell-singular:100", "lbfgs"): 77,
    ("powell-singular:100", "rlbfgs"): 71,
    ("powell-singular:100", "rlbfgs-sw"): 71,
    ("quadratic-diag:100", "lbfgs"): 74,
    ("quadratic-diag:100", "rlbfgs"): 81,
    ("quadratic-diag:100", "rlbfgs-sw"): 81,
    ("quadratic-ill:100", "lbfgs"): 3933,
    ("quadratic-ill:100", "rlbfgs"): 3961,
    ("quadratic-ill:100", "rlbfgs-sw"): 3589,
    ("rosenbrock:1000", "lbfgs"): 49,
    ("rosenbrock:1000", "rlbfgs"): 80,
    ("rosenbrock:1000", "rlbfgs-sw"): 69,
    ("rosenbrock:2", "lbfgs"): 44,
    ("rosenbrock:2", "rlbfgs"): 67,
    ("rosenbrock:2", "rlbfgs-sw"): 85,
}


def test_c06_convergence_integration():
    names = [
        "rosenbrock:2",
        "rosenbrock:1000",
        "powell-singular:100",
        "quadratic-diag:100",
        "quadratic-ill:100",
    ]
    start = time.perf_counter()
    records = run_batch([get_problem(n) for n in names], sorted(SOLVERS))
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    for record in records:
        assert record.status is Status.CONVERGED, record
        assert record.n_f <= 10000
        pinned = PINNED_NF[(record.problem, record.solver)]
        assert abs(record.n_f - pinned) <= 0.10 * pinned, (
            record.problem, record.solver, record.n_f, pinned
        )
    announce(6, f"all three solvers converge on the five integration "
                f"problems within pinned budgets ({elapsed:.1f}s)")


def _monotone_reference_run(problem, config):
    """Plain monotone-ratio driver built from the same primitives.

    The acceptance test compares this path against the production loop at
    M=0; the only intended difference is that the reference value is taken
    directly from the current iterate instead of the window.
    """
    from regulus.core import EvalCounter, check_termination, evaluate

    counters = EvalCounter()
    x = np.array(problem.x0, dtype=float)
    f = evaluate(problem.objective, x, counters, "value")
    g = evaluate(problem.objective, x, counters, "gradient")
    history = PairHistory(config.m)
    gnorm = math.sqrt(g.dot(g))
    scaling = 1.0 if gnorm <= 1.0 else 1.0 / gnorm
    mu = config.mu0
    iterates = []
    while True:
        decision = check_termination(g, x, counters, config)
        if decision is not None:
            return decision, x, f, counters, iterates
        mu_bar = mu
        while True:
            d = two_loop_direction(history, g, mu_bar, scaling)
            reduction = model_reduction(g, d)
            f_trial = evaluate(problem.objective, x + d, counters, "value")
            ratio = acceptance_ratio(f, f_trial, reduction)
            if ratio >= config.eta1:
                break
            mu_bar *= config.gamma2
        mu = max(config.mu_min, config.gamma1 * mu_bar) if ratio >= config.eta2 else mu_bar
        x_unit = x + d
        g_new = evaluate(problem.objective, x_unit, counters, "gradient")
        if history.push(d, g_new - g):
            scaling = gamma_scale(history[-1])
        iterates.append((f_trial, counters.n_f))
        x, f, g = x_unit, f_trial, g_new


def test_c07_monotone_equivalence():
    config = SolverConfig(M=0)
    names = ["rosenbrock:2", "beale:2", "quadratic-diag:100", "hilbert:10", "two-well:100"]
    for name in names:
        problem = get_problem(name)
        trace = []
        report = solve_rlbfgs(problem.objective, problem.x0, config, trace=trace)
        assert report.status is Status.CONVERGED

        # f-monotone iterate sequence
        values = [problem.objective.value(problem.x0)] + [t.f for t in trace]
        assert all(b < a for a, b in zip(values, values[1:])), name

        # bitwise identical to the plain monotone-ratio path
        status, x_ref, f_ref, counters_ref, iterates_ref = _monotone_reference_run(
            problem, config
        )
        assert status is Status.CONVERGED
        assert np.array_equal(report.x, x_ref), name
        assert report.final_f == f_ref
        assert report.counters.n_f == counters_ref.n_f
        assert report.counters.n_g == counters_ref.n_g
        assert [(t.f, t.nf) for t in trace] == iterates_ref
    announce(7, f"M=0 runs are f-monotone and bitwise equal to the "
                f"monotone-ratio reference on {len(names)} problems")


def test_c08_wolfe_extension_degeneracy(suite):
    # rlbfgs-sw is rlbfgs until its extension first fires: the traces agree
    # up to that record, and a run where it never fires is rlbfgs's run.
    def before_extension(record):
        return record.k, record.mu, record.ratio, record.gnorm, record.f_unit

    never_fired = fired = 0
    for problem in suite:
        base_trace, sw_trace = [], []
        base = solve_rlbfgs(problem.objective, problem.x0, trace=base_trace)
        twin = solve_rlbfgs_sw(problem.objective, problem.x0, trace=sw_trace)
        first = next((i for i, record in enumerate(sw_trace)
                      if record.alpha is not None or record.ls_failed), None)
        if first is not None:
            assert sw_trace[:first] == base_trace[:first], problem.name
            assert before_extension(sw_trace[first]) == before_extension(base_trace[first])
        else:
            never_fired += 1
            assert sw_trace == base_trace, problem.name
            assert base.status is twin.status, problem.name
            assert np.array_equal(base.x, twin.x) or (base.x is None and twin.x is None)
            assert base.final_f == twin.final_f or (
                math.isnan(base.final_f) and math.isnan(twin.final_f)
            )
            assert base.counters.n_f == twin.counters.n_f
            assert base.counters.n_g == twin.counters.n_g
            assert base.iterations == twin.iterations
            assert base.inner_iterations == twin.inner_iterations
        for record in sw_trace:
            if record.alpha is not None:
                fired += 1
                assert record.f < record.f_unit, (problem.name, record.k)
    assert never_fired > 0
    assert fired > 0
    announce(8, f"rlbfgs-sw traces match rlbfgs up to the first extension on "
                f"{len(suite)} problems, and the {never_fired} runs without one "
                f"match bitwise; all {fired} fired searches improved on the "
                f"unit step")


def test_c09_profile_correctness():
    def record(problem, solver, n_f):
        return RunRecord(
            problem=problem, solver=solver, status=Status.CONVERGED,
            n_f=n_f, n_g=n_f, iterations=1, wall_time=1.0, final_residual=0.0,
        )

    records = [
        record("p1", "s1", 2),
        record("p1", "s2", 4),
        record("p2", "s1", 6),
        record("p2", "s2", 3),
    ]
    curves = {
        c.solver: dict(c.points)
        for c in performance_profile(records, "n_f", (1.0, 2.0, 3.0))
    }
    # best costs are (2, 3); ratios s1 -> (1, 2), s2 -> (2, 1)
    assert curves["s1"] == {1.0: 0.5, 2.0: 1.0, 3.0: 1.0}
    assert curves["s2"] == {1.0: 0.5, 2.0: 1.0, 3.0: 1.0}

    rng = np.random.default_rng(7)
    for _ in range(20):
        batch = []
        for p in range(5):
            for s in ("a", "b", "c"):
                status = Status.CONVERGED if rng.random() > 0.25 else Status.EVAL_BUDGET_EXCEEDED
                batch.append(RunRecord(
                    problem=f"p{p}", solver=s, status=status,
                    n_f=int(rng.integers(1, 200)), n_g=0, iterations=1,
                    wall_time=float(rng.uniform(0.1, 5.0)), final_residual=0.0,
                ))
        try:
            curves = performance_profile(batch, "n_f", DEFAULT_TAU_GRID)
        except Exception:
            continue
        for curve in curves:
            fractions = [f for _, f in curve.points]
            assert all(0.0 <= f <= 1.0 for f in fractions)
            assert all(x <= y for x, y in zip(fractions, fractions[1:]))
    announce(9, "hand-computed two-solver profile reproduced; curves "
                "nondecreasing and bounded by 1")


def test_c10_directional_success(suite_records):
    successes = {}
    for record in suite_records:
        successes.setdefault(record.solver, 0)
        successes[record.solver] += record.status is Status.CONVERGED
    assert successes["rlbfgs"] >= successes["lbfgs"]
    announce(10, f"bundled-suite successes: rlbfgs {successes['rlbfgs']} >= "
                 f"lbfgs {successes['lbfgs']} "
                 f"(rlbfgs-sw {successes['rlbfgs-sw']})")
