"""Golden trajectories: exact outcomes of registry cells under every solver.

Each row pins a run's status, evaluation counts, iteration counts and the
final scaled residual to the last bit (as ``float.hex``). Rewrites of the hot
path must perform the same floating-point operations in the same order, so
none of these values may move; a change that moves one is a behaviour
change, not a speedup. ``GOLDEN_TRACES`` pins, for a few runs, a digest of
every per-iteration trace record as well.

The values were recorded with Python 3.11, numpy 2.4 and OpenBLAS on one
thread. The problems' products are plain 1-D reductions, except for
``hilbert:10``, whose matrix-vector product goes through BLAS.
"""

import hashlib

import pytest

from regulus import SOLVERS, SolverConfig, get_problem

# (problem, solver, status, n_f, n_g, iterations, inner_iterations, final_residual.hex())
GOLDEN = [
    ("beale:2", "lbfgs", "Converged", 15, 15, 14, 0, "0x1.5fef3a97cdc9dp-19"),
    ("beale:2", "rlbfgs", "Converged", 16, 14, 13, 2, "0x1.206d26cc40b85p-19"),
    ("beale:2", "rlbfgs-sw", "Converged", 16, 14, 13, 2, "0x1.206d26cc40b85p-19"),
    ("rosenbrock:2", "lbfgs", "Converged", 44, 44, 36, 0, "0x1.109e055652815p-24"),
    ("rosenbrock:2", "rlbfgs", "Converged", 80, 64, 63, 16, "0x1.08c0f379cc222p-23"),
    ("rosenbrock:2", "rlbfgs-sw", "Converged", 69, 49, 46, 20, "0x1.a2488eea7359fp-18"),
    ("rosenbrock:1000", "lbfgs", "Converged", 45, 45, 35, 0, "0x1.506ba84d9c40ep-20"),
    ("rosenbrock:1000", "rlbfgs", "Converged", 80, 64, 63, 16, "0x1.08c0e98ee5981p-23"),
    ("rosenbrock:1000", "rlbfgs-sw", "Converged", 69, 49, 46, 20, "0x1.a2488e99d2236p-18"),
    ("powell-singular:100", "lbfgs", "Converged", 77, 77, 57, 0, "0x1.6b4ec3390c7b6p-20"),
    ("powell-singular:100", "rlbfgs", "Converged", 71, 65, 64, 6, "0x1.be35aad0e6303p-18"),
    ("powell-singular:100", "rlbfgs-sw", "Converged", 71, 65, 64, 6, "0x1.be35aad0e6303p-18"),
    ("quadratic-diag:100", "lbfgs", "Converged", 74, 74, 68, 0, "0x1.47f170af0f753p-17"),
    ("quadratic-diag:100", "rlbfgs", "Converged", 81, 79, 78, 2, "0x1.2b3b6033588ccp-17"),
    ("quadratic-diag:100", "rlbfgs-sw", "Converged", 81, 79, 78, 2, "0x1.2b3b6033588ccp-17"),
    ("quadratic-ill:1000", "lbfgs", "Converged", 3998, 3998, 3494, 0, "0x1.426321d211612p-17"),
    ("quadratic-ill:1000", "rlbfgs", "Converged", 4484, 3915, 3914, 569, "0x1.146163879ee64p-17"),
    ("quadratic-ill:1000", "rlbfgs-sw", "Converged", 3942, 3409, 3377, 533, "0x1.3e494c04735d4p-17"),
    ("hilbert:10", "lbfgs", "Converged", 14, 14, 13, 0, "0x1.3c38a204dbd68p-18"),
    ("hilbert:10", "rlbfgs", "Converged", 25, 25, 24, 0, "0x1.3c4c24355a74cp-18"),
    ("hilbert:10", "rlbfgs-sw", "Converged", 25, 25, 24, 0, "0x1.3c4c24355a74cp-18"),
    ("dixon-price:100", "lbfgs", "Converged", 92, 92, 89, 0, "0x1.d8660bd193472p-18"),
    ("dixon-price:100", "rlbfgs", "Converged", 196, 193, 192, 3, "0x1.ff58a187dd8a5p-18"),
    ("dixon-price:100", "rlbfgs-sw", "Converged", 196, 193, 192, 3, "0x1.ff58a187dd8a5p-18"),
    ("trigonometric:1000", "lbfgs", "Converged", 54, 54, 48, 0, "0x1.64c7f6445d71bp-18"),
    ("trigonometric:1000", "rlbfgs", "Converged", 48, 47, 46, 1, "0x1.d73269c04d372p-18"),
    ("trigonometric:1000", "rlbfgs-sw", "Converged", 48, 47, 46, 1, "0x1.d73269c04d372p-18"),
    ("penalty1:100", "lbfgs", "Converged", 75, 75, 58, 0, "0x1.a5eb1e14d2931p-22"),
    ("penalty1:100", "rlbfgs", "Converged", 177, 150, 149, 27, "0x1.32adb70bdd51cp-17"),
    ("penalty1:100", "rlbfgs-sw", "Converged", 182, 167, 139, 15, "0x1.facb470198e37p-18"),
    ("two-well:1000", "lbfgs", "Converged", 12, 12, 7, 0, "0x1.683e33d4e2293p-28"),
    ("two-well:1000", "rlbfgs", "Converged", 8, 8, 7, 0, "0x1.4ced6c7e13f08p-22"),
    ("two-well:1000", "rlbfgs-sw", "Converged", 8, 8, 7, 0, "0x1.4ced6c7e13f08p-22"),
    ("engval1:100", "lbfgs", "Converged", 18, 18, 17, 0, "0x1.31c3efde44fd9p-18"),
    ("engval1:100", "rlbfgs", "Converged", 19, 17, 16, 2, "0x1.b412a62d6e91ap-19"),
    ("engval1:100", "rlbfgs-sw", "Converged", 19, 17, 16, 2, "0x1.b412a62d6e91ap-19"),
]

# Runs cut short by the evaluation budget pin the failure path's report too.
BUDGET = SolverConfig(max_fevals=300)
GOLDEN_BUDGET = [
    ("quadratic-ill:100", "lbfgs", "EvalBudgetExceeded", 301, 301, 268, 0, "0x1.086174ffae4acp+3"),
    ("quadratic-ill:100", "rlbfgs", "EvalBudgetExceeded", 301, 255, 254, 46, "0x1.f6be4942d3b2cp+2"),
    ("quadratic-ill:100", "rlbfgs-sw", "EvalBudgetExceeded", 301, 283, 278, 18, "0x1.3b21d86363662p+5"),
]


def _outcome(problem, solver, config):
    p = get_problem(problem)
    r = SOLVERS[solver](p.objective, p.x0, config)
    return (problem, solver, r.status.value, r.counters.n_f, r.counters.n_g,
            r.iterations, r.inner_iterations, r.final_residual.hex())


@pytest.mark.parametrize("row", GOLDEN, ids=lambda row: f"{row[0]}-{row[1]}")
def test_golden_trajectory(row):
    assert _outcome(row[0], row[1], SolverConfig()) == row


@pytest.mark.parametrize("row", GOLDEN_BUDGET, ids=lambda row: f"{row[0]}-{row[1]}")
def test_golden_trajectory_budget(row):
    assert _outcome(row[0], row[1], BUDGET) == row


# Configs of the traced runs: M = 0 is the monotone ratio test, the budget
# cuts the run short, and max_ls_iters = 2 makes the extension search fail.
TRACE_CONFIGS = {
    "default": SolverConfig(),
    "M=0": SolverConfig(M=0),
    "max_fevals=300": BUDGET,
    "max_ls_iters=2": SolverConfig(max_ls_iters=2),
}

# (problem, solver, config, number of trace records, trace digest)
GOLDEN_TRACES = [
    ("beale:2", "lbfgs", "default", 14, "e3a2504016a61214"),
    ("beale:2", "rlbfgs", "default", 13, "8c5ce8581e0c070e"),
    ("beale:2", "rlbfgs-sw", "default", 13, "8c5ce8581e0c070e"),
    ("rosenbrock:2", "lbfgs", "default", 36, "a871984729619e52"),
    ("rosenbrock:2", "rlbfgs", "default", 63, "0f76f5050a0700c8"),
    ("rosenbrock:2", "rlbfgs-sw", "default", 46, "4f49dd87da9548c5"),
    ("penalty1:100", "rlbfgs-sw", "default", 139, "df2b514141e80359"),
    ("rosenbrock:2", "lbfgs", "M=0", 36, "a871984729619e52"),
    ("rosenbrock:2", "rlbfgs", "M=0", 47, "56d19ab9cd517164"),
    ("rosenbrock:2", "rlbfgs-sw", "M=0", 47, "56d19ab9cd517164"),
    ("quadratic-ill:100", "lbfgs", "max_fevals=300", 268, "07134622733b22b8"),
    ("quadratic-ill:100", "rlbfgs", "max_fevals=300", 254, "72de40d64efaa170"),
    ("quadratic-ill:100", "rlbfgs-sw", "max_fevals=300", 278, "f339ff237d5c9526"),
    ("penalty1:100", "rlbfgs-sw", "max_ls_iters=2", 149, "d0bde60d61e12150"),
]


def _trace(problem, solver, config):
    p = get_problem(problem)
    trace = []
    SOLVERS[solver](p.objective, p.x0, config, trace=trace)
    return trace


@pytest.mark.parametrize("row", GOLDEN_TRACES, ids=lambda row: f"{row[0]}-{row[1]}-{row[2]}")
def test_golden_trace(row):
    # SHA-256 prefix over each record's JSON line plus the in-memory fields
    # it omits, with floats as ``float.hex``.
    problem, solver, config, n_records, digest = row
    trace = _trace(problem, solver, TRACE_CONFIGS[config])
    h = hashlib.sha256()
    for r in trace:
        h.update(f"{r.to_json()} {r.f.hex()} {r.f_unit.hex()} {r.ls_failed}\n".encode())
    assert (len(trace), h.hexdigest()[:16]) == (n_records, digest)


def test_golden_traces_cover_the_extension():
    fired = _trace("rosenbrock:2", "rlbfgs-sw", TRACE_CONFIGS["default"])
    assert any(r.alpha is not None for r in fired)
    failed = _trace("penalty1:100", "rlbfgs-sw", TRACE_CONFIGS["max_ls_iters=2"])
    assert any(r.ls_failed for r in failed)
