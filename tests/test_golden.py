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

from regulus import SOLVERS, SolverConfig, get_problem, registry

# (problem, solver, status, n_f, n_g, iterations, inner_iterations, final_residual.hex())
GOLDEN = [
    ("beale:2", "lbfgs", "Converged", 15, 15, 14, 0, "0x1.5fef3a97cdc9dp-19"),
    ("beale:2", "rlbfgs", "Converged", 15, 15, 14, 0, "0x1.23bccee3e2173p-17"),
    ("beale:2", "rlbfgs-sw", "Converged", 15, 15, 14, 0, "0x1.23bccee3e2173p-17"),
    ("rosenbrock:2", "lbfgs", "Converged", 44, 44, 36, 0, "0x1.109dfb754adc1p-24"),
    ("rosenbrock:2", "rlbfgs", "Converged", 67, 50, 49, 17, "0x1.ca21488dfa559p-25"),
    ("rosenbrock:2", "rlbfgs-sw", "Converged", 85, 71, 63, 14, "0x1.4d9a73e208834p-22"),
    ("rosenbrock:1000", "lbfgs", "Converged", 45, 45, 35, 0, "0x1.506ba84d9c40ep-20"),
    ("rosenbrock:1000", "rlbfgs", "Converged", 80, 60, 59, 20, "0x1.6d5e01b580a31p-19"),
    ("rosenbrock:1000", "rlbfgs-sw", "Converged", 68, 51, 44, 17, "0x1.a38f9aba753e2p-27"),
    ("powell-singular:100", "lbfgs", "Converged", 77, 77, 57, 0, "0x1.6b4ec3390c7b6p-20"),
    ("powell-singular:100", "rlbfgs", "Converged", 65, 59, 58, 6, "0x1.53aeaa0f58087p-18"),
    ("powell-singular:100", "rlbfgs-sw", "Converged", 65, 59, 58, 6, "0x1.53aeaa0f58087p-18"),
    ("quadratic-diag:100", "lbfgs", "Converged", 74, 74, 68, 0, "0x1.47f170af0f753p-17"),
    ("quadratic-diag:100", "rlbfgs", "Converged", 79, 76, 75, 3, "0x1.b5dac52f1cf45p-18"),
    ("quadratic-diag:100", "rlbfgs-sw", "Converged", 79, 76, 75, 3, "0x1.b5dac52f1cf45p-18"),
    ("quadratic-ill:1000", "lbfgs", "Converged", 3998, 3998, 3494, 0, "0x1.426321d211612p-17"),
    ("quadratic-ill:1000", "rlbfgs", "Converged", 4484, 3939, 3938, 545, "0x1.44c9e86fc4f9fp-17"),
    ("quadratic-ill:1000", "rlbfgs-sw", "Converged", 4329, 3882, 3860, 447, "0x1.4360341d6913dp-17"),
    ("hilbert:10", "lbfgs", "Converged", 14, 14, 13, 0, "0x1.3c38a204dbd68p-18"),
    ("hilbert:10", "rlbfgs", "Converged", 23, 23, 22, 0, "0x1.1035e81e7c495p-17"),
    ("hilbert:10", "rlbfgs-sw", "Converged", 23, 23, 22, 0, "0x1.1035e81e7c495p-17"),
    ("dixon-price:100", "lbfgs", "Converged", 92, 92, 89, 0, "0x1.d8660bd193472p-18"),
    ("dixon-price:100", "rlbfgs", "Converged", 90, 86, 85, 4, "0x1.2489ccdde7d68p-17"),
    ("dixon-price:100", "rlbfgs-sw", "Converged", 90, 86, 85, 4, "0x1.2489ccdde7d68p-17"),
    ("trigonometric:1000", "lbfgs", "Converged", 54, 54, 48, 0, "0x1.64c7f6445d71bp-18"),
    ("trigonometric:1000", "rlbfgs", "Converged", 48, 47, 46, 1, "0x1.d73269c04d372p-18"),
    ("trigonometric:1000", "rlbfgs-sw", "Converged", 48, 47, 46, 1, "0x1.d73269c04d372p-18"),
    ("penalty1:100", "lbfgs", "Converged", 75, 75, 58, 0, "0x1.a5eb1e14d2931p-22"),
    ("penalty1:100", "rlbfgs", "Converged", 69, 69, 68, 0, "0x1.4ab6f6de94101p-19"),
    ("penalty1:100", "rlbfgs-sw", "Converged", 70, 70, 61, 0, "0x1.f006bf4a07251p-19"),
    ("two-well:1000", "lbfgs", "Converged", 12, 12, 7, 0, "0x1.683e33d4e2293p-28"),
    ("two-well:1000", "rlbfgs", "Converged", 12, 9, 8, 3, "0x1.18cf7c9f5d602p-20"),
    ("two-well:1000", "rlbfgs-sw", "Converged", 12, 9, 8, 3, "0x1.18cf7c9f5d602p-20"),
    ("engval1:100", "lbfgs", "Converged", 18, 18, 17, 0, "0x1.31c3efde44fd9p-18"),
    ("engval1:100", "rlbfgs", "Converged", 18, 18, 17, 0, "0x1.31e80793411a7p-18"),
    ("engval1:100", "rlbfgs-sw", "Converged", 18, 18, 17, 0, "0x1.31e80793411a7p-18"),
]

# Runs cut short by the evaluation budget pin the failure path's report too.
BUDGET = SolverConfig(max_fevals=300)
GOLDEN_BUDGET = [
    ("quadratic-ill:100", "lbfgs", "EvalBudgetExceeded", 301, 301, 268, 0, "0x1.086174ffae4acp+3"),
    ("quadratic-ill:100", "rlbfgs", "EvalBudgetExceeded", 301, 258, 257, 43, "0x1.f069819d5f340p+4"),
    ("quadratic-ill:100", "rlbfgs-sw", "EvalBudgetExceeded", 301, 258, 257, 43, "0x1.f069819d5f340p+4"),
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
    ("beale:2", "lbfgs", "default", 14, "0c1bfb828571f0c3"),
    ("beale:2", "rlbfgs", "default", 14, "c1affa75a24d69f5"),
    ("beale:2", "rlbfgs-sw", "default", 14, "c1affa75a24d69f5"),
    ("rosenbrock:2", "lbfgs", "default", 36, "781f4ee58d2fdbf4"),
    ("rosenbrock:2", "rlbfgs", "default", 49, "28f3c7947ec90390"),
    ("rosenbrock:2", "rlbfgs-sw", "default", 63, "69c9268a04aa137c"),
    ("penalty1:100", "rlbfgs-sw", "default", 61, "b33bdbaa33d2be69"),
    ("rosenbrock:2", "lbfgs", "M=0", 36, "781f4ee58d2fdbf4"),
    ("rosenbrock:2", "rlbfgs", "M=0", 37, "5319ec627b5e6618"),
    ("rosenbrock:2", "rlbfgs-sw", "M=0", 37, "5319ec627b5e6618"),
    ("quadratic-ill:100", "lbfgs", "max_fevals=300", 268, "02045cacc7a693af"),
    ("quadratic-ill:100", "rlbfgs", "max_fevals=300", 257, "40e9128bd945e3ae"),
    ("quadratic-ill:100", "rlbfgs-sw", "max_fevals=300", 257, "40e9128bd945e3ae"),
    ("penalty1:100", "rlbfgs-sw", "max_ls_iters=2", 65, "d7627ac5f13712ea"),
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


# (start scale, SHA-256 prefix over the ``_outcome`` row of every registry
# cell from that start under every solver). x1 is the standard start, so
# every cell that ``GOLDEN`` leaves out is pinned too; x10 and x100 are
# Moré, Garbow & Hillstrom's far starts, and at x100 the search's
# bracketing phase runs longest.
GOLDEN_FAR_STARTS = [
    (1, "1a6d19985607d1e9"),
    (10, "9592e5a2b8934236"),
    (100, "1343c5bd7e260577"),
]


@pytest.mark.parametrize("row", GOLDEN_FAR_STARTS, ids=lambda row: str(row[0]))
def test_golden_far_starts(row):
    scale, digest = row
    h = hashlib.sha256()
    for problem in registry():
        for solver in SOLVERS:
            outcome = _outcome(f"{problem.name}@{scale}", solver, SolverConfig())
            assert outcome[2] == "Converged", outcome
            h.update(f"{outcome}\n".encode())
    assert h.hexdigest()[:16] == digest
