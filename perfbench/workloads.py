"""Seeded inputs of the benchmark workloads.

A workload is a list of (problem, solver) cells run with one config; a
problem is a label, an objective and a start. The seed only perturbs
inputs: each start coordinate is scaled by a seeded factor in
[0.95, 1.05], which breaks the block symmetry of the separable families (so
cost really scales with n) and keeps zero coordinates at zero; the logistic
data are drawn from the seed.

How many evaluations a cell needs swings with its jittered start (by 20% on
``quadratic-ill`` and on ``rosenbrock`` at large n, whatever the jitter's
size), so each workload holds several independently seeded copies of its
cells. A run's totals then move less from one seed to the next.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Tuple

import numpy as np

import regulus
from regulus import Objective, SolverConfig

SOLVER_NAMES = ("lbfgs", "rlbfgs", "rlbfgs-sw")
JITTER = 0.05


class Problem(NamedTuple):
    label: str
    objective: Objective
    x0: np.ndarray


class Workload(NamedTuple):
    cells: List[Tuple[Problem, str]]
    config: SolverConfig
    probe: Callable[[], object]
    """A fixed piece of work of the kind the cells do, built from numpy
    alone. It is timed next to every cell to measure the host's speed."""


def every_solver(problems: List[Problem]) -> List[Tuple[Problem, str]]:
    return [(p, s) for p in problems for s in SOLVER_NAMES]


def replicated(seed: int, copies: int,
               replica: Callable[[np.random.Generator, str], list]) -> list:
    """``copies`` copies of a cell list, copy ``k`` drawn from the seed
    sequence ``[seed, k]`` and labelled ``#k``."""
    cells = []
    for k in range(copies):
        cells += replica(np.random.default_rng([seed, k]), f"#{k}")
    return cells


def jittered(defs, rng: np.random.Generator, tag: str) -> List[Problem]:
    return [
        Problem(d.name + tag, d.objective,
                d.x0 * (1.0 + rng.uniform(-JITTER, JITTER, d.x0.size)))
        for d in defs
    ]


def small_vector_probe():
    """Numpy calls on a short vector in an interpreted loop: the grid's cells
    spend their time in the interpreter and in per-call overhead."""
    v = np.ones(100)
    for _ in range(200):
        v = v * 0.999 + 0.001
        float(v @ v)


GRID_COPIES = 3


def grid(seed: int) -> Workload:
    """The 20 registry problems (n <= 1000) at the default config, in
    ``GRID_COPIES`` copies."""
    defs = regulus.registry()
    cells = replicated(seed, GRID_COPIES, lambda rng, tag: every_solver(jittered(defs, rng, tag)))
    return Workload(cells, SolverConfig(), small_vector_probe)


LARGE_N = ("rosenbrock", "trigonometric", "engval1", "penalty1")
LARGE_DIM = 50_000
LARGE_COPIES = 4


def large_n(seed: int) -> Workload:
    """Four families at n = 5e4, memory m = 5, in ``LARGE_COPIES`` copies.

    At n = 5e4 the ten stored pair vectors (4 MB) overflow a core's L2, as
    at n = 1e5, while a cell takes half as long; so the pass holds twice as
    many copies, which halves the seed-to-seed variance of its ``n_f``.

    ``penalty1`` runs only under the regularized solvers: its start is so far
    out that ``lbfgs`` ends in a line-search failure at the first iteration
    on every seed, and the benchmark's workloads are chosen so that no cell
    fails. Under ``rlbfgs`` it is the cell that rejects trial steps.
    """
    defs = [regulus.make_problem(family, LARGE_DIM) for family in LARGE_N]

    def replica(rng, tag):
        *rest, penalty = jittered(defs, rng, tag)
        return every_solver(rest) + [(penalty, "rlbfgs"), (penalty, "rlbfgs-sw")]

    x, y = np.linspace(1.0, 2.0, LARGE_DIM), np.zeros(LARGE_DIM)

    def probe():
        """Updates and dot products of n-vectors, as in the two-loop recursion."""
        for _ in range(20):
            y.__iadd__(1e-9 * x)
            float(x @ y)

    return Workload(replicated(seed, LARGE_COPIES, replica), SolverConfig(m=5), probe)


LOGISTIC_SAMPLES = 4000
LOGISTIC_FEATURES = 400
LOGISTIC_LAMBDA = 1e-2
LOGISTIC_COPIES = 2


def logistic_objective(a: np.ndarray, labels: np.ndarray, lam: float) -> Objective:
    """Summed logistic loss of ``labels`` in {-1, 1} plus ``lam/2 ||w||^2``."""

    def value(w):
        margins = labels * (a @ w)
        return float(np.sum(np.logaddexp(0.0, -margins)) + 0.5 * lam * (w @ w))

    def gradient(w):
        margins = labels * (a @ w)
        weights = -labels * 0.5 * (1.0 - np.tanh(0.5 * margins))
        return a.T @ weights + lam * w

    return Objective(a.shape[1], value, gradient)


def logistic(seed: int) -> Workload:
    """Dense l2-regularized logistic regression, 4000 samples by 400
    features, columns scaled from 1 down to 1e-2, start at zero."""

    def replica(rng, tag):
        n, d = LOGISTIC_SAMPLES, LOGISTIC_FEATURES
        a = rng.standard_normal((n, d)) * np.logspace(0.0, -2.0, d)
        w_true = rng.standard_normal(d)
        p_positive = 1.0 / (1.0 + np.exp(-(a @ w_true)))
        labels = np.where(rng.uniform(size=n) < p_positive, 1.0, -1.0)
        objective = logistic_objective(a, labels, LOGISTIC_LAMBDA)
        matrices.append((a, labels))
        return every_solver([Problem(f"logistic:{d}{tag}", objective, np.zeros(d))])

    matrices = []
    cells = replicated(seed, LOGISTIC_COPIES, replica)
    a, labels = matrices[0]
    w = np.zeros(LOGISTIC_FEATURES)

    def probe():
        """The two products with the data matrix that every gradient makes."""
        a.T @ (a @ w + labels)

    return Workload(cells, SolverConfig(), probe)


WORKLOADS: Dict[str, Callable[[int], Workload]] = {
    "grid": grid,
    "large-n": large_n,
    "logistic": logistic,
}
