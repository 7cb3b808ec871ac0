import numpy as np
import pytest

from regulus.core import NumericalBreakdownError, Objective
from regulus.curvature import PairHistory, gamma_scale, shifted_curvature

_ORACLE_MAX_DIM = 64


class CountingObjective:
    """Wraps an Objective and counts raw calls, independent of EvalCounter."""

    def __init__(self, inner: Objective):
        self.value_calls = 0
        self.grad_calls = 0
        self._inner = inner
        self.objective = Objective(
            dim=inner.dim, value=self._value, gradient=self._gradient
        )

    def _value(self, x):
        self.value_calls += 1
        return self._inner.value(x)

    def _gradient(self, x):
        self.grad_calls += 1
        return self._inner.gradient(x)


def quadratic_objective(diag):
    """Convex diagonal quadratic 0.5 * sum(diag * x^2) as an Objective."""
    diag = np.asarray(diag, dtype=float)
    return Objective(
        dim=diag.size,
        value=lambda x: float(0.5 * np.sum(diag * x * x)),
        gradient=lambda x: diag * x,
    )


def random_history(rng, n, npairs, capacity=None, min_cos=0.1):
    """History of well-scaled random pairs with positive curvature.

    ``min_cos`` bounds the angle between s and y away from orthogonality so
    the implied updates stay numerically benign.
    """
    hist = PairHistory(capacity or max(npairs, 1))
    for _ in range(npairs):
        while True:
            s = rng.standard_normal(n)
            y = rng.standard_normal(n) * rng.uniform(0.1, 10.0)
            if s @ y > min_cos * np.linalg.norm(s) * np.linalg.norm(y):
                break
        hist.push(s, y)
    return hist


def scale_of(history):
    """The initial-matrix scale for ``history``: that of its newest pair, or
    1.0 for an empty history."""
    return gamma_scale(history.newest) if len(history) else 1.0


def initial_diag(gamma, mu):
    """Diagonal of the regularized initial inverse matrix: gamma/(1+gamma*mu).

    Lies in (0, gamma] and decreases strictly in ``mu``.
    """
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    if mu < 0.0:
        raise ValueError("mu must be nonnegative")
    return gamma / (1.0 + gamma * mu)


def dense_bfgs_oracle(history, mu, gamma, n):
    """Explicit n-by-n regularized approximate Hessian.

    Applies the direct rank-two update with the shifted pairs oldest to
    newest, starting from the inverse of the initial diagonal. The product
    of this matrix with `two_loop_direction`'s output recovers the negated
    gradient.
    """
    if n > _ORACLE_MAX_DIM:
        raise ValueError(f"dense oracle limited to n <= {_ORACLE_MAX_DIM}")
    b = np.eye(n) / initial_diag(gamma, mu)
    for pair in history:
        y_shifted, s_ty = shifted_curvature(pair, mu)
        if s_ty <= 0.0:
            raise NumericalBreakdownError("nonpositive shifted curvature in update")
        bs = b @ pair.s
        sbs = float(pair.s.dot(bs))
        if sbs <= 0.0:
            raise NumericalBreakdownError("nonpositive quadratic form in update")
        b = b - np.outer(bs, bs) / sbs + np.outer(y_shifted, y_shifted) / s_ty
    return b


def faulty(objective, target, j, bad, persistent):
    """``objective`` with its ``j``-th ``target`` call ("value" or
    "gradient") returning ``bad``, or, when ``persistent``, every call from
    the ``j``-th on. A bad gradient carries ``bad`` in its first entry."""
    calls = [0]

    def fault_due():
        calls[0] += 1
        return calls[0] == j or (persistent and calls[0] > j)

    def value(x):
        if target == "value" and fault_due():
            return bad
        return objective.value(x)

    def gradient(x):
        g = objective.gradient(x)
        if target == "gradient" and fault_due():
            g = np.array(g, dtype=float)
            g[0] = bad
        return g

    return Objective(objective.dim, value, gradient)


def gradient_check_error(problem, x):
    """Worst finite-difference deviation scaled by the gradient magnitude."""
    from regulus.problems import finite_difference_gradient

    g = problem.objective.gradient(x)
    h = 1e-6 * np.maximum(1.0, np.abs(x))
    fd = finite_difference_gradient(problem.objective, x, h)
    return np.max(np.abs(fd - g)) / max(1.0, np.max(np.abs(g)))


def mixed_sign_pair(rng, n):
    """Random (s, y) with either sign of s'y, s nonzero."""
    while True:
        s = rng.standard_normal(n)
        if s @ s > 0:
            break
    y = rng.standard_normal(n) * rng.uniform(0.1, 10.0)
    return s, y


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
