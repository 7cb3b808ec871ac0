"""Search-direction computation via the regularized two-loop recursion.

The fast path never forms a matrix: it runs the standard two-loop recursion
over the stored pair window with the per-pair shifted curvature and a scaled,
regularized initial diagonal. A dense brute-force construction of the
approximate Hessian is provided as a test oracle for small dimensions.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .core import NumericalBreakdownError, Vector
from .curvature import CurvaturePair, PairHistory, shifted_curvature

_ORACLE_MAX_DIM = 64


def gamma_scale(last_pair: Optional[CurvaturePair], alpha_floor: float) -> float:
    """Scale ``gamma`` of the initial matrix from the most recent curvature pair.

    Uses ``s'y / ||y||^2`` when the pair has enough positive curvature and
    falls back to ``alpha_floor * ||s||^2 / ||y||^2`` otherwise, so the
    result is positive for any stored pair whose products neither overflow
    nor underflow. With no pair yet the scale is 1.
    """
    if alpha_floor <= 0.0:
        raise ValueError("alpha_floor must be positive")
    if last_pair is None:
        return 1.0
    if last_pair.yy == 0.0:
        raise NumericalBreakdownError("curvature pair has zero gradient difference")
    if last_pair.sy >= alpha_floor * last_pair.ss:
        return last_pair.sy / last_pair.yy
    return alpha_floor * last_pair.ss / last_pair.yy


def initial_diag(gamma: float, mu: float) -> float:
    """Diagonal of the regularized initial inverse matrix: gamma/(1+gamma*mu).

    Lies in (0, gamma] and decreases strictly in ``mu``.
    """
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    if mu < 0.0:
        raise ValueError("mu must be nonnegative")
    return gamma / (1.0 + gamma * mu)


def two_loop_direction(
    history: PairHistory,
    gradient: Vector,
    mu: float,
    gamma: float,
) -> Vector:
    """Quasi-Newton direction ``-H(mu) @ gradient`` in O(m*n) time.

    ``H(mu)`` is the limited-memory inverse built from the initial diagonal
    ``gamma / (1 + gamma * mu)`` (see :func:`initial_diag`) and the stored
    pairs with their shifted curvature, applied oldest to newest. With an
    empty history this reduces to a scaled steepest-descent step. The result
    is a descent direction whenever the gradient is nonzero.

    The shifted vectors and weights come from the history's cache (see
    :meth:`PairHistory.entries`). The recursion runs in place on one copy of
    the gradient and one scratch buffer, with the same floating-point
    operations in the same order as the textbook form. The result is always
    a fresh array, aliased with neither the cache nor the buffer, because
    callers store it in the history as the next displacement.
    """
    entries = history.entries(mu)
    q = np.array(gradient, dtype=float)
    buf = np.empty_like(q)
    alphas = []
    for s, y_shifted, tau in reversed(entries):
        a = tau * float(s.dot(q))
        q -= np.multiply(y_shifted, a, out=buf)
        alphas.append(a)
    r = np.multiply(q, gamma / (1.0 + gamma * mu), out=q)
    for (s, y_shifted, tau), a in zip(entries, reversed(alphas)):
        beta = tau * float(y_shifted.dot(r))
        r += np.multiply(s, a - beta, out=buf)
    return np.negative(r, out=r)


def dense_bfgs_oracle(
    history: PairHistory,
    mu: float,
    gamma: float,
    n: int,
) -> Vector:
    """Explicit n-by-n regularized approximate Hessian, for testing only.

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
