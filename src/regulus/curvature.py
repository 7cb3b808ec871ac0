"""Bounded history of (s, y) curvature pairs and the regularized two-loop
direction built on it.

The history stores raw displacement/gradient-difference pairs; the
regularization shift is applied on the fly, so varying the regularization
parameter never requires re-storing vectors. The direction never forms a
matrix: it runs the standard two-loop recursion over the stored window with
the per-pair shifted curvature and a scaled, regularized initial diagonal.
A dense brute-force construction of the approximate Hessian is provided as
a test oracle for small dimensions.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Iterator, NamedTuple, Optional, Tuple

import numpy as np

from .core import NumericalBreakdownError, Vector

_ORACLE_MAX_DIM = 64
# Least curvature s'y/||s||^2 a pair needs for the s'y/||y||^2 scale.
ALPHA_FLOOR = 1e-8


class CurvaturePair(NamedTuple):
    """One displacement/gradient-difference pair with cached inner products."""

    s: Vector
    y: Vector
    sy: float
    ss: float
    yy: float

    @classmethod
    def from_vectors(cls, s: Vector, y: Vector) -> "CurvaturePair":
        s = np.asarray(s, dtype=float)
        y = np.asarray(y, dtype=float)
        return cls(s, y, float(s.dot(y)), float(s.dot(s)), float(y.dot(y)))


class PairHistory:
    """FIFO window of the most recent curvature pairs, newest last.

    Each slot is a list ``[pair, mu, y_shifted, tau]``: the pair with the
    last ``mu`` that :func:`two_loop_direction` shifted it for, and the
    shifted vector and weight ``1 / s'y_shifted`` from
    :func:`shifted_curvature` at that ``mu`` (``None`` until the first
    shift). The cache is keyed on the exact value of ``mu``, holds only
    finite weights, and leaves with its pair on eviction, so a direction is
    bitwise the same as one from freshly shifted pairs.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("history capacity must be positive")
        self._slots: deque[list] = deque(maxlen=capacity)

    @property
    def newest(self) -> Optional[CurvaturePair]:
        return self._slots[-1][0] if self._slots else None

    def push(self, s: Vector, y: Vector) -> bool:
        """Append a pair, evicting the oldest when at capacity.

        Zero-displacement or non-finite pairs are dropped (returns False);
        the raw ``y`` is stored unshifted.
        """
        pair = CurvaturePair.from_vectors(s, y)
        if pair.ss == 0.0:
            return False
        # Finite s's and y'y prove every entry finite; only an overflowed or
        # NaN product needs the exact scan.
        if not (math.isfinite(pair.ss) and math.isfinite(pair.yy)) and not (
            np.all(np.isfinite(pair.s)) and np.all(np.isfinite(pair.y))
        ):
            return False
        self._slots.append([pair, None, None, None])
        return True

    def __len__(self) -> int:
        return len(self._slots)

    def __iter__(self) -> Iterator[CurvaturePair]:
        """Iterate oldest to newest."""
        return (slot[0] for slot in self._slots)


def shifted_curvature(pair: CurvaturePair, mu: float) -> Tuple[Vector, float]:
    """Shifted gradient difference and its inner product with the displacement.

    Returns ``(y + (max(0, -s'y/||s||^2) + mu) * s, max(0, s'y) + mu*||s||^2)``.
    When ``s'y >= 0`` this is the plain shift ``y + mu*s``; the correction
    term otherwise guarantees a positive inner product for any ``mu > 0``.
    """
    if mu < 0.0:
        raise ValueError("mu must be nonnegative")
    correction = max(0.0, -pair.sy / pair.ss)
    y_shifted = pair.y + (correction + mu) * pair.s
    s_ty = max(0.0, pair.sy) + mu * pair.ss
    return y_shifted, s_ty


def gamma_scale(last_pair: Optional[CurvaturePair]) -> float:
    """Scale ``gamma`` of the initial matrix from the most recent curvature pair.

    Uses ``s'y / ||y||^2`` when the pair has enough positive curvature
    (``s'y >= ALPHA_FLOOR * ||s||^2``) and falls back to
    ``ALPHA_FLOOR * ||s||^2 / ||y||^2`` otherwise, so the result is positive
    for any stored pair whose products neither overflow nor underflow. With
    no pair yet the scale is 1.
    """
    if last_pair is None:
        return 1.0
    if last_pair.yy == 0.0:
        raise NumericalBreakdownError("curvature pair has zero gradient difference")
    if last_pair.sy >= ALPHA_FLOOR * last_pair.ss:
        return last_pair.sy / last_pair.yy
    return ALPHA_FLOOR * last_pair.ss / last_pair.yy


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
    is a descent direction whenever the gradient is nonzero. Raises
    :class:`NumericalBreakdownError` when a weight is not finite (``s'y``
    shifted to zero, a subnormal or NaN).

    Only pairs last shifted with a different ``mu`` are shifted again. The
    recursion runs in place on one copy of the gradient and one scratch
    buffer, with the same floating-point operations in the same order as
    the textbook form. The result is always a fresh array, aliased with
    neither the cache nor the buffer, because callers store it in the
    history as the next displacement.
    """
    slots = history._slots
    for slot in slots:
        if slot[1] != mu:
            y_shifted, s_ty = shifted_curvature(slot[0], mu)
            tau = 1.0 / s_ty if s_ty != 0.0 else math.inf
            if not math.isfinite(tau):
                raise NumericalBreakdownError(f"non-finite curvature weight 1/{s_ty!r}")
            slot[1:] = mu, y_shifted, tau
    q = np.array(gradient, dtype=float)
    buf = np.empty_like(q)
    alphas = []
    for pair, _, y_shifted, tau in reversed(slots):
        a = tau * float(pair.s.dot(q))
        q -= np.multiply(y_shifted, a, out=buf)
        alphas.append(a)
    r = np.multiply(q, gamma / (1.0 + gamma * mu), out=q)
    for (pair, _, y_shifted, tau), a in zip(slots, reversed(alphas)):
        beta = tau * float(y_shifted.dot(r))
        r += np.multiply(pair.s, a - beta, out=buf)
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
