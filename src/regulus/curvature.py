"""Bounded history of (s, y) curvature pairs and the regularized two-loop
direction built on it.

The history is a bounded ``deque`` of raw displacement/gradient-difference
pairs, oldest first, that only its ``push`` fills. The regularization shift
is applied on the fly, so varying the regularization parameter never
requires re-storing vectors. The direction never forms a matrix: it runs
the standard two-loop recursion over the stored window with the per-pair
shifted curvature and a scaled, regularized initial diagonal.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Tuple

import numpy as np

from .core import NumericalBreakdownError, Vector, norm

# Least curvature s'y/||s||^2 a pair needs for the s'y/||y||^2 scale.
ALPHA_FLOOR = 1e-8


class CurvaturePair:
    """One displacement/gradient-difference pair, its inner products ``sy``,
    ``ss``, ``yy``, and its shift cache: the last ``mu`` that
    :func:`two_loop_direction` shifted it for, with the shifted vector and
    weight ``1 / s'y_shifted`` from :func:`shifted_curvature` at that ``mu``
    (``None`` until the first shift). The cache is keyed on the exact value
    of ``mu``, holds only finite weights, and leaves with its pair on
    eviction, so a direction is bitwise the same as one from freshly shifted
    pairs.
    """

    __slots__ = ("s", "y", "sy", "ss", "yy", "mu", "y_shifted", "tau")

    def __init__(self, s: Vector, y: Vector):
        self.s = s = np.asarray(s, dtype=float)
        self.y = y = np.asarray(y, dtype=float)
        self.sy, self.ss, self.yy = float(s.dot(y)), float(s.dot(s)), float(y.dot(y))
        self.mu = self.y_shifted = self.tau = None


class PairHistory(deque):
    """The most recent curvature pairs, oldest first: a ``deque`` bounded at
    ``capacity >= 1`` (``SolverConfig.m``) that only :meth:`push` fills."""

    def __init__(self, capacity: int):
        super().__init__(maxlen=capacity)

    def push(self, s: Vector, y: Vector) -> bool:
        """Append a pair, evicting the oldest when at capacity.

        Zero-displacement or non-finite pairs are dropped (returns False);
        the raw ``y`` is stored unshifted.
        """
        pair = CurvaturePair(s, y)
        if pair.ss == 0.0:
            return False
        # Finite s's and y'y prove every entry finite; only an overflowed or
        # NaN product needs the exact scan.
        if not (math.isfinite(pair.ss) and math.isfinite(pair.yy)) and not (
            np.all(np.isfinite(pair.s)) and np.all(np.isfinite(pair.y))
        ):
            return False
        self.append(pair)
        return True


def shifted_curvature(pair: CurvaturePair, mu: float) -> Tuple[Vector, float]:
    """Shifted gradient difference and its inner product with the displacement.

    Returns ``(y + (max(0, -s'y/||s||^2) + mu) * s, max(0, s'y) + mu*||s||^2)``.
    When ``s'y >= 0`` this is the plain shift ``y + mu*s``; the correction
    term otherwise guarantees a positive inner product for any ``mu > 0``.
    The caller passes ``mu >= 0``: 0 for ``lbfgs``, at least ``mu_min``
    otherwise.
    """
    correction = max(0.0, -pair.sy / pair.ss)
    y_shifted = pair.y + (correction + mu) * pair.s
    s_ty = max(0.0, pair.sy) + mu * pair.ss
    return y_shifted, s_ty


def initial_scale(g: Vector) -> float:
    """``min(1, 1/||g||)``, the scale of the initial matrix until the pair
    store holds a pair, so that the first unit step moves by at most 1 (the
    first step of Liu & Nocedal 1989). A gradient with ``||g|| <= 1``,
    including a zero one, keeps the scale 1.

    The overflow-safe :func:`~regulus.core.norm` keeps the scale positive
    when ``g'g`` overflows although every entry is finite."""
    gnorm = norm(g)
    return 1.0 if gnorm <= 1.0 else 1.0 / gnorm


def gamma_scale(last_pair: CurvaturePair) -> float:
    """Scale ``gamma`` of the initial matrix from the most recent curvature pair.

    Uses ``s'y / ||y||^2`` when the pair has enough positive curvature
    (``s'y >= ALPHA_FLOOR * ||s||^2``) and falls back to
    ``ALPHA_FLOOR * ||s||^2 / ||y||^2`` otherwise, so the result is positive
    for any stored pair whose products neither overflow nor underflow.
    """
    if last_pair.yy == 0.0:
        raise NumericalBreakdownError("curvature pair has zero gradient difference")
    if last_pair.sy >= ALPHA_FLOOR * last_pair.ss:
        return last_pair.sy / last_pair.yy
    return ALPHA_FLOOR * last_pair.ss / last_pair.yy


def two_loop_direction(
    history: PairHistory,
    gradient: Vector,
    mu: float,
    gamma: float,
) -> Vector:
    """Quasi-Newton direction ``-H(mu) @ gradient`` in O(m*n) time.

    ``H(mu)`` is the limited-memory inverse built from the initial diagonal
    ``gamma / (1 + gamma * mu)`` and the stored pairs with their shifted
    curvature, applied oldest to newest. With an empty history this reduces
    to a scaled steepest-descent step. The result
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
    for pair in history:
        if pair.mu != mu:
            y_shifted, s_ty = shifted_curvature(pair, mu)
            tau = 1.0 / s_ty if s_ty != 0.0 else math.inf
            if not math.isfinite(tau):
                raise NumericalBreakdownError(f"non-finite curvature weight 1/{s_ty!r}")
            pair.mu, pair.y_shifted, pair.tau = mu, y_shifted, tau
    # The loops dot a contiguous copy of the gradient: a strided gradient
    # would dot through another BLAS kernel. A ufunc bound to a local and
    # given ``out`` positionally costs less per call.
    multiply = np.multiply
    q = np.array(gradient, dtype=float)
    buf = np.empty_like(q)
    alphas = []
    for pair in reversed(history):
        a = pair.tau * float(pair.s.dot(q))
        q -= multiply(pair.y_shifted, a, buf)
        alphas.append(a)
    r = multiply(q, gamma / (1.0 + gamma * mu), q)
    for pair, a in zip(history, reversed(alphas)):
        beta = pair.tau * float(pair.y_shifted.dot(r))
        r += multiply(pair.s, a - beta, buf)
    return np.negative(r, r)
