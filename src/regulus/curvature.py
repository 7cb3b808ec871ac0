"""Bounded history of (s, y) curvature pairs with on-demand shifted curvature.

The history stores raw displacement/gradient-difference pairs; the
regularization shift is applied on the fly, so varying the regularization
parameter never requires re-storing vectors.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from .core import NumericalBreakdownError, Vector


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


# One pair as the two-loop recursion consumes it: (s, y_shifted, 1 / s'y_shifted).
TwoLoopEntry = Tuple[Vector, Vector, float]


class PairHistory:
    """FIFO window of the most recent curvature pairs, newest last.

    Each slot is a list ``[pair, mu, entry]``: the pair with the last ``mu``
    it was shifted for and the :class:`TwoLoopEntry` built from
    :func:`shifted_curvature` at that ``mu`` (``None`` for both until the
    first shift). The cache is keyed on the exact value of ``mu``, holds
    only entries whose weight is finite, and leaves with its pair on
    eviction, so :meth:`entries` returns bitwise the same result as a fresh
    computation. Callers must not write into the returned vectors.
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
        self._slots.append([pair, None, None])
        return True

    def entries(self, mu: float) -> List[TwoLoopEntry]:
        """``(s, y_shifted, tau)`` of every pair, oldest first, where
        ``y_shifted, s_ty = shifted_curvature(pair, mu)`` and
        ``tau = 1 / s_ty``. Only pairs last shifted with a different ``mu``
        are recomputed. Raises :class:`NumericalBreakdownError` when a weight
        is not finite (``s_ty`` zero, subnormal or NaN)."""
        out = []
        for slot in self._slots:
            if slot[1] != mu:
                pair = slot[0]
                y_shifted, s_ty = shifted_curvature(pair, mu)
                tau = 1.0 / s_ty if s_ty != 0.0 else math.inf
                if not math.isfinite(tau):
                    raise NumericalBreakdownError(f"non-finite curvature weight 1/{s_ty!r}")
                slot[1], slot[2] = mu, (pair.s, y_shifted, tau)
            out.append(slot[2])
        return out

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
