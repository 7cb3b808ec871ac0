"""Model reduction, acceptance ratio, and the nonmonotone reference value."""

from __future__ import annotations

from collections import deque

from .core import NumericalBreakdownError, Vector


def model_reduction(gradient: Vector, d: Vector) -> float:
    """Reduction predicted by the quadratic model: ``-0.5 * g'd``.

    Valid only for directions produced by the two-loop recursion for this
    gradient, for which the curvature term collapses and no matrix is needed.
    Both arguments are float arrays of the same length.
    Strictly positive for a nonzero gradient; the degenerate all-zero case
    returns 0.
    """
    reduction = -0.5 * float(gradient.dot(d))
    if reduction < 0.0 or (reduction == 0.0 and gradient.any()):
        raise NumericalBreakdownError(
            f"model predicts no reduction ({reduction!r}); not a descent direction"
        )
    return reduction


def acceptance_ratio(f_ref: float, f_trial: float, model_red: float) -> float:
    """Actual over predicted reduction; negative when the trial is worse."""
    if not model_red > 0.0:
        raise ValueError("model reduction must be positive")
    return (f_ref - f_trial) / model_red


def nonmonotone_reference(window: deque) -> float:
    """Reference objective value for the acceptance ratio.

    ``window`` is a ``deque(maxlen=M + 1)`` of the values the regularized
    steps were taken from, newest last; rejected trial points never enter
    it. Until it is full the reference is the newest value, giving the plain
    monotone ratio; once full it is the maximum of the last ``M + 1``
    values, which permits occasional objective increases (Grippo,
    Lampariello & Lucidi 1986). With ``M = 0`` the two coincide.
    """
    if len(window) == 0:
        raise ValueError("window is empty")
    if len(window) < window.maxlen:
        return window[-1]
    return max(window)
