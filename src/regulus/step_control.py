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


def nonmonotone_reference(window: deque, k: int, M: int) -> float:
    """Reference objective value for the acceptance ratio at iteration ``k``.

    ``window`` holds the accepted objective values, newest last; only
    accepted iterates enter it, rejected trial points never do. For
    ``k < M`` (and always for ``M = 0``) the reference is the current
    objective value, giving the plain monotone ratio. From iteration ``M``
    on it is the maximum of the last ``min(k, M) + 1`` accepted values,
    which permits occasional objective increases (Grippo, Lampariello &
    Lucidi 1986). It is that maximum only if the window holds exactly those
    values, as the driver's ``deque(maxlen=M + 1)`` does at iteration ``k``.
    """
    if len(window) == 0:
        raise ValueError("window is empty")
    if M == 0 or k < M:
        return window[-1]
    return max(window)
