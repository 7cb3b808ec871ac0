"""Model reduction, acceptance ratio, and the nonmonotone reference value."""

from __future__ import annotations

from collections import deque
from itertools import islice
from typing import Iterator

from .core import NonpositiveModelReductionError, Vector


class FWindow:
    """FIFO window of the last ``M + 1`` accepted objective values.

    Only accepted iterates enter the window; rejected trial points never do.
    Newest value last.
    """

    def __init__(self, window: int):
        if window < 0:
            raise ValueError("window size must be nonnegative")
        self._values: deque[float] = deque(maxlen=window + 1)

    def push(self, f: float) -> None:
        self._values.append(float(f))

    def latest(self) -> float:
        return self._values[-1]

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator[float]:
        return iter(self._values)


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
        raise NonpositiveModelReductionError(
            f"model predicts no reduction ({reduction!r}); not a descent direction"
        )
    return reduction


def acceptance_ratio(f_ref: float, f_trial: float, model_red: float) -> float:
    """Actual over predicted reduction; negative when the trial is worse."""
    if not model_red > 0.0:
        raise ValueError("model reduction must be positive")
    return (f_ref - f_trial) / model_red


def nonmonotone_reference(window: FWindow, k: int, M: int) -> float:
    """Reference objective value for the acceptance ratio at iteration ``k``.

    For ``k < M`` (and always for ``M = 0``) the reference is the current
    objective value, giving the plain monotone ratio. From iteration ``M``
    on it is the maximum of the last ``min(k, M) + 1`` accepted values,
    which permits occasional objective increases.
    """
    if len(window) == 0:
        raise ValueError("window is empty")
    if M == 0 or k < M:
        return window.latest()
    take = min(k, M) + 1
    return max(islice(window, max(0, len(window) - take), None))
