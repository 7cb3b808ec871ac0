"""Strong Wolfe line search: bracketing plus safeguarded interpolation zoom.

Only the 1-D restriction of the objective is visible here; callers supply
``phi(alpha) -> (value, slope)``, which also does whatever evaluation
accounting they need and returns a value of ``inf`` for a point that broke
down.
"""

from __future__ import annotations

import math
from typing import Callable, Tuple

from .core import LineSearchError, NumericalBreakdownError

ALPHA_MIN = 1e-20
ALPHA_MAX = 1e20


def _cubic_minimizer(a, fa, dfa, b, fb, dfb):
    """Minimizer of the Hermite cubic through two value/slope samples.

    Returns None when the interpolant is degenerate or has no interior
    minimizer; the caller falls back to bisection.
    """
    if a == b:
        return None
    d1 = dfa + dfb - 3.0 * (fa - fb) / (a - b)
    disc = d1 * d1 - dfa * dfb
    if not disc >= 0.0:
        return None
    d2 = math.copysign(math.sqrt(disc), b - a)
    denom = dfb - dfa + 2.0 * d2
    if denom == 0.0 or not math.isfinite(denom):
        return None
    return b - (b - a) * (dfb + d2 - d1) / denom


def strong_wolfe_search(
    phi: Callable[[float], Tuple[float, float]],
    phi0: float,
    dphi0: float,
    c1: float,
    c2: float,
    max_iters: int,
) -> Tuple[float, float, float]:
    """Find a step satisfying sufficient decrease and the strong curvature bound.

    ``phi(alpha)`` returns the value and slope along the ray, and ``phi0``
    and ``dphi0 < 0`` are those at ``alpha = 0``. The first trial is the
    unit step. The returned ``(alpha, phi(alpha), phi'(alpha))`` satisfies

        phi(alpha) <= phi(0) + c1 * alpha * phi'(0)
        |phi'(alpha)| <= c2 * |phi'(0)|

    with ``alpha`` allowed to exceed 1. ``max_iters`` bounds the total number
    of calls to ``phi`` across the bracketing and zoom phases. Raises
    :class:`LineSearchError` when the budget runs out, the bracket collapses
    below ``ALPHA_MIN``, or the trial step exceeds ``ALPHA_MAX``, and
    :class:`NumericalBreakdownError` instead when the search gives up right
    after a probe whose value was not finite.
    """
    if not 0.0 < c1 < c2 < 1.0:
        raise ValueError("requires 0 < c1 < c2 < 1")
    if not dphi0 < 0.0:
        raise ValueError("base directional derivative must be negative")
    curve_bound = -c2 * dphi0
    evals = 0
    phi_last = phi0

    def give_up(reason):
        if math.isfinite(phi_last):
            raise LineSearchError(reason)
        raise NumericalBreakdownError(f"{reason}; the last probe was not finite")

    def take(alpha):
        nonlocal evals, phi_last
        if evals >= max_iters:
            give_up(f"no acceptable step within {max_iters} evaluations")
        evals += 1
        value, slope = phi(alpha)
        phi_last = float(value)
        return phi_last, float(slope)

    def sufficient(alpha, value):
        return value <= phi0 + c1 * alpha * dphi0

    def zoom(a_lo, phi_lo, dphi_lo, a_hi, phi_hi, dphi_hi):
        # Invariant: a_lo has the least phi among sufficient-decrease points
        # and the interval brackets an acceptable step. Trial points stay
        # strictly inside the current interval, so the brackets are nested.
        while True:
            lo, hi = min(a_lo, a_hi), max(a_lo, a_hi)
            width = hi - lo
            if hi < ALPHA_MIN:
                give_up("bracket collapsed below alpha_min")
            if width <= 1e-12 * max(1.0, hi):
                give_up("bracket width vanished without an acceptable step")
            a_j = _cubic_minimizer(a_lo, phi_lo, dphi_lo, a_hi, phi_hi, dphi_hi)
            margin = 0.1 * width
            if a_j is None or not (lo + margin <= a_j <= hi - margin):
                a_j = 0.5 * (lo + hi)
            phi_j, dphi_j = take(a_j)
            if not sufficient(a_j, phi_j) or phi_j >= phi_lo:
                a_hi, phi_hi, dphi_hi = a_j, phi_j, dphi_j
            else:
                if abs(dphi_j) <= curve_bound:
                    return a_j, phi_j, dphi_j
                if dphi_j * (a_hi - a_lo) >= 0.0:
                    a_hi, phi_hi, dphi_hi = a_lo, phi_lo, dphi_lo
                a_lo, phi_lo, dphi_lo = a_j, phi_j, dphi_j

    a_prev, phi_prev, dphi_prev = 0.0, phi0, dphi0
    alpha = 1.0
    first = True
    while True:
        if alpha > ALPHA_MAX:
            give_up("trial step exceeded alpha_max")
        phi_a, dphi_a = take(alpha)
        if not sufficient(alpha, phi_a) or (not first and phi_a >= phi_prev):
            return zoom(a_prev, phi_prev, dphi_prev, alpha, phi_a, dphi_a)
        if abs(dphi_a) <= curve_bound:
            return alpha, phi_a, dphi_a
        if dphi_a >= 0.0:
            return zoom(alpha, phi_a, dphi_a, a_prev, phi_prev, dphi_prev)
        a_prev, phi_prev, dphi_prev = alpha, phi_a, dphi_a
        alpha *= 2.0
        first = False
