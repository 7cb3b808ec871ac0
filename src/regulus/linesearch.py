"""Strong Wolfe line search: one loop over one bracket, doubling the trial
step while the bracket is open and interpolating once it is closed.

Only the 1-D restriction of the objective is visible here; callers supply
``phi(alpha) -> (value, slope, *extras)``, which also does whatever
evaluation accounting they need and returns a value of ``inf`` for a point
that broke down.
"""

from __future__ import annotations

import math
from typing import Callable

from .core import LineSearchError, NumericalBreakdownError

ALPHA_MAX = 1e20


def _cubic_minimizer(a, fa, dfa, b, fb, dfb):
    """Minimizer of the Hermite cubic through two value/slope samples at
    ``a != b``.

    Returns None when the interpolant has no real critical point or its
    denominator is zero; the caller falls back to bisection, as it does
    when an infinite or NaN denominator gives an end point or NaN.
    """
    d1 = dfa + dfb - 3.0 * (fa - fb) / (a - b)
    disc = d1 * d1 - dfa * dfb
    if not disc >= 0.0:
        return None
    d2 = math.copysign(math.sqrt(disc), b - a)
    denom = dfb - dfa + 2.0 * d2
    if denom == 0.0:
        return None
    return b - (b - a) * (dfb + d2 - d1) / denom


def strong_wolfe_search(
    phi: Callable[[float], tuple],
    phi0: float,
    dphi0: float,
    c1: float,
    c2: float,
    max_iters: int,
) -> tuple:
    """Find a step satisfying sufficient decrease and the strong curvature bound.

    ``phi(alpha)`` returns ``(value, slope, *extras)`` along the ray, and
    ``phi0`` and ``dphi0`` are the value and slope at ``alpha = 0``. The
    caller guarantees ``dphi0 < 0`` and ``0 < c1 < c2 < 1`` (``SolverConfig``
    proves the constants); the search checks neither.
    The first trial is the unit step. The search returns ``(alpha,
    phi(alpha), phi'(alpha), *extras)`` of the probe it accepts, where

        phi(alpha) <= phi(0) + c1 * alpha * phi'(0)
        |phi'(alpha)| <= c2 * |phi'(0)|

    with ``alpha`` allowed to exceed 1. ``max_iters`` bounds the number of
    calls to ``phi``. Raises :class:`LineSearchError` when the budget runs
    out, the bracket's width vanishes, or the trial step exceeds
    ``ALPHA_MAX``, and :class:`NumericalBreakdownError` instead when the
    search gives up right after a probe whose value was not finite.
    """
    curve_bound = -c2 * dphi0
    # The bracket [a_lo, a_hi] (in either order) holds an acceptable step:
    # a_lo has the least phi among the sufficient-decrease points; a_hi stays
    # open (inf, without phi_hi) until a trial overshoots. While it is open
    # the trial doubles; once it is closed trials stay strictly inside it.
    a_lo, phi_lo, dphi_lo = 0.0, phi0, dphi0
    a_hi = math.inf
    phi_a = phi0
    evals = 0

    def give_up(reason):
        if math.isfinite(phi_a):
            raise LineSearchError(reason)
        raise NumericalBreakdownError(f"{reason}; the last probe was not finite")

    while True:
        if a_hi == math.inf:
            alpha = max(1.0, 2.0 * a_lo)
            if alpha > ALPHA_MAX:
                give_up("trial step exceeded alpha_max")
        else:
            lo, hi = min(a_lo, a_hi), max(a_lo, a_hi)
            width = hi - lo
            if width <= 1e-12 * max(1.0, hi):
                give_up("bracket width vanished without an acceptable step")
            alpha = _cubic_minimizer(a_lo, phi_lo, dphi_lo, a_hi, phi_hi, dphi_hi)
            margin = 0.1 * width
            if alpha is None or not (lo + margin <= alpha <= hi - margin):
                alpha = 0.5 * (lo + hi)
        if evals >= max_iters:
            give_up(f"no acceptable step within {max_iters} evaluations")
        evals += 1
        value, slope, *extras = phi(alpha)
        phi_a, dphi_a = float(value), float(slope)
        # The first trial is judged by sufficient decrease alone.
        if not phi_a <= phi0 + c1 * alpha * dphi0 or (evals > 1 and phi_a >= phi_lo):
            a_hi, phi_hi, dphi_hi = alpha, phi_a, dphi_a
        elif abs(dphi_a) <= curve_bound:
            return (alpha, phi_a, dphi_a, *extras)
        else:
            if dphi_a * (a_hi - a_lo) >= 0.0:
                a_hi, phi_hi, dphi_hi = a_lo, phi_lo, dphi_lo
            a_lo, phi_lo, dphi_lo = alpha, phi_a, dphi_a
