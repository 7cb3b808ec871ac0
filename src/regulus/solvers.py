"""Solvers: baseline L-BFGS with strong Wolfe search, the regularized
variant driven by a ratio test, and the regularized variant with an
opportunistic Wolfe step extension.

All three run through one iteration driver (`_run`) and differ only in the
step policy that chooses each step. They share the curvature store, two-loop
direction, the ratio test, and one Wolfe search along a ray; the baseline is
exactly the regularized direction code at ``mu = 0``, so comparisons isolate
the regularization itself.

``perfbench/tracer.py`` times each layer by patching ``PairHistory.push`` and
nine names here: ``accept_step_rlbfgs``, ``two_loop_direction``,
``gamma_scale``, ``model_reduction``, ``acceptance_ratio``,
``nonmonotone_reference``, ``strong_wolfe_search``, ``evaluate`` and
``check_termination``. The solvers must look them up at call time, so even
one-line helpers stay functions; renaming or removing one fails perfbench.
"""

from __future__ import annotations

import math
import time
from collections import deque
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from .core import (
    EvalBudgetExceededError,
    EvalCounter,
    LineSearchError,
    NumericalBreakdownError,
    Objective,
    RegularizationOverflowError,
    RunReport,
    SolverConfig,
    SolverError,
    Vector,
    check_termination,
    evaluate,
    norm,
    scaled_gradient_norm,
    strict_json,
)
from .curvature import PairHistory, gamma_scale, initial_scale, two_loop_direction
from .linesearch import strong_wolfe_search


class IterateState:
    """One solver run: its objective, config and evaluation ``counters``,
    and the iterate, with ``f`` and ``g`` NaN until evaluated. ``mu`` and
    ``fwindow`` (the last ``M + 1`` values that regularized steps started
    from, newest last) belong to :func:`accept_step_rlbfgs`; ``inner`` counts
    the run's rejected trials."""

    __slots__ = ("objective", "config", "counters", "x", "f", "g", "mu", "history",
                 "gamma", "fwindow", "inner")

    def __init__(self, objective: Objective, x: Vector, config: SolverConfig):
        self.objective = objective
        self.config = config
        self.counters = EvalCounter()
        self.x = x
        self.f = math.nan
        self.g = np.full_like(x, math.nan)
        self.mu = config.mu0
        self.history = PairHistory(config.m)
        self.gamma = 1.0
        self.fwindow = deque(maxlen=config.M + 1)
        self.inner = 0


class TraceRecord(NamedTuple):
    """One per-iteration trace entry.

    A step fills the fields it owns: the new iterate's value ``f``, the
    regularization ``mu`` the step was taken at, the ``ratio`` of its ratio
    test (None without one), the search's ``alpha`` (None without a search
    or when it failed), ``f_unit``, the value before any extension, and
    ``ls_failed``. The driver adds ``k``, the norm ``gnorm`` of the gradient
    the step started from, and the evaluation count ``nf`` after it. The
    serialized form carries the stable keys ``k, mu, ratio, gnorm, alpha,
    nf``; the other fields exist for tests and diagnostics.
    """

    f: float
    mu: float
    ratio: Optional[float]
    alpha: Optional[float]
    f_unit: float
    ls_failed: bool = False
    k: int = 0
    gnorm: float = math.nan
    nf: int = 0

    def to_json(self) -> str:
        record = {
            "k": self.k,
            "mu": self.mu,
            "ratio": self.ratio,
            "gnorm": self.gnorm,
            "alpha": self.alpha,
            "nf": self.nf,
        }
        if self.ls_failed:
            record["ls_failed"] = True
        return strict_json(record)


def model_reduction(gradient: Vector, d: Vector) -> float:
    """Reduction predicted by the quadratic model: ``-0.5 * g'd``.

    Valid only for directions produced by the two-loop recursion for this
    gradient, for which the curvature term collapses and no matrix is needed.
    Zero when the step vanished; raises :class:`NumericalBreakdownError` for
    an ascent direction or a NaN ``g'd``.
    """
    gd = float(gradient.dot(d))
    if not gd <= 0.0:
        raise NumericalBreakdownError(f"model predicts no reduction: g'd = {gd!r}")
    return -0.5 * gd


def acceptance_ratio(f_ref: float, f_trial: float, model_red: float) -> float:
    """Actual over (positive) predicted reduction; negative when the trial is worse."""
    return (f_ref - f_trial) / model_red


def nonmonotone_reference(window: deque) -> float:
    """Reference objective value for the acceptance ratio.

    ``window`` is a nonempty ``deque(maxlen=M + 1)`` of the values the
    regularized steps were taken from, newest last; rejected trial points
    never enter it. Until it is full the reference is the newest value,
    giving the plain monotone ratio; once full it is the maximum of the last
    ``M + 1`` values, which permits occasional objective increases (Grippo,
    Lampariello & Lucidi 1986). With ``M = 0`` the two coincide.
    """
    if len(window) < window.maxlen:
        return window[-1]
    return max(window)


def accept_step_rlbfgs(state: IterateState) -> Tuple[Vector, Vector, Vector, TraceRecord]:
    """Step policy of the regularized solvers, owner of ``state.mu`` and
    ``state.fwindow``.

    Appends ``state.f`` to the window, then, starting from ``state.mu``,
    repeatedly computes the direction, evaluates the trial point, and either
    accepts (ratio at least ``eta1`` against the nonmonotone reference) or
    escalates the parameter by ``gamma2`` and retries while it is at most
    ``mu_max``. The first trial always runs: ``mu0 <= mu_max`` and
    :func:`update_mu` never raises mu. A non-finite trial value is inf, and
    its ratio (-inf or NaN) rejects it. On acceptance ``state.mu`` becomes
    :func:`update_mu` of the parameter used, the rejections are added to
    ``state.inner``, and then the gradient at the accepted point is
    evaluated, so a breakdown there propagates with both set. Returns
    ``(x, g, d, record)``: the trial point ``x + d``, its gradient, the
    step, and a record of its value, the parameter it was taken at and its
    ratio. Raises :class:`RegularizationOverflowError` past ``mu_max`` or
    once the step vanishes (:class:`NumericalBreakdownError` when the last
    trial was non-finite), and :class:`EvalBudgetExceededError` when a
    rejected trial exhausts the budget, changing neither ``state.mu`` nor
    ``state.inner``.
    """
    config, counters = state.config, state.counters
    state.fwindow.append(state.f)
    f_ref = nonmonotone_reference(state.fwindow)
    mu_bar = state.mu
    inner = 0
    f_trial = state.f  # no trial yet: a first step that vanishes is an overflow
    while mu_bar <= config.mu_max:
        d = two_loop_direction(state.history, state.g, mu_bar, state.gamma)
        reduction = model_reduction(state.g, d)
        if reduction == 0.0:
            # A step that vanished under escalation ends like passing the cap.
            break
        x_trial = state.x + d
        try:
            f_trial = evaluate(state.objective, x_trial, counters, "value")
        except NumericalBreakdownError:
            f_trial = math.inf
        ratio = acceptance_ratio(f_ref, f_trial, reduction)
        if ratio >= config.eta1:
            state.mu = update_mu(mu_bar, ratio, config)
            state.inner += inner
            # The one gradient of a step: the extension, the pair and the next step use it.
            g = evaluate(state.objective, x_trial, counters, "gradient")
            return x_trial, g, d, TraceRecord(f_trial, mu_bar, ratio, None, f_trial)
        if counters.n_f > config.max_fevals:
            raise EvalBudgetExceededError(
                f"evaluation budget exhausted after {counters.n_f} evaluations"
            )
        mu_bar *= config.gamma2
        inner += 1
    if not math.isfinite(f_trial):
        raise NumericalBreakdownError(f"mu escalation to {mu_bar:g} ended on a non-finite trial")
    raise RegularizationOverflowError(f"mu escalation to {mu_bar:g} found no acceptable step")


def update_mu(mu_used: float, ratio: float, config: SolverConfig) -> float:
    """Regularization parameter for the next outer iteration after an accepted step.

    An ordinary acceptance keeps the parameter; a very successful one
    (ratio at least ``eta2``) shrinks it by ``gamma1``, floored at
    ``mu_min``.
    """
    if ratio >= config.eta2:
        return max(config.mu_min, config.gamma1 * mu_used)
    return mu_used


def _wolfe_ray(state, x0, d, f0, dphi0):
    """Strong Wolfe search from ``x0`` along ``d``, first trying the unit step.

    Returns the search's ``(alpha, f, d'g, x, g, s)`` of the probe it
    accepted: its point, gradient and step ``s = alpha * d`` from ``x0``,
    ``d`` itself at the unit step, where the product would repeat ``d`` bit
    for bit. A probe whose evaluation breaks down has value inf, so it fails
    sufficient decrease. Raises what the search raises when no step is
    found.
    """
    config = state.config

    def along(alpha: float):
        s_t = d if alpha == 1.0 else alpha * d
        x_t = x0 + s_t
        try:
            f_t, g_t = evaluate(state.objective, x_t, state.counters, "both")
        except NumericalBreakdownError:
            return math.inf, 0.0
        return f_t, float(d.dot(g_t)), x_t, g_t, s_t

    return strong_wolfe_search(along, f0, dphi0, config.c1, config.c2, config.max_ls_iters)


def wolfe_extension_step(
    state: IterateState, x_unit: Vector, g_unit: Vector, d: Vector, record: TraceRecord
) -> Tuple[Vector, Vector, Vector, TraceRecord]:
    """Opportunistic step extension after the regularized step ``d`` from
    ``state.x`` to ``x_unit``, whose gradient is ``g_unit`` and whose value
    and parameter are ``record.f`` and ``record.mu``.

    Fires only when the unit step left a steep slope (the curvature
    condition fails at the trial point) while the regularization already sat
    at its floor, i.e. the step could not have been any longer. A strong
    Wolfe search then continues from the trial point along the same
    direction and the iterate moves by ``(1 + alpha) * d``. A failed search
    falls back to the already-accepted unit step and the run continues.

    Returns ``(x, g, s, record)``: the new iterate, its gradient, the step
    ``s`` to it from ``state.x``, and ``record`` with the new value and the
    extension's step length, or marked ``ls_failed``, or as it came when
    the extension did not fire.
    """
    # The floor test costs one comparison, so it goes first and the two dot
    # products are taken only when it holds.
    if record.mu != state.config.mu_min:
        return x_unit, g_unit, d, record
    d_dot_unit = float(d.dot(g_unit))
    if not d_dot_unit < state.config.c2 * float(d.dot(state.g)):
        return x_unit, g_unit, d, record
    try:
        alpha, f_new, _, x_new, g_new, _ = _wolfe_ray(state, x_unit, d, record.f, d_dot_unit)
    except (LineSearchError, NumericalBreakdownError):
        return x_unit, g_unit, d, record._replace(ls_failed=True)
    return x_new, g_new, (1.0 + alpha) * d, record._replace(f=f_new, alpha=alpha)


def _line_search_step(state):
    """lbfgs: a strong Wolfe search along the ``mu = 0`` direction that
    first tries the unit step."""
    d = two_loop_direction(state.history, state.g, 0.0, state.gamma)
    dphi0 = float(d.dot(state.g))
    if not -math.inf < dphi0 < 0.0:
        raise NumericalBreakdownError(f"not a finite descent direction: d'g = {dphi0!r}")
    alpha, f, _, x, g, s = _wolfe_ray(state, state.x, d, state.f, dphi0)
    return x, g, s, TraceRecord(f, 0.0, None, alpha, f)


def _run(objective, x0, config, trace, solver_name, take_step) -> RunReport:
    """The iteration loop of every solver.

    ``take_step(state)`` chooses the step and returns ``(x, g, s, record)``:
    the next iterate, its gradient, the curvature step ``s`` to it, and the
    step's :class:`TraceRecord`, which carries the new value. This loop
    owns set-up, termination, the pair store and its scale, and the trace,
    to which it adds each record with its own fields filled in; a
    termination decision and any :class:`SolverError` both end the run in
    its one report. It owns numpy's floating-point error state too: inside
    a run an overflow or invalid operation is neither printed nor raised.
    """
    config = config or SolverConfig()
    t0 = time.perf_counter()
    with np.errstate(all="ignore"):
        x = np.array(x0, dtype=float)
        if x.ndim != 1 or x.size != objective.dim:
            raise ValueError(f"x0 must be a vector of length {objective.dim}")
        if not np.all(np.isfinite(x)):
            raise ValueError("x0 must be finite")
        # A breakdown at x0 reports x0, what was evaluated, and an inf residual.
        state = IterateState(objective, x, config)
        counters = state.counters
        k = 0
        try:
            state.f = evaluate(objective, x, counters, "value")
            state.g = evaluate(objective, x, counters, "gradient")
            state.gamma = initial_scale(state.g)
            while (status := check_termination(state.g, state.x, counters, config)) is None:
                x, g, s, record = take_step(state)
                if np.may_share_memory(g, state.g):
                    raise ValueError("the objective's gradient must return a new array "
                                     "on each call, not a reused buffer")
                # A dropped pair leaves the newest pair, and so the scale, as it was.
                if state.history.push(s, g - state.g):
                    state.gamma = gamma_scale(state.history.newest)
                if trace is not None:
                    trace.append(record._replace(
                        k=k, gnorm=norm(state.g.ravel()), nf=counters.n_f))
                state.x, state.f, state.g = x, record.f, g
                k += 1
        except SolverError as exc:
            status = exc.status
        return RunReport(
            status=status,
            iterations=k,
            inner_iterations=state.inner,
            counters=counters,
            final_f=state.f,
            final_residual=scaled_gradient_norm(state.g, state.x),
            wall_time=time.perf_counter() - t0,
            solver_name=solver_name,
            x=state.x,
        )


def solve_lbfgs(
    objective: Objective,
    x0: Vector,
    config: Optional[SolverConfig] = None,
    trace: Optional[List[TraceRecord]] = None,
) -> RunReport:
    """Baseline limited-memory BFGS with a strong Wolfe line search.

    Uses the shared direction code at ``mu = 0``; the line search first
    tries the unit step. A failed line search terminates the run with that
    status, or with ``NumericalBreakdown`` when it gave up on a probe whose
    evaluation broke down.
    """
    return _run(objective, x0, config, trace, "lbfgs", _line_search_step)


def solve_rlbfgs(
    objective: Objective,
    x0: Vector,
    config: Optional[SolverConfig] = None,
    trace: Optional[List[TraceRecord]] = None,
) -> RunReport:
    """Regularized L-BFGS: unit steps accepted by the ratio test, with the
    regularization parameter controlled like a trust-region radius."""
    return _run(objective, x0, config, trace, "rlbfgs", accept_step_rlbfgs)


def solve_rlbfgs_sw(
    objective: Objective,
    x0: Vector,
    config: Optional[SolverConfig] = None,
    trace: Optional[List[TraceRecord]] = None,
) -> RunReport:
    """Regularized L-BFGS that extends accepted steps by a strong Wolfe
    search when the unit step is detectably short."""
    return _run(objective, x0, config, trace, "rlbfgs-sw",
                lambda state: wolfe_extension_step(state, *accept_step_rlbfgs(state)))


SOLVERS: Dict[str, Callable[..., RunReport]] = {
    "lbfgs": solve_lbfgs,
    "rlbfgs": solve_rlbfgs,
    "rlbfgs-sw": solve_rlbfgs_sw,
}
