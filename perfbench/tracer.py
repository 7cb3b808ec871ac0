"""Span tracing of the solver layers, installed from outside the package.

Each entry point in ``ENTRY_POINTS`` is replaced, for the duration of
:meth:`Tracer.installed`, by a wrapper that records a span (name, start, end,
parent, outcome). The solver drivers resolve these names as module globals
(or, for ``PairHistory.push``, as a class attribute) at call time, so
patching them catches every call. The objective callables are wrapped per
cell through :meth:`Tracer.wrap_objective`, and each cell's solver call is the
root span ``solvers.driver``.

A layer's self time is the time its spans cover minus the time covered by
their child spans. An entry point that no longer exists is reported as
absent instead of failing the run.
"""

from __future__ import annotations

import importlib
import time
from array import array
from contextlib import contextmanager
from typing import Dict, List, Tuple

import numpy as np

from regulus import Objective

# span name -> (module, attribute path) of the entry point it wraps
ENTRY_POINTS: Dict[str, Tuple[str, str]] = {
    "solvers.accept_step_rlbfgs": ("regulus.solvers", "accept_step_rlbfgs"),
    "direction.two_loop_direction": ("regulus.solvers", "two_loop_direction"),
    "direction.gamma_scale": ("regulus.solvers", "gamma_scale"),
    "curvature.push": ("regulus.curvature", "PairHistory.push"),
    "step_control.model_reduction": ("regulus.solvers", "model_reduction"),
    "step_control.acceptance_ratio": ("regulus.solvers", "acceptance_ratio"),
    "step_control.nonmonotone_reference": ("regulus.solvers", "nonmonotone_reference"),
    "linesearch.strong_wolfe_search": ("regulus.solvers", "strong_wolfe_search"),
    "core.evaluate": ("regulus.solvers", "evaluate"),
    "core.check_termination": ("regulus.solvers", "check_termination"),
}
DRIVER = "solvers.driver"
OBJECTIVE_VALUE = "objective.value"
OBJECTIVE_GRADIENT = "objective.gradient"
SPAN_NAMES = (DRIVER, *ENTRY_POINTS, OBJECTIVE_VALUE, OBJECTIVE_GRADIENT)

OK, RAISED, RETURNED_FALSE = 0, 1, 2


class Spans:
    """Flat in-memory span store; index in the arrays is the span id."""

    def __init__(self):
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.outcome = array("b")


class Tracer:
    def __init__(self):
        self.spans = Spans()
        self._stack = [-1]
        self._code = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.absent: List[str] = []

    def reset(self):
        self.spans = Spans()

    def wrap(self, name: str, fn):
        code = self._code[name]
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            spans = self.spans
            sid = len(spans.name)
            spans.name.append(code)
            spans.parent.append(stack[-1])
            spans.outcome.append(OK)
            spans.end.append(0.0)
            stack.append(sid)
            spans.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans.outcome[sid] = RAISED
                raise
            finally:
                spans.end[sid] = clock()
                stack.pop()
            if result is False:
                spans.outcome[sid] = RETURNED_FALSE
            return result

        return traced

    def wrap_driver(self, solve):
        return self.wrap(DRIVER, solve)

    def wrap_objective(self, objective: Objective) -> Objective:
        return Objective(objective.dim,
                         self.wrap(OBJECTIVE_VALUE, objective.value),
                         self.wrap(OBJECTIVE_GRADIENT, objective.gradient))

    @contextmanager
    def installed(self):
        """Patch every entry point that exists; restore all on exit."""
        saved = []
        self.absent = []
        try:
            for name, (module_name, path) in ENTRY_POINTS.items():
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part, None)
                original = owner.__dict__.get(attr) if owner is not None else None
                if not callable(original):
                    self.absent.append(name)
                    continue
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def summarize(spans: Spans) -> Dict[str, dict]:
    """Per span name: calls, total and self seconds, outcome counts, and the
    number of ``core.evaluate`` spans directly under it."""
    codes = np.array(spans.name, dtype=np.int64)
    parent = np.array(spans.parent, dtype=np.int64)
    dur = np.array(spans.end) - np.array(spans.start)
    outcome = np.array(spans.outcome, dtype=np.int8)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(codes))
    own = dur - child
    k = len(SPAN_NAMES)
    evaluate = codes == SPAN_NAMES.index("core.evaluate")
    eval_under = np.bincount(codes[parent[evaluate & has_parent]], minlength=k)
    calls = np.bincount(codes, minlength=k)
    total = np.bincount(codes, weights=dur, minlength=k)
    self_s = np.bincount(codes, weights=own, minlength=k)
    raised = np.bincount(codes[outcome == RAISED], minlength=k)
    false = np.bincount(codes[outcome == RETURNED_FALSE], minlength=k)
    return {
        name: {
            "calls": int(calls[i]),
            "total_s": float(total[i]),
            "self_s": float(self_s[i]),
            "raised": int(raised[i]),
            "returned_false": int(false[i]),
            "evaluate_children": int(eval_under[i]),
        }
        for i, name in enumerate(SPAN_NAMES)
    }
