"""Core numeric types shared by every solver.

Defines the objective interface with evaluation accounting, the solver
configuration (with its file format), run reports, and the termination rule.
"""

from __future__ import annotations

import contextlib
import json
import math
import sys
from dataclasses import dataclass, fields
from enum import Enum
from pathlib import Path
from typing import Callable, Dict, Literal, Mapping, NamedTuple, Optional, Tuple, Union

import numpy as np

Vector = np.ndarray


class Status(Enum):
    """Terminal outcome of a solver run."""

    CONVERGED = "Converged"
    EVAL_BUDGET_EXCEEDED = "EvalBudgetExceeded"
    REGULARIZATION_OVERFLOW = "RegularizationOverflow"
    LINE_SEARCH_FAILURE = "LineSearchFailure"
    NUMERICAL_BREAKDOWN = "NumericalBreakdown"


class SolverError(Exception):
    """Base class for failures a solver turns into a report status.

    Each subclass names the ``status`` its run ends with.
    """

    status: Status


class NumericalBreakdownError(SolverError):
    """A non-finite value appeared where a finite one is required."""

    status = Status.NUMERICAL_BREAKDOWN


class EvalBudgetExceededError(SolverError):
    """The function-evaluation budget ran out mid-iteration."""

    status = Status.EVAL_BUDGET_EXCEEDED


class RegularizationOverflowError(SolverError):
    """The regularization parameter escalated past its safeguard bound, or
    until the step it gave vanished."""

    status = Status.REGULARIZATION_OVERFLOW


class LineSearchError(SolverError):
    """No acceptable step length was found."""

    status = Status.LINE_SEARCH_FAILURE


class EvalCounter:
    """Running totals of objective and gradient evaluations for one run.

    Counters only ever increase, exactly once per underlying evaluation.
    """

    __slots__ = ("n_f", "n_g")

    def __init__(self, n_f: int = 0, n_g: int = 0):
        self.n_f = n_f
        self.n_g = n_g

    def __repr__(self) -> str:
        return f"EvalCounter(n_f={self.n_f}, n_g={self.n_g})"


class Objective(NamedTuple):
    """Smooth objective with an analytic gradient.

    ``value`` and ``gradient`` must be deterministic for a given point,
    and neither may modify its argument. The gradient must return a vector
    of length ``dim`` that is a new array on each call: a solver keeps the
    previous gradient, and one written into a reused buffer is a
    ``ValueError``.
    """

    dim: int
    value: Callable[[Vector], float]
    gradient: Callable[[Vector], Vector]


@dataclass(frozen=True)
class SolverConfig:
    """All tunable solver parameters with their default values.

    ``mu0``/``mu_min`` bound the regularization parameter, ``gamma1`` and
    ``gamma2`` shrink/grow it, ``eta1``/``eta2`` are the ratio-test
    thresholds, ``m`` is the curvature memory, ``M`` the nonmonotone window
    and ``c1``/``c2`` the Wolfe constants. ``mu_max`` is the cap past which
    mu escalation ends the run. An ``int`` field stores any integral value
    (``1e4``, ``np.int64(5)``) as its exact ``int``, a ``float`` field any
    finite real as a ``float``; anything else is a ``ValueError``.
    """

    mu0: float = 1.0
    mu_min: float = 1e-3
    gamma1: float = 0.1
    gamma2: float = 10.0
    eta1: float = 0.01
    eta2: float = 0.9
    m: int = 5
    M: int = 10
    c1: float = 1e-4
    c2: float = 0.9
    grad_tol: float = 1e-5
    max_fevals: int = 10000
    mu_max: float = 1e15
    max_ls_iters: int = 20

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            integral = f.type in (int, "int")
            try:
                # math.isfinite rejects a string and an int beyond a float.
                valid = int(value) == value if integral else math.isfinite(value)
            except (TypeError, ValueError, OverflowError):
                valid = False
            if not valid:
                kind = "an integer" if integral else "finite"
                raise ValueError(f"config key {f.name} must be {kind}, got {value!r}")
            object.__setattr__(self, f.name, int(value) if integral else float(value))
        if not 0.0 < self.mu_min <= self.mu0:
            raise ValueError("requires 0 < mu_min <= mu0")
        if not 0.0 < self.gamma1 <= 1.0 < self.gamma2:
            raise ValueError("requires 0 < gamma1 <= 1 < gamma2")
        if not 0.0 < self.eta1 < self.eta2 <= 1.0:
            raise ValueError("requires 0 < eta1 < eta2 <= 1")
        # m and M + 1 are the lengths of deques, which a C ssize_t bounds.
        if not 1 <= self.m <= sys.maxsize:
            raise ValueError(f"memory m must be an integer in [1, {sys.maxsize}]")
        if not 0 <= self.M < sys.maxsize:
            raise ValueError(f"nonmonotone window M must be an integer in [0, {sys.maxsize - 1}]")
        if not 0.0 < self.c1 < self.c2 < 1.0:
            raise ValueError("requires 0 < c1 < c2 < 1")
        if not self.grad_tol > 0.0:
            raise ValueError("grad_tol must be positive")
        if not self.max_fevals >= 1:
            raise ValueError("max_fevals must be a positive integer")
        if not self.mu0 <= self.mu_max:
            raise ValueError("mu_max must be at least mu0")
        if not self.max_ls_iters >= 1:
            raise ValueError("max_ls_iters must be a positive integer")

    @classmethod
    def from_mapping(cls, data: Mapping[str, Union[str, int, float]]) -> "SolverConfig":
        """Build a config from a flat mapping; unknown keys are rejected. A
        string is read exactly by ``int`` for an ``int`` field if it can be
        (``"1e4"`` cannot), else by ``float``; numbers pass as they are."""
        types = {f.name: f.type for f in fields(cls)}
        kwargs = {}
        for key, value in data.items():
            if key not in types:
                raise ValueError(f"unknown config key: {key!r}")
            if isinstance(value, str) and types[key] in (int, "int"):
                with contextlib.suppress(ValueError):
                    value = int(value)
            kwargs[key] = float(value) if isinstance(value, str) else value
        return cls(**kwargs)


def config_entry(text: str, where: str) -> Tuple[str, str]:
    """Split a config file line or a ``-p`` value into its stripped key and
    value; a missing ``=``, key or value is a ``ValueError`` naming ``where``."""
    key, sep, value = (part.strip() for part in text.partition("="))
    if not sep or not key or not value:
        raise ValueError(f"{where}: expected 'key = value', got {text!r}")
    return key, value


def read_config_file(path: Union[str, Path]) -> Dict[str, str]:
    """Parse a flat config file, one :func:`config_entry` per line after
    ``#`` comments and blank lines, into raw strings for
    :meth:`SolverConfig.from_mapping`; every key is optional."""
    with open(path) as handle:
        lines = [raw.split("#", 1)[0].strip() for raw in handle.read().splitlines()]
    return dict(config_entry(line, f"{path}:{n}") for n, line in enumerate(lines, 1) if line)


class RunReport:
    """Outcome of one solver run.

    ``x`` carries the final iterate for programmatic use; it is not part of
    the serialized report. Fields stay assignable, so a caller can swap in
    another iterate.
    """

    __slots__ = (
        "status", "iterations", "inner_iterations", "counters", "final_f",
        "final_residual", "wall_time", "solver_name", "x",
    )

    def __init__(
        self,
        status: Status,
        iterations: int,
        inner_iterations: int,
        counters: EvalCounter,
        final_f: float,
        final_residual: float,
        wall_time: float,
        solver_name: str,
        x: Optional[Vector] = None,
    ):
        self.status = status
        self.iterations = iterations
        self.inner_iterations = inner_iterations
        self.counters = counters
        self.final_f = final_f
        self.final_residual = final_residual
        self.wall_time = wall_time
        self.solver_name = solver_name
        self.x = x

    def __repr__(self) -> str:
        return f"RunReport({self.to_dict()!r})"

    def to_dict(self) -> dict:
        return {
            "status": self.status.value,
            "iterations": self.iterations,
            "inner_iterations": self.inner_iterations,
            "n_f": self.counters.n_f,
            "n_g": self.counters.n_g,
            "final_f": self.final_f,
            "final_residual": self.final_residual,
            "wall_time": self.wall_time,
            "solver_name": self.solver_name,
        }


def strict_json(record: Mapping[str, object], indent: Optional[int] = None) -> str:
    """``record`` as strict JSON (RFC 8259), which has no NaN or Infinity.

    A non-finite float becomes the string ``"inf"``, ``"-inf"`` or
    ``"nan"``, as the records CSV spells it and as ``float()`` reads it
    back; ``None`` stays ``null``. The report and the trace are written
    through this one rule.
    """
    safe = {
        key: repr(float(v)) if isinstance(v, float) and not math.isfinite(v) else v
        for key, v in record.items()
    }
    return json.dumps(safe, indent=indent, allow_nan=False)


def evaluate(
    fn: Objective,
    point: Vector,
    counters: EvalCounter,
    what: Literal["value", "gradient", "both"] = "value",
):
    """Evaluate ``fn`` at ``point`` and charge the evaluation to ``counters``.

    Increments ``n_f`` when a value is requested and ``n_g`` when a gradient
    is requested. Raises :class:`NumericalBreakdownError` on any non-finite
    result; results are otherwise forwarded unmodified.
    """
    if what not in ("value", "gradient", "both"):
        raise ValueError(f"unknown evaluation request: {what!r}")
    if len(point) != fn.dim:
        raise ValueError(f"point has length {len(point)}, objective expects {fn.dim}")
    if what != "gradient":
        counters.n_f += 1
        value = float(fn.value(point))
        if not math.isfinite(value):
            raise NumericalBreakdownError(f"objective value is {value!r}")
        if what == "value":
            return value
    counters.n_g += 1
    gradient = np.asarray(fn.gradient(point), dtype=float)
    if gradient.shape != (fn.dim,):
        raise ValueError(f"gradient has shape {gradient.shape}, expected ({fn.dim},)")
    # A finite g'g proves every entry finite; only an overflowed or NaN
    # product needs the exact scan.
    if not math.isfinite(gradient.dot(gradient)) and not np.all(np.isfinite(gradient)):
        raise NumericalBreakdownError("gradient contains non-finite entries")
    return gradient if what == "gradient" else (value, gradient)


def norm(v: Vector) -> float:
    """``sqrt(v'v)`` of a 1-D array; inf or NaN when an entry is not finite.

    When ``v'v`` overflows although every entry is finite, the norm is taken
    on ``v`` scaled by its largest entry. A finite ``v'v`` proves every entry
    finite, so only an overflowed or NaN one needs the scan.
    """
    vnorm = math.sqrt(v.dot(v))
    if math.isfinite(vnorm) or not np.all(np.isfinite(v)):
        return vnorm
    scale = float(np.abs(v).max())
    u = v / scale
    return scale * math.sqrt(u.dot(u))


def scaled_gradient_norm(gradient: Vector, point: Vector) -> float:
    """Gradient norm scaled by max(1, ||x||); inf when the gradient is bad."""
    # np.linalg.norm of a vector is sqrt(v'v) over its contiguous ravel, so
    # this is bitwise the same wherever v'v does not overflow (a strided dot
    # may round differently).
    g = np.asarray(gradient, dtype=float).ravel()
    x = np.asarray(point, dtype=float).ravel()
    gnorm = norm(g)
    if not math.isfinite(gnorm):
        return math.inf
    return gnorm / max(1.0, norm(x))


def check_termination(
    gradient: Vector,
    point: Vector,
    counters: EvalCounter,
    config: SolverConfig,
) -> Optional[Status]:
    """Decide whether the outer iteration should stop.

    Returns ``Status.CONVERGED`` when the scaled gradient norm is below
    ``grad_tol``, ``Status.EVAL_BUDGET_EXCEEDED`` when ``n_f`` has passed
    ``max_fevals`` (checked after the convergence test, so a run that
    converges exactly at the budget still counts as a success), and ``None``
    to continue. Raises :class:`NumericalBreakdownError` for a non-finite
    gradient.
    """
    if len(gradient) != len(point):
        raise ValueError("gradient and point lengths differ")
    residual = scaled_gradient_norm(gradient, point)
    if residual == math.inf and not np.all(np.isfinite(gradient)):
        raise NumericalBreakdownError("gradient contains non-finite entries")
    if residual < config.grad_tol:
        return Status.CONVERGED
    if counters.n_f > config.max_fevals:
        return Status.EVAL_BUDGET_EXCEEDED
    return None
