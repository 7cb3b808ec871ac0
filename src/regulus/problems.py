"""Bundled scalable unconstrained test problems with analytic gradients.

Each family exposes the customary starting point from the numerical
optimization test-set literature; dimensions are constructor arguments where
the family scales. A central-difference gradient oracle is included for
consistency checks.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from .core import Objective, Vector


class ProblemDef(NamedTuple):
    """A named problem instance: objective, standard start, known optimum."""

    name: str
    dimension: int
    x0: Vector
    objective: Objective
    f_star: Optional[float]


def _rosenbrock(n: int):
    """Extended Rosenbrock, separable pairs; start alternates (-1.2, 1)."""
    if n % 2:
        raise ValueError("rosenbrock requires even n >= 2")

    def value(x):
        u, v = x[0::2], x[1::2]
        return float((100.0 * (v - u**2) ** 2 + (1.0 - u) ** 2).sum())

    def gradient(x):
        u, v = x[0::2], x[1::2]
        t = v - u**2
        g = np.empty_like(x)
        g[0::2] = -400.0 * u * t - 2.0 * (1.0 - u)
        g[1::2] = 200.0 * t
        return g

    return np.tile([-1.2, 1.0], n // 2), value, gradient, 0.0


def _powell_singular(n: int):
    """Extended Powell singular; start repeats (3, -1, 0, 1)."""
    if n % 4:
        raise ValueError("powell-singular requires n divisible by 4")

    def value(x):
        a, b, c, d = x[0::4], x[1::4], x[2::4], x[3::4]
        return float((
            (a + 10.0 * b) ** 2
            + 5.0 * (c - d) ** 2
            + (b - 2.0 * c) ** 4
            + 10.0 * (a - d) ** 4
        ).sum())

    def gradient(x):
        a, b, c, d = x[0::4], x[1::4], x[2::4], x[3::4]
        t1 = a + 10.0 * b
        t2 = c - d
        t3 = (b - 2.0 * c) ** 3
        t4 = (a - d) ** 3
        g = np.empty_like(x)
        g[0::4] = 2.0 * t1 + 40.0 * t4
        g[1::4] = 20.0 * t1 + 4.0 * t3
        g[2::4] = 10.0 * t2 - 8.0 * t3
        g[3::4] = -10.0 * t2 - 40.0 * t4
        return g

    return np.tile([3.0, -1.0, 0.0, 1.0], n // 4), value, gradient, 0.0


def _diag_quadratic(diag: Vector):
    def value(x):
        return float(0.5 * (diag * x * x).sum())

    def gradient(x):
        return diag * x

    return value, gradient


def _quadratic_diag(n: int):
    """Convex diagonal quadratic, eigenvalues 1..n (condition number n)."""
    value, gradient = _diag_quadratic(np.arange(1.0, n + 1.0))
    return np.ones(n), value, gradient, 0.0


def _quadratic_ill(n: int):
    """Diagonal quadratic with condition number 1e6.

    Unit bulk plus ten geometrically spread outliers; the clustered spectrum
    keeps the problem inside a small-memory solver's reach while staying
    severely ill-conditioned.
    """
    if n < 20:
        raise ValueError("quadratic-ill requires n >= 20")
    diag = np.concatenate([np.ones(n - 10), np.logspace(0.0, 6.0, 10)])
    value, gradient = _diag_quadratic(diag)
    return np.ones(n), value, gradient, 0.0


def _hilbert(n: int):
    """Quadratic with the severely ill-conditioned Hilbert matrix."""
    if n < 2 or n > 64:
        raise ValueError("hilbert requires 2 <= n <= 64")
    i = np.arange(1, n + 1)
    a = 1.0 / (i[:, None] + i[None, :] - 1.0)

    def value(x):
        return float(0.5 * x @ (a @ x))

    def gradient(x):
        return a @ x

    return np.ones(n), value, gradient, 0.0


def _dixon_price(n: int):
    if n < 2:
        raise ValueError("dixon-price requires n >= 2")
    idx = np.arange(2.0, n + 1.0)

    def value(x):
        return float((x[0] - 1.0) ** 2 + (idx * (2.0 * x[1:] ** 2 - x[:-1]) ** 2).sum())

    def gradient(x):
        t = 2.0 * x[1:] ** 2 - x[:-1]
        g = np.zeros_like(x)
        g[0] = 2.0 * (x[0] - 1.0)
        g[1:] += 8.0 * idx * x[1:] * t
        g[:-1] -= 2.0 * idx * t
        return g

    return -np.ones(n), value, gradient, 0.0


def _trigonometric(n: int):
    """Trigonometric system of n residuals; start is the uniform 1/n point."""
    idx = np.arange(1.0, n + 1.0)

    def _residuals(c, s):
        return n - c.sum() + idx * (1.0 - c) - s

    def value(x):
        return float((_residuals(np.cos(x), np.sin(x)) ** 2).sum())

    def gradient(x):
        c, s = np.cos(x), np.sin(x)
        r = _residuals(c, s)
        return 2.0 * (s * r.sum() + r * (idx * s - c))

    return np.full(n, 1.0 / n), value, gradient, 0.0


def _penalty1(n: int):
    """Penalty function with a tiny regularizer pulling toward all-ones."""
    a = 1e-5

    def value(x):
        return float(a * ((x - 1.0) ** 2).sum() + ((x * x).sum() - 0.25) ** 2)

    def gradient(x):
        return 2.0 * a * (x - 1.0) + 4.0 * ((x * x).sum() - 0.25) * x

    return np.arange(1.0, n + 1.0), value, gradient, None


def _two_well(n: int):
    """Separable tilted double well; nonconvex with two basins per coordinate."""

    def value(x):
        return float(((x * x - 1.0) ** 2 + 0.1 * x).sum())

    def gradient(x):
        return 4.0 * x * (x * x - 1.0) + 0.1

    return np.full(n, 0.5), value, gradient, None


def _beale(n: int):
    if n != 2:
        raise ValueError("beale is 2-dimensional")

    def value(x):
        u, v = x
        return float(
            (1.5 - u + u * v) ** 2
            + (2.25 - u + u * v**2) ** 2
            + (2.625 - u + u * v**3) ** 2
        )

    def gradient(x):
        u, v = x
        e1 = 1.5 - u + u * v
        e2 = 2.25 - u + u * v**2
        e3 = 2.625 - u + u * v**3
        gu = 2.0 * e1 * (v - 1.0) + 2.0 * e2 * (v**2 - 1.0) + 2.0 * e3 * (v**3 - 1.0)
        gv = 2.0 * e1 * u + 4.0 * e2 * u * v + 6.0 * e3 * u * v**2
        return np.array([gu, gv])

    return np.array([1.0, 1.0]), value, gradient, 0.0


def _engval1(n: int):
    if n < 2:
        raise ValueError("engval1 requires n >= 2")

    def value(x):
        t = x[:-1] ** 2 + x[1:] ** 2
        return float((t * t).sum() + (-4.0 * x[:-1] + 3.0).sum())

    def gradient(x):
        t = x[:-1] ** 2 + x[1:] ** 2
        g = np.zeros_like(x)
        g[:-1] += 4.0 * x[:-1] * t - 4.0
        g[1:] += 4.0 * x[1:] * t
        return g

    return 2.0 * np.ones(n), value, gradient, None


_Builder = Callable[[int], Tuple[Vector, Callable, Callable, Optional[float]]]

# family -> (builder, default dimension, dimensions bundled in the registry)
_FAMILIES: Dict[str, Tuple[_Builder, int, Tuple[int, ...]]] = {
    "rosenbrock": (_rosenbrock, 2, (2, 100, 1000)),
    "powell-singular": (_powell_singular, 100, (100, 1000)),
    "quadratic-diag": (_quadratic_diag, 100, (100, 1000)),
    "quadratic-ill": (_quadratic_ill, 100, (100, 1000)),
    "hilbert": (_hilbert, 10, (10,)),
    "dixon-price": (_dixon_price, 100, (100, 1000)),
    "trigonometric": (_trigonometric, 100, (100, 1000)),
    "penalty1": (_penalty1, 100, (100,)),
    "two-well": (_two_well, 100, (100, 1000)),
    "beale": (_beale, 2, (2,)),
    "engval1": (_engval1, 100, (100, 1000)),
}


def make_problem(family: str, n: Optional[int] = None) -> ProblemDef:
    """Instantiate a problem family at dimension ``n`` (family default if None)."""
    try:
        builder, default_n, _ = _FAMILIES[family]
    except KeyError:
        raise KeyError(f"unknown problem family: {family!r}") from None
    dim = default_n if n is None else n
    if dim < 1:
        raise ValueError(f"problem dimension must be positive, got {dim}")
    x0, value, gradient, f_star = builder(dim)
    return ProblemDef(
        name=f"{family}:{dim}",
        dimension=dim,
        x0=np.asarray(x0, dtype=float),
        objective=Objective(dim=dim, value=value, gradient=gradient),
        f_star=f_star,
    )


def get_problem(label: str) -> ProblemDef:
    """Look up a problem by ``"name"`` or ``"name:n"``, optionally followed
    by a start scale, as in ``"beale:2@100"``.

    The scale multiplies the standard start; an all-zero start becomes
    ``scale`` in every coordinate (Moré, Garbow & Hillstrom 1981). The name
    keeps the ``@scale`` suffix. A scale that is not finite and positive, or
    a scaled start that overflows, is a ``ValueError``.
    """
    base, at, scale_text = label.partition("@")
    family, sep, dim = base.partition(":")
    n = None
    if sep:
        try:
            n = int(dim)
        except ValueError:
            raise ValueError(f"bad problem dimension in {label!r}") from None
    problem = make_problem(family, n)
    if not at:
        return problem
    try:
        scale = float(scale_text)
    except ValueError:
        raise ValueError(f"bad start scale in {label!r}") from None
    if not (math.isfinite(scale) and scale > 0.0):
        raise ValueError(f"start scale must be finite and positive in {label!r}")
    with np.errstate(over="ignore"):
        x0 = scale * problem.x0 if np.any(problem.x0) else np.full(problem.dimension, scale)
    if not np.all(np.isfinite(x0)):
        raise ValueError(f"scaled start is not finite in {label!r}")
    return problem._replace(name=f"{problem.name}@{scale_text}", x0=x0)


def registry() -> List[ProblemDef]:
    """The bundled benchmark suite, every family at its standard dimensions."""
    problems = []
    for family, (_, _, dims) in _FAMILIES.items():
        for n in dims:
            problems.append(make_problem(family, n))
    return problems


def finite_difference_gradient(
    objective: Objective,
    point: Vector,
    h: Union[float, Vector],
) -> Vector:
    """Central-difference gradient oracle.

    ``h`` may be a scalar or a per-coordinate array of positive step sizes.
    Exact (up to rounding) for polynomials of degree two per coordinate.
    """
    x = np.asarray(point, dtype=float)
    steps = np.broadcast_to(np.asarray(h, dtype=float), x.shape)
    if np.any(steps <= 0.0):
        raise ValueError("finite-difference steps must be positive")
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = steps[i]
        g[i] = (objective.value(x + e) - objective.value(x - e)) / (2.0 * steps[i])
    return g
