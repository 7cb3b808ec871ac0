import ctypes

import numpy as np
import pytest

from regulus.core import NumericalBreakdownError, Objective
from regulus.curvature import PairHistory, gamma_scale, shifted_curvature

_ORACLE_MAX_DIM = 64


class CountingObjective:
    """Wraps an Objective and counts raw calls, independent of EvalCounter."""

    def __init__(self, inner: Objective):
        self.value_calls = 0
        self.grad_calls = 0
        self._inner = inner
        self.objective = Objective(
            dim=inner.dim, value=self._value, gradient=self._gradient
        )

    def _value(self, x):
        self.value_calls += 1
        return self._inner.value(x)

    def _gradient(self, x):
        self.grad_calls += 1
        return self._inner.gradient(x)


def quadratic_objective(diag):
    """Convex diagonal quadratic 0.5 * sum(diag * x^2) as an Objective."""
    diag = np.asarray(diag, dtype=float)
    return Objective(
        dim=diag.size,
        value=lambda x: float(0.5 * np.sum(diag * x * x)),
        gradient=lambda x: diag * x,
    )


def random_history(rng, n, npairs, capacity=None, min_cos=0.1):
    """History of well-scaled random pairs with positive curvature.

    ``min_cos`` bounds the angle between s and y away from orthogonality so
    the implied updates stay numerically benign.
    """
    hist = PairHistory(capacity or max(npairs, 1))
    for _ in range(npairs):
        while True:
            s = rng.standard_normal(n)
            y = rng.standard_normal(n) * rng.uniform(0.1, 10.0)
            if s @ y > min_cos * np.linalg.norm(s) * np.linalg.norm(y):
                break
        hist.push(s, y)
    return hist


def scale_of(history):
    """The initial-matrix scale for ``history``: that of its newest pair, or
    1.0 for an empty history."""
    return gamma_scale(history[-1]) if len(history) else 1.0


def initial_diag(gamma, mu):
    """Diagonal of the regularized initial inverse matrix: gamma/(1+gamma*mu).

    Lies in (0, gamma] and decreases strictly in ``mu``.
    """
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    if mu < 0.0:
        raise ValueError("mu must be nonnegative")
    return gamma / (1.0 + gamma * mu)


def dense_bfgs_oracle(history, mu, gamma, n):
    """Explicit n-by-n regularized approximate Hessian.

    Applies the direct rank-two update with the shifted pairs oldest to
    newest, starting from the inverse of the initial diagonal. The product
    of this matrix with `two_loop_direction`'s output recovers the negated
    gradient.
    """
    if n > _ORACLE_MAX_DIM:
        raise ValueError(f"dense oracle limited to n <= {_ORACLE_MAX_DIM}")
    b = np.eye(n) / initial_diag(gamma, mu)
    for pair in history:
        y_shifted, s_ty = shifted_curvature(pair, mu)
        if s_ty <= 0.0:
            raise NumericalBreakdownError("nonpositive shifted curvature in update")
        bs = b @ pair.s
        sbs = float(pair.s.dot(bs))
        if sbs <= 0.0:
            raise NumericalBreakdownError("nonpositive quadratic form in update")
        b = b - np.outer(bs, bs) / sbs + np.outer(y_shifted, y_shifted) / s_ty
    return b


def faulty(objective, target, j, bad, persistent):
    """``objective`` with its ``j``-th ``target`` call ("value" or
    "gradient") returning ``bad``, or, when ``persistent``, every call from
    the ``j``-th on. A bad gradient carries ``bad`` in its first entry."""
    calls = [0]

    def fault_due():
        calls[0] += 1
        return calls[0] == j or (persistent and calls[0] > j)

    def value(x):
        if target == "value" and fault_due():
            return bad
        return objective.value(x)

    def gradient(x):
        g = objective.gradient(x)
        if target == "gradient" and fault_due():
            g = np.array(g, dtype=float)
            g[0] = bad
        return g

    return Objective(objective.dim, value, gradient)


def gradient_check_error(problem, x):
    """Worst finite-difference deviation scaled by the gradient magnitude."""
    from regulus.problems import finite_difference_gradient

    g = problem.objective.gradient(x)
    h = 1e-6 * np.maximum(1.0, np.abs(x))
    fd = finite_difference_gradient(problem.objective, x, h)
    return np.max(np.abs(fd - g)) / max(1.0, np.max(np.abs(g)))


# The bundled objectives that evaluate in workspaces, written as plain numpy
# expressions: regulus.problems must match them to the last bit.
def _rosenbrock_value(x):
    u, v = x[0::2], x[1::2]
    return float((100.0 * (v - u**2) ** 2 + (1.0 - u) ** 2).sum())


def _rosenbrock_gradient(x):
    u, v = x[0::2], x[1::2]
    t = v - u**2
    g = np.empty_like(x)
    g[0::2] = -400.0 * u * t - 2.0 * (1.0 - u)
    g[1::2] = 200.0 * t
    return g


def _trigonometric_residuals(c, s):
    n = c.size
    return n - c.sum() + np.arange(1.0, n + 1.0) * (1.0 - c) - s


def _trigonometric_value(x):
    return float((_trigonometric_residuals(np.cos(x), np.sin(x)) ** 2).sum())


def _trigonometric_gradient(x):
    c, s = np.cos(x), np.sin(x)
    r = _trigonometric_residuals(c, s)
    return 2.0 * (s * r.sum() + r * (np.arange(1.0, x.size + 1.0) * s - c))


_PENALTY1_A = 1e-5


def _penalty1_value(x):
    a = _PENALTY1_A
    return float(a * ((x - 1.0) ** 2).sum() + ((x * x).sum() - 0.25) ** 2)


def _penalty1_gradient(x):
    a = _PENALTY1_A
    return 2.0 * a * (x - 1.0) + 4.0 * ((x * x).sum() - 0.25) * x


def _engval1_value(x):
    t = x[:-1] ** 2 + x[1:] ** 2
    return float((t * t).sum() + (-4.0 * x[:-1] + 3.0).sum())


def _engval1_gradient(x):
    t = x[:-1] ** 2 + x[1:] ** 2
    g = np.zeros_like(x)
    g[:-1] += 4.0 * x[:-1] * t - 4.0
    g[1:] += 4.0 * x[1:] * t
    return g


# family -> (value, gradient)
REFERENCE_OBJECTIVES = {
    "rosenbrock": (_rosenbrock_value, _rosenbrock_gradient),
    "trigonometric": (_trigonometric_value, _trigonometric_gradient),
    "penalty1": (_penalty1_value, _penalty1_gradient),
    "engval1": (_engval1_value, _engval1_gradient),
}


def mixed_sign_pair(rng, n):
    """Random (s, y) with either sign of s'y, s nonzero."""
    while True:
        s = rng.standard_normal(n)
        if s @ s > 0:
            break
    y = rng.standard_normal(n) * rng.uniform(0.1, 10.0)
    return s, y


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def simd_found():
    """The SIMD targets numpy dispatches to on this host (numpy >= 1.25),
    or an empty list where it cannot tell."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:
        return []
    return config.get("SIMD Extensions", {}).get("found", [])


def openblas_core():
    """(core name, thread count) of the OpenBLAS that numpy loaded, or
    (None, None) if none is found."""
    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None, None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for suffix in ("scipy_openblas_{}64_", "openblas_{}64_", "openblas_{}"):
            corename = getattr(handle, suffix.format("get_corename"), None)
            threads = getattr(handle, suffix.format("get_num_threads"), None)
            if corename is not None and threads is not None:
                corename.argtypes, corename.restype = [], ctypes.c_char_p
                threads.argtypes, threads.restype = [], ctypes.c_int
                return corename().decode(), threads()
    return None, None


def pytest_report_header(config):
    # The golden bits depend on these: numpy's SIMD loops and OpenBLAS's
    # kernels round differently (README, "Install and test").
    core, threads = openblas_core()
    return [
        f"numpy {np.__version__}, SIMD targets found: {' '.join(simd_found()) or 'none'}",
        f"OpenBLAS core: {core}, threads: {threads}",
    ]
