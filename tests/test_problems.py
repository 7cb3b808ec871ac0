import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import regulus
from conftest import REFERENCE_OBJECTIVES, simd_found
from regulus.core import Objective
from regulus.problems import (
    ProblemDef,
    finite_difference_gradient,
    get_problem,
    make_problem,
    registry,
)


def test_registry_size_and_families():
    problems = registry()
    assert len(problems) >= 20
    names = {p.name for p in problems}
    expected = {
        "rosenbrock:2",
        "rosenbrock:100",
        "rosenbrock:1000",
        "powell-singular:100",
        "quadratic-diag:100",
        "quadratic-ill:100",
        "hilbert:10",
        "dixon-price:100",
        "trigonometric:100",
        "penalty1:100",
        "two-well:100",
        "beale:2",
    }
    assert expected <= names
    large = [p for p in problems if p.dimension >= 1000]
    assert len(large) >= 5
    assert all(isinstance(p, ProblemDef) for p in problems)


def test_unique_names_and_consistent_dimensions():
    problems = registry()
    names = [p.name for p in problems]
    assert len(names) == len(set(names))
    for p in problems:
        assert p.x0.shape == (p.dimension,)
        assert p.objective.dim == p.dimension
        assert np.all(np.isfinite(p.x0))


def test_rosenbrock_standard_start():
    p = get_problem("rosenbrock:2")
    np.testing.assert_array_equal(p.x0, [-1.2, 1.0])
    assert p.objective.value(p.x0) == pytest.approx(24.2)
    assert p.f_star == 0.0
    assert p.objective.value(np.ones(2)) == 0.0


def test_beale_minimum():
    p = get_problem("beale")
    np.testing.assert_array_equal(p.x0, [1.0, 1.0])
    assert p.f_star == 0.0
    assert p.objective.value(np.array([3.0, 0.5])) == pytest.approx(0.0, abs=1e-14)
    np.testing.assert_allclose(
        p.objective.gradient(np.array([3.0, 0.5])), [0.0, 0.0], atol=1e-12
    )


def test_quadratic_diag_minimum_at_origin():
    p = get_problem("quadratic-diag:100")
    assert p.objective.value(np.zeros(100)) == 0.0
    assert p.f_star == 0.0


def test_quadratic_ill_condition_number():
    p = get_problem("quadratic-ill:100")
    diag = p.objective.gradient(np.ones(100))
    assert np.max(diag) / np.min(diag) == pytest.approx(1e6)


def test_powell_singular_minimum_at_origin():
    p = get_problem("powell-singular:100")
    assert p.objective.value(np.zeros(100)) == 0.0
    np.testing.assert_array_equal(p.x0[:4], [3.0, -1.0, 0.0, 1.0])


def test_problem_lookup_by_name_and_dimension():
    assert get_problem("rosenbrock").dimension == 2
    assert get_problem("trigonometric").dimension == 100
    assert get_problem("rosenbrock:10").dimension == 10
    with pytest.raises(KeyError):
        get_problem("no-such-problem")
    with pytest.raises(ValueError):
        get_problem("rosenbrock:x")
    with pytest.raises(ValueError):
        get_problem("rosenbrock:3")  # odd dimension
    with pytest.raises(ValueError):
        get_problem("beale:3")


def test_start_scale_in_label():
    base = get_problem("penalty1:100")
    far = get_problem("penalty1:100@100")
    assert far.name == "penalty1:100@100"
    assert far.dimension == base.dimension
    assert np.array_equal(far.x0, 100.0 * base.x0)
    assert get_problem("beale@10").name == "beale:2@10"
    # one start, one name, however the scale is spelled
    assert get_problem("beale@10.0").name == get_problem("beale@1e1").name == "beale:2@10"
    assert get_problem("beale@0.5").name == "beale:2@0.5"
    assert np.array_equal(get_problem("beale@0.5").x0, [0.5, 0.5])


def test_start_scale_replaces_an_all_zero_start(monkeypatch):
    # Moré, Garbow & Hillstrom: a zero start scaled by s becomes s * 1.
    import regulus.problems as problems_mod

    real = problems_mod.make_problem

    def zero_start(family, n=None):
        problem = real(family, n)
        return problem._replace(x0=np.zeros(problem.dimension))

    monkeypatch.setattr(problems_mod, "make_problem", zero_start)
    assert np.array_equal(get_problem("quadratic-diag:3@10").x0, [10.0, 10.0, 10.0])


@pytest.mark.parametrize("scale", ["0", "-1", "nan", "inf", "-inf", "x", "", "1e400", "1e307"])
def test_start_scale_must_be_finite_and_positive(scale):
    # 1e307 is finite, but the start it scales overflows.
    with pytest.raises(ValueError):
        get_problem(f"penalty1:100@{scale}")


def test_finite_differences_on_quadratic():
    objective = Objective(
        dim=2,
        value=lambda x: float(0.5 * x @ x),
        gradient=lambda x: x,
    )
    fd = finite_difference_gradient(objective, np.array([3.0, 4.0]), 1e-6)
    np.testing.assert_allclose(fd, [3.0, 4.0], atol=1e-8)


def test_finite_differences_exact_for_linear():
    c = np.array([2.0, -3.0, 0.5])
    objective = Objective(
        dim=3, value=lambda x: float(c @ x), gradient=lambda x: c
    )
    fd = finite_difference_gradient(objective, np.array([1.0, 2.0, -1.0]), 1e-3)
    np.testing.assert_allclose(fd, c, rtol=1e-12)


def test_finite_differences_zero_for_constant():
    objective = Objective(dim=3, value=lambda x: 7.0, gradient=lambda x: np.zeros(3))
    fd = finite_difference_gradient(objective, np.zeros(3), 1e-6)
    np.testing.assert_array_equal(fd, np.zeros(3))


def test_finite_differences_rejects_bad_step():
    objective = Objective(dim=1, value=lambda x: 0.0, gradient=lambda x: np.zeros(1))
    with pytest.raises(ValueError):
        finite_difference_gradient(objective, np.zeros(1), 0.0)


@pytest.mark.parametrize(
    "problem",
    [p for p in registry() if p.f_star is not None],
    ids=lambda p: p.name,
)
def test_objective_bounded_below_by_optimum(problem, rng):
    for _ in range(100):
        x = problem.x0 + rng.standard_normal(problem.dimension)
        assert problem.objective.value(x) >= problem.f_star


def test_nonpositive_dimension_is_rejected_for_every_family():
    for family in {p.name.partition(":")[0] for p in registry()}:
        for n in (0, -1):
            with pytest.raises(ValueError, match="dimension must be positive"):
                make_problem(family, n)


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


@pytest.mark.parametrize("n", [4, 100, 1000])
def test_powell_singular_is_exactly_even(n, rng):
    # f(-x) = f(x) and g(-x) = -g(x) hold in floating point too when every
    # power is a product, since rounding to nearest is symmetric in sign.
    objective = make_problem("powell-singular", n).objective
    points = [get_problem(f"powell-singular:{n}{at}").x0 for at in ("", "@10", "@100")]
    points += [10.0 ** rng.uniform(-3.0, 1.0) * rng.standard_normal(n) for _ in range(50)]
    for x in points:
        assert _bits(objective.value(-x)) == _bits(objective.value(x))
        assert np.array_equal(_bits(objective.gradient(-x)), _bits(-objective.gradient(x)))


def objective_bits():
    """Every registry problem's value and gradient bits at its standard
    start, the ``@10`` and ``@100`` starts and one seeded point, keyed
    ``"<problem> <point>"``. The seeded point is drawn by ``uniform``, whose
    bits are the same on every host."""
    bits = {}
    for problem in registry():
        rng = np.random.default_rng(29)
        points = {at: get_problem(f"{problem.name}{at}").x0 for at in ("", "@10", "@100")}
        points["seeded"] = problem.x0 + rng.uniform(-1.0, 1.0, problem.dimension)
        for label, x in points.items():
            g = problem.objective.gradient(x)
            bits[f"{problem.name} {label}"] = [float(problem.objective.value(x)).hex(),
                                               [float(v).hex() for v in g]]
    return bits


_AVX512 = [t for t in simd_found() if t == "X86_V4" or t.startswith("AVX512")]


@pytest.mark.skipif("X86_V4" not in _AVX512, reason="numpy dispatches to no AVX-512 target here")
def test_registry_objectives_do_not_depend_on_simd_dispatch():
    # numpy rejects, at import, a target it does not dispatch to, so only
    # the targets it found are disabled.
    src = str(Path(regulus.__file__).resolve().parents[1])
    tests = str(Path(__file__).resolve().parent)
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(_AVX512),
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (f"import json, sys; sys.path.insert(0, {tests!r}); "
            "from test_problems import objective_bits; print(json.dumps(objective_bits()))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    there, here = json.loads(proc.stdout), objective_bits()
    assert there.keys() == here.keys()
    moved = [key for key in here if there[key] != here[key]]
    assert not moved, moved


def _in_place_starts(family, n, rng):
    """Labelled points where an in-place objective must match its reference:
    the standard start, a jittered one, the ``@10`` and ``@100`` starts, and
    random points."""
    x0 = make_problem(family, n).x0
    yield "x0", x0
    yield "jittered", x0 * (1.0 + rng.uniform(-0.05, 0.05, n))
    for scale in ("10", "100"):
        yield f"@{scale}", get_problem(f"{family}:{n}@{scale}").x0
    yield "normal", rng.standard_normal(n)
    yield "wide", 1e3 * rng.standard_normal(n)


_IN_PLACE_SIZES = [
    (family, n)
    for family in REFERENCE_OBJECTIVES
    for n in ({"rosenbrock": 2, "engval1": 2}.get(family, 1), 1000, 50_000)
]


@pytest.mark.parametrize("family, n", _IN_PLACE_SIZES, ids=str)
def test_in_place_objective_matches_reference_bitwise(family, n, rng):
    objective = make_problem(family, n).objective
    value, gradient = REFERENCE_OBJECTIVES[family]
    for label, x in _in_place_starts(family, n, rng):
        assert _bits(objective.value(x)) == _bits(value(x)), label
        assert np.array_equal(_bits(objective.gradient(x)), _bits(gradient(x))), label


@pytest.mark.parametrize("family, n", _IN_PLACE_SIZES, ids=str)
def test_in_place_objective_leaves_its_inputs_and_results_alone(family, n, rng):
    objective = make_problem(family, n).objective
    x, other = rng.standard_normal(n), rng.standard_normal(n)
    x_bits = _bits(x).copy()
    f, g = objective.value(x), objective.gradient(x)
    g_bits = _bits(g).copy()
    # A call at another point, value and gradient interleaved, reuses the
    # workspaces but neither the returned gradient nor x.
    g_other = objective.gradient(other)
    objective.value(other)
    assert not np.shares_memory(g, g_other)
    assert np.array_equal(_bits(g), g_bits)
    assert np.array_equal(_bits(x), x_bits)
    assert _bits(objective.value(x)) == _bits(f)
    assert np.array_equal(_bits(objective.gradient(x)), g_bits)
