import numpy as np
import pytest

from regulus.core import Objective
from regulus.problems import (
    ProblemDef,
    finite_difference_gradient,
    get_problem,
    make_problem,
    registry,
)

from conftest import gradient_check_error


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


@pytest.mark.parametrize("problem", registry(), ids=lambda p: p.name)
def test_gradient_consistency(problem, rng):
    assert gradient_check_error(problem, problem.x0) <= 1e-6
    for _ in range(10):
        x = problem.x0 + rng.standard_normal(problem.dimension)
        assert gradient_check_error(problem, x) <= 1e-6


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
