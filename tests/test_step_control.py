from collections import deque

import numpy as np
import pytest

from regulus.core import NumericalBreakdownError
from regulus.curvature import two_loop_direction
from regulus.step_control import (
    acceptance_ratio,
    model_reduction,
    nonmonotone_reference,
)

from conftest import dense_bfgs_oracle, random_history, scale_of


def test_model_reduction_values():
    assert model_reduction(np.array([1.0, 0.0]), np.array([-2.0, 0.0])) == 1.0
    assert model_reduction(np.array([1.0]), np.array([-0.5])) == 0.25


def test_model_reduction_degenerate_zero():
    assert model_reduction(np.zeros(2), np.zeros(2)) == 0.0


def test_model_reduction_rejects_ascent():
    with pytest.raises(NumericalBreakdownError):
        model_reduction(np.array([1.0]), np.array([2.0]))
    with pytest.raises(NumericalBreakdownError):
        model_reduction(np.array([1.0]), np.array([0.0]))


def test_model_reduction_equals_quadratic_form(rng):
    # -g'd/2 agrees with g'H(mu)g/2 computed through the dense inverse
    for _ in range(50):
        n = int(rng.integers(1, 9))
        hist = random_history(rng, n, int(rng.integers(0, 5)))
        scaling = scale_of(hist)
        g = rng.standard_normal(n)
        mu = float(rng.choice([0.0, 1e-3, 1.0, 1e3]))
        d = two_loop_direction(hist, g, mu, scaling)
        b = dense_bfgs_oracle(hist, mu, scaling, n)
        expected = 0.5 * float(g @ np.linalg.solve(b, g))
        assert model_reduction(g, d) == pytest.approx(expected, rel=1e-10)


def test_acceptance_ratio_values():
    assert acceptance_ratio(1.0, 0.5, 1.0) == 0.5
    assert acceptance_ratio(2.0, 3.0, 4.0) == -0.25
    # a trial matching the model value exactly gives ratio 1
    assert acceptance_ratio(1.0, 0.75, 0.25) == 1.0


def test_acceptance_ratio_requires_positive_reduction():
    with pytest.raises(ValueError):
        acceptance_ratio(1.0, 0.5, 0.0)


def test_reference_monotone_case():
    window = deque((3.0, 1.0, 2.0), maxlen=1)
    assert nonmonotone_reference(window) == 2.0


def test_reference_window_max():
    window = deque((3.0, 1.0, 2.0), maxlen=3)
    assert nonmonotone_reference(window) == 3.0


def test_reference_original_ratio_before_window_fills():
    window = deque((9.0, 4.0, 7.0, 1.0, 2.0, 0.5), maxlen=11)
    # a window not yet full keeps the plain monotone reference
    assert nonmonotone_reference(window) == 0.5


def test_reference_never_below_current(rng):
    values = rng.standard_normal(40).tolist()
    for M in (0, 1, 6):
        window = deque(maxlen=M + 1)
        for k, value in enumerate(values):
            window.append(value)
            ref = nonmonotone_reference(window)
            assert ref >= window[-1]
            # Grippo, Lampariello & Lucidi: the current value for k < M,
            # then the max of the last M + 1 values of the full history
            history = values[:k + 1]
            expected = history[-1] if M == 0 or k < M else max(history[-(M + 1):])
            assert ref.hex() == expected.hex()


def test_reference_requires_values():
    with pytest.raises(ValueError):
        nonmonotone_reference(deque(maxlen=4))
