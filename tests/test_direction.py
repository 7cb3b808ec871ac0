import math

import numpy as np
import pytest

from regulus.core import NumericalBreakdownError
from regulus.curvature import (
    PairHistory,
    gamma_scale,
    shifted_curvature,
    two_loop_direction,
)

from conftest import (
    dense_bfgs_oracle,
    initial_diag,
    mixed_sign_pair,
    random_history,
    scale_of,
)


def reference_two_loop(history, gradient, mu, scaling):
    """The plain two-loop recursion: fresh shifted vectors and fresh
    temporaries on every call. `two_loop_direction` must match it bitwise."""
    g = np.asarray(gradient, dtype=float)
    pairs = list(history)
    q = g.copy()
    alphas = [0.0] * len(pairs)
    shifted = [None] * len(pairs)
    for i in range(len(pairs) - 1, -1, -1):
        pair = pairs[i]
        y_shifted, s_ty = shifted_curvature(pair, mu)
        tau = 1.0 / s_ty if s_ty != 0.0 else math.inf
        if not math.isfinite(tau):
            raise NumericalBreakdownError(f"non-finite curvature weight 1/{s_ty!r}")
        a = tau * float(pair.s @ q)
        q -= a * y_shifted
        alphas[i] = a
        shifted[i] = (y_shifted, tau)
    r = initial_diag(scaling, mu) * q
    for i in range(len(pairs)):
        y_shifted, tau = shifted[i]
        beta = tau * float(y_shifted @ r)
        r += (alphas[i] - beta) * pairs[i].s
    return -r


def _outcome(fn, *args):
    try:
        return fn(*args)
    except NumericalBreakdownError:
        return NumericalBreakdownError


def test_empty_history_is_scaled_steepest_descent():
    hist = PairHistory(5)
    g = np.array([4.0, -2.0])
    d = two_loop_direction(hist, g, 0.0, 1.0)
    np.testing.assert_array_equal(d, [-4.0, 2.0])


def test_scalar_case_matches_dense_bfgs():
    hist = PairHistory(1)
    hist.push([1.0], [2.0])
    scaling = gamma_scale(hist.newest)
    assert scaling == 0.5
    d0 = two_loop_direction(hist, np.array([1.0]), 0.0, scaling)
    assert d0[0] == pytest.approx(-0.5, abs=1e-15)
    assert dense_bfgs_oracle(hist, 0.0, scaling, 1)[0, 0] == pytest.approx(2.0)
    d2 = two_loop_direction(hist, np.array([1.0]), 2.0, scaling)
    assert d2[0] == pytest.approx(-0.25, abs=1e-15)
    assert dense_bfgs_oracle(hist, 2.0, scaling, 1)[0, 0] == pytest.approx(4.0)


def test_oracle_empty_history():
    hist = PairHistory(2)
    b = dense_bfgs_oracle(hist, 2.0, 0.5, 3)
    np.testing.assert_allclose(b, np.eye(3) * 4.0)


def test_oracle_rejects_large_dimension():
    with pytest.raises(ValueError):
        dense_bfgs_oracle(PairHistory(1), 0.0, 1.0, 65)


def test_descent_with_negative_curvature_pairs(rng):
    # pairs of either curvature sign are fine once mu > 0
    for _ in range(300):
        n = int(rng.integers(2, 9))
        hist = PairHistory(4)
        for _ in range(int(rng.integers(1, 5))):
            hist.push(rng.standard_normal(n), rng.standard_normal(n))
        scaling = float(10.0 ** rng.uniform(-2, 2))
        g = rng.standard_normal(n)
        mu = float(10.0 ** rng.uniform(-3, 3))
        d = two_loop_direction(hist, g, mu, scaling)
        assert float(g @ d) < 0.0


def test_oracle_trace_growth_and_determinant(rng):
    # the trace grows essentially affinely in mu; the determinant stays
    # positive (positive definiteness)
    mus = np.array([1.0, 10.0, 100.0, 1000.0])
    for _ in range(25):
        n = int(rng.integers(2, 9))
        hist = random_history(rng, n, int(rng.integers(1, 5)))
        scaling = gamma_scale(hist.newest)
        traces = []
        for mu in mus:
            b = dense_bfgs_oracle(hist, mu, scaling, n)
            sign, _ = np.linalg.slogdet(b)
            assert sign > 0.0
            traces.append(np.trace(b))
        coeffs = np.polyfit(mus, traces, 1)
        fit = np.polyval(coeffs, mus)
        residual = np.max(np.abs(fit - traces))
        assert residual <= 0.02 * max(traces)
        assert coeffs[0] >= 0.0


def test_two_loop_zero_shifted_curvature_signals():
    hist = PairHistory(1)
    hist.push([1.0, 0.0], [-1.0, 0.0])  # s'y < 0, so mu = 0 gives s'y~ = 0
    for _ in range(2):  # a failed weight is never cached
        with pytest.raises(NumericalBreakdownError):
            two_loop_direction(hist, np.array([1.0, 1.0]), 0.0, 1.0)


def test_two_loop_scales_to_large_n(rng):
    # the fast path must never materialize an n-by-n matrix; at this size
    # doing so would need ~20 TB
    n = 1_600_000
    hist = PairHistory(5)
    for _ in range(5):
        s = rng.standard_normal(n)
        hist.push(s, 2.0 * s + 0.1 * rng.standard_normal(n))
    scaling = gamma_scale(hist.newest)
    g = rng.standard_normal(n)
    d = two_loop_direction(hist, g, 1.0, scaling)
    assert d.shape == (n,)
    assert float(g @ d) < 0.0


def test_two_loop_bitwise_matches_reference_over_call_sequences(rng):
    # Random histories evolve as in a run: pushes (some of the returned
    # direction itself, some with s'y < 0) evict at capacity between calls,
    # while mu rises by gamma2, shrinks by gamma1, returns to an earlier
    # value or drops to 0, so the shift cache is hit, missed and refilled.
    for _ in range(60):
        n = int(rng.choice([1, 2, 3, 7, 33, 200]))
        hist = PairHistory(int(rng.integers(1, 6)))
        mu = 1.0
        seen = [0.0, mu]
        for _ in range(25):
            action = rng.integers(0, 6)
            if action == 0:
                mu *= 10.0
            elif action == 1:
                mu = max(1e-3, 0.1 * mu)
            elif action == 2:
                mu = float(rng.choice(seen))
            elif action == 3:
                hist.push(*mixed_sign_pair(rng, n))
            seen.append(mu)
            scaling = scale_of(hist)
            g = rng.standard_normal(n)
            d = _outcome(two_loop_direction, hist, g, mu, scaling)
            expected = _outcome(reference_two_loop, hist, g, mu, scaling)
            if expected is NumericalBreakdownError:
                assert d is NumericalBreakdownError
                continue
            assert np.array_equal(d, expected)
            if action >= 4:
                hist.push(d, rng.standard_normal(n))


def test_two_loop_result_is_not_aliased(rng):
    n = 50
    hist = random_history(rng, n, 5, capacity=3)
    scaling = gamma_scale(hist.newest)
    g = rng.standard_normal(n)
    g_before = g.copy()
    d1 = two_loop_direction(hist, g, 0.5, scaling)
    expected = d1.copy()
    d1[:] = np.nan
    d2 = two_loop_direction(hist, g, 0.5, scaling)
    np.testing.assert_array_equal(d2, expected)
    # the direction becomes the next stored displacement: later calls must
    # not write into it
    hist.push(d2, rng.standard_normal(n))
    two_loop_direction(hist, g, 0.5, scaling)
    two_loop_direction(hist, g, 5.0, scaling)
    np.testing.assert_array_equal(hist.newest.s, expected)
    np.testing.assert_array_equal(g, g_before)
