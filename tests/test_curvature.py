import math

import numpy as np
import pytest

import regulus.curvature
from regulus.core import NumericalBreakdownError
from regulus.curvature import (
    CurvaturePair,
    PairHistory,
    gamma_scale,
    initial_scale,
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


def test_push_caches_products():
    hist = PairHistory(3)
    assert hist.push([1.0, 0.0], [2.0, 0.0])
    pair = hist[-1]
    assert pair.sy == 2.0
    assert pair.ss == 1.0
    assert pair.yy == 4.0
    assert len(hist) == 1


def test_fifo_eviction():
    hist = PairHistory(2)
    for i in range(3):
        hist.push([float(i + 1), 0.0], [1.0, 0.0])
    assert len(hist) == 2
    stored = [pair.s[0] for pair in hist]
    assert stored == [2.0, 3.0]  # oldest first, first push evicted


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_push_rejects_degenerate_pairs():
    hist = PairHistory(2)
    assert not hist.push([0.0, 0.0], [1.0, 1.0])
    assert not hist.push([1.0, np.inf], [1.0, 1.0])
    assert not hist.push([1.0, 0.0], [np.nan, 1.0])
    assert not hist.push([1e200, np.inf], [1.0, 1.0])  # s's overflows too
    assert len(hist) == 0
    # finite entries whose s's overflows are kept
    assert hist.push([1e200, 0.0], [1.0, 1.0])
    assert len(hist) == 1


def test_shift_plain_branch():
    pair = CurvaturePair([1.0, 0.0], [2.0, 0.0])
    y_shifted, s_ty = shifted_curvature(pair, 1.0)
    np.testing.assert_array_equal(y_shifted, [3.0, 0.0])
    assert s_ty == 3.0


def test_shift_correction_branch():
    pair = CurvaturePair([1.0, 0.0], [-1.0, 0.0])
    y_shifted, s_ty = shifted_curvature(pair, 0.5)
    np.testing.assert_array_equal(y_shifted, [0.5, 0.0])
    assert s_ty == 0.5


def test_shift_identity_at_zero_mu():
    pair = CurvaturePair([1.0, 2.0], [3.0, 1.0])
    y_shifted, s_ty = shifted_curvature(pair, 0.0)
    np.testing.assert_array_equal(y_shifted, pair.y)
    assert s_ty == pair.sy


def test_shifted_inner_product_positive(rng):
    # s'y_shifted >= mu * ||s||^2 > 0 over pairs of either curvature sign
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        s, y = mixed_sign_pair(rng, n)
        pair = CurvaturePair(s, y)
        mu = 10.0 ** rng.uniform(-6, 3)
        y_shifted, s_ty = shifted_curvature(pair, mu)
        assert s_ty >= mu * pair.ss > 0.0
        # the vector form agrees with the cached formula up to rounding
        direct = float(pair.s @ y_shifted)
        assert direct == pytest.approx(s_ty, rel=1e-9, abs=1e-12 * max(1.0, abs(s_ty)))


def test_shift_affine_in_mu(rng):
    for _ in range(200):
        n = int(rng.integers(1, 6))
        s, y = mixed_sign_pair(rng, n)
        pair = CurvaturePair(s, y)
        mu1, mu2 = sorted(rng.uniform(0.0, 10.0, size=2))
        y1, _ = shifted_curvature(pair, mu1)
        y2, _ = shifted_curvature(pair, mu2)
        np.testing.assert_allclose(y2 - y1, (mu2 - mu1) * pair.s, rtol=1e-9, atol=1e-9)


def test_eviction_is_fifo_regardless_of_contents(rng):
    hist = PairHistory(3)
    tags = []
    for i in range(10):
        s, y = mixed_sign_pair(rng, 2)
        s[0] = float(i + 1)  # tag the pair
        if hist.push(s, y):
            tags.append(i + 1)
    stored = [pair.s[0] for pair in hist]
    assert stored == [float(t) for t in tags[-3:]]


def test_shift_cache_is_hit(monkeypatch):
    # Only a pair last shifted at another mu, or never, is shifted again.
    shifts = []

    def counted(pair, mu):
        shifts.append(mu)
        return shifted_curvature(pair, mu)

    monkeypatch.setattr(regulus.curvature, "shifted_curvature", counted)
    hist = PairHistory(3)
    for i in range(3):
        hist.push(np.eye(3)[i], 2.0 * np.eye(3)[i])
    g = np.ones(3)

    def count(mu):
        shifts.clear()
        two_loop_direction(hist, g, mu, 1.0)
        return len(shifts)

    assert count(1.0) == 3
    assert count(1.0) == 0
    assert count(10.0) == 3
    hist.push([1.0, 1.0, 0.0], [2.0, 2.0, 0.0])  # evicts the oldest
    assert count(10.0) == 1
    assert count(1.0) == 3


def test_gamma_from_last_pair():
    pair = CurvaturePair([1.0, 0.0], [2.0, 0.0])
    assert gamma_scale(pair) == 0.5


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_initial_scale_without_pair():
    # min(1, 1/||g||): the scale until the store holds a pair
    assert initial_scale(np.zeros(2)) == 1.0
    assert initial_scale(np.array([0.6, 0.8])) == 1.0
    assert initial_scale(np.array([3.0, 4.0])) == 0.2
    # g'g overflows although every entry is finite
    assert initial_scale(np.array([1e200, 1e200])) == pytest.approx(2 ** -0.5 * 1e-200)


def test_gamma_fallback_branch():
    pair = CurvaturePair([1.0, 0.0], [0.0, 1.0])  # s'y = 0
    assert gamma_scale(pair) == 1e-8


def test_gamma_zero_y_signals():
    hist = PairHistory(1)
    hist.push([1.0], [0.0])
    with pytest.raises(NumericalBreakdownError):
        gamma_scale(hist[-1])


def test_gamma_always_positive(rng):
    for _ in range(500):
        n = int(rng.integers(1, 6))
        s = rng.standard_normal(n)
        y = rng.standard_normal(n)
        pair = CurvaturePair(s, y)
        if pair.ss == 0.0 or pair.yy == 0.0:
            continue
        assert gamma_scale(pair) > 0.0


def test_initial_diag_values():
    assert initial_diag(1.0, 0.0) == 1.0
    assert initial_diag(0.5, 2.0) == 0.25


def test_initial_diag_decreases_to_zero():
    gamma = 1.0
    values = [initial_diag(gamma, mu) for mu in (0.0, 1.0, 1e3, 1e9, 1e15)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert 0.0 < values[-1] <= 1e-15
    assert all(0.0 < v <= gamma for v in values)


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
    scaling = gamma_scale(hist[-1])
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
        scaling = gamma_scale(hist[-1])
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
    scaling = gamma_scale(hist[-1])
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
    scaling = gamma_scale(hist[-1])
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
    np.testing.assert_array_equal(hist[-1].s, expected)
    np.testing.assert_array_equal(g, g_before)
