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

from conftest import initial_diag, mixed_sign_pair


def test_push_caches_products():
    hist = PairHistory(3)
    assert hist.push([1.0, 0.0], [2.0, 0.0])
    pair = hist.newest
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


def test_history_needs_a_positive_capacity():
    with pytest.raises(ValueError, match="capacity must be positive"):
        PairHistory(0)


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


def test_shift_rejects_negative_mu():
    pair = CurvaturePair([1.0], [1.0])
    with pytest.raises(ValueError):
        shifted_curvature(pair, -1.0)


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
        gamma_scale(hist.newest)


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
