import math

import numpy as np
import pytest

from regulus.core import LineSearchError, NumericalBreakdownError
from regulus.linesearch import ALPHA_MAX, _cubic_minimizer, strong_wolfe_search

C1, C2 = 1e-4, 0.9


def probe_from_scalar(phi, dphi):
    """``(evaluator, phi0, dphi0)``, the leading arguments of the search, and
    the list of trial steps the evaluator records."""
    calls = []

    def evaluator(alpha):
        calls.append(alpha)
        return phi(alpha), dphi(alpha)

    return (evaluator, phi(0.0), dphi(0.0)), calls


def wolfe_ok(phi, dphi, alpha, c1=C1, c2=C2):
    sufficient = phi(alpha) <= phi(0.0) + c1 * alpha * dphi(0.0)
    curvature = abs(dphi(alpha)) <= c2 * abs(dphi(0.0))
    return sufficient and curvature


def test_unit_step_accepted_on_shifted_parabola():
    phi = lambda a: (a - 1.0) ** 2 - 1.0
    dphi = lambda a: 2.0 * (a - 1.0)
    probe, calls = probe_from_scalar(phi, dphi)
    alpha, phi_a, dphi_a = strong_wolfe_search(*probe, C1, C2, 20)
    assert alpha == 1.0
    assert phi_a == -1.0
    assert dphi_a == 0.0
    assert calls == [1.0]


def test_exact_quadratic_minimizer():
    phi = lambda a: 0.5 * a * a - a
    dphi = lambda a: a - 1.0
    probe, _ = probe_from_scalar(phi, dphi)
    alpha, _, dphi_a = strong_wolfe_search(*probe, C1, C2, 20)
    assert alpha == 1.0
    assert dphi_a == 0.0


def test_step_may_exceed_one():
    # minimizer far beyond 1 forces the bracketing phase to extrapolate
    phi = lambda a: 0.5 * (a - 40.0) ** 2
    dphi = lambda a: a - 40.0
    probe, _ = probe_from_scalar(phi, dphi)
    alpha, _, _ = strong_wolfe_search(*probe, C1, C2, 40)
    assert alpha > 1.0
    assert wolfe_ok(phi, dphi, alpha)


def test_tiny_step_found_by_zoom():
    # steep narrow valley: acceptable steps live well below 1
    phi = lambda a: 1e4 * a * a - a
    dphi = lambda a: 2e4 * a - 1.0
    probe, _ = probe_from_scalar(phi, dphi)
    alpha, _, _ = strong_wolfe_search(*probe, C1, C2, 30)
    assert 0.0 < alpha < 1e-3
    assert wolfe_ok(phi, dphi, alpha)


def test_descent_precondition_enforced():
    with pytest.raises(ValueError):
        strong_wolfe_search(lambda a: (0.0, 0.0), 0.0, 0.0, C1, C2, 20)
    with pytest.raises(ValueError):
        strong_wolfe_search(lambda a: (0.0, 0.0), 0.0, 1.0, C1, C2, 20)


def test_unbounded_descent_fails_at_budget():
    phi = lambda a: -a
    dphi = lambda a: -1.0
    probe, calls = probe_from_scalar(phi, dphi)
    with pytest.raises(LineSearchError):
        strong_wolfe_search(*probe, C1, C2, 20)
    assert len(calls) == 20


def test_alpha_max_guard():
    phi = lambda a: -a
    dphi = lambda a: -1.0
    probe, _ = probe_from_scalar(phi, dphi)
    with pytest.raises(LineSearchError, match="alpha_max"):
        strong_wolfe_search(*probe, C1, C2, 200)


def test_invalid_constants_rejected():
    probe, _ = probe_from_scalar(lambda a: -a, lambda a: -1.0)
    with pytest.raises(ValueError):
        strong_wolfe_search(*probe, 0.5, 0.4, 20)


def test_evaluation_accounting():
    phi = lambda a: (a - 3.0) ** 2
    dphi = lambda a: 2.0 * (a - 3.0)
    probe, calls = probe_from_scalar(phi, dphi)
    alpha, _, _ = strong_wolfe_search(*probe, C1, C2, 25)
    assert wolfe_ok(phi, dphi, alpha)
    assert 1 <= len(calls) <= 25
    # the returned step is the point evaluated last
    assert calls[-1] == alpha


def random_profile(rng):
    """Smooth, bounded-below 1-D profile with a negative slope at zero."""
    while True:
        curv = rng.uniform(0.1, 5.0)
        center = rng.uniform(0.2, 4.0)
        amp = rng.uniform(0.0, 0.2) * curv * center
        freq = rng.uniform(0.5, 3.0)
        shift = rng.uniform(0.0, 2.0 * math.pi)

        def phi(a, curv=curv, center=center, amp=amp, freq=freq, shift=shift):
            return curv * (a - center) ** 2 + amp * math.sin(freq * a + shift)

        def dphi(a, curv=curv, center=center, amp=amp, freq=freq, shift=shift):
            return 2.0 * curv * (a - center) + amp * freq * math.cos(freq * a + shift)

        if dphi(0.0) < -1e-3:
            return phi, dphi


def test_random_profiles_postconditions(rng):
    # the conditions are re-verified here with independent evaluations,
    # not from the search's returned values
    for _ in range(100):
        phi, dphi = random_profile(rng)
        probe, calls = probe_from_scalar(phi, dphi)
        alpha, phi_a, dphi_a = strong_wolfe_search(*probe, C1, C2, 20)
        assert wolfe_ok(phi, dphi, alpha)
        assert phi_a == phi(alpha)
        assert dphi_a == dphi(alpha)
        assert all(0.0 < a <= ALPHA_MAX for a in calls)


def test_zoom_trial_points_nested(rng):
    # once two candidates bracket an acceptable step, later trials never
    # leave the current bracket
    for _ in range(50):
        phi, dphi = random_profile(rng)
        probe, calls = probe_from_scalar(phi, dphi)
        try:
            strong_wolfe_search(*probe, C1, C2, 20)
        except LineSearchError:
            continue
        # find where bracketing ended: the first non-monotone trial step
        zoom_start = None
        for i in range(1, len(calls)):
            if calls[i] <= calls[i - 1]:
                zoom_start = i
                break
        if zoom_start is None:
            continue
        lo, hi = 0.0, calls[zoom_start - 1]
        if zoom_start >= 2:
            lo = calls[zoom_start - 2]
        lo, hi = min(lo, hi), max(lo, hi)
        for a in calls[zoom_start:]:
            assert lo <= a <= hi


def test_giving_up_after_a_non_finite_probe_is_a_breakdown():
    # phi is finite only in (0, 0.3]: the probes go 1 (inf), 0.5 (inf), 0.25.
    phi = lambda a: -a if a <= 0.3 else math.inf
    dphi = lambda a: -1.0
    probe, calls = probe_from_scalar(phi, dphi)
    with pytest.raises(NumericalBreakdownError, match="last probe was not finite"):
        strong_wolfe_search(*probe, C1, C2, 2)
    assert calls == [1.0, 0.5]
    # Giving up right after a finite probe stays a line-search failure.
    probe, calls = probe_from_scalar(phi, dphi)
    with pytest.raises(LineSearchError) as info:
        strong_wolfe_search(*probe, C1, C2, 3)
    assert type(info.value) is LineSearchError
    assert calls == [1.0, 0.5, 0.25]


def test_first_trial_is_judged_by_sufficient_decrease_alone():
    # c1 * dphi0 is lost against phi0, so the unit step ties phi(0) exactly
    # and still passes sufficient decrease; with a zero slope it is accepted
    # at once rather than treated as an overshoot.
    calls = []

    def evaluator(alpha):
        calls.append(alpha)
        return 1.0, 0.0

    assert strong_wolfe_search(evaluator, 1.0, -1e-17, C1, C2, 20) == (1.0, 1.0, 0.0)
    assert calls == [1.0]


def test_cubic_without_a_real_critical_point_falls_back():
    # Through (0, 0) with slope -1 and (1, -2/3) with slope -1, the Hermite
    # cubic has a negative discriminant, so there is no minimizer to return.
    assert _cubic_minimizer(0.0, 0.0, -1.0, 1.0, -2.0 / 3.0, -1.0) is None


def test_cubic_with_a_zero_denominator_falls_back():
    # Through (0, 0) with slope 1 and (1, 0) with slope -1: d1 = 0 and
    # d2 = 1, so the denominator -1 - 1 + 2 * 1 is exactly zero.
    assert _cubic_minimizer(0.0, 0.0, 1.0, 1.0, 0.0, -1.0) is None


def test_collapsed_bracket_ends_by_its_width():
    # The values rise although every slope reads descent: bisection halves
    # the bracket [0, 1] until its width vanishes, long before the budget.
    probe, calls = probe_from_scalar(lambda a: a, lambda a: -1.0)
    with pytest.raises(LineSearchError, match="bracket width vanished"):
        strong_wolfe_search(*probe, C1, C2, 100)
    assert calls == [2.0 ** -i for i in range(len(calls))]
    assert 1e-13 < calls[-1] <= 1e-12 < calls[-2]
