"""Property tests for the cheap forms the hot path uses in place of numpy's
convenience wrappers. Each must agree with the wrapper to the last bit, or
raise exactly when the wrapper-based check would, over vectors that mix NaN,
infinities, huge finite entries whose squares overflow, subnormals and -0.0.
The one exception is a norm whose square overflows on finite entries, where
the wrapper reads inf and the fast path rescales.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from regulus.core import (
    EvalCounter,
    NumericalBreakdownError,
    Objective,
    evaluate,
    scaled_gradient_norm,
)

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

SPECIAL = [math.nan, math.inf, -math.inf, 1e200, -1e200, 1.7e308, 5e-324, -5e-324,
           2.2250738585072014e-308, 0.0, -0.0, 1.0, -3.5]
elements = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=True, allow_infinity=True))
vectors = hnp.arrays(np.float64, st.integers(1, 40), elements=elements)


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def parent_scaled_gradient_norm(gradient, point):
    """The wrapper-based formula the fast path replaces."""
    g = np.asarray(gradient, dtype=float)
    gnorm = float(np.linalg.norm(g))
    if not math.isfinite(gnorm) and not np.all(np.isfinite(g)):
        return math.inf
    return gnorm / max(1.0, float(np.linalg.norm(point)))


def _overflowed(v):
    """True when ``v'v`` overflows although every entry is finite."""
    return np.all(np.isfinite(v)) and not math.isfinite(v.dot(v))


def overflow_safe_scaled_gradient_norm(gradient, point):
    """The wrapper formula with each norm that overflowed on finite entries
    taken by ``math.hypot``, which does not overflow."""
    def norm(v):
        v = np.ravel(v)
        return math.hypot(*v) if _overflowed(v) else float(np.linalg.norm(v))

    gnorm = norm(gradient)
    if not math.isfinite(gnorm):
        return math.inf
    return gnorm / max(1.0, norm(point))


@settings(max_examples=300, deadline=None)
@given(vectors)
def test_sqrt_of_self_dot_is_bitwise_norm(v):
    assert _bits(math.sqrt(v.dot(v))) == _bits(float(np.linalg.norm(v)))


@settings(max_examples=300, deadline=None)
@given(vectors)
def test_gradient_breakdown_iff_nonfinite_entry(g):
    objective = Objective(dim=g.size, value=lambda x: 0.0, gradient=lambda x: g)
    counters = EvalCounter()
    try:
        evaluate(objective, np.zeros(g.size), counters, "gradient")
        raised = False
    except NumericalBreakdownError:
        raised = True
    assert raised == (not np.all(np.isfinite(g)))
    assert counters.n_g == 1


@st.composite
def gradient_point_pairs(draw):
    n = draw(st.integers(1, 40))
    # Mostly ordinary entries, for which a strided dot can round differently
    # from a contiguous one; both forms must ravel before the dot.
    mostly_finite = st.one_of(*[st.floats(-1e3, 1e3)] * 3, elements)
    g = draw(hnp.arrays(np.float64, n, elements=mostly_finite))
    x = draw(hnp.arrays(np.float64, n, elements=mostly_finite))
    if draw(st.booleans()):
        g = np.repeat(g, 2)[::2]
    if draw(st.booleans()):
        x = np.repeat(x, 3)[::3]
    return g, x


@settings(max_examples=400, deadline=None)
@given(gradient_point_pairs())
def test_scaled_gradient_norm_is_bitwise_the_wrapper_formula(pair):
    # Bitwise the wrapper formula unless a product overflows on finite
    # entries, where the wrapper reads inf for a norm that is finite.
    g, x = pair
    if not (_overflowed(g) or _overflowed(x)):
        assert _bits(scaled_gradient_norm(g, x)) == _bits(parent_scaled_gradient_norm(g, x))
    else:
        expected = overflow_safe_scaled_gradient_norm(g, x)
        assert scaled_gradient_norm(g, x) == pytest.approx(expected, rel=1e-13, abs=1e-320)
