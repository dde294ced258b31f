import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from epicast.simplex import nelder_mead

TOLERANCES = [(1e-6, 1e-10), (1e-8, 1e-12), (1e-4, 1e-4)]


def bowl(center, weights, quantum, wall):
    """A weighted quadratic; ``quantum`` floors it onto steps (ties between
    vertices) and outside ``|x_i| <= wall`` it is a flat 1e300 plateau, the
    value the package's objectives give non-finite fits."""

    def f(x):
        d = x - center
        value = float(np.sum(weights * d * d))
        if quantum:
            value = math.floor(value / quantum) * quantum
        return 1e300 if np.abs(x).max() > wall else value

    return f


@st.composite
def problems(draw):
    n = draw(st.integers(1, 11))
    coordinate = st.one_of(
        st.just(0.0),
        st.floats(-100.0, 100.0, allow_nan=False, allow_subnormal=False),
    )
    x0 = np.array(draw(st.lists(coordinate, min_size=n, max_size=n)))
    center = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=n,
                                    max_size=n)))
    weights = np.array(draw(st.lists(st.floats(0.1, 5.0), min_size=n,
                                     max_size=n)))
    quantum = draw(st.sampled_from([0.0, 1e-3, 0.25, 10.0]))
    wall = draw(st.sampled_from([math.inf, 50.0, 2.0, 0.1]))
    maxfev = draw(st.integers(1, 60 * n))
    xatol, fatol = draw(st.sampled_from(TOLERANCES))
    return bowl(center, weights, quantum, wall), x0, maxfev, xatol, fatol


def assert_retraces_scipy(f, x0, maxfev, xatol, fatol):
    """Same points evaluated in the same order, same result bits."""
    ref_points, points = [], []

    def logged(trail):
        def g(x):
            trail.append(x.tobytes())
            return f(x)
        return g

    ref = optimize.minimize(
        logged(ref_points), x0, method="Nelder-Mead",
        options={"maxfev": maxfev, "xatol": xatol, "fatol": fatol},
    )
    x, fun = nelder_mead(logged(points), x0, maxfev=maxfev, xatol=xatol,
                         fatol=fatol)
    assert points == ref_points
    assert x.tobytes() == ref.x.tobytes()
    assert np.float64(fun).tobytes() == np.float64(ref.fun).tobytes()


class TestNelderMeadOracle:
    """``nelder_mead`` must retrace scipy's Nelder-Mead bit for bit, including
    the steps that the evaluation budget cuts short."""

    @settings(max_examples=300, deadline=None)
    @given(problems())
    def test_matches_scipy_bit_for_bit(self, problem):
        assert_retraces_scipy(*problem)

    @pytest.mark.parametrize("maxfev", range(1, 40))
    def test_every_budget_cut_on_a_plateau(self, maxfev):
        # a start on the 1e300 plateau forces shrinks, so the budget runs
        # out inside every kind of step along the way
        f = bowl(np.array([0.31, -0.217, 0.113]), np.ones(3), 0.0, 1.0)
        assert_retraces_scipy(f, np.array([1.37, 0.0, -0.913]), maxfev, 1e-6,
                              1e-10)

    def test_budget_is_respected(self):
        calls = []

        def f(x):
            calls.append(x.copy())
            return float(x @ x)

        nelder_mead(f, np.array([1.0, 2.0, 3.0]), maxfev=17, xatol=0.0,
                    fatol=0.0)
        assert len(calls) == 17

    def test_converges_on_a_quadratic(self):
        f = bowl(np.array([1.0, -2.0]), np.array([1.0, 3.0]), 0.0, math.inf)
        x, fun = nelder_mead(f, np.zeros(2), maxfev=400, xatol=1e-8,
                             fatol=1e-12)
        np.testing.assert_allclose(x, [1.0, -2.0], atol=1e-6)
        assert fun < 1e-10


def patched(f, value, wall, slab):
    """``f`` with ``value`` outside ``|x_i| <= wall`` and on the slab
    ``slab[0] <= x_0 < slab[1]``, so non-finite values meet the search both
    at its edge and in the middle of its simplex."""

    def g(x):
        if np.abs(x).max() > wall or slab[0] <= x[0] < slab[1]:
            return value
        return f(x)

    return g


@st.composite
def non_finite_problems(draw):
    f, x0, maxfev, xatol, fatol = draw(problems())
    value = draw(st.sampled_from([math.inf, -math.inf, math.nan]))
    wall = draw(st.sampled_from([math.inf, 50.0, 2.0, 0.1]))
    low = draw(st.floats(-10.0, 10.0))
    width = draw(st.sampled_from([0.0, 0.05, 1.0, 20.0]))
    return patched(f, value, wall, (low, low + width)), x0, maxfev, xatol, fatol


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
class TestNonFiniteValues:
    """Objectives that return inf, -inf or NaN: the sorts put NaN last and
    the stopping test meets inf - inf, and both must go as in scipy."""

    @settings(max_examples=300, deadline=None)
    @given(non_finite_problems())
    def test_matches_scipy_bit_for_bit(self, problem):
        assert_retraces_scipy(*problem)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("maxfev", [1, 4, 5, 9, 23, 60])
    def test_every_vertex_non_finite(self, value, maxfev):
        f = patched(lambda x: float(x @ x), value, 0.0, (0.0, 0.0))
        assert_retraces_scipy(f, np.array([1.37, 0.0, -0.913]), maxfev,
                                   1e-6, 1e-10)
