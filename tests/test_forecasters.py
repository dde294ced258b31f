import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize, signal

from epicast.errors import InsufficientDataError, ValidationError
from epicast.forecasters import (
    SELECTION_BUDGET,
    ArimaModel,
    HoltParams,
    arima_fit,
    arima_forecast,
    css_aic,
    css_fit,
    holt_filter,
    holt_fit,
    holt_forecast,
)
from epicast.forecasters import (
    _hannan_rissanen_start,
    _lag_matrix,
    _ma_filter,
    _ols,
)
from epicast.hybrid import make_forecaster

from conftest import linear_series, make_series


def holt_grid_oracle(y):
    """Exhaustive SSE over the full 100x100 grid, vectorised over beta only
    so it shares no code path with the library's alpha x beta sweep."""
    grid = np.arange(1, 101) / 100.0
    best = np.inf
    for a in grid:
        level = np.full(100, y[0])
        trend = np.full(100, y[1] - y[0])
        sse = np.zeros(100)
        for t in range(1, len(y)):
            pred = level + trend
            err = y[t] - pred
            sse += err * err
            new_level = a * y[t] + (1 - a) * pred
            trend = grid * (new_level - level) + (1 - grid) * trend
            level = new_level
        best = min(best, float(sse.min()))
    return best


def _reference_css_fit(w, p, q, intercept, burn=None, x0=None, budget=200):
    """``css_fit`` as it was on scipy's Nelder-Mead and ``signal.lfilter``:
    the oracle the in-house search and the direct filter call must match
    bit for bit."""
    w = np.asarray(w, dtype=float)
    if burn is None:
        burn = p
    n_eff = len(w) - burn
    target = w[burn:]
    lags = _lag_matrix(w, p, burn)
    design = lags
    if intercept:
        design = np.column_stack([np.ones(n_eff), lags])
    coef, sse_ar = _ols(design, target)
    if intercept and len(coef):
        c_ar, phi_ar = float(coef[0]), coef[1:]
    else:
        c_ar, phi_ar = 0.0, coef
    if q == 0:
        return c_ar, phi_ar, np.empty(0), sse_ar

    def unpack(x):
        off = 1 if intercept else 0
        c = x[0] if intercept else 0.0
        return float(c), x[off : off + p], x[off + p :]

    def objective(x):
        c, phi, theta = unpack(x)
        u = target - c
        if p:
            u = u - lags @ phi
        e = signal.lfilter([1.0], np.concatenate([[1.0], theta]), u)
        sse = float(e @ e)
        return sse if np.isfinite(sse) else 1e300

    starts = []
    if x0 is not None:
        starts.append(np.asarray(x0, dtype=float))
    else:
        hr = _hannan_rissanen_start(w, p, q, intercept)
        if hr is not None and len(hr) == p + q + (1 if intercept else 0):
            starts.append(hr)
        starts.append(
            np.concatenate([[c_ar] if intercept else [], phi_ar, np.zeros(q)])
        )
    best_x = min(starts, key=objective)
    best_sse = objective(best_x)
    res = optimize.minimize(
        objective,
        best_x,
        method="Nelder-Mead",
        options={"maxfev": budget * len(best_x), "xatol": 1e-6, "fatol": 1e-10},
    )
    if float(res.fun) < best_sse:
        best_x, best_sse = res.x, float(res.fun)
    c, phi, theta = unpack(best_x)
    return c, phi.copy(), theta.copy(), best_sse


def holt_sse(series, params):
    state = holt_filter(series, params)
    resid = series.values[1:] - state.fitted[1:]
    return float(resid @ resid)


class TestHoltFilter:
    def test_constant_series_fixed_point(self):
        s = make_series(np.full(12, 9.0))
        state = holt_filter(s, HoltParams(0.3, 0.6))
        assert np.allclose(state.trend, 0.0, atol=0)
        assert np.allclose(state.level, 9.0, atol=0)
        assert np.allclose(state.fitted[1:], 9.0, atol=0)
        assert np.isnan(state.fitted[0])

    @pytest.mark.parametrize("alpha,beta", [(0.13, 0.7), (0.91, 0.05), (1.0, 1.0)])
    def test_linear_series_tracked_exactly(self, alpha, beta):
        s = linear_series(40)
        state = holt_filter(s, HoltParams(alpha, beta))
        resid = s.values[1:] - state.fitted[1:]
        assert np.max(np.abs(resid)) < 1e-9

    def test_hand_derived_recursion(self):
        s = make_series([10.0, 12.0, 15.0])
        state = holt_filter(s, HoltParams(0.5, 0.5))
        assert state.level[1] == pytest.approx(12.0, abs=1e-12)
        assert state.trend[1] == pytest.approx(2.0, abs=1e-12)
        assert state.fitted[2] == pytest.approx(14.0, abs=1e-12)
        assert s.values[2] - state.fitted[2] == pytest.approx(1.0, abs=1e-12)

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            holt_filter(make_series([1.0]), HoltParams(0.5, 0.5))

    def test_params_validated(self):
        with pytest.raises(ValidationError):
            HoltParams(0.0, 0.5)
        with pytest.raises(ValidationError):
            HoltParams(0.5, 1.01)


class TestHoltFit:
    def test_linear_tie_break(self):
        params, _ = holt_fit(linear_series(50))
        assert (params.alpha, params.beta) == (0.01, 0.01)

    def test_noisy_linear_prefers_small_alpha(self):
        rng = np.random.default_rng(5)
        t = np.arange(1, 51, dtype=float)
        s = make_series(200 + 3 * t + rng.normal(0, 30.0, size=50))
        params, state = holt_fit(s)
        assert params.alpha < 0.5
        oracle = holt_grid_oracle(s.values)
        assert holt_sse(s, params) <= oracle * (1 + 1e-12) + 1e-9

    def test_grid_optimality_on_fixture(self, india):
        sub = india.window(100, 220)
        params, _ = holt_fit(sub)
        oracle = holt_grid_oracle(sub.values)
        assert holt_sse(sub, params) <= oracle * (1 + 1e-12) + 1e-9

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            holt_fit(make_series([1.0, 2.0, 3.0]))


class TestHoltForecast:
    def test_zero_trend(self):
        state = holt_filter(make_series([100.0, 100.0]), HoltParams(0.5, 0.5))
        assert np.array_equal(holt_forecast(state, 3), [100.0, 100.0, 100.0])

    def test_linear_extrapolation(self):
        s = make_series([95.0, 100.0])  # level 100, trend 5 at the end
        state = holt_filter(s, HoltParams(1.0, 1.0))
        assert np.allclose(holt_forecast(state, 3), [105.0, 110.0, 115.0])

    def test_linear_series_seven_steps(self):
        s = linear_series(50)
        _, state = holt_fit(s)
        expected = 2.0 + 3.0 * np.arange(51, 58)
        assert np.max(np.abs(holt_forecast(state, 7) - expected)) < 1e-9

    def test_empty_horizon(self):
        _, state = holt_fit(linear_series(10))
        assert holt_forecast(state, 0).size == 0


def ar1_draw(seed=42, n=500, phi=0.8):
    rng = np.random.default_rng(seed)
    y = np.zeros(n)
    eps = rng.normal(size=n)
    for t in range(1, n):
        y[t] = phi * y[t - 1] + eps[t]
    return make_series(y - y.min() + 1.0)


class TestArimaFit:
    def test_ar1_recovery_vs_yule_walker(self):
        s = ar1_draw()
        model = arima_fit(s, order=(1, 0, 0))
        x = s.values - s.values.mean()
        phi_yw = float(x[:-1] @ x[1:]) / float(x @ x)
        assert abs(phi_yw - 0.8) < 0.1  # the draw itself is representative
        assert abs(model.ar_coeffs[0] - phi_yw) < 0.05
        assert abs(model.ar_coeffs[0] - 0.8) < 0.1

    def test_white_noise_selects_empty_order(self):
        rng = np.random.default_rng(7)
        s = make_series(rng.normal(loc=10.0, scale=2.0, size=500))
        model = arima_fit(s)
        assert model.order == (0, 0, 0)
        fc = arima_forecast(model, 3)
        assert np.allclose(fc, s.values.mean(), atol=1e-9)

    def test_selection_matches_brute_force_aic(self):
        # independent sweep over the grid reproduces the chosen (p, q)
        rng = np.random.default_rng(7)
        s = make_series(rng.normal(loc=10.0, scale=2.0, size=120))
        model = arima_fit(s)
        w = s.values  # d = 0 for white noise
        scores = {}
        for p in range(6):
            for q in range(6):
                _, _, _, sse = css_fit(
                    w, p, q, True, burn=5, budget=SELECTION_BUDGET
                )
                scores[(p, q)] = css_aic(sse, len(w) - 5, p, q, True)
        assert model.order[::2] == min(scores, key=scores.get)

    def test_constant_series_forecasts_constant(self):
        model = arima_fit(make_series(np.full(30, 7.0)))
        assert np.allclose(arima_forecast(model, 4), 7.0, atol=1e-6)

    def test_residual_count_invariant(self, india):
        model = arima_fit(india)
        p, d, _ = model.order
        defined = np.isfinite(model.residual_values)
        assert defined.sum() == len(india) - d - p

    def test_too_short_for_selection(self):
        with pytest.raises(InsufficientDataError):
            arima_fit(make_series(np.arange(10.0)))


class TestArimaForecast:
    def test_mean_model(self):
        rng = np.random.default_rng(3)
        s = make_series(rng.normal(50.0, 1.0, size=80))
        model = arima_fit(s, order=(0, 0, 0))
        fc = arima_forecast(model, 4)
        assert np.allclose(fc, model.intercept)
        assert model.intercept == pytest.approx(s.values.mean(), abs=1e-9)

    def test_random_walk_holds_last_value(self):
        rng = np.random.default_rng(11)
        s = make_series(np.cumsum(rng.uniform(1, 5, size=60)) + 100)
        model = arima_fit(s, order=(0, 1, 0))
        assert np.allclose(arima_forecast(model, 5), s.values[-1], atol=1e-12)

    def test_ar1_hand_recursion(self):
        model = ArimaModel(
            order=(1, 0, 0),
            ar_coeffs=np.array([0.5]),
            ma_coeffs=np.empty(0),
            intercept=0.0,
            sigma2=1.0,
            fitted_values=np.empty(0),
            residual_values=np.empty(0),
            w_tail=np.array([8.0]),
            e_tail=np.empty(0),
            diff_tails=np.empty(0),
        )
        assert np.allclose(arima_forecast(model, 3), [4.0, 2.0, 1.0])

    def test_zero_horizon(self):
        model = arima_fit(make_series(np.full(25, 3.0)))
        assert arima_forecast(model, 0).size == 0


class TestCssObjective:
    def test_nested_ar_chain_monotone(self, india):
        w = np.diff(india.values)
        burn = 5
        prev = np.inf
        for p in range(4):
            _, _, _, sse = css_fit(w, p, 0, False, burn=burn)
            assert sse <= prev * (1 + 1e-9) + 1e-9
            prev = sse

    def test_nested_ma_chain_monotone(self, india):
        # warm-start each model from the previous one so the optimiser
        # cannot lose ground the larger model is entitled to keep
        w = np.diff(india.values)
        burn = 5
        prev_sse = np.inf
        prev_theta = np.empty(0)
        for q in range(4):
            x0 = None
            if q > 0:
                x0 = np.concatenate([prev_theta, [0.0]])
            _, _, theta, sse = css_fit(w, 0, q, False, burn=burn, x0=x0)
            assert sse <= prev_sse * (1 + 1e-6) + 1e-9
            prev_sse, prev_theta = sse, theta


class TestCssOracle:
    @settings(max_examples=100, deadline=None)
    @given(
        theta=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=5),
        u=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=150),
    )
    def test_ma_filter_is_lfilter(self, theta, u):
        a = np.concatenate([[1.0], theta])
        u = np.array(u)
        expected = signal.lfilter([1.0], a, u)
        assert _ma_filter(a, u).tobytes() == expected.tobytes()

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(25, 100),
        integrated=st.booleans(),
        p=st.integers(0, 5),
        q=st.integers(0, 5),
        intercept=st.booleans(),
        selection=st.booleans(),
        budget=st.sampled_from([1, 2, SELECTION_BUDGET, 200]),
        warm=st.booleans(),
    )
    def test_fit_matches_reference(self, seed, n, integrated, p, q,
                                   intercept, selection, budget, warm):
        rng = np.random.default_rng(seed)
        w = np.convolve(rng.normal(size=n + 2), [1.0, 0.6, -0.3])[:n]
        w = 3.0 + (np.cumsum(w) if integrated else w)
        burn = 5 if selection else p
        x0 = None
        if warm:
            x0 = rng.normal(scale=0.3, size=p + q + (1 if intercept else 0))
        got = css_fit(w, p, q, intercept, burn=burn, x0=x0, budget=budget)
        want = _reference_css_fit(w, p, q, intercept, burn=burn, x0=x0,
                                  budget=budget)
        assert got[0] == want[0]
        assert got[1].tobytes() == want[1].tobytes()
        assert got[2].tobytes() == want[2].tobytes()
        assert got[3] == want[3]


class TestContract:
    @pytest.mark.parametrize("kind", ["holt", "arima", "arima(1,1,0)"])
    def test_residual_identity(self, kind, india):
        sub = india.prefix(120)
        model = make_forecaster(kind).fit(sub)
        fitted = model.fitted()
        resid = model.residuals()
        defined = np.isfinite(fitted)
        assert np.array_equal(
            resid[defined], sub.values[defined] - fitted[defined]
        )
        assert np.all(np.isnan(resid[~defined]))

    def test_unknown_tag(self):
        with pytest.raises(ValidationError):
            make_forecaster("prophet")

    def test_bad_order_spec(self):
        # malformed, then out of range: each fails before any fit
        for tag in ("arima(1,2)", "arima(9,1,0)", "arima(0,3,0)",
                    "arima(0,1,-1)", "ARIMA(6, 0, 0)"):
            with pytest.raises(ValidationError, match="order"):
                make_forecaster(tag)
