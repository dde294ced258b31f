import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.linalg import _umath_linalg
from scipy import optimize, signal

from epicast.errors import FitError, InsufficientDataError, ValidationError
from epicast.forecasters import (
    _FILTER_NUMERATOR,
    ArimaModel,
    HoltParams,
    arima_fit,
    arima_forecast,
    choose_difference_order,
    css_aic,
    css_fit,
    holt_filter,
    holt_fit,
    holt_forecast,
)
from epicast.forecasters import (
    _css_problem,
    _hannan_rissanen_start,
    _linear_filter,
    _ols,
)
from epicast.hybrid import make_forecaster

from conftest import linear_series, make_series, python_output


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
                _, _, _, sse, _ = css_fit(w, p, q, True, burn=5)
                scores[(p, q)] = css_aic(sse, len(w) - 5, p, q, True)
        assert model.order[::2] == min(scores, key=scores.get)

    def test_constant_series_forecasts_constant(self):
        model = arima_fit(make_series(np.full(30, 7.0)))
        assert np.allclose(arima_forecast(model, 4), 7.0, atol=1e-6)

    def test_residual_count_invariant(self, india):
        model = arima_fit(india)
        p, d, _ = model.order
        defined = np.isfinite(model.fitted_values)
        assert defined.sum() == len(india) - d - p

    @pytest.mark.parametrize("scale", [1e152, 1e153])
    def test_selection_scores_are_true_sums_of_squares(self, scale):
        # squared innovations of counts this large overflow at some of the
        # points each search tries; an order is ranked on the SSE of the
        # innovations it returns, or on inf
        y = scale * (1.0 + 0.1 * (np.arange(40) % 7))
        d = choose_difference_order(y)
        w = np.diff(y, n=d) if d else y
        for p in range(6):
            for q in range(1, 6):
                *_, sse, e = css_fit(w, p, q, d == 0, burn=5)
                with np.errstate(over="ignore"):
                    true_sse = float(e @ e)
                assert sse == np.inf or sse == true_sse, (p, q)

    @settings(max_examples=40, deadline=None)
    @given(
        unit=st.lists(st.floats(0.0, 1.0), min_size=20, max_size=60),
        k=st.integers(-300, 308),
    )
    @example(unit=[1.0 + 0.1 * (i % 7) for i in range(40)], k=155)
    # second differences of two spikes near the float range overflow
    @example(unit=[0.0, 1.0] + [0.0] * 15 + [1.0] + [0.0] * 7, k=308)
    def test_any_scale_fits_or_fails_cleanly(self, unit, k):
        # counts of every magnitude the float range holds: a fit forecasts
        # finite values or raises FitError, and numpy never warns
        s = make_series(np.array(unit) * 10.0**k)
        try:
            model = arima_fit(s)
        except FitError:
            return
        assert np.all(np.isfinite(arima_forecast(model, 7)))

    def test_overflowing_sum_of_squares_fits_silently(self):
        # squared innovations of counts near 1e150 overflow while orders
        # with an MA part are searched: those score inf, and numpy warns
        # of nothing
        s = make_series(1e150 * (1.0 + 0.1 * (np.arange(40) % 7)))
        model = arima_fit(s)
        assert np.all(np.isfinite(arima_forecast(model, 3)))

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
            _, _, _, sse, _ = css_fit(w, p, 0, False, burn=burn)
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
            _, _, theta, sse, _ = css_fit(w, 0, q, False, burn=burn, x0=x0)
            assert sse <= prev_sse * (1 + 1e-6) + 1e-9
            prev_sse, prev_theta = sse, theta


def arma_draw(seed):
    """An invertible, stationary ARMA(p, q) draw with an intercept: p in
    0..2, q in 1..2, 80 to 300 points, roots drawn in (-0.9, 0.9)."""
    rng = np.random.default_rng(seed)
    p = int(rng.integers(0, 3))
    q = int(rng.integers(1, 3))
    n = int(rng.integers(80, 301))
    ar = np.poly(rng.uniform(-0.9, 0.9, size=p)) if p else np.ones(1)
    ma = np.poly(rng.uniform(-0.9, 0.9, size=q))
    w = 5.0 + signal.lfilter(ma, ar, rng.normal(size=n + 100))[100:]
    return w, p, q


def css_innovations(x, w, p, q):
    """The CSS innovations with an intercept and burn-in p, through
    ``signal.lfilter``: the objective the MINPACK oracle minimises."""
    u = w[p:] - x[0]
    for j in range(1, p + 1):
        u = u - x[j] * w[p - j : len(w) - j]
    return signal.lfilter([1.0], np.concatenate([[1.0], x[1 + p :]]), u)


class TestCssOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(30, 120),
        p=st.integers(0, 5),
        q=st.integers(1, 5),
        intercept=st.booleans(),
        extra_burn=st.integers(0, 5),
    )
    def test_jacobian_matches_central_differences(self, seed, n, p, q,
                                                  intercept, extra_burn):
        rng = np.random.default_rng(seed)
        w = 3.0 + np.cumsum(rng.normal(size=n)) * 0.3 + rng.normal(size=n)
        _, _, innovations, jacobian = _css_problem(w, p, q, intercept,
                                                   p + extra_burn)
        k = p + q + (1 if intercept else 0)
        x = rng.normal(scale=0.2, size=k)
        # MA roots well inside the unit circle keep the filter stable
        x[k - q :] = np.poly(rng.uniform(-0.7, 0.7, size=q))[1:]
        e = innovations(x)
        analytic = -jacobian(x, e)
        h = 1e-6
        numeric = np.column_stack([
            (innovations(x + h * unit) - innovations(x - h * unit)) / (2 * h)
            for unit in np.eye(k)
        ])
        err = np.max(np.abs(analytic - numeric), axis=0)
        assert np.all(err <= 1e-6 * (1.0 + np.max(np.abs(numeric), axis=0)))

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(25, 100),
        integrated=st.booleans(),
        p=st.integers(0, 5),
        q=st.integers(1, 5),
        intercept=st.booleans(),
        selection=st.booleans(),
        warm=st.booleans(),
    )
    def test_fit_never_ends_above_its_best_start(self, seed, n, integrated, p,
                                                 q, intercept, selection,
                                                 warm):
        rng = np.random.default_rng(seed)
        w = np.convolve(rng.normal(size=n + 2), [1.0, 0.6, -0.3])[:n]
        w = 3.0 + (np.cumsum(w) if integrated else w)
        burn = 5 if selection else p
        design, target, innovations, _ = _css_problem(w, p, q, intercept,
                                                      burn)
        if warm:
            x0 = rng.normal(scale=0.3, size=p + q + (1 if intercept else 0))
            starts = [x0]
        else:
            x0 = None
            starts = [np.concatenate([_ols(design, target)[0], np.zeros(q)])]
            hr = _hannan_rissanen_start(w, p, q, intercept)
            if hr is not None:
                starts.append(hr)
        start_sse = min(float(e @ e) for e in map(innovations, starts))
        *_, sse, e = css_fit(w, p, q, intercept, burn=burn, x0=x0)
        assert sse <= start_sse
        assert sse == float(e @ e)
        assert not np.shares_memory(e, w)

    def test_fit_matches_minpack_restarted_from_it(self):
        # MINPACK's Levenberg-Marquardt (scipy's least_squares, method
        # "lm"), restarted from each fit, must not lower its SSE by more
        # than 1e-6 relative. The 9 draws that fail are ill-posed: the fit
        # ends on MA_RADIUS, and MINPACK, unconstrained, keeps descending
        # past the unit circle. The Nelder-Mead search this fit replaced
        # passed 292 of these draws: on draw 134 it stopped in an
        # invertible local minimum, 1 % below the fit's SSE on the radius
        passed = 0
        for seed in range(300):
            w, p, q = arma_draw(seed)
            c, phi, theta, sse, _ = css_fit(w, p, q, True)
            x = np.concatenate([[c], phi, theta])
            res = optimize.least_squares(css_innovations, x, method="lm",
                                         args=(w, p, q))
            passed += sse <= float(res.fun @ res.fun) * (1 + 1e-6)
        assert passed >= 291

    def test_kernel_filters_a_block_column_by_column(self):
        # the CSS Jacobian filters an (n, k) block along axis 0 in one call
        kernel = _linear_filter()
        rng = np.random.default_rng(5)
        for trial in range(200):
            q = int(rng.integers(1, 6))
            a = np.concatenate([[1.0], rng.normal(scale=0.8, size=q)])
            block = rng.normal(scale=10.0 ** rng.uniform(-3, 3),
                               size=(int(rng.integers(0, 120)),
                                     int(rng.integers(1, 12))))
            got = kernel(_FILTER_NUMERATOR, a, block, 0)
            for j in range(block.shape[1]):
                want = signal.lfilter([1.0], a, block[:, j])
                assert got[:, j].tobytes() == want.tobytes(), (trial, j)

    def test_unwrapped_solve_equals_numpy_solve(self):
        # the damped normal equations go to np.linalg.solve's gufunc
        # directly; a singular system gives NaN there in place of an error
        rng = np.random.default_rng(9)
        for trial in range(200):
            k = int(rng.integers(1, 12))
            jac = rng.normal(size=(int(rng.integers(k, 100)), k))
            damped = jac.T @ jac
            damped[np.diag_indices(k)] *= 1.0 + 10.0 ** rng.uniform(-8, 2)
            rhs = rng.normal(size=k)
            got = _umath_linalg.solve1(damped, rhs, signature="dd->d")
            assert got.tobytes() == np.linalg.solve(damped, rhs).tobytes()
        with np.errstate(invalid="ignore"):
            got = _umath_linalg.solve1(np.zeros((3, 3)), np.ones(3),
                                       signature="dd->d")
        assert np.all(np.isnan(got))

    @pytest.mark.parametrize("kernel_first", [True, False])
    def test_kernel_equals_lfilter_in_either_load_order(self, kernel_first):
        # one fresh interpreter per order: the kernel's extension module
        # loaded alone and later found by scipy.signal, or loaded by
        # scipy.signal and then reused
        code = f"""if True:
            import sys
            import numpy as np
            from epicast.forecasters import _FILTER_NUMERATOR, _linear_filter
            if {kernel_first}:
                kernel = _linear_filter()
                assert "scipy.signal" not in sys.modules
                from scipy import signal
            else:
                from scipy import signal
                kernel = _linear_filter()
            module = sys.modules["scipy.signal._sigtools"]
            assert kernel is module._linear_filter
            rng = np.random.default_rng(11)
            for trial in range(300):
                q = int(rng.integers(1, 6))
                a = np.concatenate([[1.0], rng.normal(scale=0.8, size=q)])
                u = rng.normal(scale=10.0 ** rng.uniform(-3, 3),
                               size=int(rng.integers(0, 120)))
                got = kernel(_FILTER_NUMERATOR, a, u, -1)
                want = signal.lfilter([1.0], a, u)
                assert got.tobytes() == want.tobytes(), trial
            print("ok")
        """
        assert python_output(code) == "ok\n"


class TestImports:
    def test_arima_forecast_leaves_scipy_optimize_unloaded(self, tmp_path):
        # importing scipy.optimize takes about 0.3 s and 40 MB, and the
        # CSS fit needs none of it
        code = f"""if True:
            import sys
            from epicast.cli import main
            from epicast.core import fixture_path
            main(["forecast", "--input",
                  str(fixture_path("india_confirmed.csv")),
                  "--model", "arima", "--out", {str(tmp_path / "out")!r}])
            print(sorted(m for m in sys.modules if m.startswith("scipy.")))
        """
        loaded = python_output(code)
        assert (tmp_path / "out" / "forecast.csv").is_file()
        assert "scipy.signal._sigtools" in loaded
        assert "scipy.optimize" not in loaded


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
