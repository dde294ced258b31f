import math
from dataclasses import replace

import numpy as np
import pytest

from epicast.core import NegativeValueWarning
from epicast.errors import DomainError, InsufficientDataError, ValidationError
from epicast.evaluate import (
    WindowMetricRecord,
    mae,
    monitor,
    rmse,
    shelf_life,
    shelf_life_from_apes,
)
from epicast.forecasters import holt_fit, holt_forecast
from epicast.hybrid import make_forecaster
from epicast.neural import TdnnConfig

from conftest import linear_series, make_series

FAST = TdnnConfig(repeats=3, epochs=60, seed=5)
SEED_1 = TdnnConfig(seed=1)


class TestMetrics:
    def test_identical_vectors(self):
        assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0
        assert mae([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_hand_values(self):
        actual = np.array([10.0, 10.0])
        predicted = np.array([13.0, 6.0])  # errors 3, 4
        assert rmse(actual, predicted) == pytest.approx(math.sqrt(12.5), abs=1e-12)
        assert mae(actual, predicted) == pytest.approx(3.5, abs=1e-12)

    def test_single_element(self):
        assert rmse([7.0], [0.0]) == pytest.approx(7.0, abs=1e-12)
        assert mae([0.0], [5.0]) == pytest.approx(5.0, abs=1e-12)
        assert mae([0.0], [-5.0]) == pytest.approx(5.0, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            rmse([1.0], [1.0, 2.0])
        with pytest.raises(ValidationError):
            mae([], [])

    def test_overflowing_squares_and_sums_stay_finite(self):
        # the squares of 3e154 and the sum of two 1.5e308 leave float range;
        # the max-scaled forms do not
        assert rmse([3e154, 0.0], [0.0, 0.0]) == 3e154 * math.sqrt(0.5)
        assert mae([1.5e308, 1.5e308], [0.0, 0.0]) == 1.5e308
        record = WindowMetricRecord(origin=1, model="x", rmse=1.5e308,
                                    mae=1.6e308)
        assert record.m == 1.55e308

    def test_plain_formula_where_finite(self):
        d = np.array([1e150, -3e153, 2.5e152])
        assert rmse(d, np.zeros(3)) == float(np.sqrt(np.mean(d ** 2)))
        assert mae(d, np.zeros(3)) == float(np.mean(np.abs(d)))

    @pytest.mark.parametrize("actual, predicted", [
        ([1e308, 0.0], [-1e308, 0.0]),
        ([1.0], [math.inf]),
        ([math.nan], [1.0]),
    ])
    def test_non_finite_errors_refused(self, actual, predicted):
        with pytest.raises(DomainError, match="not finite"):
            rmse(actual, predicted)
        with pytest.raises(DomainError, match="not finite"):
            mae(actual, predicted)


class TestMonitor:
    def test_overflowing_errors_name_origin_and_model(self):
        # the random walk forecasts 1.7e308 where -1.7e308 follows
        values = np.full(12, 1.7e308)
        values[6:] = -1.7e308
        with pytest.warns(NegativeValueWarning):
            s = make_series(values)
        with pytest.raises(DomainError, match=r"^origin 7, model "
                           r"arima\(0,1,0\): forecast errors are not finite$"):
            monitor(s, ["arima(0,1,0)"], k=4, config=SEED_1)

    def test_single_model_dominates_fully(self):
        s = linear_series(40)
        report = monitor(s, ["holt"], k=4, config=SEED_1)
        assert report.dominance == {"holt": 100.0}
        assert report.mode_winner == "holt"

    def test_clone_ties_resolve_to_first(self):
        # both models forecast a constant series with exactly zero error,
        # so every origin is an exact tie and input order decides
        s = make_series(np.full(40, 25.0))
        first = monitor(s, ["arima(0,1,0)", "arima(1,1,0)"], k=4, config=SEED_1)
        assert first.dominance == {"arima(0,1,0)": 100.0, "arima(1,1,0)": 0.0}
        flipped = monitor(s, ["arima(1,1,0)", "arima(0,1,0)"], k=4, config=SEED_1)
        assert flipped.dominance == {"arima(1,1,0)": 100.0, "arima(0,1,0)": 0.0}

    def test_linear_series_holt_beats_random_walk(self):
        s = linear_series(40)
        report = monitor(s, ["holt", "arima(0,1,0)"], k=4, config=SEED_1)
        assert report.dominance["holt"] == 100.0
        assert report.dominance["arima(0,1,0)"] == 0.0
        assert all(tag == "holt" for tag in report.psi.values())
        assert report.mode_winner == "holt"
        assert report.weighted_winner == "holt"

    def test_origin_count_and_window(self):
        s = linear_series(41)
        k = 5
        report = monitor(s, ["holt"], k=k, config=SEED_1)
        t = len(s)
        assert len(report.origins) == (t - k + 1) - t // 2
        assert report.origins[0] == t // 2 + 1
        assert report.origins[-1] == t - k + 1

    def test_records_match_brute_force_rescoring(self):
        # independently refit and rescore one origin
        s = make_series(
            50 + np.cumsum(np.random.default_rng(3).normal(1.0, 4.0, size=36))
        )
        report = monitor(s, ["holt"], k=4, config=SEED_1)
        origin = report.origins[0]
        params, state = holt_fit(s.prefix(origin - 1))
        forecast = holt_forecast(state, 4)
        actual = s.values[origin - 1 : origin + 3]
        record = [r for r in report.records if r.origin == origin][0]
        assert record.rmse == pytest.approx(rmse(actual, forecast), abs=1e-12)
        assert record.mae == pytest.approx(mae(actual, forecast), abs=1e-12)

    def test_m_identity_and_bounds(self):
        s = make_series(
            50 + np.cumsum(np.random.default_rng(4).normal(1.0, 4.0, size=36))
        )
        report = monitor(s, ["holt", "arima(0,1,0)"], k=4, config=SEED_1)
        for record in report.records:
            assert record.m == (record.rmse + record.mae) / 2.0
            assert record.mae <= record.rmse + 1e-12
            assert record.mae - 1e-12 <= record.m <= record.rmse + 1e-12

    def test_dominance_sums_to_100(self):
        s = make_series(
            50 + np.cumsum(np.random.default_rng(5).normal(1.0, 4.0, size=36))
        )
        report = monitor(s, ["holt", "arima(0,1,0)", "arima(0,0,0)"], k=4,
                         config=SEED_1)
        assert sum(report.dominance.values()) == pytest.approx(100.0, abs=1e-9)
        assert sum(report.weighted_share.values()) == pytest.approx(100.0, abs=1e-9)

    def test_config_seed_alone_drives_the_fits(self, india):
        s = india.prefix(44)
        first, second = (monitor(s, ["holt-wbann"], k=4,
                                 config=replace(FAST, seed=seed))
                         for seed in (5, 6))
        assert first.records != second.records
        # origin T refits with seed config.seed + T
        origin = first.origins[0]
        model = make_forecaster("holt-wbann", replace(FAST, seed=5 + origin))
        forecast = model.fit(s.prefix(origin - 1)).forecast(4)
        actual = s.values[origin - 1 : origin + 3]
        assert first.records[0].rmse == rmse(actual, forecast)
        assert first.records[0].mae == mae(actual, forecast)

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            monitor(linear_series(11), ["holt"], k=4)

    def test_no_models(self):
        with pytest.raises(ValidationError):
            monitor(linear_series(40), [], k=4)


class TestShelfLife:
    def test_exact_linear_ape_growth(self):
        # APE grows 0.2 %/day from zero: the 5 % crossing sits 25 days out
        m = 30
        t_values = np.arange(m + 1, m + 41)
        apes = 0.2 * (t_values - m)
        result = shelf_life_from_apes(t_values, apes, train_len=m)
        assert not result.unbounded
        assert result.slope == pytest.approx(0.2, abs=1e-12)
        assert result.shelf_days == pytest.approx(25.0, abs=0.01)
        assert result.crossing_t == pytest.approx(m + 25.0, abs=0.01)

    def test_declining_ape_is_unbounded(self):
        t_values = np.arange(10, 30)
        apes = 50.0 - 0.5 * t_values
        result = shelf_life_from_apes(t_values, apes, train_len=9)
        assert result.unbounded
        assert math.isinf(result.shelf_days)

    def test_scaling_linearity(self):
        t_values = np.arange(31, 61)
        rng = np.random.default_rng(8)
        apes = 0.3 * (t_values - 30) + rng.normal(0, 0.05, size=30)
        base = shelf_life_from_apes(t_values, apes, train_len=30)
        scaled = shelf_life_from_apes(t_values, 2.0 * apes, train_len=30)
        assert scaled.slope == pytest.approx(2.0 * base.slope, rel=1e-9)
        assert scaled.intercept == pytest.approx(2.0 * base.intercept, rel=1e-9)

    def test_end_to_end_exact_construction(self):
        # forecasts are an exact linear continuation (holt on linear data);
        # actuals are bent so the APE rises exactly 0.2 %/day from zero
        m, horizon = 30, 40
        t = np.arange(1, m + horizon + 1, dtype=float)
        base_line = 100.0 + 2.0 * t
        values = base_line.copy()
        steps = np.arange(1, horizon + 1, dtype=float)
        values[m:] = base_line[m:] / (1.0 - 0.002 * steps)
        s = make_series(values)
        result = shelf_life(s, train_len=m, model="holt")
        assert result.shelf_days == pytest.approx(25.0, abs=0.01)

    def test_zero_actual_names_date(self):
        values = np.concatenate([np.linspace(10, 50, 30), [3.0, 0.0, 4.0]])
        s = make_series(values)
        with pytest.raises(ValidationError, match="2020-04-14"):
            shelf_life(s, train_len=30, model="holt")

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf,
                                           -5.0, 0.0])
    def test_threshold_must_be_finite_and_positive(self, threshold):
        t_values = np.arange(31, 71)
        apes = 0.2 * (t_values - 30)
        with pytest.raises(ValidationError, match="threshold"):
            shelf_life_from_apes(t_values, apes, train_len=30,
                                 threshold_pct=threshold)
        with pytest.raises(ValidationError, match="threshold"):
            shelf_life(linear_series(40), train_len=20, model="holt",
                       threshold_pct=threshold)

    def test_degenerate_regression(self):
        with pytest.raises(ValidationError):
            shelf_life_from_apes([31, 32], [1.0, 2.0], train_len=30)

    def test_bad_train_len(self):
        with pytest.raises(ValidationError):
            shelf_life(linear_series(20), train_len=25, model="holt")

    def test_runs_with_hybrid_model(self, india):
        sub = india.prefix(80)
        result = shelf_life(sub, train_len=40, model="holt-wbann", config=FAST)
        assert len(result.ape_series) == 40
        assert math.isfinite(result.slope)

    def test_config_seed_alone_drives_the_fit(self, india):
        sub = india.prefix(60)
        first, again, second = (
            shelf_life(sub, train_len=40, model="holt-wbann",
                       config=replace(FAST, seed=seed))
            for seed in (5, 5, 6))
        assert first == again
        assert first.ape_series != second.ape_series
