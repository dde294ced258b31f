import importlib.util
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from epicast import hybrid, parallel
from epicast.errors import EpicastError, InsufficientDataError, ValidationError
from epicast.hybrid import (
    MODEL_TAGS,
    HybridForecaster,
    fit_panel,
    fit_tagged_models,
    make_forecaster,
)
from epicast.neural import TdnnConfig, wbann_forecast

from conftest import linear_series, make_series

FAST = TdnnConfig(repeats=5, epochs=120, seed=9)


def rmse_on(series, fitted, mask):
    err = series.values[mask] - fitted[mask]
    return float(np.sqrt(np.mean(err**2)))


class TestHybridFit:
    def test_linear_series_collapses_to_base(self):
        s = linear_series(60)
        model = HybridForecaster("holt-wbann", "holt", FAST).fit(s)
        base_forecast = model.base.forecast(7)
        combined = model.forecast(7)
        # residuals are numerically zero, so the remodeling adds ~nothing
        assert np.max(np.abs(combined - base_forecast)) < 1e-6
        fitted = model.fitted()
        mask = np.isfinite(fitted)
        assert np.max(np.abs(fitted[mask] - s.values[mask])) < 1e-6

    def test_arima_wbf_variant(self, india):
        sub = india.prefix(120)
        model = HybridForecaster("arima-wbf", "arima", FAST).fit(sub)
        assert model.base_kind == "arima"
        fc = model.forecast(7)
        assert fc.shape == (7,) and np.all(np.isfinite(fc))
        fitted = model.fitted()
        mask = np.isfinite(fitted)
        assert rmse_on(sub, fitted, mask) <= rmse_on(
            sub, model.base.fitted(), mask
        ) + 1e-9

    def test_in_sample_improvement_on_fixtures(self, india, panel):
        cfg = TdnnConfig(seed=42)
        for s in [india] + list(panel.states):
            model = HybridForecaster("holt-wbann", "holt", cfg).fit(s)
            fitted = model.fitted()
            mask = np.isfinite(fitted)
            rmse_hybrid = rmse_on(s, fitted, mask)
            rmse_base = rmse_on(s, model.base.fitted(), mask)
            assert rmse_hybrid <= rmse_base + 1e-9, s.name

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            HybridForecaster("holt-wbann", "holt", FAST).fit(linear_series(15))

    def test_base_phase_error_tagged(self):
        with pytest.raises(ValidationError, match="base"):
            HybridForecaster("nonsense-wbann", "nonsense", FAST).fit(
                linear_series(30))

    def test_residual_phase_error_tagged(self):
        # a deep fixed-order base leaves fewer residuals than wbann needs
        s = linear_series(21)
        with pytest.raises(EpicastError, match="residual"):
            HybridForecaster("arima(5,1,0)-wbf", "arima(5,1,0)", FAST).fit(s)


class TestHybridOutputs:
    def test_fitted_is_sum_of_phases(self, india):
        sub = india.prefix(150)
        model = HybridForecaster("holt-wbann", "holt", FAST).fit(sub)
        fitted = model.fitted()
        base_fitted = model.base.fitted()
        resid_fitted = model.residual_model.fitted_values
        skip = model.base_skip
        mask = np.isfinite(fitted)
        assert np.array_equal(
            fitted[mask], (base_fitted[skip:] + resid_fitted)[mask[skip:]]
        )

    def test_hand_built_toy_addition(self):
        base = SimpleNamespace(fitted=lambda: np.array([1.0, 2.0]))
        resid = SimpleNamespace(
            fitted_values=np.array([0.1, -0.1]),
            component_models=[SimpleNamespace(config=SimpleNamespace(lags=0))],
        )
        model = HybridForecaster("holt-wbann", "holt")._fitted_with(
            make_series([1.0, 2.0]), base=base, base_skip=0,
            residual_model=resid,
        )
        assert np.allclose(model.fitted(), [1.1, 1.9], atol=1e-12)

    def test_forecast_decomposition_identity(self, india):
        sub = india.prefix(150)
        model = HybridForecaster("holt-wbann", "holt", FAST).fit(sub)
        for h in (1, 7):
            combined = model.forecast(h)
            parts = model.base.forecast(h) + wbann_forecast(model.residual_model, h)
            assert np.array_equal(combined, parts)

    def test_seven_day_forecast_finite_on_fixture(self, india):
        model = HybridForecaster("holt-wbann", "holt", FAST).fit(india)
        fc = model.forecast(7)
        assert fc.shape == (7,) and np.all(np.isfinite(fc))

    def test_determinism(self, india):
        sub = india.prefix(120)
        a = HybridForecaster("holt-wbann", "holt", FAST).fit(sub).forecast(5)
        b = HybridForecaster("holt-wbann", "holt", FAST).fit(sub).forecast(5)
        assert np.array_equal(a, b)

    def test_zero_horizon(self, india):
        model = HybridForecaster("holt-wbann", "holt", FAST).fit(
            india.prefix(100))
        assert model.forecast(0).size == 0


class TestRegistry:
    def test_all_tags_fit_and_forecast(self, india):
        sub = india.prefix(120)
        for tag in MODEL_TAGS:
            model = make_forecaster(tag, FAST).fit(sub)
            assert model.tag == tag
            fc = model.forecast(3)
            assert fc.shape == (3,) and np.all(np.isfinite(fc))
            fitted = model.fitted()
            resid = model.residuals()
            mask = np.isfinite(fitted)
            assert np.array_equal(resid[mask], sub.values[mask] - fitted[mask])

    def test_fixed_order_tag(self, india):
        model = make_forecaster("arima(0,1,0)").fit(india.prefix(60))
        assert np.allclose(model.forecast(3), india.values[59], atol=1e-12)
        assert make_forecaster(" ARIMA(0,1,0) ").tag == "arima(0,1,0)"
        assert make_forecaster("arima( 0, 1 ,0 )").tag == "arima(0,1,0)"
        assert make_forecaster(" Holt-WBANN ").tag == "holt-wbann"

    def test_tagged_models_keyed_by_normalised_tag(self, india):
        sub = india.prefix(60)
        fitted = fit_tagged_models(sub, [" HOLT", "arima( 0,1,0)"], FAST)
        assert list(fitted) == ["holt", "arima(0,1,0)"]
        assert [model.tag for model in fitted.values()] == list(fitted)

    def test_shared_base_identical(self, india):
        sub = india.prefix(120)
        fitted = fit_tagged_models(sub, ["holt", "holt-wbann"], FAST)
        assert fitted["holt"] is fitted["holt-wbann"].base

    def test_shared_base_matches_standalone(self, india):
        sub = india.prefix(120)
        shared = fit_tagged_models(sub, ["holt", "holt-wbann"], FAST)
        standalone = make_forecaster("holt-wbann", FAST).fit(sub)
        assert np.array_equal(
            shared["holt-wbann"].forecast(5), standalone.forecast(5)
        )


class TestFitPanel:
    @pytest.mark.parametrize("tag", ["holt", "holt-wbann", "arima(1,1,0)"])
    def test_same_bytes_as_one_series_fits(self, panel, monkeypatch, tag):
        # the panel fit cuts the residual networks across series and
        # workers; each series must still get its one-series fit's bits
        config = TdnnConfig(repeats=2, epochs=30, seed=4)

        def outputs(model):
            return (model.fitted().tobytes(), model.forecast(1).tobytes(),
                    model.residuals().tobytes())

        want = [outputs(*fit_tagged_models(s, [tag], config).values())
                for s in (panel.national, *panel.states)]
        for workers in (1, 2):
            monkeypatch.setattr(parallel, "usable_cpus", lambda: workers)
            assert parallel.worker_count(len(want)) == workers
            national, states = fit_panel(panel, tag, config)
            assert [outputs(m) for m in (national, *states)] == want


TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def patch_sites():
    """``PATCH_SITES`` of perfbench's tracer, loaded from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.PATCH_SITES


class TestTracedNames:
    # perfbench's tracer swaps module globals by name: each must exist, and
    # a hybrid must reach the residual network through them

    def test_every_patch_site_exists(self):
        for module, attribute, _ in patch_sites():
            assert hasattr(importlib.import_module(module), attribute), (
                module, attribute)

    def test_hybrid_calls_each_traced_global_once(self, india, monkeypatch):
        calls = {"wbann_fit": 0, "wbann_forecast": 0}

        def counting(name):
            inner = getattr(hybrid, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)
            return counted

        for name in calls:
            monkeypatch.setattr(hybrid, name, counting(name))
        fitted = fit_tagged_models(india.prefix(120), ["holt", "holt-wbann"],
                                   FAST)
        assert calls == {"wbann_fit": 1, "wbann_forecast": 0}
        fitted["holt-wbann"].forecast(3)
        assert calls == {"wbann_fit": 1, "wbann_forecast": 1}
