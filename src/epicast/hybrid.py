"""Two-phase forecasters: a base model plus a wavelet-network remodeling of
its residuals. The final fitted values and forecasts are the elementwise sum
of the two phases, so the residual model can only add information the base
model left behind.

:func:`make_forecaster` is the one parser of model tags; its docstring
gives the grammar.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import UnivariateSeries
from .errors import InsufficientDataError, ValidationError
from .forecasters import ArimaForecaster, Forecaster, HoltForecaster
from .neural import TdnnConfig, WbannModel, wbann_fit, wbann_forecast

MODEL_TAGS = ("arima", "arima-wbf", "holt", "holt-wbann")

HYBRID_BASES = {"holt-wbann": "holt", "arima-wbf": "arima"}


@dataclass
class HybridModel:
    """A fitted base model and the residual network trained on its errors."""

    base: Forecaster
    residual_model: WbannModel = field(repr=False)
    base_kind: str
    n_obs: int
    base_skip: int  # leading positions where the base has no fitted value


def _tagged(phase: str, exc: Exception) -> Exception:
    return type(exc)(f"{phase} phase: {exc}")


def hybrid_fit(
    series: UnivariateSeries,
    base_kind: str,
    config: TdnnConfig | None = None,
    base: Forecaster | None = None,
) -> HybridModel:
    """Fit the base on the full series, then the residual network on the
    base's one-step errors. A prefit ``base`` for the same series may be
    supplied to avoid refitting."""
    if len(series) < 20:
        raise InsufficientDataError(
            f"hybrid fit needs >= 20 points, got {len(series)}"
        )
    config = config or TdnnConfig()
    if base is None:
        try:
            base = make_forecaster(base_kind).fit(series)
        except Exception as exc:
            raise _tagged(f"base ({base_kind})", exc) from exc
    fitted = base.fitted()
    defined = np.isfinite(fitted)
    skip = int(np.argmax(defined)) if defined.any() else len(fitted)
    if not defined[skip:].all():
        raise ValidationError("base fitted values must be a contiguous tail")
    residuals = series.values[skip:] - fitted[skip:]
    try:
        residual_model = wbann_fit(residuals, config)
    except Exception as exc:
        raise _tagged("residual (wbann)", exc) from exc
    return HybridModel(
        base=base,
        residual_model=residual_model,
        base_kind=base_kind,
        n_obs=len(series),
        base_skip=skip,
    )


def hybrid_fitted(model: HybridModel) -> np.ndarray:
    """Base fitted plus residual fitted, aligned on the original index; NaN
    where either phase defines no value."""
    out = np.full(model.n_obs, np.nan)
    base_fitted = model.base.fitted()
    resid_fitted = model.residual_model.fitted_values
    start = model.base_skip + model.residual_model.component_models[0].config.lags
    offset = start - model.base_skip
    out[start:] = base_fitted[start:] + resid_fitted[offset:]
    return out


def hybrid_forecast(model: HybridModel, h: int) -> np.ndarray:
    """Base forecast plus residual forecast, elementwise."""
    if h == 0:
        return np.empty(0)
    return model.base.forecast(h) + wbann_forecast(model.residual_model, h)


class HybridForecaster(Forecaster):
    """Hybrid composition under the shared forecaster contract."""

    def __init__(self, tag: str, base_kind: str, config: TdnnConfig | None = None):
        self.tag = tag
        self.base_kind = base_kind
        self.config = config or TdnnConfig()

    def fit(self, train: UnivariateSeries, base: Forecaster | None = None):
        self._observed = np.asarray(train.values, dtype=float)
        self.model = hybrid_fit(train, self.base_kind, self.config, base=base)
        return self

    def fitted(self) -> np.ndarray:
        return hybrid_fitted(self.model)

    def forecast(self, h: int) -> np.ndarray:
        return hybrid_forecast(self.model, h)


def make_forecaster(tag: str, config: TdnnConfig | None = None) -> Forecaster:
    """Build an unfitted forecaster from its tag, the only parser of tags:
    one of ``MODEL_TAGS`` or ``arima(p,d,q)``, a fixed-order ARIMA with p
    and q from 0 to 5 and d from 0 to 2. Matching ignores case and
    surrounding blanks; ``monitor`` rejects duplicates. The model's ``tag``
    is the tag in lower case, a fixed order written without blanks."""
    key = tag.strip().lower()
    if key in HYBRID_BASES:
        return HybridForecaster(key, HYBRID_BASES[key], config)
    if key == "holt":
        return HoltForecaster()
    if key == "arima":
        return ArimaForecaster()
    if key.startswith("arima(") and key.endswith(")"):
        try:
            p, d, q = (int(piece) for piece in key[6:-1].split(","))
        except ValueError as exc:
            raise ValidationError(f"bad ARIMA order spec {tag!r}") from exc
        return ArimaForecaster(order=(p, d, q))
    raise ValidationError(f"unknown model tag {tag!r}")


def fit_tagged_models(
    series: UnivariateSeries, tags, config: TdnnConfig | None = None
) -> dict[str, Forecaster]:
    """Fit every tag on one series, keyed by the models' ``tag``, fitting
    each distinct base model once.

    Base fits are deterministic pure functions of the series, so a hybrid
    and its standalone base share the identical fitted object.
    """
    fitted: dict[str, Forecaster] = {}
    bases: dict[str, Forecaster] = {}

    def fit_base(model: Forecaster) -> Forecaster:
        if model.tag not in bases:
            bases[model.tag] = model.fit(series)
        return bases[model.tag]

    for tag in tags:
        model = make_forecaster(tag, config)
        if model.tag in fitted:
            continue
        if isinstance(model, HybridForecaster):
            base = fit_base(make_forecaster(model.base_kind))
            fitted[model.tag] = model.fit(series, base=base)
        else:
            fitted[model.tag] = fit_base(model)
    return fitted
