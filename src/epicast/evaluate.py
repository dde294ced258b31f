"""Accuracy metrics, rolling-window model monitoring, and shelf-life
estimation.

The monitor walks an expanding origin over the second half of a series:
at each origin T every candidate model is refit on observations 1..T-1 and
scored out of sample over the next k observations with the combined metric
``m = (rmse + mae) / 2``. The per-origin winners yield each model's
dominance share of the timeline, reported both unweighted and with
recency-decayed weights.

Shelf life regresses out-of-sample absolute percent error on time and
reports when the fitted line crosses a staleness threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .core import UnivariateSeries
from .errors import InsufficientDataError, ValidationError
from .forecasters import import_kernels
from .hybrid import fit_tagged_models, make_forecaster
from .neural import TdnnConfig
from .parallel import map_units

RECENCY_DECAY = 0.9


def _paired(actual, predicted):
    a = np.asarray(actual, dtype=float)
    p = np.asarray(predicted, dtype=float)
    if a.shape != p.shape or a.ndim != 1 or len(a) == 0:
        raise ValidationError(
            f"need equal-length nonempty vectors, got {a.shape} and {p.shape}"
        )
    return a, p


def rmse(actual, predicted) -> float:
    a, p = _paired(actual, predicted)
    return float(np.sqrt(np.mean((a - p) ** 2)))


def mae(actual, predicted) -> float:
    a, p = _paired(actual, predicted)
    return float(np.mean(np.abs(a - p)))


def ape(actual: float, predicted: float) -> float:
    """Absolute percent error of one prediction; undefined at actual == 0."""
    if actual == 0:
        raise ValidationError("absolute percent error undefined for actual == 0")
    return abs(actual - predicted) / abs(actual) * 100.0


@dataclass(frozen=True)
class WindowMetricRecord:
    origin: int
    model: str
    rmse: float
    mae: float

    @property
    def m(self) -> float:
        return (self.rmse + self.mae) / 2.0


@dataclass(frozen=True)
class MonitorReport:
    k: int
    models: tuple
    origins: tuple
    records: tuple
    psi: dict = field(repr=False)
    dominance: dict
    weighted_share: dict = field(repr=False)

    @property
    def mode_winner(self) -> str:
        return max(self.models, key=lambda tag: self.dominance[tag])

    @property
    def weighted_winner(self) -> str:
        return max(self.models, key=lambda tag: self.weighted_share[tag])


def _score_origin(
    series: UnivariateSeries,
    origin: int,
    models: list,
    k: int,
    seed: int,
    config: TdnnConfig,
) -> tuple[WindowMetricRecord, ...]:
    """Refit the models on observations 1..origin-1 with seed ``seed +
    origin`` and score their k-step forecasts against observations
    origin..origin+k-1, one record per entry of ``models``."""
    train = series.prefix(origin - 1)
    actual = series.values[origin - 1 : origin - 1 + k]
    fitted = fit_tagged_models(train, models, replace(config, seed=seed + origin))
    records = []
    for tag in models:
        forecast = fitted[tag].forecast(k)
        records.append(
            WindowMetricRecord(
                origin=origin,
                model=tag,
                rmse=rmse(actual, forecast),
                mae=mae(actual, forecast),
            )
        )
    return tuple(records)


def monitor(
    series: UnivariateSeries,
    models,
    k: int = 4,
    seed: int = 42,
    config: TdnnConfig | None = None,
) -> MonitorReport:
    """Score every model over all rolling origins.

    Origins run T = [t/2]+1 .. t-k+1 (1-indexed); each refits the models on
    observations 1..T-1 with a per-origin seed ``seed + T`` and scores the
    k-step forecast against observations T..T+k-1. Ties in the per-origin
    argmin go to the earlier model in ``models``. The origins are
    independent, so they run on :func:`epicast.parallel.map_units`. Every
    tag is checked before the first fit, and a tag given twice is an error.
    """
    models = [make_forecaster(tag).tag for tag in models]
    if not models:
        raise ValidationError("need at least one model tag")
    twice = [tag for i, tag in enumerate(models) if tag in models[:i]]
    if twice:
        raise ValidationError(f"model tag {twice[0]!r} given more than once")
    if k < 1:
        raise ValidationError("window width k must be >= 1")
    t = len(series)
    if t < 2 * k + 4:
        raise InsufficientDataError(
            f"monitoring needs at least 2k + 4 = {2 * k + 4} observations, got {t}"
        )
    config = config or TdnnConfig(seed=seed)
    half = t // 2
    origins = tuple(range(half + 1, t - k + 2))
    import_kernels(models)
    scored = map_units(
        lambda i: _score_origin(series, origins[i], models, k, seed, config),
        len(origins),
    )
    records = []
    psi = {}
    wins = {tag: 0 for tag in models}
    weighted = {tag: 0.0 for tag in models}
    t_max = origins[-1]
    for origin, origin_records in zip(origins, scored):
        best_tag = None
        best_m = math.inf
        for record in origin_records:
            records.append(record)
            if record.m < best_m:
                best_tag, best_m = record.model, record.m
        psi[origin] = best_tag
        wins[best_tag] += 1
        weighted[best_tag] += RECENCY_DECAY ** (t_max - origin)
    n_origins = len(origins)
    dominance = {tag: 100.0 * wins[tag] / n_origins for tag in models}
    total_weight = sum(weighted.values())
    weighted_share = {
        tag: 100.0 * weighted[tag] / total_weight for tag in models
    }
    return MonitorReport(
        k=k,
        models=tuple(models),
        origins=origins,
        records=tuple(records),
        psi=psi,
        dominance=dominance,
        weighted_share=weighted_share,
    )


@dataclass(frozen=True)
class ShelfLifeResult:
    slope: float
    intercept: float
    crossing_t: float
    shelf_days: float
    unbounded: bool
    threshold_pct: float
    train_len: int
    ape_series: tuple  # (t, ape) pairs, t 1-indexed
    fitted_line: tuple

    @property
    def t_values(self) -> np.ndarray:
        return np.asarray([t for t, _ in self.ape_series], dtype=float)

    @property
    def ape_values(self) -> np.ndarray:
        return np.asarray([a for _, a in self.ape_series], dtype=float)


def _check_threshold(threshold_pct: float) -> None:
    if not (math.isfinite(threshold_pct) and threshold_pct > 0):
        raise ValidationError(
            f"APE threshold must be a finite percentage > 0, got {threshold_pct!r}"
        )


def shelf_life_from_apes(
    t_values, apes, train_len: int, threshold_pct: float = 5.0
) -> ShelfLifeResult:
    """Regress APE on t and invert the fitted line at the threshold."""
    _check_threshold(threshold_pct)
    t_arr = np.asarray(t_values, dtype=float)
    ape_arr = np.asarray(apes, dtype=float)
    if len(t_arr) != len(ape_arr) or len(t_arr) < 3:
        raise ValidationError(
            "shelf-life regression needs at least 3 matched (t, APE) points"
        )
    slope, intercept = np.polyfit(t_arr, ape_arr, 1)
    slope, intercept = float(slope), float(intercept)
    if slope <= 0:
        crossing_t = math.inf
        shelf_days = math.inf
        unbounded = True
    else:
        crossing_t = (threshold_pct - intercept) / slope
        shelf_days = crossing_t - train_len
        unbounded = False
    line = tuple(intercept + slope * t_arr)
    return ShelfLifeResult(
        slope=slope,
        intercept=intercept,
        crossing_t=crossing_t,
        shelf_days=shelf_days,
        unbounded=unbounded,
        threshold_pct=threshold_pct,
        train_len=train_len,
        ape_series=tuple(zip((int(t) for t in t_arr), ape_arr)),
        fitted_line=line,
    )


def shelf_life(
    series: UnivariateSeries,
    train_len: int,
    model: str = "holt-wbann",
    threshold_pct: float = 5.0,
    seed: int = 42,
    config: TdnnConfig | None = None,
) -> ShelfLifeResult:
    """Train on the first ``train_len`` points, score APE over the rest, and
    report where the APE trend line crosses ``threshold_pct``."""
    _check_threshold(threshold_pct)  # before the fit, which may take seconds
    t = len(series)
    if not 0 < train_len < t:
        raise ValidationError(f"train_len must lie in (0, {t})")
    horizon = t - train_len
    config = config or TdnnConfig(seed=seed)
    (fitted,) = fit_tagged_models(series.prefix(train_len), [model], config).values()
    forecast = fitted.forecast(horizon)
    actual = series.values[train_len:]
    zeros = np.flatnonzero(actual == 0)
    if len(zeros):
        bad = series.dates[train_len + int(zeros[0])]
        raise ValidationError(
            f"APE undefined: zero observation on {bad.isoformat()}"
        )
    apes = np.abs(actual - forecast) / np.abs(actual) * 100.0
    t_values = np.arange(train_len + 1, t + 1)
    return shelf_life_from_apes(t_values, apes, train_len, threshold_pct)
