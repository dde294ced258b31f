"""Two-phase forecasters: a base model plus a wavelet-network remodeling of
its residuals. The final fitted values and forecasts are the elementwise sum
of the two phases, so the residual model can only add information the base
model left behind.

:func:`make_forecaster` is the one parser of model tags; its docstring
gives the grammar. :func:`fit_panel` fits one tag on every series of a
panel, side by side on :func:`~epicast.parallel.map_units`.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .core import HierarchicalPanel, UnivariateSeries
from .errors import EpicastError, InsufficientDataError, TrainingError, ValidationError
from .forecasters import ArimaForecaster, Forecaster, HoltForecaster
from .neural import (
    TdnnConfig,
    WbannProblem,
    wbann_fit,
    wbann_forecast,
    wbann_model,
    wbann_problem,
    wbann_train,
)
from .parallel import contiguous_shares, map_units, worker_count

MODEL_TAGS = ("arima", "arima-wbf", "holt", "holt-wbann")

HYBRID_BASES = {"holt-wbann": "holt", "arima-wbf": "arima"}


@contextmanager
def _phase(name: str):
    """Prefix the message of any epicast error raised in the block with the
    phase; other errors, whose types may take other arguments, pass."""
    try:
        yield
    except EpicastError as exc:
        raise type(exc)(f"{name} phase: {exc}") from exc


class HybridForecaster(Forecaster):
    """A base model plus a residual network trained on its one-step
    errors, under the shared forecaster contract. Once fitted it holds the
    phases as ``base``, ``base_skip`` (the leading positions where the base
    has no fitted value) and ``residual_model``."""

    def __init__(self, tag: str, base_kind: str, config: TdnnConfig | None = None):
        with _phase(f"base ({base_kind})"):
            # a bad base fails here, and an ARIMA base loads its kernel now
            make_forecaster(base_kind)
        self.tag = tag
        self.base_kind = base_kind
        self.config = config or TdnnConfig()

    def fit(self, train: UnivariateSeries, base: Forecaster | None = None):
        """Fit the base on the full series, then the residual network on
        the base's one-step errors. A prefit ``base`` for the same series
        may be supplied to avoid refitting. A fit that raises in the
        residual phase leaves the new base beside any earlier residual
        model: a model whose fit raised is not to be used."""
        residuals = self._fit_base(train, base)
        with _phase("residual (wbann)"):
            self.residual_model = wbann_fit(residuals, self.config)
        return self

    def _fit_base(self, train: UnivariateSeries,
                  base: Forecaster | None) -> np.ndarray:
        """Fit the base on ``train``, or take the prefit ``base``, and hold
        it with its leading undefined span; return its one-step errors
        past that span, the residual network's training series."""
        if len(train) < 20:
            raise InsufficientDataError(
                f"hybrid fit needs >= 20 points, got {len(train)}"
            )
        if base is None:
            with _phase(f"base ({self.base_kind})"):
                base = make_forecaster(self.base_kind).fit(train)
        fitted = base.fitted()
        defined = np.isfinite(fitted)
        skip = int(np.argmax(defined)) if defined.any() else len(fitted)
        if not defined[skip:].all():
            raise ValidationError("base fitted values must be a contiguous tail")
        self._observed = np.asarray(train.values, dtype=float)
        self.base = base
        self.base_skip = skip
        return train.values[skip:] - fitted[skip:]

    def fitted(self) -> np.ndarray:
        """Base fitted plus residual fitted, aligned on the original index;
        NaN where either phase defines no value."""
        out = np.full(len(self._observed), np.nan)
        lags = self.residual_model.config.lags
        start = self.base_skip + lags
        out[start:] = (self.base.fitted()[start:]
                       + self.residual_model.fitted_values[lags:])
        return out

    def forecast(self, h: int) -> np.ndarray:
        """Base forecast plus residual forecast, elementwise."""
        return self.base.forecast(h) + wbann_forecast(self.residual_model, h)


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


def _fit_or_error(index: int, fit, *args):
    """``fit(*args)`` for panel series ``index``, or the error it raised;
    an error on the national series (index 0) raises."""
    try:
        return fit(*args)
    except EpicastError as exc:
        if index == 0:
            raise
        return exc


def _train_residuals(problems) -> list:
    """Train the residual networks of every ``WbannProblem`` in
    ``problems`` on :func:`map_units`: their components, in (problem,
    component) order, are cut into one contiguous share per worker.

    Returns each problem's trained weights, stacked as in the problem, or
    the :class:`TrainingError` of its earliest-failing piece, the first
    such piece on a tie: the error a whole-stack descent raises.
    """
    sizes = [problem.n_components for problem in problems]
    shares = contiguous_shares(sizes, worker_count(sum(sizes)))

    def train_share(index: int) -> list:
        trained = []
        for series, start, stop in shares[index]:
            try:
                trained.append(wbann_train(problems[series], start, stop))
            except TrainingError as exc:
                trained.append(exc)
        return trained

    pieces = [[] for _ in problems]
    for share, trained in zip(shares, map_units(train_share, len(shares))):
        for (series, _, _), outcome in zip(share, trained):
            pieces[series].append(outcome)

    def merge(parts: list):
        errors = [p for p in parts if isinstance(p, TrainingError)]
        if errors:
            return min(errors, key=lambda error: error.epoch)
        return {key: np.concatenate([w[key] for w in parts])
                for key in parts[0]}

    return [merge(parts) for parts in pieces]


def fit_panel(panel: HierarchicalPanel, tag: str,
              config: TdnnConfig | None = None) -> tuple[Forecaster, list]:
    """Fit ``tag`` on the national series and every state of ``panel``.

    Returns the fitted national model, whose error raises before any
    residual network trains, and per state its fitted model or the
    :class:`EpicastError` its fit raised. Each model has the bits of
    :func:`fit_tagged_models` on its series, for any number of workers.

    A hybrid tag fits in three rounds, so that the residual networks, which
    cost the most, reach every worker in equal shares whatever the number
    of series: one unit per series on :func:`map_units` fits the base into
    the series' model and frames its residual problem (other tags finish
    there); :func:`_train_residuals` trains the networks; and this process
    completes each model with its network or raises its series'
    divergence error.
    """
    tag = make_forecaster(tag).tag  # a bad tag fails here, before any fit
    series = [panel.national, *panel.states]

    def frame(index: int):
        model = make_forecaster(tag, config)
        if not isinstance(model, HybridForecaster):
            return model.fit(series[index])
        base = make_forecaster(model.base_kind).fit(series[index])
        residuals = model._fit_base(series[index], base)
        with _phase("residual (wbann)"):
            return model, wbann_problem(residuals, model.config)

    def assemble(model: HybridForecaster, problem: WbannProblem,
                 trained: dict | TrainingError) -> HybridForecaster:
        with _phase("residual (wbann)"):
            if isinstance(trained, TrainingError):
                raise trained
            model.residual_model = wbann_model(problem, trained)
        return model

    results = map_units(lambda i: _fit_or_error(i, frame, i), len(series))
    hybrids = [i for i, r in enumerate(results) if isinstance(r, tuple)]
    trained = _train_residuals([results[i][1] for i in hybrids])
    for index, weights in zip(hybrids, trained):
        results[index] = _fit_or_error(index, assemble, *results[index],
                                       weights)
    national, *states = results
    return national, states
