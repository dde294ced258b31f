"""Autoregressive feedforward network (lagged inputs, one logistic hidden
layer, linear output) and the wavelet-component ensemble built from it.

Training is full-batch gradient descent on min-max scaled targets, repeated
over ``repeats`` independently initialised restarts drawn from one seeded
generator; the model predicts the average of the restarts. Multi-step
forecasts are recursive: each prediction is appended to the lag window.

The component networks of the wavelet ensemble share one architecture, so
their training steps are evaluated as a stacked tensor, of all components
or of a contiguous piece of them; component k still draws its weights from
its own generator seeded ``seed + k``, making the components independently
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InsufficientDataError, TrainingError, ValidationError
from .forecasters import check_horizon
from .wavelet import WaveletMra, choose_levels, modwt_haar


@dataclass(frozen=True)
class TdnnConfig:
    """Network hyperparameters; defaults follow common practice for
    autoregressive nets on daily series (hidden ~ (lags + 1) / 2)."""

    lags: int = 4
    hidden: int = 3
    repeats: int = 20
    epochs: int = 500
    learning_rate: float = 0.05
    seed: int = 42

    def __post_init__(self):
        if self.lags < 1 or self.hidden < 1 or self.repeats < 1:
            raise ValidationError("lags, hidden and repeats must be >= 1")
        if self.epochs < 1 or self.learning_rate <= 0:
            raise ValidationError("epochs must be >= 1 and learning_rate > 0")


def make_lag_matrix(series, p: int):
    """Supervised framing: row i is (x_i, ..., x_{i+p-1}), target x_{i+p}."""
    x = np.asarray(series, dtype=float)
    n = len(x)
    if n <= p:
        raise InsufficientDataError(f"need more than {p} points, got {n}")
    inputs = np.stack([x[i : n - p + i] for i in range(p)], axis=1)
    return inputs, x[p:]


def _sigmoid(a):
    with np.errstate(over="ignore"):  # exp overflows to inf: the sigmoid is 0
        return 1.0 / (1.0 + np.exp(-a))


def _init_weights(rng: np.random.Generator, r: int, p: int, h: int) -> dict:
    return {
        "w1": rng.uniform(-0.5, 0.5, size=(r, p, h)),
        "b1": rng.uniform(-0.5, 0.5, size=(r, h)),
        "w2": rng.uniform(-0.5, 0.5, size=(r, h)),
        "b2": rng.uniform(-0.5, 0.5, size=r),
    }


def _forward(weights: dict, x: np.ndarray) -> np.ndarray:
    """Per-restart predictions for (R, ...) weights, shape (R, samples)."""
    hidden = _sigmoid(x @ weights["w1"] + weights["b1"][:, None, :])
    return (hidden @ weights["w2"][:, :, None])[:, :, 0] + weights["b2"][:, None]


def _descend(weights: dict, x: np.ndarray, y: np.ndarray, config: TdnnConfig,
             component_labels=None) -> dict:
    """Run the gradient-descent epochs over stacked nets.

    Shapes: x (C, N, p), y (C, N); weights w1 (C, R, p, H), b1 (C, R, H),
    w2 (C, R, H), b2 (C, R). Each epoch steps every (component, restart)
    pair down the gradient of its mean squared error. The readable form of
    that gradient is ``stacked_loss_and_grads`` in ``tests/oracles.py``;
    this loop does the same arithmetic reordered for speed: the
    hidden-layer bias rides as an extra input column so its gradient
    falls out of the weight matmul, buffers are preallocated, and the
    divergence check runs on the (small) gradient tensors. The epoch loop
    dominates the cost of every fit in this package.

    The output-layer term ``err * w2`` is taken one hidden unit at a time,
    as H products over (C, R, N) planes. Broadcast to (C, R, N, H) in one
    call, numpy runs the short H axis innermost as tiny stride-0 loops, and
    that one call took a third of the epoch. The products are the same, so
    are the bits. The first layer is kept negated, so the matmul yields
    ``-(x @ w1)`` directly for ``exp``. Negation is exact in float64, so
    this too keeps the bits, up to the sign of a weight that is exactly 0.
    """
    lr = config.learning_rate
    c, n, p = x.shape
    r = weights["w1"].shape[1]
    h = weights["w1"].shape[-1]
    x_aug = np.concatenate([x, np.ones((c, n, 1))], axis=2)[:, None]
    x_aug_t = np.ascontiguousarray(x_aug[:, 0].transpose(0, 2, 1))[:, None]
    neg_w1 = -np.concatenate(
        [weights["w1"], weights["b1"][:, :, None, :]], axis=2
    )
    w2_col = np.ascontiguousarray(weights["w2"][..., None])
    b2 = weights["b2"].copy()
    y_col = y[:, None, :, None]
    hidden = np.empty((c, r, n, h))
    sig_grad = np.empty_like(hidden)
    d_pre = np.empty_like(hidden)
    pred = np.empty((c, r, n, 1))
    err = pred[..., 0]
    d_w1_aug = np.empty_like(neg_w1)
    d_w2 = np.empty_like(w2_col)

    def fail(epoch: int):
        with np.errstate(over="ignore", invalid="ignore"):
            losses = np.mean(pred[..., 0] ** 2, axis=-1)
        comp, restart = np.argwhere(~np.isfinite(losses))[0]
        where = f"restart {restart}"
        if component_labels is not None:
            where = f"component {component_labels[comp]}, {where}"
        raise TrainingError(f"non-finite loss at epoch {epoch}, {where}")

    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            np.matmul(x_aug, neg_w1, out=hidden)
            np.exp(hidden, out=hidden)
            hidden += 1.0
            np.reciprocal(hidden, out=hidden)
            np.matmul(hidden, w2_col, out=pred)
            pred += b2[..., None, None]
            pred -= y_col                # pred now holds the errors
            pred *= 2.0 / n              # ... and now d(loss)/d(prediction)
            np.matmul(hidden.transpose(0, 1, 3, 2), pred, out=d_w2)
            d_b2 = err.sum(axis=-1)
            np.multiply(hidden, hidden, out=sig_grad)
            np.subtract(hidden, sig_grad, out=sig_grad)
            for j in range(h):
                np.multiply(err, w2_col[:, :, j], out=d_pre[..., j])
            d_pre *= sig_grad
            np.matmul(x_aug_t, d_pre, out=d_w1_aug)
            if not (np.isfinite(d_w1_aug).all() and np.isfinite(d_w2).all()):
                fail(epoch)
            neg_w1 += lr * d_w1_aug
            w2_col -= lr * d_w2
            b2 -= lr * d_b2
    weights["w1"] = -neg_w1[:, :, :p, :]
    weights["b1"] = -neg_w1[:, :, p, :]
    weights["w2"] = w2_col[..., 0]
    weights["b2"] = b2
    return weights


def _minmax(values: np.ndarray) -> tuple[float, float]:
    return float(values.min()), float(values.max())


def _scale_with(values: np.ndarray, lo: float, hi: float) -> np.ndarray:
    if hi == lo:
        return np.zeros_like(values)
    return (values - lo) / (hi - lo)


@dataclass
class TdnnModel:
    """Trained network ensemble with the target scaling used in training."""

    input_scale: tuple[float, float]
    weights: dict = field(repr=False)
    config: TdnnConfig

    def _scale(self, v) -> np.ndarray:
        lo, hi = self.input_scale
        return _scale_with(np.asarray(v, dtype=float), lo, hi)

    def _unscale(self, z):
        lo, hi = self.input_scale
        z = np.asarray(z, dtype=float)
        if hi == lo:
            return np.full_like(z, lo)
        return lo + z * (hi - lo)

    def predict(self, inputs) -> np.ndarray:
        """Ensemble-average one-step predictions for lag rows in original
        units."""
        x = np.atleast_2d(np.asarray(inputs, dtype=float))
        if x.shape[1] != self.config.lags:
            raise ValidationError(
                f"expected {self.config.lags} lag columns, got {x.shape[1]}"
            )
        z = _forward(self.weights, self._scale(x)).mean(axis=0)
        return self._unscale(z)


def tdnn_train(series, config: TdnnConfig) -> TdnnModel:
    """Train the restart ensemble on one series."""
    x = np.asarray(series, dtype=float)
    if len(x) <= config.lags + 2:
        raise InsufficientDataError(
            f"need more than lags + 2 = {config.lags + 2} points, got {len(x)}"
        )
    inputs, targets = make_lag_matrix(x, config.lags)
    lo, hi = _minmax(targets)
    scaled_in = _scale_with(inputs, lo, hi)
    scaled_tg = _scale_with(targets, lo, hi)
    rng = np.random.default_rng(config.seed)
    weights = _init_weights(rng, config.repeats, config.lags, config.hidden)
    stacked = {key: weights[key][None] for key in weights}
    trained = _descend(stacked, scaled_in[None], scaled_tg[None], config)
    weights = {key: trained[key][0] for key in trained}
    return TdnnModel(input_scale=(lo, hi), weights=weights, config=config)


def tdnn_fitted(model: TdnnModel, series) -> np.ndarray:
    """In-sample one-step predictions aligned with the series; the first
    ``lags`` positions are NaN."""
    x = np.asarray(series, dtype=float)
    inputs, _ = make_lag_matrix(x, model.config.lags)
    out = np.full(len(x), np.nan)
    out[model.config.lags :] = model.predict(inputs)
    return out


def tdnn_forecast(model: TdnnModel, history, h: int) -> np.ndarray:
    """Recursive h-step forecast from the last ``lags`` observed values."""
    hist = np.asarray(history, dtype=float)
    p = model.config.lags
    if hist.shape != (p,):
        raise ValidationError(f"history must hold exactly {p} values")
    check_horizon(h)
    window = list(model._scale(hist))
    scaled_out = np.empty(h)
    for i in range(h):
        x = np.asarray(window[-p:], dtype=float)[None, :]
        scaled_out[i] = float(_forward(model.weights, x).mean())
        window.append(scaled_out[i])
    return np.asarray(model._unscale(scaled_out))


@dataclass
class WbannModel:
    """One network per multiresolution component of a residual series."""

    levels: int
    component_models: list = field(repr=False)
    training_series_tail: list = field(repr=False)
    mra: WaveletMra = field(repr=False)
    fitted_values: np.ndarray = field(repr=False)
    component_fitted: list = field(repr=False)

    def __post_init__(self):
        if len(self.component_models) != self.levels + 1:
            raise ValidationError(
                f"expected {self.levels + 1} component models, "
                f"got {len(self.component_models)}"
            )


@dataclass
class WbannProblem:
    """The stacked training problem of one residual series: its wavelet
    components as scaled lag inputs and targets, and every component's
    initial weights, component k's drawn from a generator seeded
    ``config.seed + k``. Arrays are stacked on a leading component axis."""

    config: TdnnConfig
    mra: WaveletMra = field(repr=False)
    scales: list = field(repr=False)  # (lo, hi) target range per component
    inputs: np.ndarray = field(repr=False)  # (C, N, lags)
    targets: np.ndarray = field(repr=False)  # (C, N)
    weights: dict = field(repr=False)  # initial w1, b1, w2, b2 as (C, R, ...)

    @property
    def n_components(self) -> int:
        return len(self.inputs)


def wbann_problem(residuals, config: TdnnConfig) -> WbannProblem:
    """Decompose the residual series and frame one network per component."""
    e = np.asarray(residuals, dtype=float)
    n = len(e)
    if n < 16:
        raise InsufficientDataError(f"need at least 16 residuals, got {n}")
    if n <= config.lags:
        raise InsufficientDataError(
            f"need more than lags = {config.lags} residuals, got {n}"
        )
    mra = modwt_haar(e, choose_levels(n))
    components = mra.components

    scales = [_minmax(component[config.lags :]) for component in components]
    stacked_in = []
    stacked_tg = []
    for component, (lo, hi) in zip(components, scales):
        inputs, targets = make_lag_matrix(component, config.lags)
        stacked_in.append(_scale_with(inputs, lo, hi))
        stacked_tg.append(_scale_with(targets, lo, hi))
    inits = [
        _init_weights(
            np.random.default_rng(config.seed + k),
            config.repeats,
            config.lags,
            config.hidden,
        )
        for k in range(len(components))
    ]
    return WbannProblem(
        config=config,
        mra=mra,
        scales=scales,
        inputs=np.stack(stacked_in),
        targets=np.stack(stacked_tg),
        weights={key: np.stack([w[key] for w in inits]) for key in inits[0]},
    )


def wbann_train(problem: WbannProblem, start: int = 0,
                stop: int | None = None) -> dict:
    """Train components ``start`` to ``stop`` (all by default) of the
    problem as one stack; returns their weights stacked as in the problem.

    Every (component, restart) pair's arithmetic is independent of the
    others, so training the components in pieces gives the bits of one
    whole stack. Divergence is reported with the component's index in the
    whole problem.
    """
    stop = problem.n_components if stop is None else stop
    weights = {key: w[start:stop].copy() for key, w in problem.weights.items()}
    return _descend(
        weights,
        problem.inputs[start:stop],
        problem.targets[start:stop],
        problem.config,
        component_labels=list(range(start, stop)),
    )


def wbann_model(problem: WbannProblem, trained: dict) -> WbannModel:
    """The ensemble from every component's trained weights, stacked as in
    the problem, with its in-sample fit."""
    config = problem.config
    components = problem.mra.components
    models = []
    tails = []
    fitted_components = []
    for k, component in enumerate(components):
        weights = {key: trained[key][k] for key in trained}
        model = TdnnModel(
            input_scale=problem.scales[k],
            weights=weights,
            config=replace(config, seed=config.seed + k),
        )
        models.append(model)
        tails.append(component[-config.lags :].copy())
        fitted_components.append(tdnn_fitted(model, component))
    fitted = np.sum(fitted_components, axis=0)
    return WbannModel(
        levels=problem.mra.levels,
        component_models=models,
        training_series_tail=tails,
        mra=problem.mra,
        fitted_values=fitted,
        component_fitted=fitted_components,
    )


def wbann_fit(residuals, config: TdnnConfig) -> WbannModel:
    """Decompose the residual series and train one network per component.

    The levels + 1 nets train as one stacked tensor; component k's weights
    come from its own generator seeded ``config.seed + k``.
    """
    problem = wbann_problem(residuals, config)
    return wbann_model(problem, wbann_train(problem))


def wbann_forecast(model: WbannModel, h: int) -> np.ndarray:
    """Sum of the per-component recursive forecasts (the decomposition is
    additive, so component forecasts add back to a series forecast)."""
    if h == 0:
        return np.empty(0)
    parts = [
        tdnn_forecast(m, tail, h)
        for m, tail in zip(model.component_models, model.training_series_tail)
    ]
    return np.sum(parts, axis=0)
