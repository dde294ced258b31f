"""The wavelet-component ensemble of autoregressive feedforward networks
(lagged inputs, one logistic hidden layer, linear output): one network per
multiresolution component of a residual series.

Each network trains by full-batch gradient descent on min-max scaled
targets, repeated over ``repeats`` independently initialised restarts
drawn from one seeded generator; it predicts the average of the restarts.
Multi-step forecasts are recursive: each prediction is appended to the lag
window.

The component networks of the wavelet ensemble share one architecture, so
they are framed, trained, fitted and forecast as stacked (C, ...) arrays;
training may also take a contiguous piece of the components. Component k
still draws its weights from its own generator seeded ``seed + k``, making
the components independently reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientDataError, TrainingError, ValidationError
from .forecasters import check_horizon
from .wavelet import choose_levels, modwt_haar


# hidden units or restarts: far past any use, and low enough that no weight
# array's size overflows an index
MAX_WIDTH = 10_000
# the largest learning rate the float32 descent can apply: a larger one
# overflows when numpy casts it to float32
MAX_LEARNING_RATE = float(np.finfo(np.float32).max)


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
        if max(self.hidden, self.repeats) > MAX_WIDTH:
            raise ValidationError(
                f"hidden and repeats must be at most {MAX_WIDTH}")
        if self.epochs < 1:
            raise ValidationError(f"epochs must be >= 1, got {self.epochs}")
        # the descent applies the rate to float32 arrays
        if not 0 < self.learning_rate <= MAX_LEARNING_RATE:
            raise ValidationError(
                f"learning_rate must lie in (0, {MAX_LEARNING_RATE:.7g}], "
                f"got {self.learning_rate!r}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")


def make_lag_matrix(series, p: int):
    """Supervised framing along the last axis: row i is (x_i, ..., x_{i+p-1}),
    target x_{i+p}. A (C, n) input frames each of its C series."""
    x = np.asarray(series, dtype=float)
    n = x.shape[-1]
    if n <= p:
        raise InsufficientDataError(f"need more than {p} points, got {n}")
    inputs = np.stack([x[..., i : n - p + i] for i in range(p)], axis=-1)
    return inputs, x[..., p:]


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
    """Per-restart predictions: (R, ...) weights on (N, p) inputs give
    (R, N); stacked (C, R, ...) weights on (C, N, p) inputs give (C, R, N)."""
    x = x[..., None, :, :]  # a restart axis, broadcast
    hidden = _sigmoid(x @ weights["w1"] + weights["b1"][..., None, :])
    return (hidden @ weights["w2"][..., None])[..., 0] + weights["b2"][..., None]


def _descend(weights: dict, x: np.ndarray, y: np.ndarray, config: TdnnConfig,
             component_labels: list) -> dict:
    """Run the gradient-descent epochs over stacked nets.

    Shapes: x (C, N, p), y (C, N); weights w1 (C, R, p, H), b1 (C, R, H),
    w2 (C, R, H), b2 (C, R). Each epoch steps every (component, restart)
    pair down the gradient of its mean squared error. The first epoch with
    a non-finite gradient stops the loop: its :class:`TrainingError` names
    the first such pair in (component, restart) order, the component by
    its entry in ``component_labels``, and carries the epoch as ``epoch``.
    The readable form of
    that gradient is ``stacked_loss_and_grads`` in ``tests/oracles.py``;
    this loop does the same arithmetic reordered for speed: the
    hidden-layer bias rides as an extra input column so its gradient
    falls out of the weight matmul, buffers are preallocated, and the
    divergence check runs on the (small) gradient tensors. The epoch loop
    dominates the cost of every fit in this package.

    Every per-epoch buffer has the samples innermost. The hidden layer and
    its derivative are (C, R*H, N), viewed as (C, R, H, N), and the errors
    are (C, R, 1, N). The first layer is held as (C, R*H, p+1), negated,
    so one GEMM per component against the (C, p+1, N) inputs yields
    ``-(x @ w1)`` directly for ``exp``. The output layer and its gradient
    are batched products over (C, R). The first layer's gradient is
    ``((err * w2) * sig_grad) @ x``, but ``w2`` does not vary over the
    samples, so it is applied last: the derivative is multiplied in place
    by the errors, one broadcast over H whose contiguous axis is N (with H
    innermost, numpy runs that short axis as tiny stride-0 loops); one
    GEMM per component against the (C, N, p+1) inputs sums it over the
    samples; and only the small (C, R, H, p+1) result is scaled by ``w2``,
    before ``w2`` takes its own step. That is one full pass and one full
    buffer fewer per epoch than scaling the errors by ``w2`` first.
    ``exp``, the reciprocal and the sigmoid derivative run over contiguous
    memory. The reciprocal is ``np.divide(1.0, ...)`` and the square
    ``np.square``: both round exactly as ``np.reciprocal`` and ``h * h``
    do, and numpy's float32 loops for them are the faster ones. Every
    operand is C-contiguous: with R = 1 a reshape can keep a transposed
    first layer, and BLAS then sums in another order.

    The epoch loop runs in float32: at entry the inputs, targets and the
    four weight arrays are cast to float32 and every buffer is float32.
    The learning rate, ``2 / n`` and the added 1 stay Python floats: an
    operation between a float32 array and a Python float stays float32
    under numpy's value-based casting rules and under NEP 50 alike, with
    the scalar rounded to float32 either way (``TdnnConfig`` caps the rate
    at float32's max). That halves the bytes each elementwise pass moves,
    and numpy's float32 ``exp`` is vectorised. The targets of
    :func:`wbann_problem` are scaled into [0, 1]. Its inputs share their
    component's target range, so an input before the first target can lie
    far outside [0, 1]; one past float32's range casts to inf, and the first
    epoch's gradient is then non-finite, which stops the loop as above.
    Negation is exact in float32 too (rounding to nearest
    is symmetric in sign), so negating the first layer before or after the
    cast gives the same bits, up to the sign of a weight that is exactly 0.
    The trained weights are returned as C-contiguous float64 arrays,
    holding float32 values exactly; the forward pass, the forecasts and
    everything downstream run in float64.
    """
    f32 = np.float32
    lr = config.learning_rate
    with np.errstate(over="ignore"):  # past float32's range: inf, see above
        x = np.asarray(x, dtype=f32)
    c, n, p = x.shape
    r = weights["w1"].shape[1]
    h = weights["w1"].shape[-1]
    x_aug = np.concatenate([x, np.ones((c, n, 1), dtype=f32)], axis=2)
    x_aug_t = np.ascontiguousarray(x_aug.transpose(0, 2, 1))
    neg_w1t = -np.concatenate(
        [weights["w1"], weights["b1"][:, :, None, :]], axis=2
    ).transpose(0, 1, 3, 2).reshape(c, r * h, p + 1).astype(f32, order="C")
    w2_col = np.ascontiguousarray(weights["w2"][..., None], dtype=f32)
    w2_row = w2_col.transpose(0, 1, 3, 2)
    b2 = weights["b2"].astype(f32)[..., None, None]
    y_row = np.asarray(y, dtype=f32)[:, None, None, :]
    hidden = np.empty((c, r * h, n), dtype=f32)
    sig_grad = np.empty_like(hidden)
    hidden_4 = hidden.reshape(c, r, h, n)
    sig_grad_4 = sig_grad.reshape(c, r, h, n)
    err = np.empty((c, r, 1, n), dtype=f32)
    err_t = err.transpose(0, 1, 3, 2)
    d_w1t = np.empty_like(neg_w1t)
    d_w1t_4 = d_w1t.reshape(c, r, h, p + 1)
    d_w2 = np.empty_like(w2_col)

    def fail(epoch: int):
        bad = ~(np.isfinite(d_w1t_4).all(axis=(2, 3))
                & np.isfinite(d_w2).all(axis=(2, 3)))
        comp, restart = np.argwhere(bad)[0]
        error = TrainingError(
            f"non-finite gradient at epoch {epoch}, "
            f"component {component_labels[comp]}, restart {restart}"
        )
        error.epoch = epoch
        raise error

    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            np.matmul(neg_w1t, x_aug_t, out=hidden)
            np.exp(hidden, out=hidden)
            hidden += 1.0
            np.divide(1.0, hidden, out=hidden)
            np.matmul(w2_row, hidden_4, out=err)
            err += b2
            err -= y_row
            err *= 2.0 / n               # d(loss)/d(prediction)
            np.matmul(hidden_4, err_t, out=d_w2)
            d_b2 = err.sum(axis=-1, keepdims=True)
            np.square(hidden, out=sig_grad)
            np.subtract(hidden, sig_grad, out=sig_grad)
            sig_grad_4 *= err
            np.matmul(sig_grad, x_aug, out=d_w1t)
            d_w1t_4 *= w2_col            # w2 before its own step
            if not (np.isfinite(d_w1t).all() and np.isfinite(d_w2).all()):
                fail(epoch)
            neg_w1t += lr * d_w1t
            w2_col -= lr * d_w2
            b2 -= lr * d_b2
    w1_aug = (-neg_w1t).reshape(c, r, h, p + 1).transpose(0, 1, 3, 2)
    weights["w1"] = w1_aug[:, :, :p, :].astype(np.float64, order="C")
    weights["b1"] = w1_aug[:, :, p, :].astype(np.float64, order="C")
    weights["w2"] = w2_col[..., 0].astype(np.float64)
    weights["b2"] = b2[..., 0, 0].astype(np.float64)
    return weights


def _per_component(bound: np.ndarray, ndim: int) -> np.ndarray:
    """(C,) bounds as (C, 1, ...), to broadcast against (C, ...) values."""
    return np.reshape(bound, (-1,) + (1,) * (ndim - 1))


def _scale_with(values: np.ndarray, lo: np.ndarray,
                hi: np.ndarray) -> np.ndarray:
    """Min-max scale each component's values to its (lo, hi); a component
    with an empty range scales to 0."""
    lo, hi = _per_component(lo, values.ndim), _per_component(hi, values.ndim)
    live = np.broadcast_to(hi != lo, values.shape)
    out = np.subtract(values, lo, out=np.zeros_like(values), where=live)
    return np.divide(out, hi - lo, out=out, where=live)


def _unscale_with(z: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Invert :func:`_scale_with`: a component with an empty range is its lo."""
    lo, hi = _per_component(lo, z.ndim), _per_component(hi, z.ndim)
    return np.where(hi == lo, lo, lo + z * (hi - lo))


@dataclass
class WbannModel:
    """One network per multiresolution component of a residual series: the
    trained restarts of every component, stacked as in its problem."""

    config: TdnnConfig
    levels: int
    scales: np.ndarray = field(repr=False)  # (C, 2) target (lo, hi)
    weights: dict = field(repr=False)  # trained w1, b1, w2, b2 as (C, R, ...)
    tails: np.ndarray = field(repr=False)  # (C, lags) last values
    fitted_values: np.ndarray = field(repr=False)


@dataclass
class WbannProblem:
    """The stacked training problem of one residual series: its wavelet
    components as scaled lag inputs and targets, with their last ``lags``
    values, and every component's initial weights, component k's drawn from
    a generator seeded ``config.seed + k``. Arrays are stacked on a leading
    component axis."""

    config: TdnnConfig
    scales: np.ndarray = field(repr=False)  # (C, 2) target (lo, hi)
    tails: np.ndarray = field(repr=False)  # (C, lags) last values
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
    components = np.stack(modwt_haar(e, choose_levels(n)).components)
    inputs, targets = make_lag_matrix(components, config.lags)
    lo, hi = targets.min(axis=1), targets.max(axis=1)
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
        scales=np.stack([lo, hi], axis=1),
        tails=components[:, -config.lags :].copy(),
        inputs=_scale_with(inputs, lo, hi),
        targets=_scale_with(targets, lo, hi),
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
    the problem, with its in-sample fit: the sum of the component fits,
    NaN on the first ``lags`` positions."""
    lags = problem.config.lags
    z = _forward(trained, problem.inputs).mean(axis=1)
    fitted = np.full(lags + z.shape[1], np.nan)
    fitted[lags:] = _unscale_with(z, *problem.scales.T).sum(axis=0)
    return WbannModel(
        config=problem.config,
        levels=problem.n_components - 1,
        scales=problem.scales,
        weights=trained,
        tails=problem.tails,
        fitted_values=fitted,
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
    additive, so component forecasts add back to a series forecast).

    Every component's scaled lag window runs forward at once; each step
    appends the average of its restarts to the window."""
    check_horizon(h)
    lags = model.config.lags
    lo, hi = model.scales.T
    window = np.empty((len(lo), lags + h))
    window[:, :lags] = _scale_with(model.tails, lo, hi)
    for i in range(h):
        x = window[:, None, i : i + lags]
        # the restarts lie on a contiguous axis, which numpy sums pairwise
        # past 8 of them; the in-sample fit sums them in order
        window[:, lags + i] = _forward(model.weights, x)[..., 0].mean(axis=1)
    return _unscale_with(window[:, lags:], lo, hi).sum(axis=0)
