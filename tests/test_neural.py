import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from epicast.errors import InsufficientDataError, TrainingError, ValidationError
from epicast.neural import (
    TdnnConfig,
    WbannModel,
    _descend,
    _forward,
    _init_weights,
    _scale_with,
    _sigmoid,
    make_lag_matrix,
    wbann_fit,
    wbann_forecast,
    wbann_model,
    wbann_problem,
    wbann_train,
)

from oracles import loss_and_grads, stacked_loss_and_grads, wbann_reference

FAST = TdnnConfig(repeats=5, epochs=120, seed=9)


def _reference_descend(weights, x, y, config, component_labels):
    """The epoch loop of ``_descend`` in its (C, R, H, N) form, with an
    un-negated first layer: the readable oracle the optimised loop must
    match bit for bit. The first layer's gradient is the GEMM of
    ``sig_grad * err`` against the inputs, then scaled by ``w2`` before
    ``w2`` takes its own step. Each matrix product has the operand shapes
    of ``_descend``'s, and like ``_descend`` it casts to float32 at entry
    and returns float64 weights."""
    f32 = np.float32
    lr = config.learning_rate
    x = np.asarray(x, dtype=f32)
    c, n, p = x.shape
    r = weights["w1"].shape[1]
    h = weights["w1"].shape[-1]
    x_aug = np.concatenate([x, np.ones((c, n, 1), dtype=f32)], axis=2)
    x_aug_t = x_aug.transpose(0, 2, 1).copy()
    # w1t[c, r, j] holds the inputs' weights, bias last, of hidden unit j
    w1t = np.concatenate(
        [weights["w1"], weights["b1"][:, :, None, :]], axis=2
    ).transpose(0, 1, 3, 2).astype(f32, order="C")
    w2 = weights["w2"].astype(f32)[..., None]     # (C, R, H, 1)
    b2 = weights["b2"].astype(f32)[..., None, None]
    y = np.asarray(y, dtype=f32)[:, None, None, :]
    hidden = np.empty((c, r, h, n), dtype=f32)
    sig_grad = np.empty_like(hidden)
    err = np.empty((c, r, 1, n), dtype=f32)
    d_w1t = np.empty_like(w1t)
    d_w2 = np.empty_like(w2)

    def flat(a):
        """(C, R, H, ...) as (C, R*H, ...): one GEMM per component."""
        return a.reshape(c, r * h, a.shape[-1])

    def fail(epoch):
        bad = ~(np.isfinite(d_w1t).all(axis=(2, 3))
                & np.isfinite(d_w2).all(axis=(2, 3)))
        comp, restart = np.argwhere(bad)[0]
        raise TrainingError(
            f"non-finite gradient at epoch {epoch}, "
            f"component {component_labels[comp]}, restart {restart}"
        )

    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            np.matmul(flat(w1t), x_aug_t, out=flat(hidden))
            np.negative(hidden, out=hidden)
            np.exp(hidden, out=hidden)
            hidden += 1.0
            np.reciprocal(hidden, out=hidden)
            np.matmul(w2.transpose(0, 1, 3, 2), hidden, out=err)
            err += b2
            err -= y
            err *= 2.0 / n
            np.matmul(hidden, err.transpose(0, 1, 3, 2), out=d_w2)
            d_b2 = err.sum(axis=-1, keepdims=True)
            np.multiply(hidden, hidden, out=sig_grad)
            np.subtract(hidden, sig_grad, out=sig_grad)
            sig_grad *= err
            np.matmul(flat(sig_grad), x_aug, out=flat(d_w1t))
            d_w1t *= w2
            if not (np.isfinite(d_w1t).all() and np.isfinite(d_w2).all()):
                fail(epoch)
            w1t -= lr * d_w1t
            w2 -= lr * d_w2
            b2 -= lr * d_b2
    w1_aug = w1t.transpose(0, 1, 3, 2)
    weights["w1"] = w1_aug[:, :, :p, :].astype(np.float64, order="C")
    weights["b1"] = w1_aug[:, :, p, :].astype(np.float64, order="C")
    weights["w2"] = w2[..., 0].astype(np.float64)
    weights["b2"] = b2[..., 0, 0].astype(np.float64)
    return weights


def _descend_outcome(descend, weights, x, y, config, labels):
    """Trained weights as bytes, or the TrainingError text on divergence."""
    try:
        trained = descend({k: v.copy() for k, v in weights.items()}, x, y,
                          config, component_labels=labels)
    except TrainingError as exc:
        return str(exc)
    return {key: (trained[key].shape, trained[key].tobytes())
            for key in ("w1", "b1", "w2", "b2")}


class TestLagMatrix:
    def test_definition(self):
        inputs, targets = make_lag_matrix([1.0, 2.0, 3.0, 4.0], 2)
        assert np.array_equal(inputs, [[1.0, 2.0], [2.0, 3.0]])
        assert np.array_equal(targets, [3.0, 4.0])

    def test_single_row_boundary(self):
        inputs, targets = make_lag_matrix(np.arange(10.0), 9)
        assert inputs.shape == (1, 9)
        assert targets.shape == (1,)

    def test_row_count(self):
        inputs, _ = make_lag_matrix(np.arange(272.0), 4)
        assert inputs.shape == (268, 4)

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            make_lag_matrix([1.0, 2.0], 2)

    def test_stacked_rows_frame_as_one_series_each(self):
        series = np.random.default_rng(4).normal(size=(3, 11))
        inputs, targets = make_lag_matrix(series, 4)
        assert inputs.shape == (3, 7, 4) and targets.shape == (3, 7)
        for row, row_inputs, row_targets in zip(series, inputs, targets):
            one_inputs, one_targets = make_lag_matrix(row, 4)
            assert row_inputs.tobytes() == one_inputs.tobytes()
            assert row_targets.tobytes() == one_targets.tobytes()


def finite_difference_grads(weights, x, y, eps=1e-5):
    fd = {}
    for key in weights:
        flat = weights[key].ravel()
        grad = np.empty(flat.size)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up, _ = loss_and_grads(weights, x, y)
            flat[i] = orig - eps
            down, _ = loss_and_grads(weights, x, y)
            flat[i] = orig
            grad[i] = (up[0] - down[0]) / (2 * eps)
        fd[key] = grad.reshape(weights[key].shape)
    return fd


def test_sigmoid_saturates_without_warning():
    a = np.array([-1000.0, -710.0, 0.0, 710.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _sigmoid(a)
    assert got.tobytes() == np.array([0.0, 0.0, 0.5, 1.0]).tobytes()


class TestGradients:
    def test_backprop_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        worst = 0.0
        for trial in range(5):
            x = rng.normal(size=(20, 3))
            y = rng.normal(size=20)
            weights = _init_weights(np.random.default_rng(trial), 1, 3, 2)
            _, grads = loss_and_grads(weights, x, y)
            fd = finite_difference_grads(weights, x, y)
            for key in weights:
                denom = np.maximum(np.abs(fd[key]), 1e-8)
                worst = max(worst, float(np.max(np.abs(grads[key] - fd[key]) / denom)))
        assert worst < 1e-4

    def test_descend_matches_reference_steps(self):
        x = np.random.default_rng(0).normal(size=(2, 30, 3))
        y = np.random.default_rng(1).normal(size=(2, 30))
        inits = [_init_weights(np.random.default_rng(k), 4, 3, 2) for k in range(2)]
        ref = {k: np.stack([w[k] for w in inits]) for k in inits[0]}
        opt = {k: v.copy() for k, v in ref.items()}
        cfg = TdnnConfig(lags=3, hidden=2, repeats=4, epochs=5, seed=0)
        for _ in range(cfg.epochs):
            _, grads = stacked_loss_and_grads(ref, x, y)
            for k in ref:
                ref[k] = ref[k] - cfg.learning_rate * grads[k]
        opt = _descend(opt, x, y, cfg, component_labels=[0, 1])
        # the reference steps in float64, the descent in float32
        for k in ref:
            assert np.allclose(ref[k], opt[k], rtol=1e-5, atol=1e-6)


class TestDescendOracle:
    @settings(max_examples=120, deadline=None)
    @given(
        c=st.integers(1, 4),
        r=st.integers(1, 5),
        n=st.integers(1, 40),
        p=st.integers(1, 5),
        h=st.integers(1, 5),
        epochs=st.integers(1, 20),
        log_rate=st.floats(-3.0, 13.0),
        data_seed=st.integers(0, 2**32 - 1),
        first_label=st.integers(0, 3),
    )
    # one restart: a reshape can then keep the first layer transposed
    @example(c=1, r=1, n=1, p=2, h=3, epochs=2, log_rate=0.0, data_seed=1,
             first_label=0)
    # one hidden unit: w2 scales a (C, R, 1, p+1) view of the gradient
    @example(c=3, r=4, n=25, p=3, h=1, epochs=6, log_rate=-1.3, data_seed=2,
             first_label=0)
    # the default width, 20 restarts of 3 hidden units, on 60 samples
    @example(c=5, r=20, n=60, p=4, h=3, epochs=8, log_rate=-1.3,
             data_seed=3, first_label=1)
    def test_bit_identical_to_reference(self, c, r, n, p, h, epochs,
                                        log_rate, data_seed, first_label):
        rng = np.random.default_rng(data_seed)
        scale = 10.0 ** rng.uniform(-1.0, 3.0)
        x = scale * rng.normal(size=(c, n, p))
        y = scale * rng.normal(size=(c, n))
        inits = [_init_weights(np.random.default_rng(data_seed + k), r, p, h)
                 for k in range(c)]
        weights = {key: np.stack([w[key] for w in inits]) for key in inits[0]}
        config = TdnnConfig(lags=p, hidden=h, repeats=r, epochs=epochs,
                            learning_rate=10.0 ** log_rate)
        labels = list(range(first_label, first_label + c))
        want = _descend_outcome(_reference_descend, weights, x, y, config,
                                labels)
        event("diverged" if isinstance(want, str) else "trained")
        got = _descend_outcome(_descend, weights, x, y, config, labels)
        assert got == want

    def test_diverging_rate_same_error_text(self):
        rng = np.random.default_rng(5)
        x = 1e3 * rng.normal(size=(3, 30, 4))
        y = 1e3 * rng.normal(size=(3, 30))
        inits = [_init_weights(np.random.default_rng(k), 4, 4, 3)
                 for k in range(3)]
        weights = {key: np.stack([w[key] for w in inits]) for key in inits[0]}
        config = TdnnConfig(repeats=4, epochs=20, learning_rate=1e12)
        want = _descend_outcome(_reference_descend, weights, x, y, config,
                                [0, 1, 2])
        assert want.startswith("non-finite gradient at epoch ")
        assert _descend_outcome(_descend, weights, x, y, config,
                                [0, 1, 2]) == want

    def test_gradient_overflow_before_any_loss_names_the_pair(self):
        # at epoch 4 a float32 gradient overflows while every loss is finite
        rng = np.random.default_rng(10)
        x = 800.0 * rng.normal(size=(3, 35, 2))
        y = 800.0 * rng.normal(size=(3, 35))
        inits = [_init_weights(np.random.default_rng(10 + k), 5, 2, 5)
                 for k in range(3)]
        weights = {key: np.stack([w[key] for w in inits]) for key in inits[0]}
        config = TdnnConfig(lags=2, hidden=5, repeats=5, epochs=20,
                            learning_rate=4e3)
        want = "non-finite gradient at epoch 4, component 2, restart 1"
        for descend in (_reference_descend, _descend):
            assert _descend_outcome(descend, weights, x, y, config,
                                    [0, 1, 2]) == want


def component_weights(model: WbannModel, k: int) -> dict:
    """Component ``k``'s restarts, as (R, ...) views of the stacked weights."""
    return {key: w[k] for key, w in model.weights.items()}


def component_model(model: WbannModel, k: int) -> WbannModel:
    """Component ``k`` alone, as a one-component model."""
    return replace(
        model,
        scales=model.scales[k : k + 1],
        weights={key: w[k : k + 1] for key, w in model.weights.items()},
        tails=model.tails[k : k + 1],
    )


def component_forecasts(model: WbannModel, h: int) -> list:
    return [wbann_forecast(component_model(model, k), h)
            for k in range(model.levels + 1)]


def manual_forecast(model: WbannModel, h: int) -> np.ndarray:
    """The recursive forecast unrolled by hand: each component's scaled
    window through the forward pass, the average of its restarts appended,
    then unscaled and summed over components."""
    total = np.zeros(h)
    p = model.config.lags
    for k, ((lo, hi), tail) in enumerate(zip(model.scales, model.tails)):
        window = list(np.zeros(p) if hi == lo else (tail - lo) / (hi - lo))
        for i in range(h):
            x = np.asarray(window[-p:])[None, :]
            z = _forward(component_weights(model, k), x).mean()
            window.append(z)
            total[i] += lo if hi == lo else lo + z * (hi - lo)
    return total


class TestTdnnTrain:
    """Training of the component networks through ``wbann_fit``."""

    def test_zero_series_predicts_zero(self):
        model = wbann_fit(np.zeros(30), FAST)
        assert np.nanmax(np.abs(model.fitted_values)) < 1e-6
        assert np.max(np.abs(wbann_forecast(model, 5))) < 1e-6

    def test_same_seed_bit_identical(self):
        rng = np.random.default_rng(2)
        series = 50 + np.cumsum(rng.normal(0, 3, size=40))
        a = wbann_fit(series, FAST)
        b = wbann_fit(series, FAST)
        for key in a.weights:
            assert a.weights[key].tobytes() == b.weights[key].tobytes()

    def test_float32_weights_float64_outputs(self):
        # the descent trains in float32 and hands back float64 arrays that
        # hold its float32 values exactly; the model runs in float64
        rng = np.random.default_rng(2)
        series = 50 + np.cumsum(rng.normal(0, 3, size=40))
        problem = wbann_problem(series, FAST)
        trained = wbann_train(problem)
        for key, w in trained.items():
            assert w.dtype == np.float64, key
            # the forward pass's bits depend on the memory order
            assert w.flags.c_contiguous, key
            assert np.array_equal(w.astype(np.float32).astype(np.float64), w)
        model = wbann_model(problem, trained)
        assert model.fitted_values.dtype == np.float64
        assert wbann_forecast(model, 3).dtype == np.float64

    def test_different_seed_differs(self):
        rng = np.random.default_rng(2)
        series = 50 + np.cumsum(rng.normal(0, 3, size=40))
        a = wbann_fit(series, FAST)
        b = wbann_fit(series, TdnnConfig(repeats=5, epochs=120, seed=10))
        for k in range(a.levels + 1):
            assert not np.array_equal(a.weights["w1"][k], b.weights["w1"][k])

    def test_diverging_rate_reports_epoch_and_restart(self):
        rng = np.random.default_rng(4)
        series = 1e3 * rng.normal(size=60)
        bad = TdnnConfig(repeats=2, epochs=400, learning_rate=1e12, seed=1)
        with pytest.raises(TrainingError,
                           match=r"epoch \d+, component \d+, restart \d+"):
            wbann_fit(series, bad)

    def test_scaling_equivariance(self):
        rng = np.random.default_rng(9)
        base = 50 + np.cumsum(rng.normal(0, 3, size=60))
        f_small = wbann_forecast(wbann_fit(base, FAST), 5)
        f_large = wbann_forecast(wbann_fit(1000.0 * base, FAST), 5)
        assert np.max(np.abs(f_large / f_small / 1000.0 - 1.0)) < 0.01


class TestTdnnForecast:
    """The recursive forecast of the component networks."""

    def test_constant_fixed_point(self):
        model = wbann_fit(np.full(30, 5.0), FAST)
        assert np.allclose(wbann_forecast(model, 6), 5.0, atol=0)

    def test_one_step_equals_direct_prediction(self):
        rng = np.random.default_rng(3)
        model = wbann_fit(20 + np.cumsum(rng.normal(0, 2, size=50)), FAST)
        direct = 0.0
        for k, ((lo, hi), tail) in enumerate(zip(model.scales, model.tails)):
            x = _scale_with(tail, lo, hi)[None, :]
            z = _forward(component_weights(model, k), x).mean(axis=0)[0]
            direct += lo + z * (hi - lo)
        assert wbann_forecast(model, 1)[0] == pytest.approx(direct, abs=1e-12)

    def test_three_steps_equal_manual_unrolling(self):
        rng = np.random.default_rng(3)
        model = wbann_fit(20 + np.cumsum(rng.normal(0, 2, size=50)), FAST)
        assert np.allclose(wbann_forecast(model, 3), manual_forecast(model, 3),
                           atol=1e-9)

    def test_empty_horizon(self):
        model = wbann_fit(np.arange(30.0), FAST)
        assert wbann_forecast(model, 0).size == 0
        assert wbann_forecast(component_model(model, 0), 0).size == 0
        with pytest.raises(ValidationError):
            wbann_forecast(model, -1)


class TestWbannOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        residuals=st.integers(16, 70).flatmap(lambda n: arrays(
            float, n, elements=st.floats(-1e4, 1e4, allow_subnormal=False))),
        lags=st.integers(1, 6),
        hidden=st.integers(1, 4),
        repeats=st.integers(1, 33),  # numpy averages > 8 pairwise
        epochs=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        h=st.integers(0, 9),
    )
    # the default restart count
    @example(residuals=100.0 * np.sin(np.arange(40.0)), lags=4, hidden=3,
             repeats=20, epochs=5, seed=42, h=7)
    # a constant series: every detail component has an empty range
    @example(residuals=np.full(30, 5.0), lags=3, hidden=2, repeats=20,
             epochs=3, seed=1, h=4)
    def test_bit_identical_to_reference(self, residuals, lags, hidden,
                                        repeats, epochs, seed, h):
        config = TdnnConfig(lags=lags, hidden=hidden, repeats=repeats,
                            epochs=epochs, seed=seed)
        try:
            model = wbann_fit(residuals, config)
        except TrainingError:
            event("diverged")
            return
        fitted, forecast = wbann_reference(residuals, model.weights, lags, h)
        assert model.fitted_values.tobytes() == fitted.tobytes()
        assert wbann_forecast(model, h).tobytes() == forecast.tobytes()


class TestWbann:
    def test_lags_must_leave_a_training_pair(self):
        config = TdnnConfig(lags=20, repeats=1, epochs=2, seed=9)
        residuals = np.random.default_rng(3).normal(size=20)
        with pytest.raises(InsufficientDataError, match="lags = 20"):
            wbann_fit(residuals, config)
        model = wbann_fit(residuals, TdnnConfig(lags=19, repeats=1, epochs=2))
        assert np.isfinite(model.fitted_values[19:]).all()

    def test_zero_residuals_forecast_zero(self):
        model = wbann_fit(np.zeros(40), FAST)
        assert np.max(np.abs(wbann_forecast(model, 5))) < 1e-9
        assert np.nanmax(np.abs(model.fitted_values)) < 1e-9

    def test_component_count(self):
        rng = np.random.default_rng(6)
        model = wbann_fit(rng.normal(size=64), FAST)
        c = model.levels + 1
        assert [w.shape[:2] for w in model.weights.values()] == [(c, 5)] * 4
        assert len(model.scales) == c
        assert model.tails.shape == (c, model.config.lags)

    def test_input_past_float32_range_diverges_at_epoch_0(self):
        # the first detail's targets span ~1e-46, so its first inputs scale
        # to ~1e45: inf in float32, reported by the divergence rule without
        # an overflow warning from the cast
        residuals = np.zeros(16)
        residuals[:2] = 7.53257095e-46, 1.0
        config = TdnnConfig(lags=3, hidden=1, repeats=1, epochs=1, seed=0)
        assert np.abs(wbann_problem(residuals, config).inputs[0]).max() > 1e45
        with pytest.raises(TrainingError, match="component 0, restart 0") as e:
            wbann_fit(residuals, config)
        assert e.value.epoch == 0

    def test_slow_sinusoid_dominated_by_smooth(self):
        t = np.arange(256)
        model = wbann_fit(10.0 * np.sin(2 * np.pi * t / 256.0), FAST)
        parts = [np.mean(np.abs(f)) for f in component_forecasts(model, 10)]
        assert parts[-1] / sum(parts) >= 0.9

    def test_single_nonzero_component_additivity(self):
        # constant residuals: every detail is zero, only the smooth net acts
        model = wbann_fit(np.full(40, 3.0), FAST)
        smooth_only = component_forecasts(model, 4)[-1]
        assert np.array_equal(wbann_forecast(model, 4), smooth_only)

    def test_two_component_toy_sum_by_hand(self):
        # hand-set weights: each net is logistic(hidden) -> linear(output);
        # with w1 = 0 the hidden activation is sigmoid(b1) regardless of input
        cfg = TdnnConfig(lags=2, hidden=1, repeats=1, epochs=1, seed=0)
        model = WbannModel(
            config=cfg,
            levels=1,
            scales=np.array([[0.0, 1.0], [0.0, 1.0]]),
            weights={
                "w1": np.zeros((2, 1, 2, 1)),
                "b1": np.zeros((2, 1, 1)),
                "w2": np.zeros((2, 1, 1)),
                "b2": np.array([[0.25], [-0.75]]),
            },
            tails=np.zeros((2, 2)),
            fitted_values=np.empty(0),
        )
        # every step of each net predicts exactly its output bias
        assert np.allclose(wbann_forecast(model, 3), 0.25 - 0.75, atol=1e-15)

    def test_fixed_seed_reproducible(self):
        rng = np.random.default_rng(8)
        resid = rng.normal(0, 4, size=50)
        a = wbann_forecast(wbann_fit(resid, FAST), 7)
        b = wbann_forecast(wbann_fit(resid, FAST), 7)
        assert np.array_equal(a, b)

    def test_fitted_is_sum_of_component_fits(self):
        rng = np.random.default_rng(8)
        problem = wbann_problem(rng.normal(0, 4, size=50), FAST)
        model = wbann_model(problem, wbann_train(problem))
        lags = model.config.lags
        fits = []
        for k, (lo, hi) in enumerate(model.scales):
            z = _forward(component_weights(model, k), problem.inputs[k])
            fits.append(lo + z.mean(axis=0) * (hi - lo))
        assert np.array_equal(model.fitted_values[lags:], np.sum(fits, axis=0))
        assert np.all(np.isnan(model.fitted_values[:lags]))

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            wbann_fit(np.arange(10.0), FAST)

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            TdnnConfig(lags=0)
        with pytest.raises(ValidationError):
            TdnnConfig(learning_rate=0.0)
        with pytest.raises(ValidationError, match="epochs"):
            TdnnConfig(epochs=0)

    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), 1e39])
    def test_learning_rate_beyond_float32_refused(self, rate):
        # the descent casts the rate to float32: these would train on NaN
        # or overflow in the cast
        with pytest.raises(ValidationError, match="learning_rate"):
            TdnnConfig(learning_rate=rate)
        with pytest.raises(ValidationError, match="seed"):
            TdnnConfig(seed=-1)
