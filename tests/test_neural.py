import warnings

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from epicast.errors import InsufficientDataError, TrainingError, ValidationError
from epicast.neural import (
    TdnnConfig,
    TdnnModel,
    WbannModel,
    _descend,
    _init_weights,
    _sigmoid,
    make_lag_matrix,
    tdnn_fitted,
    tdnn_forecast,
    tdnn_train,
    wbann_fit,
    wbann_forecast,
)

from oracles import loss_and_grads, stacked_loss_and_grads

FAST = TdnnConfig(repeats=5, epochs=120, seed=9)


def _reference_descend(weights, x, y, config, component_labels=None):
    """The epoch loop that ``_descend`` replaced, with its broadcast
    ``err * w2`` product and un-negated first layer: the readable oracle
    the optimised loop must match bit for bit."""
    lr = config.learning_rate
    c, n, p = x.shape
    r = weights["w1"].shape[1]
    h = weights["w1"].shape[-1]
    x_aug = np.concatenate([x, np.ones((c, n, 1))], axis=2)[:, None]
    x_aug_t = np.ascontiguousarray(x_aug[:, 0].transpose(0, 2, 1))[:, None]
    w1_aug = np.concatenate(
        [weights["w1"], weights["b1"][:, :, None, :]], axis=2
    )
    w2_col = np.ascontiguousarray(weights["w2"][..., None])
    b2 = weights["b2"].copy()
    y_col = y[:, None, :, None]
    hidden = np.empty((c, r, n, h))
    sig_grad = np.empty_like(hidden)
    d_pre = np.empty_like(hidden)
    pred = np.empty((c, r, n, 1))
    d_w1_aug = np.empty_like(w1_aug)
    d_w2 = np.empty_like(w2_col)

    def fail(epoch):
        with np.errstate(over="ignore", invalid="ignore"):
            losses = np.mean(pred[..., 0] ** 2, axis=-1)
        comp, restart = np.argwhere(~np.isfinite(losses))[0]
        where = f"restart {restart}"
        if component_labels is not None:
            where = f"component {component_labels[comp]}, {where}"
        raise TrainingError(f"non-finite loss at epoch {epoch}, {where}")

    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            np.matmul(x_aug, w1_aug, out=hidden)
            np.negative(hidden, out=hidden)
            np.exp(hidden, out=hidden)
            hidden += 1.0
            np.reciprocal(hidden, out=hidden)
            np.matmul(hidden, w2_col, out=pred)
            pred += b2[..., None, None]
            pred -= y_col
            pred *= 2.0 / n
            np.matmul(hidden.transpose(0, 1, 3, 2), pred, out=d_w2)
            d_b2 = pred[..., 0].sum(axis=-1)
            np.multiply(hidden, hidden, out=sig_grad)
            np.subtract(hidden, sig_grad, out=sig_grad)
            np.multiply(pred, w2_col.transpose(0, 1, 3, 2), out=d_pre)
            d_pre *= sig_grad
            np.matmul(x_aug_t, d_pre, out=d_w1_aug)
            if not (np.isfinite(d_w1_aug).all() and np.isfinite(d_w2).all()):
                fail(epoch)
            w1_aug -= lr * d_w1_aug
            w2_col -= lr * d_w2
            b2 -= lr * d_b2
    weights["w1"] = np.ascontiguousarray(w1_aug[:, :, :p, :])
    weights["b1"] = np.ascontiguousarray(w1_aug[:, :, p, :])
    weights["w2"] = w2_col[..., 0]
    weights["b2"] = b2
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
        opt = _descend(opt, x, y, cfg)
        for k in ref:
            assert np.allclose(ref[k], opt[k], rtol=1e-10, atol=1e-12)


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
        labelled=st.booleans(),
    )
    def test_bit_identical_to_reference(self, c, r, n, p, h, epochs,
                                        log_rate, data_seed, labelled):
        rng = np.random.default_rng(data_seed)
        scale = 10.0 ** rng.uniform(-1.0, 3.0)
        x = scale * rng.normal(size=(c, n, p))
        y = scale * rng.normal(size=(c, n))
        inits = [_init_weights(np.random.default_rng(data_seed + k), r, p, h)
                 for k in range(c)]
        weights = {key: np.stack([w[key] for w in inits]) for key in inits[0]}
        config = TdnnConfig(lags=p, hidden=h, repeats=r, epochs=epochs,
                            learning_rate=10.0 ** log_rate)
        labels = list(range(c)) if labelled else None
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
        assert want.startswith("non-finite loss at epoch ")
        assert _descend_outcome(_descend, weights, x, y, config,
                                [0, 1, 2]) == want


class TestTdnnTrain:
    def test_zero_series_predicts_zero(self):
        model = tdnn_train(np.zeros(30), FAST)
        fitted = tdnn_fitted(model, np.zeros(30))
        assert np.nanmax(np.abs(fitted)) < 1e-6
        assert np.max(np.abs(tdnn_forecast(model, np.zeros(4), 5))) < 1e-6

    def test_same_seed_bit_identical(self):
        rng = np.random.default_rng(2)
        series = 50 + np.cumsum(rng.normal(0, 3, size=40))
        a = tdnn_train(series, FAST)
        b = tdnn_train(series, FAST)
        for key in a.weights:
            assert np.array_equal(a.weights[key], b.weights[key])

    def test_different_seed_differs(self):
        rng = np.random.default_rng(2)
        series = 50 + np.cumsum(rng.normal(0, 3, size=40))
        a = tdnn_train(series, FAST)
        b = tdnn_train(series, TdnnConfig(repeats=5, epochs=120, seed=10))
        assert not np.array_equal(a.weights["w1"], b.weights["w1"])

    def test_diverging_rate_reports_epoch_and_restart(self):
        rng = np.random.default_rng(4)
        series = 1e3 * rng.normal(size=60)
        bad = TdnnConfig(repeats=2, epochs=400, learning_rate=1e12, seed=1)
        with pytest.raises(TrainingError, match=r"epoch \d+, restart \d+"):
            tdnn_train(series, bad)

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            tdnn_train(np.arange(6.0), FAST)

    def test_scaling_equivariance(self):
        rng = np.random.default_rng(9)
        base = 50 + np.cumsum(rng.normal(0, 3, size=60))
        small = tdnn_train(base, FAST)
        large = tdnn_train(1000.0 * base, FAST)
        f_small = tdnn_forecast(small, base[-4:], 5)
        f_large = tdnn_forecast(large, 1000.0 * base[-4:], 5)
        assert np.max(np.abs(f_large / f_small / 1000.0 - 1.0)) < 0.01


class TestTdnnForecast:
    def test_constant_fixed_point(self):
        model = tdnn_train(np.full(30, 5.0), FAST)
        assert np.allclose(tdnn_forecast(model, np.full(4, 5.0), 6), 5.0, atol=0)

    def test_one_step_equals_direct_prediction(self):
        rng = np.random.default_rng(3)
        series = 20 + np.cumsum(rng.normal(0, 2, size=50))
        model = tdnn_train(series, FAST)
        direct = model.predict(series[-4:][None, :])[0]
        assert tdnn_forecast(model, series[-4:], 1)[0] == pytest.approx(
            direct, abs=1e-12
        )

    def test_three_steps_equal_manual_unrolling(self):
        rng = np.random.default_rng(3)
        series = 20 + np.cumsum(rng.normal(0, 2, size=50))
        model = tdnn_train(series, FAST)
        window = list(series[-4:])
        manual = []
        for _ in range(3):
            manual.append(model.predict(np.asarray(window[-4:])[None, :])[0])
            window.append(manual[-1])
        assert np.allclose(tdnn_forecast(model, series[-4:], 3), manual, atol=1e-9)

    def test_history_length_checked(self):
        model = tdnn_train(np.arange(30.0), FAST)
        with pytest.raises(ValidationError):
            tdnn_forecast(model, np.arange(3.0), 2)

    def test_empty_horizon(self):
        model = tdnn_train(np.arange(30.0), FAST)
        assert tdnn_forecast(model, np.arange(4.0), 0).size == 0


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
        assert len(model.component_models) == model.levels + 1

    def test_slow_sinusoid_dominated_by_smooth(self):
        t = np.arange(256)
        model = wbann_fit(10.0 * np.sin(2 * np.pi * t / 256.0), FAST)
        parts = [
            np.mean(np.abs(tdnn_forecast(m, tail, 10)))
            for m, tail in zip(model.component_models, model.training_series_tail)
        ]
        assert parts[-1] / sum(parts) >= 0.9

    def test_single_nonzero_component_additivity(self):
        # constant residuals: every detail is zero, only the smooth net acts
        model = wbann_fit(np.full(40, 3.0), FAST)
        smooth_only = tdnn_forecast(
            model.component_models[-1], model.training_series_tail[-1], 4
        )
        assert np.array_equal(wbann_forecast(model, 4), smooth_only)

    def test_two_component_toy_sum_by_hand(self):
        # hand-set weights: each net is logistic(hidden) -> linear(output);
        # with w1 = 0 the hidden activation is sigmoid(b1) regardless of input
        cfg = TdnnConfig(lags=2, hidden=1, repeats=1, epochs=1, seed=0)

        def constant_net(b2):
            return TdnnModel(
                input_scale=(0.0, 1.0),
                weights={
                    "w1": np.zeros((1, 2, 1)),
                    "b1": np.zeros((1, 1)),
                    "w2": np.zeros((1, 1)),
                    "b2": np.array([b2]),
                },
                config=cfg,
            )

        model = WbannModel(
            levels=1,
            component_models=[constant_net(0.25), constant_net(-0.75)],
            training_series_tail=[np.zeros(2), np.zeros(2)],
            mra=None,
            fitted_values=np.empty(0),
            component_fitted=[],
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
        model = wbann_fit(rng.normal(0, 4, size=50), FAST)
        stacked = np.sum(model.component_fitted, axis=0)
        lags = model.component_models[0].config.lags
        assert np.array_equal(model.fitted_values[lags:], stacked[lags:])
        assert np.all(np.isnan(model.fitted_values[:lags]))

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            wbann_fit(np.arange(10.0), FAST)

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            TdnnConfig(lags=0)
        with pytest.raises(ValidationError):
            TdnnConfig(learning_rate=0.0)
