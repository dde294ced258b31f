import numpy as np
import pytest

from epicast.adjust import (
    DISTRIBUTE_TO_STATES,
    NATIONAL_FOLLOWS_STATES,
    AdjustmentInput,
    adjust_forecasts,
    compute_weights_history,
)
from epicast.errors import ValidationError


def build_input(
    states=(40.0, 60.0),
    national=100.0,
    obs_states=(10.0, 20.0),
    fit_states=(10.0, 20.0),
    obs_national=30.0,
    fit_national=30.0,
):
    return AdjustmentInput(
        state_forecasts=np.asarray(states, dtype=float),
        national_forecast=national,
        last_observed_states=np.asarray(obs_states, dtype=float),
        last_fitted_states=np.asarray(fit_states, dtype=float),
        last_observed_national=obs_national,
        last_fitted_national=fit_national,
    )


def last_point_weights(inp):
    """The ``last``-mode weights of a one-day history: the input's own
    last observed and fitted states."""
    return compute_weights_history(
        [inp.last_observed_states], [inp.last_fitted_states]
    )


class TestWeights:
    def test_symmetric_residuals(self):
        w = compute_weights_history([[13.0, 7.0]], [[10.0, 10.0]])  # residuals 3, -3
        assert np.allclose(w, [0.5, 0.5], atol=1e-15)

    def test_hand_arithmetic(self):
        w = compute_weights_history([[11.0, 12.0, 13.0]], [[10.0, 10.0, 10.0]])
        assert np.allclose(w, [1 / 14, 4 / 14, 9 / 14], atol=1e-12)

    def test_zero_residual_fallback(self):
        w = compute_weights_history([[5.0, 5.0, 5.0]], [[5.0, 5.0, 5.0]])
        assert np.allclose(w, [1 / 3, 1 / 3, 1 / 3], atol=0)

    def test_normalisation(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            obs = rng.normal(size=5)
            fit = rng.normal(size=5)
            assert abs(compute_weights_history([obs], [fit]).sum() - 1.0) < 1e-12

    def test_history_modes(self):
        obs = np.array([[1.0, 2.0], [2.0, 1.0], [4.0, 1.0]])
        fit = np.zeros((3, 2))
        last = compute_weights_history(obs, fit, mode="last")
        assert np.allclose(last, [16 / 17, 1 / 17], atol=1e-12)
        windowed = compute_weights_history(obs, fit, mode="window", window=2)
        assert np.allclose(windowed, [20 / 22, 2 / 22], atol=1e-12)
        ewma = compute_weights_history(obs, fit, mode="ewma", decay=0.5)
        # decayed squares: 0.25*(1,4) + 0.5*(4,1) + 1*(16,1) = (18.25, 2.5)
        assert np.allclose(ewma, [18.25 / 20.75, 2.5 / 20.75], atol=1e-12)

    def test_bad_mode(self):
        with pytest.raises(ValidationError):
            compute_weights_history(np.ones((2, 2)), np.zeros((2, 2)), mode="mad")

    @pytest.mark.parametrize("mode", ["last", "window", "ewma"])
    @pytest.mark.parametrize("observed", [
        np.empty((0, 2)),  # no days
        np.empty((3, 0)),  # no states
        np.empty(0),
        np.array([1.0, 2.0]),  # one day, not days x states
        np.ones((2, 2, 2)),  # not days x states
        np.float64(1.0),
        np.array([[1.0, np.nan], [2.0, 1.0]]),
        np.array([[1.0, 2.0], [np.inf, 1.0]]),
    ], ids=["no-days", "no-states", "empty-1d", "1d", "3d", "scalar", "nan", "inf"])
    def test_malformed_history(self, observed, mode):
        with pytest.raises(ValidationError):
            compute_weights_history(observed, np.zeros_like(observed), mode=mode)
        with pytest.raises(ValidationError):
            compute_weights_history(np.zeros_like(observed), observed, mode=mode)


class TestDiscrepancy:
    def test_zero(self):
        inp = build_input()
        assert adjust_forecasts(inp, last_point_weights(inp)).discrepancy == 0.0

    def test_subtraction(self):
        inp = build_input(national=110.0)
        result = adjust_forecasts(inp, last_point_weights(inp))
        assert result.discrepancy == pytest.approx(10.0, abs=1e-12)


class TestAdjust:
    def test_zero_discrepancy_is_noop(self):
        inp = build_input()
        result = adjust_forecasts(inp, last_point_weights(inp))
        assert np.array_equal(result.corrected_state_forecasts, [40.0, 60.0])
        assert result.corrected_national_forecast == 100.0
        assert result.corrected_national_forecast == pytest.approx(
            result.corrected_state_forecasts.sum(), abs=1e-9
        )

    def test_distribute_branch_hand_case(self):
        # national error 2 <= state aggregate error 5: distribute d = 10
        inp = AdjustmentInput(
            state_forecasts=np.array([40.0, 60.0, 100.0]),
            national_forecast=210.0,
            last_observed_states=np.array([11.0, 12.0, 13.0]),
            last_fitted_states=np.array([10.0, 10.0, 10.0]),
            last_observed_national=32.0,
            last_fitted_national=30.0,
        )
        result = adjust_forecasts(inp, last_point_weights(inp))
        assert result.branch == DISTRIBUTE_TO_STATES
        assert result.discrepancy == pytest.approx(10.0, abs=1e-12)
        expected = np.array([40 + 10 / 14, 60 + 40 / 14, 100 + 90 / 14])
        assert np.allclose(result.corrected_state_forecasts, expected, atol=1e-12)
        assert result.corrected_national_forecast == pytest.approx(
            result.corrected_state_forecasts.sum(), abs=1e-9
        )

    def test_national_follows_states_branch(self):
        # national error 9 > state aggregate error 5
        inp = AdjustmentInput(
            state_forecasts=np.array([40.0, 60.0]),
            national_forecast=110.0,
            last_observed_states=np.array([12.0, 13.0]),
            last_fitted_states=np.array([10.0, 10.0]),
            last_observed_national=39.0,
            last_fitted_national=30.0,
        )
        result = adjust_forecasts(inp, last_point_weights(inp))
        assert result.branch == NATIONAL_FOLLOWS_STATES
        assert result.corrected_national_forecast == pytest.approx(100.0, abs=1e-12)
        assert np.array_equal(result.corrected_state_forecasts, [40.0, 60.0])

    def test_random_inputs_sum_consistent(self):
        rng = np.random.default_rng(123)
        for _ in range(300):
            n = rng.integers(1, 8)
            inp = AdjustmentInput(
                state_forecasts=rng.normal(50, 20, size=n),
                national_forecast=float(rng.normal(50 * n, 30)),
                last_observed_states=rng.normal(50, 20, size=n),
                last_fitted_states=rng.normal(50, 20, size=n),
                last_observed_national=float(rng.normal(50 * n, 30)),
                last_fitted_national=float(rng.normal(50 * n, 30)),
            )
            result = adjust_forecasts(inp, last_point_weights(inp))
            assert abs(result.weights.sum() - 1.0) < 1e-12
            assert result.corrected_national_forecast == pytest.approx(
                float(result.corrected_state_forecasts.sum()), abs=1e-9
            )
            moved = result.corrected_state_forecasts.sum() - inp.state_forecasts.sum()
            if result.branch == DISTRIBUTE_TO_STATES:
                assert moved == pytest.approx(result.discrepancy, abs=1e-9)
            else:
                assert moved == pytest.approx(0.0, abs=1e-9)

    def test_scale_equivariance(self):
        inp = AdjustmentInput(
            state_forecasts=np.array([40.0, 60.0, 100.0]),
            national_forecast=210.0,
            last_observed_states=np.array([11.0, 12.0, 13.0]),
            last_fitted_states=np.array([10.0, 10.0, 10.0]),
            last_observed_national=32.0,
            last_fitted_national=30.0,
        )
        c = 3.5
        scaled = AdjustmentInput(
            state_forecasts=c * inp.state_forecasts,
            national_forecast=c * inp.national_forecast,
            last_observed_states=c * inp.last_observed_states,
            last_fitted_states=c * inp.last_fitted_states,
            last_observed_national=c * inp.last_observed_national,
            last_fitted_national=c * inp.last_fitted_national,
        )
        base = adjust_forecasts(inp, last_point_weights(inp))
        result = adjust_forecasts(scaled, last_point_weights(scaled))
        assert result.branch == base.branch
        assert np.allclose(
            result.corrected_state_forecasts,
            c * base.corrected_state_forecasts,
            rtol=1e-12,
        )
        assert result.corrected_national_forecast == pytest.approx(
            c * base.corrected_national_forecast, rel=1e-12
        )

    def test_weight_override(self):
        inp = build_input(national=110.0)
        result = adjust_forecasts(inp, weights=np.array([0.25, 0.75]))
        assert result.branch == DISTRIBUTE_TO_STATES
        assert np.allclose(
            result.corrected_state_forecasts, [42.5, 67.5], atol=1e-12
        )
        with pytest.raises(ValidationError):
            adjust_forecasts(inp, weights=np.array([0.5, 0.6]))

    def test_input_validation(self):
        with pytest.raises(ValidationError):
            AdjustmentInput(
                state_forecasts=np.array([1.0]),
                national_forecast=np.nan,
                last_observed_states=np.array([1.0]),
                last_fitted_states=np.array([1.0]),
                last_observed_national=1.0,
                last_fitted_national=1.0,
            )
        with pytest.raises(ValidationError):
            AdjustmentInput(
                state_forecasts=np.empty(0),
                national_forecast=1.0,
                last_observed_states=np.empty(0),
                last_fitted_states=np.empty(0),
                last_observed_national=1.0,
                last_fitted_national=1.0,
            )
