import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epicast.adjust import (
    DISTRIBUTE_TO_STATES,
    NATIONAL_FOLLOWS_STATES,
    AdjustmentInput,
    adjust_forecasts,
    parse_weight_rule,
)
from epicast.errors import ValidationError

from oracles import weights_history


def build_input(
    states=(40.0, 60.0),
    national=100.0,
    obs_states=(10.0, 20.0),
    fit_states=(10.0, 20.0),
    obs_national=30.0,
    fit_national=30.0,
):
    """An input whose state histories are the one day given."""
    return AdjustmentInput(
        state_forecasts=np.asarray(states, dtype=float),
        national_forecast=national,
        observed_states=np.asarray([obs_states], dtype=float),
        fitted_states=np.asarray([fit_states], dtype=float),
        last_observed_national=obs_national,
        last_fitted_national=fit_national,
    )


def history_input(observed, fitted):
    """An input holding the ``observed`` and ``fitted`` state histories,
    with zero forecasts and a national pair that never decides a test."""
    return AdjustmentInput(
        state_forecasts=np.zeros(np.shape(observed)[-1:]),
        national_forecast=0.0,
        observed_states=observed,
        fitted_states=fitted,
        last_observed_national=0.0,
        last_fitted_national=0.0,
    )


def weights(observed, fitted, rule="last"):
    """The shares ``adjust_forecasts`` gives the states under ``rule``."""
    return adjust_forecasts(history_input(observed, fitted), rule).weights


@st.composite
def residual_histories(draw):
    """Observed and fitted histories of 1-60 days x 1-8 states, real-valued
    or rounded to integers, at a scale whose squares may underflow to 0 or
    overflow to inf, with some days fitted exactly (every residual 0)."""
    days, states = draw(st.integers(1, 60)), draw(st.integers(1, 8))
    scale = draw(st.sampled_from([1.0, 1e-170, 1e6, 1e160]))
    cells = st.lists(st.floats(-1e3, 1e3), min_size=days * states,
                     max_size=days * states)
    obs = scale * np.array(draw(cells)).reshape(days, states)
    fit = scale * np.array(draw(cells)).reshape(days, states)
    if draw(st.booleans()):
        obs, fit = np.round(obs), np.round(fit)
    exact = draw(st.lists(st.integers(0, days - 1), max_size=days))
    fit[exact] = obs[exact]
    return obs, fit


# the oracle's mode and settings for each drawn rule text
RULES = st.one_of(
    st.just(("last", {"mode": "last"})),
    st.integers(1, 70).map(
        lambda k: (f"window:{k}", {"mode": "window", "window": k})),
    st.one_of(st.just(1.0), st.just(1e-200), st.floats(1e-12, 1.0)).map(
        lambda lam: (f"ewma:{lam!r}", {"mode": "ewma", "decay": lam})),
)


class TestWeights:
    @settings(max_examples=300, deadline=None)
    @given(history=residual_histories(), rule=RULES)
    def test_rules_keep_the_three_branch_bits(self, history, rule):
        # one day-weighted mean gives the bytes of the three rules written
        # apart, also where old days' weights underflow to 0 or a square
        # overflows to inf
        (obs, fit), (text, oracle) = history, rule
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            got = weights(obs, fit, text)
            want = weights_history(obs, fit, **oracle)
        assert got.tobytes() == want.tobytes(), (got, want)

    def test_symmetric_residuals(self):
        w = weights([[13.0, 7.0]], [[10.0, 10.0]])  # residuals 3, -3
        assert np.allclose(w, [0.5, 0.5], atol=1e-15)

    def test_hand_arithmetic(self):
        w = weights([[11.0, 12.0, 13.0]], [[10.0, 10.0, 10.0]])
        assert np.allclose(w, [1 / 14, 4 / 14, 9 / 14], atol=1e-12)

    def test_zero_residual_fallback(self):
        w = weights([[5.0, 5.0, 5.0]], [[5.0, 5.0, 5.0]])
        assert np.allclose(w, [1 / 3, 1 / 3, 1 / 3], atol=0)

    def test_normalisation(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            obs = rng.normal(size=5)
            fit = rng.normal(size=5)
            assert abs(weights([obs], [fit]).sum() - 1.0) < 1e-12

    def test_history_modes(self):
        obs = np.array([[1.0, 2.0], [2.0, 1.0], [4.0, 1.0]])
        fit = np.zeros((3, 2))
        last = weights(obs, fit, "last")
        assert np.allclose(last, [16 / 17, 1 / 17], atol=1e-12)
        windowed = weights(obs, fit, "window:2")
        assert np.allclose(windowed, [20 / 22, 2 / 22], atol=1e-12)
        ewma = weights(obs, fit, "ewma:0.5")
        # decayed squares: 0.25*(1,4) + 0.5*(4,1) + 1*(16,1) = (18.25, 2.5)
        assert np.allclose(ewma, [18.25 / 20.75, 2.5 / 20.75], atol=1e-12)

    def test_bad_mode(self):
        with pytest.raises(ValidationError):
            parse_weight_rule("mad")

    @pytest.mark.parametrize("rule", ["last", "window:2", "ewma:0.5"],
                             ids=["last", "window", "ewma"])
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
    def test_malformed_history(self, observed, rule):
        # refused as input, before any rule scores it
        with pytest.raises(ValidationError):
            weights(observed, np.zeros_like(observed), rule)
        with pytest.raises(ValidationError):
            weights(np.zeros_like(observed), observed, rule)


class TestDiscrepancy:
    def test_zero(self):
        inp = build_input()
        assert adjust_forecasts(inp).discrepancy == 0.0

    def test_subtraction(self):
        inp = build_input(national=110.0)
        result = adjust_forecasts(inp)
        assert result.discrepancy == pytest.approx(10.0, abs=1e-12)


class TestAdjust:
    def test_zero_discrepancy_is_noop(self):
        inp = build_input()
        result = adjust_forecasts(inp)
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
            observed_states=np.array([[11.0, 12.0, 13.0]]),
            fitted_states=np.array([[10.0, 10.0, 10.0]]),
            last_observed_national=32.0,
            last_fitted_national=30.0,
        )
        result = adjust_forecasts(inp)
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
            observed_states=np.array([[12.0, 13.0]]),
            fitted_states=np.array([[10.0, 10.0]]),
            last_observed_national=39.0,
            last_fitted_national=30.0,
        )
        result = adjust_forecasts(inp)
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
                observed_states=rng.normal(50, 20, size=(1, n)),
                fitted_states=rng.normal(50, 20, size=(1, n)),
                last_observed_national=float(rng.normal(50 * n, 30)),
                last_fitted_national=float(rng.normal(50 * n, 30)),
            )
            result = adjust_forecasts(inp)
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
            observed_states=np.array([[11.0, 12.0, 13.0]]),
            fitted_states=np.array([[10.0, 10.0, 10.0]]),
            last_observed_national=32.0,
            last_fitted_national=30.0,
        )
        c = 3.5
        scaled = AdjustmentInput(
            state_forecasts=c * inp.state_forecasts,
            national_forecast=c * inp.national_forecast,
            observed_states=c * inp.observed_states,
            fitted_states=c * inp.fitted_states,
            last_observed_national=c * inp.last_observed_national,
            last_fitted_national=c * inp.last_fitted_national,
        )
        base = adjust_forecasts(inp)
        result = adjust_forecasts(scaled)
        assert result.branch == base.branch
        assert np.allclose(
            result.corrected_state_forecasts,
            c * base.corrected_state_forecasts,
            rtol=1e-12,
        )
        assert result.corrected_national_forecast == pytest.approx(
            c * base.corrected_national_forecast, rel=1e-12
        )

    def test_input_validation(self):
        with pytest.raises(ValidationError):
            AdjustmentInput(
                state_forecasts=np.array([1.0]),
                national_forecast=np.nan,
                observed_states=np.array([[1.0]]),
                fitted_states=np.array([[1.0]]),
                last_observed_national=1.0,
                last_fitted_national=1.0,
            )
        with pytest.raises(ValidationError):
            AdjustmentInput(
                state_forecasts=np.empty(0),
                national_forecast=1.0,
                observed_states=np.empty((1, 0)),
                fitted_states=np.empty((1, 0)),
                last_observed_national=1.0,
                last_fitted_national=1.0,
            )
