"""Constant-sum correction reconciling state-level next-day forecasts with
the national forecast.

The gap ``d = national_forecast - sum(state_forecasts)`` is either
distributed over the states in proportion to their squared last-point
residuals (when the national model's last error is no larger than the
states' aggregate error) or absorbed by replacing the national forecast
with the state sum. Both branches leave the corrected system
sum-consistent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

DISTRIBUTE_TO_STATES = "distribute-to-states"
NATIONAL_FOLLOWS_STATES = "national-follows-states"


@dataclass(frozen=True)
class AdjustmentInput:
    """Next-day forecasts plus the latest observed/fitted pairs that measure
    how reliable each side of the hierarchy currently is."""

    state_forecasts: np.ndarray
    national_forecast: float
    last_observed_states: np.ndarray
    last_fitted_states: np.ndarray
    last_observed_national: float
    last_fitted_national: float

    def __post_init__(self):
        arrays = {
            "state_forecasts": np.asarray(self.state_forecasts, dtype=float),
            "last_observed_states": np.asarray(
                self.last_observed_states, dtype=float
            ),
            "last_fitted_states": np.asarray(self.last_fitted_states, dtype=float),
        }
        n = len(arrays["state_forecasts"])
        if n < 1:
            raise ValidationError("need at least one state")
        for name, arr in arrays.items():
            if arr.shape != (n,):
                raise ValidationError(f"{name} must have shape ({n},)")
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"{name} contains non-finite values")
            object.__setattr__(self, name, arr)
        for name in ("national_forecast", "last_observed_national",
                     "last_fitted_national"):
            if not np.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite")

    @property
    def n(self) -> int:
        return len(self.state_forecasts)


@dataclass(frozen=True)
class AdjustmentResult:
    corrected_state_forecasts: np.ndarray
    corrected_national_forecast: float
    weights: np.ndarray
    discrepancy: float
    branch: str


def _normalise_squared(scores: np.ndarray) -> np.ndarray:
    total = float(scores.sum())
    if total == 0.0:
        return np.full(len(scores), 1.0 / len(scores))
    return scores / total


def compute_weights(last_observed_states, last_fitted_states) -> np.ndarray:
    """Share of the correction per state: squared last-point residuals,
    normalised; uniform when every residual is zero (``last`` mode)."""
    return compute_weights_history(last_observed_states, last_fitted_states)


def compute_weights_history(
    observed: np.ndarray, fitted: np.ndarray, mode: str = "last",
    window: int = 7, decay: float = 0.9,
) -> np.ndarray:
    """Weights from per-state residual histories (rows = days, columns =
    states; a 1-D history is one day): ``last`` point, mean over a trailing
    ``window``, or an exponentially weighted mean with factor ``decay`` over
    the timeline. The histories must be finite, with a day and a state."""
    obs = np.asarray(observed, dtype=float)
    fit = np.asarray(fitted, dtype=float)
    if obs.shape != fit.shape:
        raise ValidationError("observed/fitted histories must match in shape")
    if obs.ndim not in (1, 2) or obs.size == 0:
        raise ValidationError(f"need a days x states history, got {obs.shape}")
    if not (np.isfinite(obs).all() and np.isfinite(fit).all()):
        raise ValidationError("observed/fitted histories must be finite")
    sq = np.atleast_2d(obs - fit) ** 2
    if mode == "last":
        scores = sq[-1]
    elif mode == "window":
        if window < 1:
            raise ValidationError("window must be >= 1")
        scores = sq[-window:].mean(axis=0)
    elif mode == "ewma":
        if not 0.0 < decay <= 1.0:
            raise ValidationError("decay must lie in (0, 1]")
        lam = decay ** np.arange(len(sq) - 1, -1, -1, dtype=float)
        scores = (lam[:, None] * sq).sum(axis=0) / lam.sum()
    else:
        raise ValidationError(f"unknown weight mode {mode!r}")
    return _normalise_squared(scores)


def compute_discrepancy(inp: AdjustmentInput) -> float:
    """National forecast minus the sum of state forecasts."""
    return float(inp.national_forecast - inp.state_forecasts.sum())


def adjust_forecasts(
    inp: AdjustmentInput, weights: np.ndarray | None = None
) -> AdjustmentResult:
    """Apply the constant-sum correction.

    ``weights`` overrides the last-point squared-residual rule (e.g. with
    a windowed or exponentially weighted variant); it must sum to 1.
    """
    if weights is None:
        weights = compute_weights(inp.last_observed_states, inp.last_fitted_states)
    else:
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (inp.n,):
            raise ValidationError(f"weights must have shape ({inp.n},)")
        if abs(float(weights.sum()) - 1.0) > 1e-9:
            raise ValidationError("weights must sum to 1")
    d = compute_discrepancy(inp)
    national_error = abs(inp.last_observed_national - inp.last_fitted_national)
    states_error = abs(
        float((inp.last_observed_states - inp.last_fitted_states).sum())
    )
    if national_error <= states_error:
        corrected_states = inp.state_forecasts + weights * d
        return AdjustmentResult(
            corrected_state_forecasts=corrected_states,
            corrected_national_forecast=float(inp.national_forecast),
            weights=weights,
            discrepancy=d,
            branch=DISTRIBUTE_TO_STATES,
        )
    return AdjustmentResult(
        corrected_state_forecasts=inp.state_forecasts.copy(),
        corrected_national_forecast=float(inp.state_forecasts.sum()),
        weights=weights,
        discrepancy=d,
        branch=NATIONAL_FOLLOWS_STATES,
    )
