"""Constant-sum correction reconciling state-level next-day forecasts with
the national forecast.

The gap ``d = national_forecast - sum(state_forecasts)`` is either
distributed over the states in proportion to their squared recent
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
WEIGHT_RULES = "last, window:K or ewma:LAMBDA"


def parse_weight_rule(text: str) -> tuple[int | None, float]:
    """The ``(window, decay)`` of a weight rule, written as in
    ``adjust --weight-mode``: ``last`` is ``(1, 1.0)``, ``window:K`` is
    ``(K, 1.0)`` and ``ewma:LAMBDA`` is ``(None, LAMBDA)``, case and
    surrounding blanks ignored. Raises :class:`ValidationError` unless
    ``K >= 1`` and ``0 < LAMBDA <= 1``."""
    parts = text.strip().lower().split(":")
    mode = parts[0]
    try:
        if mode == "last" and len(parts) == 1:
            window, decay = 1, 1.0
        elif mode == "window" and len(parts) == 2:
            window, decay = int(parts[1]), 1.0
        elif mode == "ewma" and len(parts) == 2:
            window, decay = None, float(parts[1])
        else:
            raise ValueError(mode)
    except ValueError:
        raise ValidationError(
            f"bad --weight-mode {text!r}; expected {WEIGHT_RULES}"
        ) from None
    if window is not None and window < 1:
        raise ValidationError("window must be >= 1")
    if not 0.0 < decay <= 1.0:
        raise ValidationError("decay must lie in (0, 1]")
    return window, decay


@dataclass(frozen=True)
class AdjustmentInput:
    """Next-day forecasts plus the observed and fitted histories (rows =
    days, the last row the latest; columns = states) and the national
    side's latest pair, which measure how reliable each side of the
    hierarchy currently is."""

    state_forecasts: np.ndarray
    national_forecast: float
    observed_states: np.ndarray
    fitted_states: np.ndarray
    last_observed_national: float
    last_fitted_national: float

    def __post_init__(self):
        obs = np.asarray(self.observed_states, dtype=float)
        fit = np.asarray(self.fitted_states, dtype=float)
        if obs.shape != fit.shape:
            raise ValidationError("observed/fitted histories must match in shape")
        if obs.ndim != 2 or obs.size == 0:
            raise ValidationError(f"need a days x states history, got {obs.shape}")
        if not (np.isfinite(obs).all() and np.isfinite(fit).all()):
            raise ValidationError("observed/fitted histories must be finite")
        forecasts = np.asarray(self.state_forecasts, dtype=float)
        n = obs.shape[1]
        if forecasts.shape != (n,):
            raise ValidationError(f"state_forecasts must have shape ({n},)")
        if not np.all(np.isfinite(forecasts)):
            raise ValidationError("state_forecasts contains non-finite values")
        for name in ("national_forecast", "last_observed_national",
                     "last_fitted_national"):
            if not np.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite")
        object.__setattr__(self, "state_forecasts", forecasts)
        object.__setattr__(self, "observed_states", obs)
        object.__setattr__(self, "fitted_states", fit)

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


def adjust_forecasts(
    inp: AdjustmentInput, rule: str = "last"
) -> AdjustmentResult:
    """Apply the constant-sum correction, sharing the gap by weights from
    the states' squared residuals under ``rule`` (see
    :func:`parse_weight_rule`): a mean over the last ``window`` days
    (all days when ``window`` is None), each day weighted by ``decay`` to
    the power of its age, normalised to sum to 1, and uniform when every
    state scores zero."""
    window, decay = parse_weight_rule(rule)
    sq = (inp.observed_states - inp.fitted_states) ** 2
    if window is not None:
        # sliced off, not weighted 0: an old day's inf times 0 is NaN
        sq = sq[-window:]
    lam = decay ** np.arange(len(sq) - 1, -1, -1, dtype=float)
    scores = (lam[:, None] * sq).sum(axis=0) / lam.sum()
    total = float(scores.sum())
    weights = np.full(inp.n, 1.0 / inp.n) if total == 0.0 else scores / total
    d = float(inp.national_forecast - inp.state_forecasts.sum())
    national_error = abs(inp.last_observed_national - inp.last_fitted_national)
    states_error = abs(
        float((inp.observed_states[-1] - inp.fitted_states[-1]).sum())
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
