"""Base forecasting models behind one contract: Holt's trend-corrected
exponential smoothing and a minimal conditional-sum-of-squares ARIMA.

Holt recursion (additive trend), initialised with L1 = y1, T1 = y2 - y1:

    level:    L_t = alpha * y_t + (1 - alpha) * (L_{t-1} + T_{t-1})
    trend:    T_t = beta * (L_t - L_{t-1}) + (1 - beta) * T_{t-1}
    forecast: y_{t+h|t} = L_t + h * T_t

With this initialisation an exactly linear series is tracked with zero
one-step error for any smoothing constants, which the tests exploit.
"""

from __future__ import annotations

import abc
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import UnivariateSeries
from .errors import FitError, InsufficientDataError, ValidationError
from .simplex import nelder_mead

PARAM_GRID = np.arange(1, 101) / 100.0  # 0.01 .. 1.00
MAX_ARMA_ORDER = 5
MAX_DIFF = 2
SELECTION_BUDGET = 30  # Nelder-Mead evaluations per parameter while ranking orders


class Forecaster(abc.ABC):
    """Uniform fit/fitted/residuals/forecast surface over all models.

    ``fitted()`` is aligned with the training series and holds NaN at
    positions where the model defines no one-step prediction;
    ``residuals()`` is observed minus fitted at the defined positions.
    """

    tag: str = ""

    @abc.abstractmethod
    def fit(self, train: UnivariateSeries) -> "Forecaster":
        ...

    @abc.abstractmethod
    def fitted(self) -> np.ndarray:
        ...

    @abc.abstractmethod
    def forecast(self, h: int) -> np.ndarray:
        ...

    def residuals(self) -> np.ndarray:
        return self._observed - self.fitted()


# ---------------------------------------------------------------------------
# Holt


@dataclass(frozen=True)
class HoltParams:
    """Smoothing constants, each within (0, 1]."""

    alpha: float
    beta: float

    def __post_init__(self):
        for label, v in (("alpha", self.alpha), ("beta", self.beta)):
            if not 0.0 < v <= 1.0:
                raise ValidationError(f"{label}={v} outside (0, 1]")


@dataclass(frozen=True)
class HoltState:
    """Level, trend and one-step fitted paths; fitted[0] is NaN."""

    level: np.ndarray
    trend: np.ndarray
    fitted: np.ndarray


def holt_filter(series: UnivariateSeries, params: HoltParams) -> HoltState:
    """Run the recursion over the series at fixed smoothing constants."""
    y = np.asarray(series.values, dtype=float)
    n = len(y)
    if n < 2:
        raise InsufficientDataError(f"Holt filter needs >= 2 points, got {n}")
    a, b = params.alpha, params.beta
    level = np.empty(n)
    trend = np.empty(n)
    fitted = np.full(n, np.nan)
    level[0] = y[0]
    trend[0] = y[1] - y[0]
    for t in range(1, n):
        fitted[t] = level[t - 1] + trend[t - 1]
        level[t] = a * y[t] + (1 - a) * fitted[t]
        trend[t] = b * (level[t] - level[t - 1]) + (1 - b) * trend[t - 1]
    return HoltState(level=level, trend=trend, fitted=fitted)


def _holt_grid_sse(y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One-step SSE for every (alpha, beta) grid pair, alpha-major order."""
    a = np.repeat(PARAM_GRID, len(PARAM_GRID))
    b = np.tile(PARAM_GRID, len(PARAM_GRID))
    level = np.full(a.shape, y[0])
    trend = np.full(a.shape, y[1] - y[0])
    sse = np.zeros(a.shape)
    for t in range(1, len(y)):
        pred = level + trend
        err = y[t] - pred
        sse += err * err
        new_level = a * y[t] + (1 - a) * pred
        trend = b * (new_level - level) + (1 - b) * trend
        level = new_level
    return a, b, sse


def holt_fit(series: UnivariateSeries) -> tuple[HoltParams, HoltState]:
    """Pick (alpha, beta) minimising one-step SSE over the full 0.01-step
    grid; ties go to the smaller alpha, then the smaller beta."""
    if len(series) < 4:
        raise InsufficientDataError(
            f"Holt fit needs >= 4 points, got {len(series)}"
        )
    y = np.asarray(series.values, dtype=float)
    a, b, sse = _holt_grid_sse(y)
    best = float(np.min(sse))
    # tolerance keeps exact-fit cases (all-zero SSE up to rounding) tied
    tie = sse <= best + 1e-10 * (1.0 + best)
    idx = int(np.argmax(tie))
    params = HoltParams(alpha=float(a[idx]), beta=float(b[idx]))
    return params, holt_filter(series, params)


def holt_forecast(state: HoltState, h: int) -> np.ndarray:
    """h-step forecasts from the final level and trend."""
    if h < 0:
        raise ValidationError("horizon must be nonnegative")
    steps = np.arange(1, h + 1)
    return state.level[-1] + steps * state.trend[-1]


class HoltForecaster(Forecaster):
    tag = "holt"

    def fit(self, train: UnivariateSeries) -> "HoltForecaster":
        self._observed = np.asarray(train.values, dtype=float)
        self.params, self.state = holt_fit(train)
        return self

    def fitted(self) -> np.ndarray:
        return self.state.fitted

    def forecast(self, h: int) -> np.ndarray:
        return holt_forecast(self.state, h)


# ---------------------------------------------------------------------------
# ARIMA (conditional sum of squares)


@dataclass
class ArimaModel:
    """Fitted ARIMA(p, d, q) with conditional-SSE residual context.

    The intercept is estimated only for d == 0; differenced models carry no
    drift, so an (0,1,0) forecast stays at the last observation.
    """

    order: tuple[int, int, int]
    ar_coeffs: np.ndarray
    ma_coeffs: np.ndarray
    intercept: float
    sigma2: float
    fitted_values: np.ndarray = field(repr=False)
    residual_values: np.ndarray = field(repr=False)
    w_tail: np.ndarray = field(repr=False)
    e_tail: np.ndarray = field(repr=False)
    diff_tails: np.ndarray = field(repr=False)

    def __post_init__(self):
        check_order(self.order)


def check_order(order: tuple[int, int, int]) -> None:
    """Reject an ARIMA order (p, d, q) outside p, q in 0..5 and d in 0..2."""
    p, d, q = order
    if not (0 <= p <= MAX_ARMA_ORDER and 0 <= q <= MAX_ARMA_ORDER
            and 0 <= d <= MAX_DIFF):
        raise ValidationError(
            f"unsupported ARIMA order {order}: p and q must lie in "
            f"0..{MAX_ARMA_ORDER}, d in 0..{MAX_DIFF}"
        )


def _lag_matrix(w: np.ndarray, p: int, burn: int) -> np.ndarray:
    n = len(w)
    if p == 0:
        return np.empty((n - burn, 0))
    return np.stack([w[burn - j : n - j] for j in range(1, p + 1)], axis=1)


_FILTER_NUMERATOR = np.ones(1)


@functools.cache
def _linear_filter():
    """scipy's linear-filter kernel, imported on first use: importing
    ``scipy.signal`` takes about a second, and only ARIMA fits with an MA
    part need it."""
    from scipy.signal import _sigtools

    return _sigtools._linear_filter


def import_kernels(tags) -> None:
    """Import now the kernel that fitting an ARIMA tag among ``tags`` (the
    ``tag`` of built models) loads on first use. Workers forked after this
    share its pages instead of each importing ``scipy.signal`` again."""
    if any(tag.startswith("arima") for tag in tags):
        _linear_filter()


def _ma_filter(a: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``signal.lfilter([1.0], a, u)`` for a float64 ``a`` with ``a[0] == 1``
    and ``len(a) > 1``: innovations of an MA polynomial ``a = [1, theta...]``.

    For such an ``a``, lfilter's public wrapper only checks its arguments and
    then makes exactly this kernel call, so the bits are the same. The CSS
    search calls it hundreds of thousands of times, and the wrapper's checks
    and array-API dispatch took longer than the filter itself.
    """
    return _linear_filter()(_FILTER_NUMERATOR, a, u, -1)


def css_residuals(
    w: np.ndarray, c: float, phi: np.ndarray, theta: np.ndarray, burn: int
) -> np.ndarray:
    """Innovations for t >= burn, conditioning on zero pre-window shocks."""
    lags = _lag_matrix(w, len(phi), burn)
    u = w[burn:] - c
    if len(phi):
        u = u - lags @ phi
    if len(theta):
        u = _ma_filter(np.concatenate([[1.0], theta]), u)
    return u


def _ols(design: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, float]:
    if design.shape[1] == 0:
        return np.empty(0), float(target @ target)
    coef, *_ = np.linalg.lstsq(design, target, rcond=None)
    resid = target - design @ coef
    return coef, float(resid @ resid)


def _hannan_rissanen_start(
    w: np.ndarray, p: int, q: int, intercept: bool
) -> np.ndarray | None:
    """Warm start for mixed models: proxy shocks from a long AR fit, then a
    joint regression on lagged values and lagged shocks."""
    k = min(max(2 * (p + q), 4), len(w) // 3)
    if len(w) - k < p + q + 3:
        return None
    long_lags = _lag_matrix(w, k, k)
    design = np.column_stack([np.ones(len(w) - k), long_lags])
    coef, _ = _ols(design, w[k:])
    shocks = np.zeros(len(w))
    shocks[k:] = w[k:] - design @ coef
    burn = k + q
    target = w[burn:]
    cols = []
    if intercept:
        cols.append(np.ones(len(target)))
    cols.extend(_lag_matrix(w, p, burn).T)
    cols.extend(_lag_matrix(shocks, q, burn).T)
    design2 = np.column_stack(cols) if cols else np.empty((len(target), 0))
    coef2, _ = _ols(design2, target)
    if not np.all(np.isfinite(coef2)):
        return None
    return coef2  # layout [c?, phi..., theta...] matches the objective


def css_fit(
    w: np.ndarray,
    p: int,
    q: int,
    intercept: bool,
    burn: int | None = None,
    x0: np.ndarray | None = None,
    budget: int = 200,
) -> tuple[float, np.ndarray, np.ndarray, float]:
    """Minimise the conditional sum of squared innovations.

    Pure AR cases solve in closed form by least squares; mixed models use
    Nelder-Mead from a Hannan-Rissanen warm start (or ``x0``). ``budget``
    scales the evaluation cap per free parameter. Returns
    (c, phi, theta, sse) with the SSE taken over ``w[burn:]``.
    """
    w = np.asarray(w, dtype=float)
    if burn is None:
        burn = p
    if burn < p:
        raise ValidationError("burn-in cannot be shorter than the AR order")
    n_eff = len(w) - burn
    if n_eff < p + q + (1 if intercept else 0) + 1:
        raise InsufficientDataError(
            f"series too short for ARMA({p},{q}) with burn-in {burn}"
        )
    target = w[burn:]
    lags = _lag_matrix(w, p, burn)

    def ar_solution() -> tuple[float, np.ndarray, float]:
        design = lags
        if intercept:
            design = np.column_stack([np.ones(n_eff), lags])
        coef, sse = _ols(design, target)
        if intercept and len(coef):
            return float(coef[0]), coef[1:], sse
        return 0.0, coef, sse

    c_ar, phi_ar, sse_ar = ar_solution()
    if q == 0:
        return c_ar, phi_ar, np.empty(0), sse_ar

    off = 1 if intercept else 0

    def unpack(x: np.ndarray):
        c = x[0] if intercept else 0.0
        return float(c), x[off : off + p], x[off + p :]

    ma_poly = np.empty(q + 1)  # [1, theta...], refilled on every call
    ma_poly[0] = 1.0
    linear_filter = _linear_filter()  # _ma_filter's kernel, bound once

    def objective(x: np.ndarray) -> float:
        # subtracting a zero intercept is exact, so without one it is skipped
        u = target - float(x[0]) if intercept else target
        if p:
            u = u - lags @ x[off : off + p]
        ma_poly[1:] = x[off + p :]
        e = linear_filter(_FILTER_NUMERATOR, ma_poly, u, -1)
        sse = float(e @ e)
        return sse if math.isfinite(sse) else 1e300

    starts = []
    if x0 is not None:
        starts.append(np.asarray(x0, dtype=float))
    else:
        hr = _hannan_rissanen_start(w, p, q, intercept)
        if hr is not None and len(hr) == p + q + off:
            starts.append(hr)
        starts.append(
            np.concatenate([[c_ar] if intercept else [], phi_ar, np.zeros(q)])
        )
    # the first start with the smallest SSE, each start scored once
    scores = [objective(start) for start in starts]
    best_sse = min(scores)
    best_x = starts[scores.index(best_sse)]
    x, fun = nelder_mead(
        objective, best_x, maxfev=budget * len(best_x), xatol=1e-6, fatol=1e-10
    )
    if float(fun) < best_sse:
        best_x, best_sse = x, float(fun)
    c, phi, theta = unpack(best_x)
    return c, phi.copy(), theta.copy(), best_sse


def css_aic(sse: float, n_eff: int, p: int, q: int, intercept: bool) -> float:
    """Gaussian conditional-likelihood AIC up to an additive constant."""
    k = p + q + 1 + (1 if intercept else 0)
    sigma2 = max(sse / n_eff, 1e-300)
    return n_eff * np.log(sigma2) + 2 * k


def choose_difference_order(y: np.ndarray) -> int:
    """Smallest d in {0,1,2} at which another difference stops shrinking the
    sample variance."""
    variances = []
    w = np.asarray(y, dtype=float)
    for _ in range(MAX_DIFF + 1):
        variances.append(float(np.var(w)))
        w = np.diff(w)
    for d in range(MAX_DIFF):
        if variances[d + 1] >= variances[d]:
            return d
    return MAX_DIFF


def arima_fit(
    series: UnivariateSeries, order: tuple[int, int, int] | None = None
) -> ArimaModel:
    """Fit an ARIMA model by conditional sum of squares.

    With ``order=None`` the difference order comes from the variance rule
    and (p, q) from an AIC sweep over {0..5} x {0..5}; a fixed order skips
    the selection and estimates coefficients only.
    """
    y = np.asarray(series.values, dtype=float)
    n = len(y)
    if order is None and n < 20:
        raise InsufficientDataError(f"ARIMA selection needs >= 20 points, got {n}")

    if order is None:
        d = choose_difference_order(y)
    else:
        check_order(order)
        p, d, q = order
    w = np.diff(y, n=d) if d else y.copy()
    intercept = d == 0

    if order is None:
        # score every order over a shared burn-in window so the AICs are
        # computed on identical samples, then refit the winner in full
        best = None
        for p in range(MAX_ARMA_ORDER + 1):
            for q in range(MAX_ARMA_ORDER + 1):
                try:
                    _, _, _, sse = css_fit(
                        w, p, q, intercept, burn=MAX_ARMA_ORDER,
                        budget=SELECTION_BUDGET,
                    )
                except InsufficientDataError:
                    continue
                aic = css_aic(sse, len(w) - MAX_ARMA_ORDER, p, q, intercept)
                if best is None or aic < best[0]:
                    best = (aic, p, q)
        if best is None:
            raise FitError("no ARMA order is estimable on this series")
        _, p, q = best
        c, phi, theta, sse = css_fit(w, p, q, intercept)
    else:
        if len(w) <= p:
            raise InsufficientDataError(
                f"series too short to difference and lag for order {order}"
            )
        c, phi, theta, sse = css_fit(w, p, q, intercept)

    if not np.isfinite(sse) or not (
        np.all(np.isfinite(phi)) and np.all(np.isfinite(theta))
    ):
        raise FitError(f"CSS optimiser did not converge for order ({p},{d},{q})")

    resid = css_residuals(w, c, phi, theta, burn=p)
    n_eff = len(resid)
    fitted = np.full(n, np.nan)
    offset = d + p
    fitted[offset:] = y[offset:] - resid
    residual_full = np.full(n, np.nan)
    residual_full[offset:] = resid

    diff_tails = np.empty(d)
    stage = y
    for k in range(d):
        diff_tails[k] = stage[-1]
        stage = np.diff(stage)

    return ArimaModel(
        order=(p, d, q),
        ar_coeffs=np.asarray(phi, dtype=float),
        ma_coeffs=np.asarray(theta, dtype=float),
        intercept=float(c),
        sigma2=float(sse / n_eff) if n_eff else 0.0,
        fitted_values=fitted,
        residual_values=residual_full,
        w_tail=w[-max(len(phi), 1) :].copy() if len(w) else np.empty(0),
        e_tail=resid[-max(len(theta), 1) :].copy() if n_eff else np.empty(0),
        diff_tails=diff_tails,
    )


def arima_forecast(model: ArimaModel, h: int) -> np.ndarray:
    """Recursive point forecasts with future innovations at zero, integrated
    back through the model's differences."""
    if h < 0:
        raise ValidationError("horizon must be nonnegative")
    if h == 0:
        return np.empty(0)
    p, d, q = model.order
    w_hist = list(model.w_tail[-p:]) if p else []
    e_hist = list(model.e_tail[-q:]) if q else []
    out = np.empty(h)
    for i in range(h):
        value = model.intercept
        for j in range(min(p, len(w_hist))):
            value += model.ar_coeffs[j] * w_hist[-1 - j]
        for j in range(min(q, len(e_hist))):
            value += model.ma_coeffs[j] * e_hist[-1 - j]
        out[i] = value
        if p:
            w_hist.append(value)
        if q:
            e_hist.append(0.0)
    for k in range(d - 1, -1, -1):
        out = model.diff_tails[k] + np.cumsum(out)
    return out


class ArimaForecaster(Forecaster):
    """ARIMA under the shared contract; ``order=None`` selects by AIC."""

    tag = "arima"

    def __init__(self, order: tuple[int, int, int] | None = None):
        if order is not None:
            check_order(order)
            self.tag = "arima({},{},{})".format(*order)
        self.order = order

    def fit(self, train: UnivariateSeries) -> "ArimaForecaster":
        self._observed = np.asarray(train.values, dtype=float)
        self.model = arima_fit(train, order=self.order)
        return self

    def fitted(self) -> np.ndarray:
        return self.model.fitted_values

    def forecast(self, h: int) -> np.ndarray:
        return arima_forecast(self.model, h)

