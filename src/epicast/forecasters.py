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
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import _umath_linalg

from .core import UnivariateSeries
from .errors import FitError, InsufficientDataError, ValidationError

PARAM_GRID = np.arange(1, 101) / 100.0  # 0.01 .. 1.00
MAX_ARMA_ORDER = 5
MAX_DIFF = 2
# The CSS fit keeps every MA pole within this radius: near the unit circle
# the conditional sum of squares falls spuriously, and such fits won the
# AIC sweep on white noise
MA_RADIUS = 0.99
# Levenberg-Marquardt settings of the CSS fit
LM_START_DAMPING = 1e-3
LM_MIN_RATIO = 0.25  # least share of the predicted SSE drop a step must gain
LM_GTOL = 1e-8  # a scaled gradient this small is a minimum
LM_FTOL = 1e-8  # a smaller relative gain ends the fit, once ...
LM_GAIN_GTOL = 1e-4  # ... the scaled gradient is below this
LM_XTOL = 1e-8  # a step this much shorter than the coefficients ends it
LM_MAX_DAMPING = 1e10
LM_MAX_TRIALS = 50
MAX_HORIZON = 100_000  # days: centuries past any use


def check_horizon(h: int) -> None:
    """Raise :class:`ValidationError` for a forecast horizon outside
    0..``MAX_HORIZON``."""
    if h < 0:
        raise ValidationError("horizon must be nonnegative")
    if h > MAX_HORIZON:
        raise ValidationError(f"horizon must be at most {MAX_HORIZON}, got {h}")


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
    one_minus_a, one_minus_b = 1 - a, 1 - b
    for t in range(1, len(y)):
        pred = level + trend
        err = y[t] - pred
        sse += err * err
        new_level = a * y[t] + one_minus_a * pred
        trend = b * (new_level - level) + one_minus_b * trend
        level = new_level
    return a, b, sse


def holt_fit(series: UnivariateSeries) -> tuple[HoltParams, HoltState]:
    """Pick (alpha, beta) minimising one-step SSE over the full 0.01-step
    grid; ties go to the smaller alpha, then the smaller beta. Counts so
    large that the grid's SSEs overflow, leaving no finite minimum, raise
    :class:`FitError`."""
    if len(series) < 4:
        raise InsufficientDataError(
            f"Holt fit needs >= 4 points, got {len(series)}"
        )
    y = np.asarray(series.values, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        a, b, sse = _holt_grid_sse(y)
    best = float(np.min(sse))  # NaN if any pair's SSE is NaN
    if not math.isfinite(best):
        raise FitError(f"{series.name}: Holt one-step errors overflow")
    # tolerance keeps exact-fit cases (all-zero SSE up to rounding) tied
    tie = sse <= best + 1e-10 * (1.0 + best)
    idx = int(np.argmax(tie))
    params = HoltParams(alpha=float(a[idx]), beta=float(b[idx]))
    return params, holt_filter(series, params)


def holt_forecast(state: HoltState, h: int) -> np.ndarray:
    """h-step forecasts from the final level and trend."""
    check_horizon(h)
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


_KERNEL_MODULE = "scipy.signal._sigtools"


@functools.cache
def _linear_filter():
    """scipy's linear-filter kernel, loaded on first use. Only ARIMA fits
    with an MA part need it, and :class:`ArimaForecaster` loads it when
    built.

    The kernel's extension module is loaded alone, from scipy's
    ``signal`` directory, and registered under its own name: importing
    ``scipy.signal`` to reach it took over a second and about 75 MB. A
    ``scipy.signal`` imported earlier has loaded it already, and one
    imported later finds it registered; either way a process holds one
    copy.

    For a float64 ``a = [1, theta...]`` with ``len(a) > 1``,
    ``kernel(_FILTER_NUMERATOR, a, u, -1)`` is ``signal.lfilter([1.0], a, u)``
    bit for bit: lfilter's public wrapper only checks its arguments and then
    makes exactly this call. Given an (n, k) block and axis 0, it filters
    each column, as the CSS Jacobian needs. The CSS fit filters tens of
    thousands of times, and the wrapper's checks and array-API dispatch
    took longer than the filter itself.
    """
    module = sys.modules.get(_KERNEL_MODULE)
    if module is None:
        scipy = importlib.util.find_spec("scipy")
        where = [os.path.join(path, "signal")
                 for path in scipy.submodule_search_locations]
        spec = importlib.machinery.PathFinder.find_spec(_KERNEL_MODULE, where)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[_KERNEL_MODULE] = module
    return module._linear_filter


def _ols(design: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, float]:
    if design.shape[1] == 0:
        return np.empty(0), float(target @ target)
    coef, *_ = np.linalg.lstsq(design, target, rcond=None)
    resid = target - design @ coef
    return coef, float(resid @ resid)


_RADIUS_SCALE = MA_RADIUS ** -np.arange(1.0, MAX_ARMA_ORDER + 1)


def _ma_admissible(theta: np.ndarray) -> bool:
    """Whether every pole of the innovations filter ``1 / (1 + theta_1 B +
    ... + theta_q B^q)`` lies within ``MA_RADIUS``: the step-down
    (Schur-Cohn) recursion on the coefficients scaled to that radius,
    whose reflection coefficients must all lie in (-1, 1)."""
    a = (theta * _RADIUS_SCALE[: len(theta)]).tolist()
    for m in range(len(a), 0, -1):
        k = a[m - 1]
        if not -1.0 < k < 1.0:  # NaN fails too
            return False
        s = 1.0 - k * k
        a = [(a[i] - k * a[m - 2 - i]) / s for i in range(m - 1)]
    return True


def _hannan_rissanen_start(
    w: np.ndarray, p: int, q: int, intercept: bool
) -> np.ndarray | None:
    """Warm start for mixed models: proxy shocks from a long AR fit, then a
    joint regression on lagged values and lagged shocks. MA poles that this
    regression puts outside the unit circle are reflected into it, and any
    pole still beyond ``MA_RADIUS`` is pulled in to it, so that the start
    is one that :func:`css_fit` may take."""
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
    if q and not _ma_admissible(coef2[-q:]):
        # the innovations filter's poles: the roots of z^q + theta_1 z^(q-1)
        # + ... + theta_q
        poles = np.roots(np.concatenate([[1.0], coef2[-q:]]))
        poles = np.where(np.abs(poles) > 1.0, 1.0 / poles.conj(), poles)
        radius = np.abs(poles)
        poles = np.where(radius > MA_RADIUS, poles * (MA_RADIUS / radius),
                         poles)
        coef2[-q:] = np.poly(poles)[1:].real
    return coef2  # layout [c?, phi..., theta...] matches css_fit's


def _css_problem(w: np.ndarray, p: int, q: int, intercept: bool, burn: int):
    """The conditional innovations of an ARMA(p, q) on ``w[burn:]``, given
    zero shocks before it, as functions of ``x = [c?, phi..., theta...]``.

    Returns ``(design, target, innovations, jacobian)``: ``design`` holds
    the columns ``[1?, w lags]`` and ``target`` is ``w[burn:]``.
    ``innovations(x)`` gives a new array. ``jacobian(x, e)``, for ``e =
    innovations(x)`` and ``q > 0``, gives minus the Jacobian: the MA filter
    applied to the columns ``[1?, w lags, e lags]``, with e zero before the
    window (Box, Jenkins, Reinsel & Ljung, *Time Series Analysis*, ch. 7).
    """
    target = w[burn:]
    n_eff = len(target)
    design = _lag_matrix(w, p, burn)
    if intercept:
        design = np.column_stack([np.ones(n_eff), design])
    k = design.shape[1]
    ma_poly = np.ones(q + 1)  # [1, theta...], theta refilled on every call
    linear_filter = _linear_filter() if q else None  # bound once
    block = np.zeros((n_eff, k + q))  # only the e lags are refilled
    block[:, :k] = design

    def innovations(x: np.ndarray) -> np.ndarray:
        u = target - design @ x[:k] if k else target.copy()
        if q:
            ma_poly[1:] = x[k:]
            u = linear_filter(_FILTER_NUMERATOR, ma_poly, u, -1)
        return u

    def jacobian(x: np.ndarray, e: np.ndarray) -> np.ndarray:
        for j in range(1, q + 1):
            block[j:, k + j - 1] = e[:-j]
        ma_poly[1:] = x[k:]
        return linear_filter(_FILTER_NUMERATOR, ma_poly, block, 0)

    return design, target, innovations, jacobian


def _marquardt(innovations, jacobian, x: np.ndarray, sse: float,
               q: int) -> tuple[np.ndarray, float]:
    """Levenberg-Marquardt descent on the sum of squared innovations from
    ``x``, whose SSE ``sse`` is finite; returns the best point and its SSE.

    Each trial step solves the damped normal equations
    ``(A + lam * diag(A)) step = -J'e``, with ``A = J'J`` (Marquardt, SIAM
    J. Appl. Math. 11(2), 1963). A step that gains at least
    ``LM_MIN_RATIO`` of the SSE drop the linearised model predicts is
    taken and ``lam`` falls tenfold; otherwise ``lam`` rises tenfold.

    The last ``q`` entries of ``x`` are the MA coefficients, and a trial
    point whose MA poles leave ``MA_RADIUS`` is refused unscored.

    The scaled gradient is the largest cosine between the innovations and
    a Jacobian column. The fit stops when it falls to ``LM_GTOL``; when a
    step gains less than ``LM_FTOL`` of the SSE while it is below
    ``LM_GAIN_GTOL``, so a slow step far from a minimum does not end the
    fit; when a step's norm is below ``LM_XTOL`` of the coefficients', as
    on the edge of ``MA_RADIUS``; when ``lam`` passes ``LM_MAX_DAMPING``;
    or after ``LM_MAX_TRIALS`` trial steps.
    """
    e = innovations(x)
    k = len(x)
    damped = np.empty((k, k))
    damped_diagonal = np.einsum("ii->i", damped)  # a writable view
    lam = LM_START_DAMPING
    fresh = True
    for _ in range(LM_MAX_TRIALS):
        if fresh:
            if sse == 0.0:
                break
            jac = jacobian(x, e)
            normal = jac.T @ jac
            rhs = jac.T @ e  # minus the half-gradient
            scale = normal.diagonal()
            scale = np.where(scale > 0.0, scale, 1.0)
            cosine2 = float((rhs * rhs / scale).max()) / sse
            # NaN fails the test too: a non-finite Jacobian ends the fit
            if not cosine2 > LM_GTOL * LM_GTOL:
                break
            fresh = False
        np.copyto(damped, normal)
        damped_diagonal += lam * scale
        # np.linalg.solve without its wrapper; a singular system gives a
        # NaN step, whose SSE is NaN and is refused
        step = _umath_linalg.solve1(damped, rhs, signature="dd->d")
        trial = x + step
        if not _ma_admissible(trial[k - q :]):
            gain = predicted = math.nan
        else:
            e_trial = innovations(trial)
            sse_trial = float(e_trial @ e_trial)
            gain = sse - sse_trial
            predicted = float(step @ (rhs + rhs - normal @ step))
        if gain > 0.0 and gain > LM_MIN_RATIO * predicted:
            x, e, sse = trial, e_trial, sse_trial
            lam *= 0.1
            fresh = True
            if gain < LM_FTOL * (sse + gain) and \
                    cosine2 < LM_GAIN_GTOL * LM_GAIN_GTOL:
                break
            if float(step @ step) <= LM_XTOL * LM_XTOL * float(x @ x):
                break
        else:
            lam *= 10.0
            if lam > LM_MAX_DAMPING:
                break
    return x, sse


def css_fit(
    w: np.ndarray,
    p: int,
    q: int,
    intercept: bool,
    burn: int | None = None,
    x0: np.ndarray | None = None,
) -> tuple[float, np.ndarray, np.ndarray, float, np.ndarray]:
    """Minimise the conditional sum of squared innovations.

    Pure AR cases solve in closed form by least squares. Models with an MA
    part run Levenberg-Marquardt (:func:`_marquardt`) from ``x0`` or, by
    default, from the better of a Hannan-Rissanen start and the least-squares
    AR start. Returns (c, phi, theta, sse, e): the innovations ``e`` for
    ``w[burn:]`` at the returned coefficients, conditioning on zero
    pre-window shocks, and the SSE over them (in pure AR cases, least
    squares' own), or ``inf`` where it is not finite.
    """
    w = np.asarray(w, dtype=float)
    if burn is None:
        burn = p
    if burn < p:
        raise ValidationError("burn-in cannot be shorter than the AR order")
    off = 1 if intercept else 0
    if len(w) - burn < p + q + off + 1:
        raise InsufficientDataError(
            f"series too short for ARMA({p},{q}) with burn-in {burn}"
        )
    design, target, innovations, jacobian = _css_problem(w, p, q, intercept,
                                                         burn)
    # squares of counts near the float range overflow: such an SSE scores
    # inf, so numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        x_ar, sse_ar = _ols(design, target)  # [c?, phi...]
        if q == 0:
            best_x = x_ar
            best_sse = sse_ar if math.isfinite(sse_ar) else math.inf
        else:
            starts = []
            if x0 is not None:
                starts.append(np.asarray(x0, dtype=float))
            else:
                hr = _hannan_rissanen_start(w, p, q, intercept)
                if hr is not None and len(hr) == p + q + off:
                    starts.append(hr)
                starts.append(np.concatenate([x_ar, np.zeros(q)]))
            # the first start with the smallest SSE
            best_sse = math.inf
            best_x = starts[0]
            for start in starts:
                e = innovations(start)
                sse = float(e @ e)
                if sse < best_sse:
                    best_x, best_sse = start, sse
            if math.isfinite(best_sse):
                best_x, best_sse = _marquardt(innovations, jacobian, best_x,
                                              best_sse, q)
        e = innovations(best_x)
    c = float(best_x[0]) if intercept else 0.0
    return (c, best_x[off : off + p].copy(), best_x[off + p :].copy(),
            best_sse, e)


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
    # the variance of counts near the float range overflows to inf
    with np.errstate(over="ignore", invalid="ignore"):
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
    # differences of counts near the float range can overflow
    with np.errstate(over="ignore", invalid="ignore"):
        w = np.diff(y, n=d) if d else y.copy()
    if not np.all(np.isfinite(w)):
        raise FitError(f"{series.name}: differences of order {d} overflow")
    intercept = d == 0

    if order is None:
        # score every order over a shared burn-in window so the AICs are
        # computed on identical samples, then refit the winner in full
        best = None
        for p in range(MAX_ARMA_ORDER + 1):
            for q in range(MAX_ARMA_ORDER + 1):
                try:
                    _, _, _, sse, _ = css_fit(
                        w, p, q, intercept, burn=MAX_ARMA_ORDER
                    )
                except InsufficientDataError:
                    continue
                aic = css_aic(sse, len(w) - MAX_ARMA_ORDER, p, q, intercept)
                if best is None or aic < best[0]:
                    best = (aic, p, q)
        if best is None:
            raise FitError("no ARMA order is estimable on this series")
        _, p, q = best
    elif len(w) <= p:
        raise InsufficientDataError(
            f"series too short to difference and lag for order {order}"
        )
    c, phi, theta, sse, resid = css_fit(w, p, q, intercept)

    # non-finite coefficients give non-finite innovations, so this also
    # catches a search that diverged
    if not math.isfinite(sse):
        raise FitError(
            f"{series.name}: ARIMA({p},{d},{q}) sum of squares is not finite"
        )

    n_eff = len(resid)
    fitted = np.full(n, np.nan)
    fitted[d + p:] = y[d + p:] - resid

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
        w_tail=w[-max(len(phi), 1) :].copy() if len(w) else np.empty(0),
        e_tail=resid[-max(len(theta), 1) :].copy() if n_eff else np.empty(0),
        diff_tails=diff_tails,
    )


def arima_forecast(model: ArimaModel, h: int) -> np.ndarray:
    """Recursive point forecasts with future innovations at zero, integrated
    back through the model's differences."""
    check_horizon(h)
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
        if order is None or order[2] > 0:
            _linear_filter()  # a fit that can filter: load before any fork

    def fit(self, train: UnivariateSeries) -> "ArimaForecaster":
        self._observed = np.asarray(train.values, dtype=float)
        self.model = arima_fit(train, order=self.order)
        return self

    def fitted(self) -> np.ndarray:
        return self.model.fitted_values

    def forecast(self, h: int) -> np.ndarray:
        return arima_forecast(self.model, h)

