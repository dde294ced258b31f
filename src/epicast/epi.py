"""Basic reproduction number estimation.

Two independent estimators are provided and reported side by side:

* exponential-growth method: fit the early growth rate r by regressing
  log incidence on time, then map it through a gamma-distributed
  generation interval (mean mu, shape kappa) via
  ``R0 = (1 + r * mu / kappa) ** kappa``;
* SIR cross-check: least-squares fit of the susceptible-infected-recovered
  compartments to cumulative incidence, reporting ``R0 = beta / gamma``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import UnivariateSeries
from .errors import DomainError, FitError, InsufficientDataError, ValidationError
from .simplex import nelder_mead

Z_95 = 1.96

SIR_BOUNDS = {
    "beta": (1e-6, 5.0),
    "gamma": (1.0 / 60.0, 2.0),
    "i0": (1e-10, 0.05),
}


@dataclass(frozen=True)
class GenerationInterval:
    """Gamma-distributed time between successive infections (days)."""

    mu: float
    kappa: float

    def __post_init__(self):
        if not all(math.isfinite(v) and v > 0 for v in (self.mu, self.kappa)):
            raise ValidationError(
                "generation interval needs finite mu > 0 and kappa > 0, got "
                f"mu={self.mu!r}, kappa={self.kappa!r}"
            )


@dataclass(frozen=True)
class R0Estimate:
    growth_rate: float
    r_stderr: float
    r0: float
    ci_lower: float
    ci_upper: float
    fit_mse: float

    def __post_init__(self):
        if not self.ci_lower <= self.r0 <= self.ci_upper:
            raise ValidationError("confidence bounds must bracket the estimate")


@dataclass(frozen=True)
class SirFit:
    beta: float
    gamma: float
    s0: float
    i0: float
    trajectory_mse: float

    @property
    def r0_sir(self) -> float:
        return self.beta / self.gamma


def default_growth_window(series: UnivariateSeries, length: int = 30):
    """First ``length`` observations starting at the first positive count."""
    positive = np.flatnonzero(series.values > 0)
    if not len(positive):
        raise ValidationError(f"{series.name}: no positive observations")
    start = int(positive[0])
    return start, min(start + length, len(series))


def fit_growth_rate(series: UnivariateSeries, window=None):
    """Exponential growth rate over a window: OLS of log incidence on time.

    Returns (r, stderr, mse) where stderr is the OLS slope standard error
    and mse the mean squared regression residual.
    """
    if window is None:
        window = default_growth_window(series)
    start, stop = int(window[0]), int(window[1])
    if not 0 <= start < stop <= len(series):
        raise ValidationError(f"window [{start}, {stop}) out of range")
    if stop - start < 5:
        raise InsufficientDataError("growth window must span at least 5 days")
    values = series.values[start:stop]
    bad = np.flatnonzero(values <= 0)
    if len(bad):
        date = series.dates[start + int(bad[0])]
        raise ValidationError(
            f"nonpositive count on {date.isoformat()}: cannot take logs"
        )
    t = np.arange(start, stop, dtype=float)
    log_y = np.log(values)
    n = len(t)
    slope, intercept = np.polyfit(t, log_y, 1)
    resid = log_y - (intercept + slope * t)
    sse = float(resid @ resid)
    sxx = float(np.sum((t - t.mean()) ** 2))
    stderr = math.sqrt(sse / (n - 2) / sxx) if n > 2 else 0.0
    return float(slope), stderr, sse / n


def _gamma_interval_r0(r: float, gi: GenerationInterval) -> float:
    base = 1.0 + r * gi.mu / gi.kappa
    try:
        return base**gi.kappa
    except OverflowError:  # a float power raises where a product gives inf
        return math.inf


def r0_from_growth(
    r: float, gi: GenerationInterval, stderr: float = 0.0, mse: float = 0.0
) -> R0Estimate:
    """Map a growth rate to R0 through the gamma generation interval.

    The confidence interval evaluates the same map at ``r +/- 1.96 *
    stderr``; an interval endpoint outside the formula's domain collapses
    to the limiting value 0. An estimate or bound beyond the float range
    raises :class:`DomainError`.
    """
    if 1.0 + r * gi.mu / gi.kappa <= 0:
        raise DomainError(
            f"growth rate {r}/day decays too fast for a generation interval "
            f"with mean {gi.mu} and shape {gi.kappa}"
        )

    def bounded(rate: float) -> float:
        if 1.0 + rate * gi.mu / gi.kappa <= 0:
            return 0.0
        return _gamma_interval_r0(rate, gi)

    r0 = _gamma_interval_r0(r, gi)
    ci_lower = bounded(r - Z_95 * stderr)
    ci_upper = bounded(r + Z_95 * stderr)
    if not all(math.isfinite(v) for v in (r0, ci_lower, ci_upper)):
        raise DomainError(
            f"R0 or its interval is not finite for growth rate {r}/day and a "
            f"generation interval with mean {gi.mu} and shape {gi.kappa}"
        )
    return R0Estimate(
        growth_rate=r,
        r_stderr=stderr,
        r0=r0,
        ci_lower=ci_lower,
        ci_upper=ci_upper,
        fit_mse=mse,
    )


@dataclass(frozen=True)
class SirTrajectory:
    """Daily compartment fractions including the initial state at day 0."""

    s: np.ndarray
    i: np.ndarray
    r: np.ndarray

    def __len__(self) -> int:
        return len(self.s)


def sir_simulate(
    beta: float, gamma: float, s0: float, i0: float, days: int, step: float = 0.1
) -> SirTrajectory:
    """Integrate dS = -beta*S*I, dI = beta*S*I - gamma*I, dR = gamma*I with
    classical fourth-order Runge-Kutta, sampling once per day.

    The state is two plain floats: on 2-element arrays the per-operation
    overhead of numpy dominates. Each line keeps the operation order of the
    vector form ``x + (dt/6) * (k1 + 2*k2 + 2*k3 + k4)``, so the result is
    bit-identical to it (float64 rounds each operation alike either way).

    The S stages are written without their negation: ``s - half * f``
    stands for ``s + half * (-f)``, and the final update subtracts the
    weighted sum of the flows ``f`` instead of adding that of ``-f``.
    Round-to-nearest is symmetric in sign, so every finite value and every
    infinity keeps its bits; only the sign bit of a NaN from an overflowing
    trajectory may differ. Literals are ``2.0`` because CPython specialises
    only float-by-float products, and each value is assigned on its own line
    because packing and unpacking tuples costs more than the arithmetic.
    """
    if beta < 0 or gamma <= 0:
        raise ValidationError("need beta >= 0 and gamma > 0")
    if s0 < 0 or i0 < 0 or s0 + i0 > 1.0 + 1e-12:
        raise ValidationError("initial fractions must be nonnegative, sum <= 1")
    if days < 1:
        raise ValidationError("days must be >= 1")
    if not 0 < step <= 0.5:
        raise ValidationError("step must lie in (0, 0.5] days")
    # numpy scalars (sir_fit passes np.float64) are several times slower
    # than Python floats in this loop
    beta, gamma, s0, i0 = float(beta), float(gamma), float(s0), float(i0)
    substeps = max(1, math.ceil(1.0 / step))
    dt = 1.0 / substeps
    half = 0.5 * dt
    sixth = dt / 6.0

    s, i = s0, i0
    s_out, i_out = [s], [i]
    for _ in range(days):
        for _ in range(substeps):
            f1 = beta * s * i
            g1 = f1 - gamma * i
            s2 = s - half * f1
            i2 = i + half * g1
            f2 = beta * s2 * i2
            g2 = f2 - gamma * i2
            s3 = s - half * f2
            i3 = i + half * g2
            f3 = beta * s3 * i3
            g3 = f3 - gamma * i3
            s4 = s - dt * f3
            i4 = i + dt * g3
            f4 = beta * s4 * i4
            g4 = f4 - gamma * i4
            s = s - sixth * (((f1 + 2.0 * f2) + 2.0 * f3) + f4)
            i = i + sixth * (((g1 + 2.0 * g2) + 2.0 * g3) + g4)
        s_out.append(s)
        i_out.append(i)
    recovered0 = 1.0 - s0 - i0
    s = np.array(s_out)
    i = np.array(i_out)
    return SirTrajectory(s=s, i=i, r=(s0 + i0 + recovered0) - s - i)


def sir_fit(
    series: UnivariateSeries, population: float, step: float = 0.25
) -> SirFit:
    """Fit (beta, gamma, i0) to cumulative incidence fractions by bounded
    direct search; s0 is 1 - i0 and the model curve is 1 - S(t)."""
    if not math.isfinite(population):
        raise ValidationError(
            f"population must be a finite number, got {population!r}"
        )
    cumulative = np.cumsum(series.values)
    if cumulative[-1] <= 0:
        raise ValidationError(f"{series.name}: no epidemic signal to fit")
    if population <= cumulative[-1]:
        raise ValidationError("population must exceed the cumulative case count")
    observed = cumulative / population
    days = len(series)

    lo = np.array([SIR_BOUNDS[k][0] for k in ("beta", "gamma", "i0")])
    hi = np.array([SIR_BOUNDS[k][1] for k in ("beta", "gamma", "i0")])

    def trajectory_sse(x: np.ndarray) -> float:
        beta, gamma, i0 = np.clip(x, lo, hi)
        traj = sir_simulate(beta, gamma, 1.0 - i0, i0, days, step=step)
        model = 1.0 - traj.s[1:]
        err = model - observed
        return float(err @ err)

    def objective(x: np.ndarray) -> float:
        sse = trajectory_sse(x)
        return sse if math.isfinite(sse) else 1e300

    x0 = np.array([0.2, 0.1, max(float(observed[0]), 1e-8)])
    # x0 is the search's first vertex, so its result is never worse than x0
    x, _ = nelder_mead(objective, x0, maxfev=600, xatol=1e-8, fatol=1e-12)
    best = np.clip(x, lo, hi)
    sse = trajectory_sse(best)
    if not math.isfinite(sse):
        raise FitError(
            f"SIR search failed; best parameters so far beta={best[0]:.4g}, "
            f"gamma={best[1]:.4g}, i0={best[2]:.4g}"
        )
    beta, gamma, i0 = (float(v) for v in best)
    return SirFit(
        beta=beta,
        gamma=gamma,
        s0=1.0 - i0,
        i0=i0,
        trajectory_mse=sse / days,
    )
