import math

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from epicast.epi import (
    GenerationInterval,
    R0Estimate,
    default_growth_window,
    fit_growth_rate,
    r0_from_growth,
    sir_fit,
    sir_simulate,
)
from epicast import epi
from epicast.errors import (
    DomainError,
    FitError,
    InsufficientDataError,
    ValidationError,
)

from conftest import make_series


def _reference_sir_simulate(beta, gamma, s0, i0, days, step):
    """The array-form RK4 that ``sir_simulate`` replaced: the readable oracle
    its scalar loop must match bit for bit."""
    substeps = max(1, math.ceil(1.0 / step))
    dt = 1.0 / substeps

    def rhs(state):
        s, i = state
        flow = beta * s * i
        return np.array([-flow, flow - gamma * i])

    state = np.array([s0, i0], dtype=float)
    recovered0 = 1.0 - s0 - i0
    out = np.empty((days + 1, 2))
    out[0] = state
    for day in range(1, days + 1):
        for _ in range(substeps):
            k1 = rhs(state)
            k2 = rhs(state + 0.5 * dt * k1)
            k3 = rhs(state + 0.5 * dt * k2)
            k4 = rhs(state + dt * k3)
            state = state + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        out[day] = state
    s = out[:, 0]
    i = out[:, 1]
    return s, i, (s0 + i0 + recovered0) - s - i


class TestGrowthRate:
    def test_exact_exponential(self):
        t = np.arange(40)
        s = make_series(10.0 * np.exp(0.1 * t))
        r, stderr, mse = fit_growth_rate(s, (0, 40))
        assert r == pytest.approx(0.1, abs=1e-12)
        assert stderr == pytest.approx(0.0, abs=1e-12)
        assert mse == pytest.approx(0.0, abs=1e-24)

    def test_constant_series(self):
        s = make_series(np.full(20, 7.0))
        r, stderr, _ = fit_growth_rate(s, (0, 20))
        assert r == pytest.approx(0.0, abs=1e-12)

    def test_noisy_exponential_coverage(self):
        rng = np.random.default_rng(21)
        t = np.arange(60)
        s = make_series(50.0 * np.exp(0.05 * t) * np.exp(rng.normal(0, 0.1, 60)))
        r, stderr, _ = fit_growth_rate(s, (0, 60))
        assert abs(r - 0.05) <= 2.0 * stderr

    def test_nonpositive_value_names_date(self):
        s = make_series([5.0, 6.0, 0.0, 7.0, 8.0, 9.0])
        with pytest.raises(ValidationError, match="2020-03-16"):
            fit_growth_rate(s, (0, 6))

    def test_short_window(self):
        s = make_series(np.arange(1.0, 11.0))
        with pytest.raises(InsufficientDataError):
            fit_growth_rate(s, (0, 4))

    def test_default_window_skips_leading_zeros(self):
        values = np.concatenate([np.zeros(5), np.exp(0.1 * np.arange(40)) * 10])
        s = make_series(values)
        start, stop = default_growth_window(s)
        assert (start, stop) == (5, 35)
        r, _, _ = fit_growth_rate(s)
        assert r == pytest.approx(0.1, abs=1e-9)


class TestR0FromGrowth:
    def test_zero_growth_is_unit_reproduction(self):
        est = r0_from_growth(0.0, GenerationInterval(5.0, 5.0))
        assert est.r0 == 1.0
        assert (est.ci_lower, est.ci_upper) == (1.0, 1.0)

    def test_large_shape_limit(self):
        est = r0_from_growth(0.1, GenerationInterval(5.0, 1e6))
        assert est.r0 == pytest.approx(math.exp(0.5), abs=1e-3)

    def test_reported_interval_style_parameters_evaluate(self):
        # mean 0.1, shape 10: dimensionally odd but numerically fine
        est = r0_from_growth(0.05, GenerationInterval(0.1, 10.0))
        assert math.isfinite(est.r0) and est.r0 > 1.0

    def test_monotone_in_growth_rate(self):
        gi = GenerationInterval(5.0, 5.0)
        rates = np.linspace(-0.1, 0.3, 30)
        values = [r0_from_growth(float(r), gi).r0 for r in rates]
        assert np.all(np.diff(values) > 0)

    def test_ci_brackets_estimate(self):
        est = r0_from_growth(0.08, GenerationInterval(5.0, 5.0), stderr=0.01)
        assert est.ci_lower < est.r0 < est.ci_upper

    def test_domain_violation(self):
        with pytest.raises(DomainError):
            r0_from_growth(-3.0, GenerationInterval(5.0, 5.0))

    def test_gi_validation(self):
        with pytest.raises(ValidationError):
            GenerationInterval(0.0, 5.0)

    @pytest.mark.parametrize("mu, kappa", [
        (math.inf, 5.0), (5.0, math.inf), (math.nan, 5.0), (5.0, math.nan),
        (-math.inf, 5.0), (5.0, -1.0),
    ])
    def test_gi_must_be_finite_and_positive(self, mu, kappa):
        with pytest.raises(ValidationError, match="finite"):
            GenerationInterval(mu, kappa)

    @pytest.mark.parametrize("r, mu, kappa, stderr", [
        (0.05, 1e200, 1e-200, 0.0),  # r * mu / kappa overflows to inf
        (0.05, 1e5, 1000.0, 0.0),  # the power overflows
        (0.05, 5.0, 500.0, 1e3),  # only the upper bound overflows
    ])
    def test_overflow_raises_domain_error(self, r, mu, kappa, stderr):
        with pytest.raises(DomainError, match="not finite"):
            r0_from_growth(r, GenerationInterval(mu, kappa), stderr=stderr)

    def test_estimate_invariant(self):
        with pytest.raises(ValidationError):
            R0Estimate(
                growth_rate=0.1, r_stderr=0.0, r0=2.0,
                ci_lower=2.5, ci_upper=3.0, fit_mse=0.0,
            )


class TestSirSimulate:
    def test_no_transmission_decays_exponentially(self):
        traj = sir_simulate(0.0, 0.2, 0.9, 0.05, days=30, step=0.1)
        exact = 0.05 * np.exp(-0.2 * np.arange(31))
        assert np.max(np.abs(traj.i - exact)) < 1e-6

    def test_conservation(self):
        traj = sir_simulate(0.4, 0.15, 0.95, 0.02, days=200, step=0.25)
        total = traj.s + traj.i + traj.r
        assert np.max(np.abs(total - total[0])) < 1e-9

    def test_final_size_equation(self):
        traj = sir_simulate(0.4, 0.2, 1 - 1e-6, 1e-6, days=400, step=0.1)
        x = 0.5
        for _ in range(200):
            x = 1.0 - math.exp(-2.0 * x)
        assert traj.r[-1] == pytest.approx(x, abs=1e-3)

    def test_step_halving_converged(self):
        a = sir_simulate(0.3, 0.2, 0.99, 0.01, days=100, step=0.5)
        b = sir_simulate(0.3, 0.2, 0.99, 0.01, days=100, step=0.25)
        assert np.max(np.abs(a.i - b.i)) < 1e-6

    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            sir_simulate(0.3, 0.2, 0.9, 0.05, days=10, step=0.7)
        with pytest.raises(ValidationError):
            sir_simulate(0.3, 0.2, 0.9, 0.2, days=0)

    @settings(max_examples=100, deadline=None)
    @given(
        beta=st.floats(0.0, 5.0),
        gamma=st.floats(1.0 / 60.0, 2.0),
        i0=st.floats(1e-10, 0.05),
        days=st.integers(1, 303),
        step=st.sampled_from([0.1, 0.25, 0.3, 0.5]),
        scalar=st.sampled_from([float, np.float64]),
    )
    def test_bit_identical_to_array_form(self, beta, gamma, i0, days, step,
                                         scalar):
        # sir_fit passes numpy scalars, so both kinds of input are covered
        args = (scalar(beta), scalar(gamma), scalar(1.0 - i0), scalar(i0))
        traj = sir_simulate(*args, days, step=step)
        reference = _reference_sir_simulate(*args, days, step)
        for got, want in zip((traj.s, traj.i, traj.r), reference):
            assert got.tobytes() == want.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(
        beta=st.floats(0.0, 1e3),
        gamma=st.floats(1.0 / 60.0, 2.0),
        i0=st.floats(1e-10, 1.0),
        days=st.integers(1, 60),
        step=st.sampled_from([0.1, 0.25, 0.5]),
    )
    def test_overflow_matches_array_form(self, beta, gamma, i0, days, step):
        # large beta overflows the trajectory to inf and then NaN, whose sign
        # bit the scalar form need not share; every other value keeps its bits
        args = (beta, gamma, 1.0 - i0, i0)
        with np.errstate(over="ignore", invalid="ignore"):
            traj = sir_simulate(*args, days, step=step)
            reference = _reference_sir_simulate(*args, days, step)
        event("overflow" if np.isnan(reference[0]).any() else "finite")
        for got, want in zip((traj.s, traj.i, traj.r), reference):
            nan = np.isnan(want)
            assert np.array_equal(np.isnan(got), nan)
            assert got[~nan].tobytes() == want[~nan].tobytes()


class TestSirFit:
    def test_self_consistency(self):
        pop = 1e6
        gen = sir_simulate(0.3, 0.2, 1 - 1e-4, 1e-4, days=150, step=0.25)
        daily = pop * (gen.s[:-1] - gen.s[1:])
        series = make_series(np.maximum(daily, 0.0), name="synthetic")
        fit = sir_fit(series, pop)
        assert fit.r0_sir == pytest.approx(1.5, rel=0.05)
        assert fit.s0 + fit.i0 <= 1.0

    def test_zero_incidence(self):
        with pytest.raises(ValidationError, match="signal"):
            sir_fit(make_series(np.zeros(30)), 1e6)

    def test_population_must_exceed_cases(self):
        with pytest.raises(ValidationError):
            sir_fit(make_series(np.full(30, 10.0)), 100.0)

    @pytest.mark.parametrize("population", [math.nan, math.inf, -math.inf])
    def test_population_must_be_finite(self, population):
        with pytest.raises(ValidationError, match="finite"):
            sir_fit(make_series(np.full(30, 10.0)), population)

    def test_non_finite_trajectories_raise_fit_error(self, monkeypatch):
        def nan_simulate(beta, gamma, s0, i0, days, step=0.1):
            nan = np.full(days + 1, np.nan)
            return epi.SirTrajectory(s=nan, i=nan, r=nan)

        monkeypatch.setattr(epi, "sir_simulate", nan_simulate)
        with pytest.raises(FitError, match="SIR search failed"):
            sir_fit(make_series(np.full(30, 10.0)), 1e6)

    def test_no_simulation_beyond_the_search(self, monkeypatch, india):
        # the fit keeps the search's minimum instead of simulating it again
        counts = {"search": 0, "simulate": 0}
        search, simulate = epi.nelder_mead, epi.sir_simulate

        def counted_search(f, *args, **kwargs):
            def counted_f(x):
                counts["search"] += 1
                return f(x)
            return search(counted_f, *args, **kwargs)

        def counted_simulate(*args, **kwargs):
            counts["simulate"] += 1
            return simulate(*args, **kwargs)

        monkeypatch.setattr(epi, "nelder_mead", counted_search)
        monkeypatch.setattr(epi, "sir_simulate", counted_simulate)
        sir_fit(india.prefix(60), 1.38e9)
        assert counts["simulate"] == counts["search"]

    def test_fixture_sanity_band(self, india):
        fit = sir_fit(india, 1.38e9)
        assert 1.0 < fit.r0_sir < 5.0
        assert fit.trajectory_mse >= 0.0
