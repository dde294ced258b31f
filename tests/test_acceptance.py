"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

The heaviest case exercises every CLI command twice on the committed
national fixture to prove determinism and the per-command runtime budget;
expect the full module to take several minutes.
"""

import math
import time

import numpy as np
import pytest

from epicast.adjust import AdjustmentInput, adjust_forecasts, compute_weights
from epicast.cli import main
from epicast.epi import GenerationInterval, r0_from_growth, sir_fit, sir_simulate
from epicast.evaluate import ape, monitor, shelf_life_from_apes
from epicast.forecasters import HoltParams, holt_filter, holt_fit, holt_forecast
from epicast.hybrid import HybridForecaster
from epicast.neural import TdnnConfig, _init_weights, wbann_forecast
from epicast.wavelet import choose_levels, imodwt_haar, modwt_haar

from conftest import linear_series, make_series
from oracles import coefficient_energy, loss_and_grads


def report(criterion, ok, detail=""):
    marker = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {marker} {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


class TestCriterion1Wavelet:
    def test_round_trip_energy_shift(self):
        start = time.time()
        rng_lengths = np.random.default_rng(2024)
        lengths = rng_lengths.integers(8, 1025, size=50)
        worst_rt = worst_energy = worst_shift = 0.0
        count = 0
        for seed in range(4):
            rng = np.random.default_rng(seed)
            for n in lengths:
                x = rng.normal(scale=25.0, size=int(n))
                levels = choose_levels(int(n))
                mra = modwt_haar(x, levels)
                worst_rt = max(worst_rt, float(np.max(np.abs(imodwt_haar(mra) - x))))
                energy = coefficient_energy(mra)
                worst_energy = max(
                    worst_energy, abs(energy - float(x @ x)) / float(x @ x)
                )
                shift = int(rng.integers(1, n))
                rolled = modwt_haar(np.roll(x, shift), levels)
                for a, b in zip(mra.components, rolled.components):
                    worst_shift = max(
                        worst_shift, float(np.max(np.abs(np.roll(a, shift) - b)))
                    )
                count += 1
        elapsed = time.time() - start
        ok = (
            count == 200
            and worst_rt < 1e-9
            and worst_energy < 1e-6
            and worst_shift < 1e-9
            and elapsed < 10.0
        )
        report(
            1,
            ok,
            f"200 series: round-trip {worst_rt:.2e}, energy {worst_energy:.2e}, "
            f"shift {worst_shift:.2e}, {elapsed:.1f}s",
        )


class TestCriterion2HoltExactness:
    @pytest.mark.filterwarnings("ignore:.*negative values")
    def test_linear_series_tracked_exactly(self):
        rng = np.random.default_rng(7)
        alphas = np.array([0.01, 0.2, 0.5, 0.77, 1.0])
        betas = np.array([0.01, 0.33, 0.6, 0.9, 1.0])
        worst = 0.0
        for _ in range(10):
            a0 = float(rng.uniform(-50, 50))
            b0 = float(rng.uniform(-5, 5))
            t = np.arange(1, 61, dtype=float)
            s = make_series(a0 + b0 * t)
            expected = a0 + b0 * np.arange(61, 68)
            for alpha in alphas:
                for beta in betas:
                    state = holt_filter(s, HoltParams(float(alpha), float(beta)))
                    resid = s.values[1:] - state.fitted[1:]
                    worst = max(worst, float(np.max(np.abs(resid))))
                    errs = holt_forecast(state, 7) - expected
                    worst = max(worst, float(np.max(np.abs(errs))))
        report(2, worst < 1e-9, f"max deviation {worst:.2e}")


class TestCriterion3HoltOptimizer:
    def test_grid_argmin_attained(self, india, panel):
        def oracle(y):
            grid = np.arange(1, 101) / 100.0
            best = np.inf
            for a in grid:
                level = np.full(100, y[0])
                trend = np.full(100, y[1] - y[0])
                sse = np.zeros(100)
                for t in range(1, len(y)):
                    pred = level + trend
                    err = y[t] - pred
                    sse += err * err
                    new_level = a * y[t] + (1 - a) * pred
                    trend = grid * (new_level - level) + (1 - grid) * trend
                    level = new_level
                best = min(best, float(sse.min()))
            return best

        fixtures = [india] + [s for s in panel.states[:4]]
        worst_gap = 0.0
        for s in fixtures:
            params, state = holt_fit(s)
            resid = s.values[1:] - state.fitted[1:]
            attained = float(resid @ resid)
            target = oracle(s.values)
            worst_gap = max(worst_gap, (attained - target) / target)
        report(
            3,
            worst_gap <= 1e-12,
            f"5 fixture series, worst relative excess {worst_gap:.2e}",
        )


class TestCriterion4Gradient:
    def test_twenty_random_configurations(self):
        rng = np.random.default_rng(404)
        eps = 1e-5
        worst = 0.0
        for _ in range(20):
            p = int(rng.integers(2, 5))
            h = int(rng.integers(1, 4))
            n = int(rng.integers(8, 30))
            x = rng.normal(size=(n, p))
            y = rng.normal(size=n)
            weights = _init_weights(
                np.random.default_rng(int(rng.integers(0, 1 << 31))), 1, p, h
            )
            _, grads = loss_and_grads(weights, x, y)
            for key in weights:
                flat = weights[key].ravel()
                gflat = grads[key].ravel()
                for i in range(flat.size):
                    orig = flat[i]
                    flat[i] = orig + eps
                    up, _ = loss_and_grads(weights, x, y)
                    flat[i] = orig - eps
                    down, _ = loss_and_grads(weights, x, y)
                    flat[i] = orig
                    fd = (up[0] - down[0]) / (2 * eps)
                    denom = max(abs(fd), 1e-8)
                    worst = max(worst, abs(gflat[i] - fd) / denom)
        report(4, worst < 1e-4, f"max relative gradient error {worst:.2e}")


class TestCriterion5Hybrid:
    def test_identity_and_improvement(self, india, panel):
        cfg = TdnnConfig(seed=42)
        worst_fit_gap = worst_fc_gap = 0.0
        for s in [india] + list(panel.states):
            model = HybridForecaster("holt-wbann", "holt", cfg).fit(s)
            fitted = model.fitted()
            base_fitted = model.base.fitted()
            resid_fitted = model.residual_model.fitted_values
            mask = np.isfinite(fitted)
            recomposed = (base_fitted[model.base_skip:] + resid_fitted)[
                mask[model.base_skip:]
            ]
            worst_fit_gap = max(
                worst_fit_gap, float(np.max(np.abs(fitted[mask] - recomposed)))
            )
            fc = model.forecast(7)
            parts = model.base.forecast(7) + wbann_forecast(model.residual_model, 7)
            worst_fc_gap = max(worst_fc_gap, float(np.max(np.abs(fc - parts))))
        india_model = HybridForecaster("holt-wbann", "holt", cfg).fit(india)
        fitted = india_model.fitted()
        mask = np.isfinite(fitted)
        rmse_hybrid = float(np.sqrt(np.mean((india.values[mask] - fitted[mask]) ** 2)))
        base_fitted = india_model.base.fitted()
        rmse_base = float(
            np.sqrt(np.mean((india.values[mask] - base_fitted[mask]) ** 2))
        )
        ok = worst_fit_gap == 0.0 and worst_fc_gap == 0.0 and rmse_hybrid < rmse_base
        report(
            5,
            ok,
            f"identity gaps ({worst_fit_gap}, {worst_fc_gap}); india RMSE "
            f"hybrid {rmse_hybrid:.3f} < base {rmse_base:.3f}",
        )


class TestCriterion6Adjustment:
    def test_algebra(self):
        rng = np.random.default_rng(606)
        worst_sum = worst_weight = 0.0
        branches = set()
        for _ in range(1000):
            n = int(rng.integers(1, 9))
            inp = AdjustmentInput(
                state_forecasts=rng.normal(100, 40, size=n),
                national_forecast=float(rng.normal(100 * n, 60)),
                last_observed_states=rng.normal(100, 40, size=n),
                last_fitted_states=rng.normal(100, 40, size=n),
                last_observed_national=float(rng.normal(100 * n, 60)),
                last_fitted_national=float(rng.normal(100 * n, 60)),
            )
            result = adjust_forecasts(inp)
            branches.add(result.branch)
            worst_weight = max(worst_weight, abs(float(result.weights.sum()) - 1.0))
            worst_sum = max(
                worst_sum,
                abs(
                    result.corrected_national_forecast
                    - float(result.corrected_state_forecasts.sum())
                ),
            )
        hand = compute_weights([11.0, 12.0, 13.0], [10.0, 10.0, 10.0])
        hand_gap = float(
            np.max(np.abs(hand - np.array([1 / 14, 4 / 14, 9 / 14])))
        )
        ok = (
            worst_sum < 1e-9
            and worst_weight < 1e-12
            and hand_gap < 1e-12
            and len(branches) == 2
        )
        report(
            6,
            ok,
            f"1000 inputs over {len(branches)} branches: sum gap {worst_sum:.2e}, "
            f"weight gap {worst_weight:.2e}, hand case {hand_gap:.2e}",
        )


class TestCriterion7Monitor:
    def test_linear_dominance_and_origins(self):
        s = linear_series(40)
        k = 4
        report_obj = monitor(s, ["holt", "arima(0,1,0)"], k=k, seed=1)
        t = len(s)
        origin_ok = len(report_obj.origins) == (t - k + 1) - t // 2
        dominance_ok = report_obj.dominance["holt"] == 100.0
        sum_ok = abs(sum(report_obj.dominance.values()) - 100.0) < 1e-9
        import inspect

        from epicast.cli import build_parser

        default_k = inspect.signature(monitor).parameters["k"].default
        cli_k = build_parser().parse_args(["monitor", "--input", "x"]).window
        ok = origin_ok and dominance_ok and sum_ok and default_k == 4 and cli_k == 4
        report(
            7,
            ok,
            f"holt dominance {report_obj.dominance['holt']}%, "
            f"{len(report_obj.origins)} origins, k defaults ({default_k}, {cli_k})",
        )


class TestCriterion8ShelfLife:
    def test_crossing_and_ape(self):
        m = 30
        t_values = np.arange(m + 1, m + 41)
        apes = 0.2 * (t_values - m)
        result = shelf_life_from_apes(t_values, apes, train_len=m)
        ape_ok = ape(100.0, 95.0) == 5.0
        ok = abs(result.shelf_days - 25.0) <= 0.01 and ape_ok
        report(
            8,
            ok,
            f"crossing at {result.shelf_days:.4f} days, APE(100,95) == "
            f"{ape(100.0, 95.0)}",
        )


class TestCriterion9R0:
    def test_properties(self):
        unit = r0_from_growth(0.0, GenerationInterval(5.0, 5.0))
        unit_ok = unit.r0 == 1.0

        limit = r0_from_growth(0.1, GenerationInterval(5.0, 1e6))
        limit_gap = abs(limit.r0 - math.exp(0.5))

        traj = sir_simulate(0.4, 0.15, 0.95, 0.02, days=250, step=0.25)
        total = traj.s + traj.i + traj.r
        conservation = float(np.max(np.abs(total - total[0])))

        pop = 1e6
        gen = sir_simulate(0.3, 0.2, 1 - 1e-4, 1e-4, days=150, step=0.25)
        daily = pop * (gen.s[:-1] - gen.s[1:])
        fit = sir_fit(make_series(np.maximum(daily, 0.0)), pop)
        recovery_gap = abs(fit.r0_sir - 1.5) / 1.5

        final = sir_simulate(0.4, 0.2, 1 - 1e-6, 1e-6, days=400, step=0.1)
        x = 0.5
        for _ in range(200):
            x = 1.0 - math.exp(-2.0 * x)
        final_gap = abs(final.r[-1] - x)

        ok = (
            unit_ok
            and limit_gap < 1e-3
            and conservation < 1e-9
            and recovery_gap < 0.05
            and final_gap < 1e-3
        )
        report(
            9,
            ok,
            f"r0(0)={unit.r0}, limit gap {limit_gap:.2e}, conservation "
            f"{conservation:.2e}, beta/gamma recovery gap {recovery_gap:.3%}, "
            f"final size gap {final_gap:.2e}",
        )


class TestCriterion10EndToEnd:
    def test_cli_determinism_and_budget(self, tmp_path, india, panel):
        series_csv = tmp_path / "india_confirmed.csv"
        india.to_csv(series_csv)
        panel_csv = tmp_path / "india_panel.csv"
        panel.to_csv(panel_csv)
        commands = {
            "forecast": ["forecast", "--input", str(series_csv), "--horizon", "7"],
            "adjust": ["adjust", "--input", str(panel_csv)],
            "monitor": ["monitor", "--input", str(series_csv)],
            "shelflife": ["shelflife", "--input", str(series_csv)],
            "r0": ["r0", "--input", str(series_csv)],
        }
        timings = {}
        for name, argv in commands.items():
            outs = []
            for run_idx in ("a", "b"):
                out_dir = tmp_path / f"{name}_{run_idx}"
                start = time.time()
                code = main(argv + ["--seed", "42", "--out", str(out_dir)])
                elapsed = time.time() - start
                assert code == 0, f"{name} run {run_idx} failed"
                timings.setdefault(name, []).append(elapsed)
                outs.append(out_dir)
            files_a = sorted(p.name for p in outs[0].iterdir())
            files_b = sorted(p.name for p in outs[1].iterdir())
            assert files_a == files_b and files_a, f"{name}: outputs differ in set"
            for fname in files_a:
                ba = (outs[0] / fname).read_bytes()
                bb = (outs[1] / fname).read_bytes()
                assert ba == bb, f"{name}/{fname}: bytes differ between runs"
        slowest = {name: max(times) for name, times in timings.items()}
        ok = all(t < 300.0 for t in slowest.values())
        summary = ", ".join(f"{name} {t:.0f}s" for name, t in slowest.items())
        report(10, ok, f"byte-identical outputs; per-command max runtime: {summary}")
