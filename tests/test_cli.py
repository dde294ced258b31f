import csv
import os
import re
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from epicast.cli import build_parser, cmd_adjust, main
from epicast.core import fixture_path
from epicast.errors import EpicastError

from conftest import linear_series, make_series


def run(argv):
    return main([str(a) for a in argv])


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def write_series_csv(tmp_path, series, name="series.csv"):
    path = tmp_path / name
    series.to_csv(path)
    return path


FAST_FLAGS = ["--repeats", "3", "--epochs", "60"]


def assert_one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


class TestForecastCommand:
    def test_holt_on_linear_is_exact(self, tmp_path):
        path = write_series_csv(tmp_path, linear_series(50))
        out = tmp_path / "out"
        assert run(["forecast", "--input", path, "--model", "holt",
                    "--horizon", "7", "--out", out]) == 0
        rows = read_csv(out / "forecast.csv")
        assert rows[0] == ["date", "point_forecast", "clamped_forecast"]
        assert len(rows) == 8
        expected = 2.0 + 3.0 * np.arange(51, 58)
        for row, value in zip(rows[1:], expected):
            assert float(row[1]) == pytest.approx(value, abs=1e-9)
            assert float(row[2]) == pytest.approx(value, abs=1e-9)
        assert rows[1][0] == "2020-05-03"  # day after the 50-point series

    def test_negative_forecast_clamped_in_second_column(self, tmp_path):
        s = make_series(np.linspace(50.0, 2.0, 25))  # steep decline
        path = write_series_csv(tmp_path, s)
        out = tmp_path / "out"
        assert run(["forecast", "--input", path, "--model", "holt",
                    "--horizon", "3", "--out", out]) == 0
        rows = read_csv(out / "forecast.csv")
        raw = [float(r[1]) for r in rows[1:]]
        clamped = [float(r[2]) for r in rows[1:]]
        assert raw[-1] < 0
        assert clamped == [max(0.0, v) for v in raw]

    def test_hybrid_determinism_byte_identical(self, tmp_path, india):
        path = write_series_csv(tmp_path, india.prefix(80))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        argv = ["forecast", "--input", path, "--model", "holt-wbann",
                "--horizon", "1", "--seed", "7", *FAST_FLAGS]
        assert run(argv + ["--out", out_a]) == 0
        assert run(argv + ["--out", out_b]) == 0
        assert (out_a / "forecast.csv").read_bytes() == (
            out_b / "forecast.csv"
        ).read_bytes()

    def test_svg_emission(self, tmp_path):
        path = write_series_csv(tmp_path, linear_series(40))
        out = tmp_path / "out"
        assert run(["forecast", "--input", path, "--model", "holt",
                    "--out", out, "--svg"]) == 0
        text = (out / "forecast.svg").read_text()
        assert text.startswith("<svg") and "polyline" in text

    def test_rerun_removes_stale_svg(self, tmp_path):
        path = write_series_csv(tmp_path, linear_series(40))
        out = tmp_path / "out"
        argv = ["forecast", "--input", path, "--model", "holt", "--out", out]
        assert run(argv + ["--svg"]) == 0
        assert (out / "forecast.svg").exists()
        (out / "notes.txt").write_text("kept\n")
        assert run(argv) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "forecast.csv", "notes.txt"
        ]


class TestAdjustCommand:
    def test_zero_discrepancy_no_op(self, tmp_path):
        # states and national are linear and sum exactly: holt is exact on
        # both sides, so the gap d is zero and nothing moves
        t = np.arange(1.0, 41.0)
        a = make_series(10 + 2 * t, name="a")
        b = make_series(5 + 1 * t, name="b")
        total = make_series(a.values + b.values, name="total")
        path = tmp_path / "panel.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["date", "total", "a", "b"])
            for i, d in enumerate(total.dates):
                writer.writerow([d.isoformat(), total.values[i],
                                 a.values[i], b.values[i]])
        out = tmp_path / "out"
        assert run(["adjust", "--input", path, "--model", "holt",
                    "--out", out]) == 0
        rows = read_csv(out / "adjustment.csv")
        assert rows[0] == ["state", "unadjusted", "weight", "correction",
                           "adjusted"]
        for row in rows[1:]:
            assert float(row[3]) == pytest.approx(0.0, abs=1e-6)

    def test_fixture_panel_sum_consistent(self, tmp_path, panel):
        path = tmp_path / "panel.csv"
        panel.to_csv(path)
        out = tmp_path / "out"
        assert run(["adjust", "--input", path, "--model", "holt-wbann",
                    "--seed", "3", "--out", out, *FAST_FLAGS]) == 0
        rows = read_csv(out / "adjustment.csv")
        assert len(rows) == 1 + panel.n + 1
        adjusted_states = [float(r[4]) for r in rows[1:-1]]
        adjusted_national = float(rows[-1][4])
        assert adjusted_national == pytest.approx(sum(adjusted_states), abs=1e-9)
        weights = [float(r[2]) for r in rows[1:-1]]
        assert sum(weights) == pytest.approx(1.0, abs=1e-9)

    def test_weight_mode_flag(self, tmp_path, panel):
        path = tmp_path / "panel.csv"
        panel.to_csv(path)
        out = tmp_path / "out"
        assert run(["adjust", "--input", path, "--model", "holt",
                    "--weight-mode", "ewma:0.9", "--out", out]) == 0
        assert (out / "adjustment.csv").exists()

    @pytest.mark.parametrize("mode", ["window:abc", "ewma:x"])
    def test_bad_weight_mode_value_exits_one(self, tmp_path, panel, capsys,
                                             mode):
        path = tmp_path / "panel.csv"
        panel.to_csv(path)
        out = tmp_path / "out"
        assert run(["adjust", "--input", path, "--model", "holt",
                    "--weight-mode", mode, "--out", out]) == 1
        assert_one_error_line(capsys)
        assert not out.exists()

    def test_excluded_state_renormalises(self, tmp_path, panel, capsys,
                                         monkeypatch):
        from epicast import forecasters

        path = tmp_path / "panel.csv"
        panel.to_csv(path)
        holt_fit = forecasters.holt_fit

        def flaky_holt_fit(series):
            if series.name == "kerala":
                raise EpicastError("synthetic failure")
            return holt_fit(series)

        monkeypatch.setattr(forecasters, "holt_fit", flaky_holt_fit)
        out = tmp_path / "out"
        args = SimpleNamespace(
            input=str(path), model="holt", seed=1, out=str(out),
            lags=None, hidden=None, repeats=None, epochs=None,
            weight_mode="last",
        )
        cmd_adjust(args)
        rows = read_csv(out / "adjustment.csv")
        names = [r[0] for r in rows[1:-1]]
        assert "kerala" not in names
        assert len(names) == panel.n - 1
        weights = [float(r[2]) for r in rows[1:-1]]
        assert sum(weights) == pytest.approx(1.0, abs=1e-9)
        assert "kerala" in (out / "exclusions.txt").read_text()

    def test_state_with_too_many_lags_is_excluded(self, tmp_path, panel,
                                                   monkeypatch):
        # 302 lags leave no training pair in kerala's 302 Holt residuals
        from dataclasses import replace

        from epicast import hybrid

        path = tmp_path / "panel.csv"
        panel.to_csv(path)
        hybrid_problem = hybrid._hybrid_problem

        def kerala_with_302_lags(series, base_kind, config, base):
            if series.name == "kerala":
                config = replace(config, lags=302)
            return hybrid_problem(series, base_kind, config, base)

        monkeypatch.setattr(hybrid, "_hybrid_problem", kerala_with_302_lags)
        out = tmp_path / "out"
        args = SimpleNamespace(
            input=str(path), model="holt-wbann", seed=1, out=str(out),
            lags=None, hidden=None, repeats=1, epochs=5,
            weight_mode="last",
        )
        cmd_adjust(args)
        names = [r[0] for r in read_csv(out / "adjustment.csv")[1:-1]]
        assert names == [s.name for s in panel.states if s.name != "kerala"]
        assert "lags = 302" in (out / "exclusions.txt").read_text()


class TestMonitorCommand:
    def test_single_model_dominance_file(self, tmp_path):
        path = write_series_csv(tmp_path, linear_series(40))
        out = tmp_path / "out"
        assert run(["monitor", "--input", path, "--model", "holt",
                    "--out", out]) == 0
        rows = read_csv(out / "dominance.csv")
        assert rows[0] == ["model", "dominance_pct", "weighted_pct"]
        assert rows[1][0] == "holt"
        assert float(rows[1][1]) == 100.0

    def test_window_defaults_to_four(self):
        args = build_parser().parse_args(
            ["monitor", "--input", "x.csv"]
        )
        assert args.window == 4

    def test_two_model_outputs(self, tmp_path):
        path = write_series_csv(tmp_path, linear_series(40))
        out = tmp_path / "out"
        assert run(["monitor", "--input", path,
                    "--model", "holt,arima(0,1,0)", "--out", out,
                    "--svg"]) == 0
        dominance = read_csv(out / "dominance.csv")
        shares = {row[0]: float(row[1]) for row in dominance[1:]}
        assert shares["holt"] == 100.0
        assert shares["arima(0,1,0)"] == 0.0
        assert sum(shares.values()) == pytest.approx(100.0, abs=1e-9)
        timeline = read_csv(out / "timeline.csv")
        assert timeline[0] == ["origin", "m_holt", "m_arima(0,1,0)"]
        t = 40
        assert len(timeline) - 1 == (t - 4 + 1) - t // 2
        monitor_rows = read_csv(out / "monitor.csv")
        assert monitor_rows[0] == ["origin", "model", "rmse", "mae", "m"]
        assert (out / "monitor.svg").exists()

    def test_determinism(self, tmp_path):
        rng = np.random.default_rng(11)
        s = make_series(50 + np.cumsum(rng.normal(1, 3, size=44)))
        path = write_series_csv(tmp_path, s)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        argv = ["monitor", "--input", path, "--model", "holt,arima(0,1,0)",
                "--seed", "5"]
        assert run(argv + ["--out", out_a]) == 0
        assert run(argv + ["--out", out_b]) == 0
        for name in ("monitor.csv", "dominance.csv", "timeline.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


class TestShelflifeCommand:
    def test_synthetic_crossing_reported(self, tmp_path):
        m, horizon = 30, 40
        t = np.arange(1, m + horizon + 1, dtype=float)
        base_line = 100.0 + 2.0 * t
        values = base_line.copy()
        steps = np.arange(1, horizon + 1, dtype=float)
        values[m:] = base_line[m:] / (1.0 - 0.002 * steps)
        path = write_series_csv(tmp_path, make_series(values))
        out = tmp_path / "out"
        assert run(["shelflife", "--input", path, "--model", "holt",
                    "--train-len", "30", "--out", out]) == 0
        text = (out / "shelflife.txt").read_text()
        match = re.search(r"shelf life: ([0-9.]+) days", text)
        assert match and float(match.group(1)) == pytest.approx(25.0, abs=0.01)
        rows = read_csv(out / "ape.csv")
        assert rows[0] == ["t", "ape", "fitted_line"]
        assert len(rows) == 1 + horizon

    def test_default_train_len_is_half(self, tmp_path, india):
        path = write_series_csv(tmp_path, india.prefix(60))
        out = tmp_path / "out"
        assert run(["shelflife", "--input", path, "--model", "holt",
                    "--out", out]) == 0
        assert "train_len: 30" in (out / "shelflife.txt").read_text()


    @pytest.mark.parametrize("threshold", ["nan", "inf", "-5"])
    def test_bad_threshold_exits_one(self, tmp_path, capsys, threshold):
        path = write_series_csv(tmp_path, linear_series(40))
        out = tmp_path / "out"
        # "=" keeps argparse from reading "-5" as an option
        assert run(["shelflife", "--input", path, "--model", "holt",
                    f"--threshold={threshold}", "--out", out]) == 1
        assert_one_error_line(capsys)
        assert not out.exists()


class TestR0Command:
    def test_constant_series_reports_unit_r0(self, tmp_path):
        path = write_series_csv(tmp_path, make_series(np.full(40, 50.0)))
        out = tmp_path / "out"
        assert run(["r0", "--input", path, "--population", "1e6",
                    "--out", out]) == 0
        rows = read_csv(out / "r0.csv")
        assert rows[0] == ["location", "method", "r0", "ci_lower",
                           "ci_upper", "mse"]
        by_method = {row[1]: row for row in rows[1:]}
        assert float(by_method["growth"][2]) == pytest.approx(1.0, abs=1e-9)
        assert "sir" in by_method

    def test_growth_window_flag(self, tmp_path):
        t = np.arange(60)
        path = write_series_csv(
            tmp_path, make_series(10.0 * np.exp(0.05 * t))
        )
        out = tmp_path / "out"
        assert run(["r0", "--input", path, "--population", "1e9",
                    "--growth-window", "0:30", "--out", out]) == 0
        assert (out / "r0.csv").exists()

    @pytest.mark.parametrize("window", ["3", "a:b", "1:2:3"])
    def test_bad_growth_window_exits_one(self, tmp_path, capsys, window):
        path = write_series_csv(tmp_path, make_series(np.full(40, 50.0)))
        out = tmp_path / "out"
        assert run(["r0", "--input", path, "--growth-window", window,
                    "--out", out]) == 1
        assert_one_error_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("population", ["nan", "inf", "-inf"])
    def test_non_finite_population_exits_one(self, tmp_path, capsys,
                                              population):
        path = write_series_csv(tmp_path, make_series(np.full(40, 50.0)))
        out = tmp_path / "out"
        # "=" keeps argparse from reading "-inf" as an option
        assert run(["r0", "--input", path, f"--population={population}",
                    "--out", out]) == 1
        assert_one_error_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--gi-mean", "--gi-shape"])
    def test_non_finite_generation_interval_exits_one(self, tmp_path, capsys,
                                                      flag):
        # growing counts: a zero growth rate would turn inf into NaN
        t = np.arange(60)
        path = write_series_csv(tmp_path, make_series(10.0 * np.exp(0.05 * t)))
        out = tmp_path / "out"
        assert run(["r0", "--input", path, "--population", "1e9",
                    f"{flag}=inf", "--out", out]) == 1
        assert_one_error_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("mean, shape", [("1e200", "1e-200"),
                                             ("1e5", "1000")])
    def test_overflowing_r0_exits_one(self, tmp_path, capsys, mean, shape):
        t = np.arange(60)
        path = write_series_csv(tmp_path, make_series(10.0 * np.exp(0.05 * t)))
        out = tmp_path / "out"
        assert run(["r0", "--input", path, "--population", "1e9",
                    "--gi-mean", mean, "--gi-shape", shape,
                    "--out", out]) == 1
        assert_one_error_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--model", "--lags", "--hidden",
                                      "--repeats", "--epochs"])
    def test_model_flags_rejected(self, tmp_path, capsys, flag):
        path = write_series_csv(tmp_path, make_series(np.full(40, 50.0)))
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run(["r0", "--input", path, flag, "5", "--out", out])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()


class TestFailureModes:
    def test_missing_input_exits_nonzero(self, tmp_path):
        out = tmp_path / "out"
        assert run(["forecast", "--input", tmp_path / "absent.csv",
                    "--out", out]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("earlier", [False, True])
    @pytest.mark.parametrize("command, blocked, flags", [
        ("forecast", "forecast.svg", ["--svg"]),
        ("shelflife", "shelflife.txt", []),
    ])
    def test_failed_write_changes_no_output(self, tmp_path, capsys, command,
                                            blocked, flags, earlier):
        # one target is a directory, so the run cannot write it: no other
        # output may appear or change, and no temporary file may be left
        out = tmp_path / "out"
        argv = [command, "--model", "holt", "--out", out, *flags]
        if earlier:
            path = write_series_csv(tmp_path, linear_series(40), "a.csv")
            assert run(argv + ["--input", path]) == 0
            (out / blocked).unlink()
        (out / blocked).mkdir(parents=True)
        before = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
        path = write_series_csv(tmp_path, linear_series(40, slope=5.0), "b.csv")
        assert run(argv + ["--input", path]) == 1
        assert_one_error_line(capsys)
        after = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
        assert after == before
        assert sorted(p.name for p in out.iterdir()) == sorted([*before, blocked])
        assert not any((out / blocked).iterdir())

    def test_bad_model_exits_nonzero_without_outputs(self, tmp_path):
        path = write_series_csv(tmp_path, linear_series(40))
        out = tmp_path / "out"
        assert run(["forecast", "--input", path, "--model", "prophet",
                    "--out", out]) == 1
        assert not out.exists()

    @staticmethod
    def run_without_fits(monkeypatch, tmp_path, command, *flags):
        """Run ``command`` on its fixture with every fit entry point made to
        fail, and check that it exits 1 and writes no outputs."""
        def no_fits(*args, **kwargs):
            raise AssertionError("a model was fitted")

        monkeypatch.setattr("epicast.evaluate.map_units", no_fits)
        monkeypatch.setattr("epicast.hybrid.map_units", no_fits)
        monkeypatch.setattr("epicast.cli.fit_tagged_models", no_fits)
        fixture = {"adjust": "india_panel.csv"}.get(command,
                                                    "india_confirmed.csv")
        out = tmp_path / "out"
        assert run([command, "--input", fixture_path(fixture), *flags,
                    "--out", out]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("command, model", [
        ("monitor", "holt-wbann,arima(9,1,0)"),
        ("monitor", "holt,HOLT"),
        ("monitor", "arima(0,1,0), ARIMA(0, 1, 0)"),
        ("adjust", "arima(1,3,0)"),
    ])
    def test_bad_or_repeated_tag_exits_before_any_fit(
            self, tmp_path, capsys, monkeypatch, command, model):
        self.run_without_fits(monkeypatch, tmp_path, command, "--model", model)
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        if "HOLT" in model:
            assert "'holt'" in err

    @pytest.mark.parametrize("command, flag, value, message", [
        ("adjust", "--weight-mode", "window:0", "window must be >= 1"),
        ("adjust", "--weight-mode", "ewma:0", "decay must lie in (0, 1]"),
        ("adjust", "--weight-mode", "ewma:1.5", "decay must lie in (0, 1]"),
        ("forecast", "--horizon", "-1", "horizon must be nonnegative"),
    ])
    def test_out_of_range_flag_exits_before_any_fit(
            self, tmp_path, capsys, monkeypatch, command, flag, value,
            message):
        self.run_without_fits(monkeypatch, tmp_path, command,
                              f"{flag}={value}")
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_sigmoid_overflow_is_silent(self, tmp_path):
        # 300 lags drive some hidden units so far into saturation that
        # exp(-a) overflows to inf, where the sigmoid is 0. A fresh process,
        # because the test runner records warnings instead of printing them.
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        done = subprocess.run(
            [sys.executable, "-m", "epicast.cli", "adjust",
             "--input", str(fixture_path("india_panel.csv")), "--lags", "300",
             "--epochs", "2", "--repeats", "1", "--out", str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""

    @pytest.mark.parametrize("model, lags", [("holt-wbann", 302),
                                             ("arima-wbf", 300)])
    def test_too_many_lags_exits_one(self, tmp_path, capsys, model, lags):
        out = tmp_path / "out"
        assert run(["forecast", "--input", fixture_path("india_confirmed.csv"),
                    "--model", model, "--lags", lags, "--repeats", 1,
                    "--epochs", 2, "--out", out]) == 1
        assert_one_error_line(capsys)
        assert not out.exists()

    def test_log_env_variable(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EPICAST_LOG", "debug")
        path = write_series_csv(tmp_path, linear_series(40))
        out = tmp_path / "out"
        assert run(["forecast", "--input", path, "--model", "holt",
                    "--out", out]) == 0
