import codecs
import contextlib
import csv
import datetime
import functools
import io
import math
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path
from types import SimpleNamespace
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from epicast import cli
from epicast.cli import build_parser, cmd_adjust, main
from epicast.core import (
    HierarchicalPanel,
    NegativeValueWarning,
    UnivariateSeries,
    fixture_path,
    load_india_panel,
    load_india_series,
)
from epicast.errors import EpicastError
from epicast.hybrid import MODEL_TAGS
from epicast.parallel import usable_cpus

from conftest import START, linear_series, make_series


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


def has_forked(pid):
    """Whether process ``pid`` has a child; True where Linux cannot say."""
    try:
        with open(f"/proc/{pid}/task/{pid}/children", encoding="ascii") as fh:
            return bool(fh.read().split())
    except OSError:
        return True


def live_group_members(pgid):
    """The pids of Linux process group ``pgid`` that are not zombies."""
    pids = []
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii",
                      errors="replace") as fh:
                # after the parenthesised name: state, ppid, pgrp
                state, _, pgrp = fh.read().rsplit(")", 1)[1].split()[:3]
        except (OSError, ValueError):  # gone since the listing
            continue
        if int(pgrp) == pgid and state != "Z":
            pids.append(int(entry))
    return pids


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

    def test_svg_well_formed_for_markup_in_the_name(self, tmp_path):
        # the series name, the file's stem, is text inside the chart
        path = write_series_csv(tmp_path, linear_series(40), "a&b<c.csv")
        out = tmp_path / "out"
        assert run(["forecast", "--input", path, "--model", "holt",
                    "--out", out, "--svg"]) == 0
        assert run(["monitor", "--input", path, "--model", "holt",
                    "--out", out, "--svg"]) == 0
        title = ElementTree.parse(out / "forecast.svg").find(
            "{http://www.w3.org/2000/svg}title")
        assert title.text == "holt forecast for a&b<c"
        ElementTree.parse(out / "monitor.svg")

    def test_byte_order_mark_gives_the_plain_bytes(self, tmp_path):
        plain = fixture_path("india_confirmed.csv")
        marked = tmp_path / "marked" / plain.name
        marked.parent.mkdir()
        marked.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
        for path, out in ((plain, "a"), (marked, "b")):
            assert run(["forecast", "--input", path, "--svg", *FAST_FLAGS,
                        "--out", tmp_path / out]) == 0
        for name in ("forecast.csv", "forecast.svg"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name).read_bytes()

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
        args = SimpleNamespace(
            input=str(path), model="holt", seed=1,
            lags=None, hidden=None, repeats=None, epochs=None,
            weight_mode="last",
        )
        files, _ = cmd_adjust(args)
        rows = files["adjustment.csv"]
        names = [r[0] for r in rows[1:-1]]
        assert "kerala" not in names
        assert len(names) == panel.n - 1
        weights = [float(r[2]) for r in rows[1:-1]]
        assert sum(weights) == pytest.approx(1.0, abs=1e-9)
        assert "kerala" in files["exclusions.txt"]

    def test_state_with_too_many_lags_is_excluded(self, tmp_path, panel,
                                                   monkeypatch):
        # 302 lags leave no training pair in kerala's 302 Holt residuals
        from dataclasses import replace

        from epicast import hybrid

        path = tmp_path / "panel.csv"
        panel.to_csv(path)
        fit_base = hybrid.HybridForecaster._fit_base

        def kerala_with_302_lags(model, train, base):
            if train.name == "kerala":
                model.config = replace(model.config, lags=302)
            return fit_base(model, train, base)

        monkeypatch.setattr(hybrid.HybridForecaster, "_fit_base",
                            kerala_with_302_lags)
        args = SimpleNamespace(
            input=str(path), model="holt-wbann", seed=1,
            lags=None, hidden=None, repeats=1, epochs=5,
            weight_mode="last",
        )
        files, _ = cmd_adjust(args)
        names = [r[0] for r in files["adjustment.csv"][1:-1]]
        assert names == [s.name for s in panel.states if s.name != "kerala"]
        assert "lags = 302" in files["exclusions.txt"]


class TestPureCommands:
    # each command returns its files and its stdout text; main writes both
    @pytest.mark.parametrize("argv", [
        ["forecast", "--svg"],
        ["adjust"],
        ["monitor", "--model", "holt,holt-wbann", "--svg"],
        ["shelflife"],
        ["r0"],
    ], ids=lambda argv: argv[0])
    def test_command_returns_what_main_writes(self, tmp_path, capsys,
                                              monkeypatch, argv):
        fixture = "india_panel.csv" if argv[0] == "adjust" else (
            "india_confirmed.csv")
        argv = [*argv, "--input", fixture_path(fixture)]
        if argv[0] != "r0":
            argv += ["--epochs", 2, "--repeats", 1]
        out = tmp_path / "out"
        command, returned = getattr(cli, f"cmd_{argv[0]}"), []

        def pure(args):
            returned.append(command(args))
            assert capsys.readouterr().out == ""
            assert not any(tmp_path.iterdir())  # --out is not made yet
            return returned[-1]

        monkeypatch.setattr(cli, f"cmd_{argv[0]}", pure)
        assert run([*argv, "--out", out]) == 0
        (files, stdout), = returned
        assert capsys.readouterr().out == stdout
        assert (stdout == "") == (argv[0] == "forecast")
        written = {p.name: p for p in out.iterdir()}
        assert sorted(written) == sorted(
            name for name, contents in files.items() if contents is not None)
        for name, contents in files.items():
            if isinstance(contents, str):
                assert written[name].read_text(encoding="utf-8") == contents
            elif contents is not None:
                assert read_csv(written[name]) == [
                    [str(cell) for cell in row] for row in contents]


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
        monkeypatch.setattr("epicast.evaluate.fit_tagged_models", no_fits)
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
        ("forecast", "--horizon", "100001",
         "horizon must be at most 100000, got 100001"),
        ("forecast", "--hidden", "10001",
         "hidden and repeats must be at most 10000"),
        ("monitor", "--repeats", "10001",
         "hidden and repeats must be at most 10000"),
        *[(command, "--seed", "-1", "seed must be >= 0, got -1")
          for command in ("forecast", "adjust", "shelflife", "monitor")],
    ])
    def test_out_of_range_flag_exits_before_any_fit(
            self, tmp_path, capsys, monkeypatch, command, flag, value,
            message):
        self.run_without_fits(monkeypatch, tmp_path, command,
                              f"{flag}={value}")
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_out_of_memory_exits_one(self, tmp_path, capsys, monkeypatch):
        def too_big(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.11 PiB for an array")

        monkeypatch.setattr("epicast.cli.fit_tagged_models", too_big)
        out = tmp_path / "out"
        assert run(["forecast", "--input", fixture_path("india_confirmed.csv"),
                    "--out", out]) == 1
        assert capsys.readouterr().err == (
            "error: Unable to allocate 7.11 PiB for an array\n")
        assert not out.exists()

    @pytest.mark.parametrize("payload", [
        b"date,value\n2020-03-14,5\n\xe9\n",
        b'date,value\n2020-03-14,"' + b"9" * 131_073 + b'"\n',
    ], ids=["not-utf8", "over-field-limit"])
    def test_unreadable_csv_exits_one(self, tmp_path, capsys, payload):
        path = tmp_path / "series.csv"
        path.write_bytes(payload)
        out = tmp_path / "out"
        assert run(["r0", "--input", path, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1, err
        assert not out.exists()

    def test_header_only_panel_exits_one(self, tmp_path, capsys):
        path = tmp_path / "panel.csv"
        path.write_text("date,total,a,b\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run(["adjust", "--input", path, "--out", out]) == 1
        assert_one_error_line(capsys)
        assert not out.exists()

    @staticmethod
    def run_in_fresh_process(*argv):
        """The CLI run in a fresh process, because the test runner records
        warnings instead of printing them."""
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        return subprocess.run(
            [sys.executable, "-m", "epicast.cli", *map(str, argv)],
            env=env, capture_output=True, text=True, timeout=120)

    def test_sigmoid_overflow_is_silent(self, tmp_path):
        # 300 lags drive some hidden units so far into saturation that
        # exp(-a) overflows to inf, where the sigmoid is 0
        done = self.run_in_fresh_process(
            "adjust", "--input", fixture_path("india_panel.csv"),
            "--lags", 300, "--epochs", 2, "--repeats", 1, "--out", tmp_path)
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""

    def test_overflowing_panel_exits_one_silently(self, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text("date,total,a,b\n2020-01-01,1e308,1e308,1e308\n",
                        encoding="utf-8")
        out = tmp_path / "out"
        done = self.run_in_fresh_process("adjust", "--model", "holt",
                                         "--input", path, "--out", out)
        assert done.returncode == 1
        assert done.stderr == (
            "error: state sum or national-minus-states defect overflows on "
            "2020-01-01\n")
        assert not out.exists()

    def test_overflowing_holt_fit_exits_one_silently(self, tmp_path):
        # every grid pair's squared one-step errors overflow
        path = tmp_path / "series.csv"
        path.write_text("date,value\n" + "".join(
            f"2020-03-0{day},{value}\n"
            for day, value in enumerate(["1e308", 0, 0, 5, 6], start=1)),
            encoding="utf-8")
        out = tmp_path / "out"
        done = self.run_in_fresh_process("forecast", "--model", "holt",
                                         "--input", path, "--out", out)
        assert done.returncode == 1
        assert done.stderr == "error: series: Holt one-step errors overflow\n"
        assert not out.exists()

    def test_overflowing_arima_fit_exits_one_silently(self, tmp_path):
        # squared innovations of counts near 1e155 overflow for every order
        values = 1e155 * (1.0 + 0.1 * (np.arange(40) % 7))
        path = write_series_csv(tmp_path, make_series(values))
        out = tmp_path / "out"
        done = self.run_in_fresh_process("forecast", "--model", "arima",
                                         "--input", path, "--out", out)
        assert done.returncode == 1
        assert done.stderr == (
            "error: series: ARIMA(0,0,0) sum of squares is not finite\n")
        assert not out.exists()

    @pytest.mark.parametrize("model", MODEL_TAGS)
    def test_forecast_past_the_float_range_exits_one_silently(self, tmp_path,
                                                               model):
        # the line (i + 1) * 2**1019 reaches 2**1024, past the float range,
        # on its second forecast day
        values = [(i + 1) * 2.0**1019 for i in range(30)]
        path = write_series_csv(tmp_path, make_series(values))
        out = tmp_path / "out"
        done = self.run_in_fresh_process("forecast", "--model", model,
                                         *FAST_FLAGS, "--input", path,
                                         "--out", out)
        assert done.returncode == 1
        assert done.stderr == (
            f"error: series: the {model} forecast overflows on 2020-04-14\n")
        assert not out.exists()

    @pytest.mark.parametrize("command, values, day", [
        # trained on the rising half, the line passes 2**1024 on its 12th
        # day, where the flat half holds
        ("shelflife", [min(i + 1, 20) * 2.0**1019 for i in range(40)],
         "2020-04-14"),
        # the origin-8 fit on the rising week forecasts past 1.8e308
        ("monitor", [0.2e308 + 0.25e308 * min(i, 6) for i in range(14)],
         "2020-03-21"),
    ])
    def test_scored_forecast_past_the_float_range_exits_one_silently(
            self, tmp_path, command, values, day):
        path = write_series_csv(tmp_path, make_series(values))
        out = tmp_path / "out"
        done = self.run_in_fresh_process(command, "--model", "holt",
                                         "--input", path, "--out", out)
        assert done.returncode == 1
        assert done.stderr == (
            f"error: series: the holt forecast overflows on {day}\n")
        assert not out.exists()

    def test_adjust_past_the_float_range_exits_one_silently(self, tmp_path):
        # the national line (i + 2) * 2**1019 reaches 2**1024 on the next day
        path = tmp_path / "panel.csv"
        path.write_text("date,total,a,b\n" + "".join(
            f"{START + datetime.timedelta(days=i)},{(i + 2) * 2**1019},"
            f"{(i + 2) * 2**1018},{(i + 2) * 2**1018}\n" for i in range(30)),
            encoding="utf-8")
        out = tmp_path / "out"
        done = self.run_in_fresh_process("adjust", "--model", "holt",
                                         "--input", path, "--out", out)
        assert done.returncode == 1
        assert done.stderr == (
            "error: total: the holt forecast overflows on 2020-04-13\n")
        assert not out.exists()

    @pytest.mark.parametrize("values, flags", [
        # the squared 4-day errors of three records overflow
        (lambda india: 1e150 * india.values[80:140],
         ["holt,arima(1,1,1),holt-wbann", "--epochs", 20, "--repeats", 2]),
        # every record's squared errors overflow: no model could win
        (lambda india: 1e151 * india.values[20:80], ["holt"]),
        # the last origins' errors near 1.6e308 overflow the sums of mae and
        # of m as well
        (lambda india: np.repeat([1e307, 1.7e308], [36, 4]),
         ["holt,arima", "--window", 8]),
    ], ids=["three-tags", "holt-only", "sums"])
    def test_monitor_errors_near_the_float_range_score_finite(
            self, tmp_path, india, values, flags):
        path = write_series_csv(tmp_path, make_series(values(india)))
        out = tmp_path / "out"
        done = self.run_in_fresh_process("monitor", "--input", path,
                                         "--model", *flags, "--out", out)
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""
        with open(out / "monitor.csv", newline="", encoding="utf-8") as f:
            rows = list(csv.DictReader(f))
        assert rows and all(math.isfinite(float(row[key])) for row in rows
                            for key in ("rmse", "mae", "m"))

    def test_overflowing_cumulative_count_exits_one_silently(self, tmp_path,
                                                             india):
        # the cumulative count of 60 days near 1e307 overflows
        values = 1e303 * india.values[100:160]
        path = write_series_csv(tmp_path, make_series(values))
        out = tmp_path / "out"
        done = self.run_in_fresh_process("r0", "--input", path,
                                         "--population", "1e308",
                                         "--out", out)
        assert done.returncode == 1
        assert done.stderr == (
            "error: population must exceed the cumulative case count\n")
        assert not out.exists()

    @staticmethod
    def start_fitting_monitor(out):
        """``monitor`` on the fixture in a new session, once its origins are
        fitting: past the imports and, where it forks, its workers exist."""
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        proc = subprocess.Popen(
            [sys.executable, "-m", "epicast.cli", "monitor", "--input",
             fixture_path("india_confirmed.csv"), "--out", str(out)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, start_new_session=True)
        time.sleep(1.0)
        deadline = time.monotonic() + 30
        while (usable_cpus() > 1 and not has_forked(proc.pid)
               and time.monotonic() < deadline):
            time.sleep(0.05)
        return proc

    @pytest.mark.skipif(not hasattr(os, "killpg"), reason="no process groups")
    def test_ctrl_c_exits_130_with_one_line(self, tmp_path):
        # Ctrl-C signals the terminal's whole process group: the parent and
        # any worker it forked
        out = tmp_path / "out"
        proc = self.start_fitting_monitor(out)
        try:
            os.killpg(proc.pid, signal.SIGINT)
            _, err = proc.communicate(timeout=120)
            assert proc.returncode == 130, err
            assert err == "error: interrupted\n"
            with pytest.raises(ProcessLookupError):  # no worker is left
                os.killpg(proc.pid, 0)
            assert not out.exists() or not any(out.iterdir())
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()

    @pytest.mark.skipif(not sys.platform.startswith("linux")
                        or usable_cpus() < 2,
                        reason="workers end with their parent on Linux only")
    def test_sigterm_to_the_parent_alone_leaves_no_worker(self, tmp_path):
        # the workers, orphaned, are reaped by whoever adopts them: count
        # the group's live processes, not its zombies
        out = tmp_path / "out"
        proc = self.start_fitting_monitor(out)
        try:
            proc.terminate()
            assert proc.wait(timeout=60) == -signal.SIGTERM
            deadline = time.monotonic() + 5
            while (live_group_members(proc.pid)
                   and time.monotonic() < deadline):
                time.sleep(0.05)
            assert live_group_members(proc.pid) == []
            assert not out.exists() or not any(out.iterdir())
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            proc.stderr.close()  # a worker left behind would hold it open

    @pytest.mark.parametrize("model, lags", [("holt-wbann", 302),
                                             ("arima-wbf", 300)])
    def test_too_many_lags_exits_one(self, tmp_path, capsys, model, lags):
        out = tmp_path / "out"
        assert run(["forecast", "--input", fixture_path("india_confirmed.csv"),
                    "--model", model, "--lags", lags, "--repeats", 1,
                    "--epochs", 2, "--out", out]) == 1
        assert_one_error_line(capsys)
        assert not out.exists()

    def test_negative_count_warns_in_one_line(self, tmp_path):
        # the library raises NegativeValueWarning; the command logs it
        lines = fixture_path("india_confirmed.csv").read_text().splitlines()
        lines[100] = lines[100].split(",")[0] + ",-5"
        path = tmp_path / "neg.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        done = self.run_in_fresh_process("forecast", "--model", "holt",
                                         "--input", path, "--out", out)
        assert done.returncode == 0, done.stderr
        assert (out / "forecast.csv").exists()
        assert done.stderr == (
            "WARNING:epicast:neg: series contains negative values\n")

    def test_log_env_variable(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EPICAST_LOG", "debug")
        path = write_series_csv(tmp_path, linear_series(40))
        out = tmp_path / "out"
        assert run(["forecast", "--input", path, "--model", "holt",
                    "--out", out]) == 0

    def test_log_env_variable_takes_only_level_names(self, tmp_path,
                                                     monkeypatch):
        # BASIC_FORMAT is a logging attribute but a format string, not a
        # level: it falls back to warning like an unknown name
        monkeypatch.setenv("EPICAST_LOG", "basic_format")
        done = self.run_in_fresh_process(
            "r0", "--input", fixture_path("india_confirmed.csv"),
            "--out", tmp_path / "out")
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""


@functools.cache
def short_input(command, scale=1.0, days=44):
    """The first ``days`` days of the command's fixture, by default 44, the
    fewest on which every origin of monitor fits a hybrid, with every count
    times ``scale``."""
    def short(series):
        return UnivariateSeries(series.name, series.dates[:days],
                                scale * series.values[:days])

    if command == "adjust":
        full = load_india_panel()
        return HierarchicalPanel(short(full.national),
                                 [short(s) for s in full.states])
    return short(load_india_series())


@functools.cache
def max_scale_exponent(days=44):
    """The largest e for which 10**e times every count of every command's
    short input of ``days`` days is finite."""
    panel = short_input("adjust", days=days)
    peak = max(float(np.max(np.abs(s.values)))
               for s in (short_input("forecast", days=days), panel.national,
                         *panel.states))
    e = int(np.log10(np.finfo(float).max / peak))
    assert np.isfinite(10.0**e * peak)
    return e


# numbers of every size and sign; huge is 10**15 or more, which no machine
# allocates, so even an unchecked size fails at once instead of filling memory
INTEGERS = st.sampled_from(["0", "-1", "1", "2", "3", "7", str(10**15),
                            str(-10**15), str(10**30)])
NUMBERS = st.one_of(INTEGERS, st.sampled_from(["0.5", "1e308", "nan", "inf",
                                               "-inf"]))
MALFORMED = st.text(alphabet="0123456789-+.:,()einfaholtwbrx ", max_size=12)


def or_malformed(values):
    """``values``, or one time in four malformed text."""
    return st.integers(0, 3).flatmap(lambda i: values if i else MALFORMED)


TAGS = st.sampled_from(["holt", "holt-wbann", "arima(1,1,1)", "arima(0,1,0)",
                        "HOLT,holt", "arima(9,1,0)", "arima(1,1)", ""])
WEIGHT_MODES = st.sampled_from(["last", "window:3", "ewma:0.5", "window:0",
                                "ewma:nan", "window:" + str(10**30)])
# every command's flags but --input and --out, each with the values to draw
# from; --epochs and --repeats stay small, to keep each run short
MODEL_FLAGS = ("--model", "--seed", "--lags", "--hidden", "--repeats",
               "--epochs")
COMMAND_FLAGS = {
    "forecast": (*MODEL_FLAGS, "--horizon"),
    "adjust": (*MODEL_FLAGS, "--weight-mode"),
    "monitor": (*MODEL_FLAGS, "--window"),
    "shelflife": (*MODEL_FLAGS, "--train-len", "--threshold"),
    "r0": ("--seed", "--population", "--gi-mean", "--gi-shape",
           "--growth-window"),
}
FLAG_VALUES = {
    "--model": TAGS,
    "--weight-mode": WEIGHT_MODES,
    "--growth-window": st.tuples(INTEGERS, INTEGERS).map(":".join),
    **dict.fromkeys(("--seed", "--lags", "--hidden", "--horizon", "--window",
                     "--train-len"), INTEGERS),
    **dict.fromkeys(("--repeats", "--epochs"),
                    st.sampled_from(["-1", "0", "1", "3"])),
}

# panel counts of every size and sign, and cells no count parses from
COUNTS = ["0", "1", "7", "250", "1e6", "-3", "2.5"]
HUGE_COUNTS = ["1e300", "1e308", "-1e308"]
ODD_CELLS = st.sampled_from(["nan", "inf", "-inf", "", "x", "1,2"])


@st.composite
def panel_files(draw) -> bytes:
    """A panel file of 1 to 3 states, one row per day from 2020-03-01 on;
    one file in two may hold huge counts, and one in four an odd cell."""
    states = draw(st.integers(1, 3))
    counts = st.sampled_from(COUNTS + HUGE_COUNTS * draw(st.booleans()))
    rows = draw(st.lists(st.lists(counts, min_size=states + 1,
                                  max_size=states + 1), max_size=30))
    if rows and draw(st.integers(0, 3)) == 0:
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, states))] = draw(ODD_CELLS)
    start = datetime.date(2020, 3, 1)
    lines = [",".join(["date", "total", *"abc"[:states]])] + [
        ",".join([(start + datetime.timedelta(days=k)).isoformat(), *cells])
        for k, cells in enumerate(rows)]
    return "\n".join(lines).encode() + b"\n"


class TestArbitraryInput:
    @settings(max_examples=200, deadline=None)
    @given(command=st.sampled_from(sorted(COMMAND_FLAGS)), data=st.data())
    def test_any_flags_exit_zero_one_or_two(self, command, data):
        # every command, on counts of ordinary size or near the float range,
        # with any subset of its flags set to numbers of any size or sign,
        # non-finite values or malformed text: exit 0 or 1, or argparse's 2,
        # with at most one "error:" line; any other exception, or a numpy
        # warning, fails the test
        exponent = data.draw(st.integers(0, max_scale_exponent()),
                             label="scale exponent")
        scale = 10.0**exponent
        flags = data.draw(st.lists(st.sampled_from(COMMAND_FLAGS[command]),
                                   unique=True, max_size=3))
        # short defaults in place of 500 epochs; a drawn value comes later,
        # and argparse keeps the last
        argv = [] if command == "r0" else ["--epochs=2", "--repeats=1"]
        argv += [f"{flag}="
                 + data.draw(or_malformed(FLAG_VALUES.get(flag, NUMBERS)),
                             label=flag)
                 for flag in flags]
        if command in ("forecast", "monitor") and data.draw(st.booleans()):
            argv.append("--svg")
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "input.csv"
            short_input(command, scale).to_csv(path)
            err = io.StringIO()
            with contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                try:
                    code = run([command, "--input", path, *argv,
                                "--out", Path(tmp) / "out"])
                except SystemExit as exc:
                    code = exc.code
        event(f"{command} x{scale:g} exit {code}")
        assert code in (0, 1, 2), err.getvalue()
        assert err.getvalue().count("error:") <= 1, err.getvalue()

    @settings(max_examples=10, deadline=None)
    @given(days=st.integers(60, 120), data=st.data())
    def test_monitor_on_longer_input_exits_zero_or_one(self, days, data):
        # monitor on the fixture's first 60-120 days, at any scale up to the
        # largest finite one: exit 0 or 1 with at most one "error:" line;
        # any other exception, or a numpy warning, fails the test
        exponent = data.draw(st.integers(0, max_scale_exponent(days)),
                             label="scale exponent")
        scale = 10.0**exponent
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "input.csv"
            short_input("monitor", scale, days).to_csv(path)
            err = io.StringIO()
            with contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                code = run(["monitor", "--input", path, "--epochs=2",
                            "--repeats=1", "--out", Path(tmp) / "out"])
        event(f"{days} days x{scale:g} exit {code}")
        assert code in (0, 1), err.getvalue()
        assert err.getvalue().count("error:") <= 1, err.getvalue()

    @settings(max_examples=50, deadline=None)
    @given(payload=st.one_of(
        st.binary(max_size=200),
        st.binary(max_size=200).map(lambda b: b"date,value\n" + b),
        st.text(alphabet="0123456789-,.\n\"date,value", max_size=200)
          .map(str.encode),
    ))
    def test_r0_exits_zero_or_one(self, payload):
        # any file: exit 0 or 1, or argparse's 2, with at most one "error:"
        # line; any other exception fails the test
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "input.csv"
            path.write_bytes(payload)
            err = io.StringIO()
            with contextlib.redirect_stderr(err), warnings.catch_warnings():
                warnings.simplefilter("ignore", NegativeValueWarning)
                try:
                    code = run(["r0", "--input", path, "--out", Path(tmp) / "out"])
                except SystemExit as exc:
                    code = exc.code
        assert code in (0, 1, 2)
        assert err.getvalue().count("error:") <= 1, err.getvalue()

    @settings(max_examples=100, deadline=None)
    @given(payload=st.one_of(
        st.binary(max_size=200),
        st.binary(max_size=200).map(lambda b: b"date,total,a,b\n" + b),
        panel_files(),
    ))
    def test_adjust_exits_zero_or_one(self, payload):
        # any panel file, fitted by Holt alone to keep each run short: exit
        # 0 or 1, or argparse's 2, with at most one "error:" line; any other
        # exception fails the test
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "panel.csv"
            path.write_bytes(payload)
            err = io.StringIO()
            with contextlib.redirect_stderr(err), warnings.catch_warnings():
                warnings.simplefilter("ignore", NegativeValueWarning)
                try:
                    code = run(["adjust", "--model", "holt", "--input", path,
                                "--out", Path(tmp) / "out"])
                except SystemExit as exc:
                    code = exc.code
        event(f"exit {code}")
        assert code in (0, 1, 2)
        assert err.getvalue().count("error:") <= 1, err.getvalue()
