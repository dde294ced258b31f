"""The fork pool behind monitor and adjust: results in unit order, the same
bytes for any worker count, and failures that end a run cleanly."""

import functools
import multiprocessing
import os
import subprocess
import sys
import threading
from types import SimpleNamespace

import pytest

import test_cli
from epicast import cli, evaluate, parallel
from epicast.core import load_india_series
from epicast.errors import EpicastError, FitError
from epicast.hybrid import fit_tagged_models
from epicast.neural import TdnnConfig
from epicast.parallel import map_units

from conftest import linear_series
from test_cli import FAST_FLAGS, assert_one_error_line, run, write_series_csv


def set_workers(monkeypatch, count):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: count)


@pytest.fixture
def two_workers(monkeypatch):
    # a test that kills a worker would end this process if the units ran here
    assert parallel._may_fork()
    set_workers(monkeypatch, 2)


class TestMapUnits:
    def test_closure_results_in_unit_order(self, two_workers):
        parent = os.getpid()
        offsets = {i: 10 * i for i in range(7)}  # closed over, never pickled
        results = map_units(lambda i: (offsets[i] + i, os.getpid()), 7)
        assert [value for value, _ in results] == [11 * i for i in range(7)]
        assert all(pid != parent for _, pid in results)

    def test_one_worker_runs_in_process(self, monkeypatch):
        set_workers(monkeypatch, 1)
        assert map_units(lambda i: os.getpid(), 3) == [os.getpid()] * 3

    def test_never_more_workers_than_units(self, monkeypatch):
        set_workers(monkeypatch, 8)
        assert map_units(lambda i: os.getpid(), 1) == [os.getpid()]
        assert map_units(lambda i: i, 0) == []

    def test_lowest_failing_unit_wins(self, two_workers):
        def fn(i):
            if i in (1, 4):
                raise FitError(f"unit {i} failed")
            return i

        with pytest.raises(FitError, match="^unit 1 failed$"):
            map_units(fn, 6)

    def test_dead_worker_raises_epicast_error(self, two_workers):
        def fn(i):
            if i == 2:
                os._exit(1)
            return i

        with pytest.raises(EpicastError, match="worker process died"):
            map_units(fn, 4)


def _monitor_records(days):
    """Monitor records of holt on the first ``days`` fixture days."""
    series = load_india_series().prefix(days)
    return evaluate.monitor(series, ["holt"], k=4, seed=3).records


class TestInProcessWhereForkIsUnsafe:
    """Units run in this process, where a fork would fail, deadlock or hide
    the fits from an observer in the caller's process."""

    def test_daemonic_worker(self, two_workers):
        with multiprocessing.get_context("fork").Pool(1) as pool:
            got = pool.apply_async(_monitor_records, (24,)).get(timeout=120)
        assert got == _monitor_records(24)

    def test_another_thread_running(self, two_workers):
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(60,))
        other.start()
        try:
            pids = map_units(lambda i: os.getpid(), 3)
        finally:
            release.set()
            other.join(timeout=60)
        assert not other.is_alive()
        assert pids == [os.getpid()] * 3
        assert os.getpid() not in map_units(lambda i: os.getpid(), 3)

    @staticmethod
    def _manual_wrapper(fn, calls):
        def traced(*args, **kwargs):
            calls.append(len(args[0]))
            return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    @staticmethod
    def _functools_wrapper(fn, calls):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls.append(len(args[0]))
            return fn(*args, **kwargs)

        return counted

    @pytest.mark.parametrize("wrap", ["_manual_wrapper", "_functools_wrapper"])
    def test_wrapped_package_function(self, monkeypatch, two_workers, wrap):
        expected = _monitor_records(24)
        calls = []
        monkeypatch.setattr(evaluate, "fit_tagged_models", getattr(self, wrap)(
            evaluate.fit_tagged_models, calls))
        assert _monitor_records(24) == expected
        assert calls == [origin - 1 for origin in range(13, 22)]
        monkeypatch.undo()
        set_workers(monkeypatch, 2)
        assert os.getpid() not in map_units(lambda i: os.getpid(), 2)


def outputs(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


class TestSameBytesForAnyWorkerCount:
    def test_monitor(self, tmp_path, monkeypatch, india):
        path = write_series_csv(tmp_path, india.prefix(40))
        got = {}
        for count in (1, 2):
            set_workers(monkeypatch, count)
            out = tmp_path / f"out{count}"
            assert run(["monitor", "--input", path, "--model",
                        "arima,holt-wbann,holt", "--seed", "3", "--svg",
                        "--out", out, *FAST_FLAGS]) == 0
            got[count] = outputs(out)
        assert sorted(got[1]) == ["dominance.csv", "monitor.csv",
                                  "monitor.svg", "timeline.csv"]
        assert got[1] == got[2]

    @pytest.mark.parametrize("weight_mode", ["last", "ewma:0.9"])
    def test_adjust(self, tmp_path, monkeypatch, panel, weight_mode):
        path = tmp_path / "panel.csv"
        panel.to_csv(path)
        got = {}
        for count in (1, 2):
            set_workers(monkeypatch, count)
            out = tmp_path / f"out{count}"
            assert run(["adjust", "--input", path, "--model", "holt-wbann",
                        "--seed", "3", "--weight-mode", weight_mode,
                        "--out", out, *FAST_FLAGS]) == 0
            got[count] = outputs(out)
        assert sorted(got[1]) == ["adjustment.csv"]
        assert got[1] == got[2]

    def test_adjust_with_exclusions(self, tmp_path, monkeypatch, panel):
        path = tmp_path / "panel.csv"
        panel.to_csv(path)

        def flaky_fit(series):
            if series.name in ("kerala", "karnataka"):
                raise FitError(f"synthetic failure on {series.name}")
            return fit_tagged_models(series, ["holt"], TdnnConfig(seed=1))["holt"]

        got = {}
        for count in (1, 2):
            set_workers(monkeypatch, count)
            out = tmp_path / f"out{count}"
            args = SimpleNamespace(
                input=str(path), model="holt", seed=1, out=str(out),
                lags=None, hidden=None, repeats=None, epochs=None,
                weight_mode="window:5",
            )
            cli.cmd_adjust(args, fit_one=flaky_fit)
            got[count] = outputs(out)
        assert got[1]["exclusions.txt"] == (
            b"karnataka: synthetic failure on karnataka\n"
            b"kerala: synthetic failure on kerala\n"
        )
        assert got[1] == got[2]

    def test_excluded_state_renormalises_on_two_workers(
        self, tmp_path, panel, capsys, two_workers
    ):
        test_cli.TestAdjustCommand().test_excluded_state_renormalises(
            tmp_path, panel, capsys
        )


class TestFailuresInWorkers:
    @pytest.fixture
    def monitor_argv(self, tmp_path):
        path = write_series_csv(tmp_path, linear_series(30))
        return ["monitor", "--input", path, "--model", "holt",
                "--out", tmp_path / "out"]

    def fail_at_origin(self, monkeypatch, origin, action):
        fit = evaluate.fit_tagged_models

        def failing_fit(series, tags, config=None):
            if len(series) + 1 >= origin:
                action(len(series) + 1)
            return fit(series, tags, config)

        monkeypatch.setattr(evaluate, "fit_tagged_models", failing_fit)

    def test_fit_error_matches_serial_run(self, monkeypatch, capsys,
                                          monitor_argv):
        def fail(origin):
            raise FitError(f"no fit at origin {origin}")

        self.fail_at_origin(monkeypatch, 20, fail)
        errors = {}
        for count in (1, 2):
            set_workers(monkeypatch, count)
            assert run(monitor_argv) == 1
            errors[count] = capsys.readouterr().err
        assert errors[1] == "error: no fit at origin 20\n"
        assert errors[2] == errors[1]
        assert not monitor_argv[-1].exists()

    def test_dead_worker_exits_one(self, monkeypatch, capsys, monitor_argv,
                                   two_workers):
        self.fail_at_origin(monkeypatch, 20, lambda origin: os._exit(1))
        assert run(monitor_argv) == 1
        assert_one_error_line(capsys)
        assert not monitor_argv[-1].exists()

    def test_dead_adjust_worker_exits_one(self, tmp_path, monkeypatch, capsys,
                                          panel, two_workers):
        def dying_fit(series, tags, config=None):
            os._exit(1)

        monkeypatch.setattr(cli, "fit_tagged_models", dying_fit)
        path = tmp_path / "panel.csv"
        panel.to_csv(path)
        out = tmp_path / "out"
        assert run(["adjust", "--input", path, "--model", "holt",
                    "--out", out]) == 1
        assert_one_error_line(capsys)
        assert not out.exists()


def python_output(code):
    """Standard output of ``code`` run in a fresh interpreter."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath(src), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return done.stdout


def test_cli_import_loads_no_scipy():
    # scipy.signal takes about a second to import and only ARIMA needs it
    code = ("import sys, epicast.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert python_output(code) == "[]\n"


def test_arima_kernel_imported_before_the_fork():
    # so that the workers share scipy.signal rather than each importing it
    code = """if True:
        import sys
        from epicast import evaluate, parallel
        from epicast.core import load_india_series
        parallel.usable_cpus = lambda: 2
        series = load_india_series().prefix(40)
        for tag in ("holt", "arima"):
            evaluate.monitor(series, [tag], k=4)
            print(tag, "scipy.signal" in sys.modules)
    """
    assert python_output(code) == "holt False\narima True\n"
