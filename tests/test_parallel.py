"""The fork pool behind monitor and adjust: results in unit order, the same
bytes for any worker count, and failures that end a run cleanly."""

import functools
import multiprocessing
import os
import threading
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import test_cli
from epicast import cli, evaluate, forecasters, hybrid, parallel
from epicast.core import HierarchicalPanel, UnivariateSeries, load_india_series
from epicast.errors import EpicastError, FitError, TrainingError
from epicast.neural import (
    TdnnConfig,
    WbannProblem,
    _descend,
    _init_weights,
)
from epicast.parallel import map_units

from conftest import linear_series, python_output
from test_cli import FAST_FLAGS, assert_one_error_line, run, write_series_csv
from test_neural import _descend_outcome


ADJUST_WORKERS = (1, 2, 3, 5)


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
    return evaluate.monitor(series, ["holt"], k=4,
                            config=TdnnConfig(seed=3)).records


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

    # 3 workers cut the panel's 42 residual components into shares of 14,
    # which split the third and fifth series; 5 cut them into 9, 9, 9, 9, 6
    @pytest.mark.parametrize("weight_mode", ["last", "ewma:0.9"])
    def test_adjust(self, tmp_path, monkeypatch, panel, weight_mode):
        path = tmp_path / "panel.csv"
        panel.to_csv(path)
        got = {}
        for count in ADJUST_WORKERS:
            set_workers(monkeypatch, count)
            out = tmp_path / f"out{count}"
            assert run(["adjust", "--input", path, "--model", "holt-wbann",
                        "--seed", "3", "--weight-mode", weight_mode,
                        "--out", out, *FAST_FLAGS]) == 0
            got[count] = outputs(out)
        assert sorted(got[1]) == ["adjustment.csv"]
        assert all(got[count] == got[1] for count in ADJUST_WORKERS)

    def test_adjust_with_exclusions(self, tmp_path, monkeypatch, panel):
        path = tmp_path / "panel.csv"
        panel.to_csv(path)
        holt_fit = forecasters.holt_fit

        def flaky_holt_fit(series):
            if series.name in ("kerala", "karnataka"):
                raise FitError(f"synthetic failure on {series.name}")
            return holt_fit(series)

        monkeypatch.setattr(forecasters, "holt_fit", flaky_holt_fit)
        for model in ("holt", "holt-wbann"):
            got = {}
            for count in ADJUST_WORKERS:
                set_workers(monkeypatch, count)
                args = SimpleNamespace(
                    input=str(path), model=model, seed=1,
                    lags=None, hidden=None, repeats=2, epochs=20,
                    weight_mode="window:5",
                )
                got[count], _ = cli.cmd_adjust(args)
            assert got[1]["exclusions.txt"] == (
                "karnataka: synthetic failure on karnataka\n"
                "kerala: synthetic failure on kerala\n"
            )
            assert all(got[count] == got[1] for count in ADJUST_WORKERS)

    def test_excluded_state_renormalises_on_two_workers(
        self, tmp_path, panel, capsys, monkeypatch, two_workers
    ):
        test_cli.TestAdjustCommand().test_excluded_state_renormalises(
            tmp_path, panel, capsys, monkeypatch
        )


class TestContiguousShares:
    def test_equal_shares_across_groups(self):
        assert parallel.contiguous_shares([6, 6, 6], 2) == [
            [(0, 0, 6), (1, 0, 3)], [(1, 3, 6), (2, 0, 6)],
        ]

    def test_short_last_share_and_empty_groups(self):
        assert parallel.contiguous_shares([4, 0, 3], 3) == [
            [(0, 0, 3)], [(0, 3, 4), (2, 0, 2)], [(2, 2, 3)],
        ]

    def test_never_an_empty_share(self):
        assert parallel.contiguous_shares([1, 1], 5) == [[(0, 0, 1)],
                                                         [(1, 0, 1)]]
        assert parallel.contiguous_shares([], 2) == []


class TestResidualShares:
    """The panel's residual networks trained in shares, on any cut, give
    the bits and the divergence text of one whole-stack descent."""

    @settings(max_examples=80, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 6), min_size=1, max_size=4),
        shares=st.integers(1, 12),
        r=st.integers(1, 4),
        epochs=st.integers(1, 60),
        log_rate=st.floats(-1.0, 13.0),
        data_seed=st.integers(0, 2**32 - 1),
    )
    def test_same_as_whole_stack(self, sizes, shares, r, epochs, log_rate,
                                 data_seed):
        rng = np.random.default_rng(data_seed)
        p, h = 3, 2
        config = TdnnConfig(lags=p, hidden=h, repeats=r, epochs=epochs,
                            learning_rate=10.0 ** log_rate)
        problems = []
        for c in sizes:
            n = int(rng.integers(2, 30))
            scale = 10.0 ** rng.uniform(-1.0, 3.0)
            inits = [_init_weights(np.random.default_rng(data_seed + k),
                                   r, p, h) for k in range(c)]
            problems.append(WbannProblem(
                config=config, scales=None, tails=None,
                inputs=scale * rng.normal(size=(c, n, p)),
                targets=scale * rng.normal(size=(c, n)),
                weights={key: np.stack([w[key] for w in inits])
                         for key in inits[0]},
            ))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(parallel, "usable_cpus", lambda: 1)  # in-process
            patch.setattr(hybrid, "worker_count", lambda n: shares)
            got = hybrid._train_residuals(problems)
        for problem, trained in zip(problems, got):
            want = _descend_outcome(
                _descend, problem.weights, problem.inputs, problem.targets,
                config, list(range(problem.n_components)))
            event("diverged" if isinstance(want, str) else "trained")
            if isinstance(trained, TrainingError):
                assert str(trained) == want
            else:
                assert {key: (w.shape, w.tobytes())
                        for key, w in trained.items()} == want

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("config", [
        # every piece diverges at epoch 7: the first piece's error wins
        TdnnConfig(repeats=3, epochs=40, learning_rate=3e2, seed=5),
        # components 3-5 diverge at epoch 18, components 0-2 at epoch 21
        TdnnConfig(repeats=3, epochs=40, learning_rate=30.0, seed=1),
    ], ids=["tie", "second-share-first"])
    def test_diverging_series_cut_across_workers(self, monkeypatch, india,
                                                 config, workers):
        # the state's Holt errors overflow, so it is left out before any
        # network trains, and the national's six components alone are cut
        # into one share per worker; on two, each piece's error and its
        # epoch come back from a worker
        huge = UnivariateSeries("huge", india.dates, 1e300 * india.values)
        set_workers(monkeypatch, workers)
        assert hybrid.worker_count(6) == workers
        with pytest.raises(TrainingError) as serial:
            hybrid.fit_tagged_models(india, ["holt-wbann"], config)
        with pytest.raises(TrainingError) as paneled:
            hybrid.fit_panel(HierarchicalPanel(india, [huge]), "holt-wbann",
                             config)
        assert str(paneled.value) == str(serial.value)


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

    def run_adjust_with_dying(self, tmp_path, monkeypatch, capsys, panel,
                              model, module, name):
        def dying_fit(*args):
            os._exit(1)

        monkeypatch.setattr(module, name, dying_fit)
        path = tmp_path / "panel.csv"
        panel.to_csv(path)
        out = tmp_path / "out"
        assert run(["adjust", "--input", path, "--model", model,
                    "--out", out]) == 1
        assert_one_error_line(capsys)
        assert not out.exists()

    def test_dead_adjust_worker_exits_one(self, tmp_path, monkeypatch, capsys,
                                          panel, two_workers):
        self.run_adjust_with_dying(tmp_path, monkeypatch, capsys, panel,
                                   "holt", forecasters, "holt_fit")

    def test_dead_residual_share_worker_exits_one(
            self, tmp_path, monkeypatch, capsys, panel, two_workers):
        self.run_adjust_with_dying(tmp_path, monkeypatch, capsys, panel,
                                   "holt-wbann", hybrid, "wbann_train")


def test_cli_import_loads_no_scipy():
    # scipy.signal takes about a second to import and only ARIMA needs it
    code = ("import sys, epicast.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert python_output(code) == "[]\n"


def test_cli_import_loads_no_pool_modules():
    # they load socket, selectors and subprocess, which only a fork needs
    code = ("import sys, epicast.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    assert python_output(code) == "[]\n"


def test_arima_kernel_imported_before_the_fork():
    # so that the workers share the filter kernel rather than each loading
    # it; one fresh interpreter per tag, since a load cannot be undone. The
    # kernel's module is recorded as the pool starts, in the parent
    code = """if True:
        import sys
        from epicast import evaluate, parallel
        from epicast.core import load_india_series
        from epicast.neural import TdnnConfig
        at_fork = []
        may_fork = parallel._may_fork
        def record():
            at_fork.append("scipy.signal._sigtools" in sys.modules)
            return may_fork()
        parallel._may_fork = record
        parallel.usable_cpus = lambda: 2
        series = load_india_series().prefix(60)
        evaluate.monitor(series, [{!r}], k=4,
                         config=TdnnConfig(repeats=2, epochs=10))
        print(at_fork[0], "scipy.signal" in sys.modules)
    """
    loaded = {tag: python_output(code.format(tag)).split()
              for tag in ("holt", "arima(1,1,0)", "arima", "arima-wbf")}
    # a fixed order without an MA part never filters, so it leaves the
    # kernel out; and no tag imports the scipy.signal package
    assert loaded == {"holt": ["False", "False"],
                      "arima(1,1,0)": ["False", "False"],
                      "arima": ["True", "False"],
                      "arima-wbf": ["True", "False"]}
