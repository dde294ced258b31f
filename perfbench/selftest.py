"""The benchmark's own tests. Run from the root of a checkout with

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the repository's default test collection,
which these tests would slow by about 40 s: they run the real r0 command.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, check_monitor  # noqa: E402

from epicast.core import parse_panel_csv, parse_series_csv  # noqa: E402

DATA = ROOT / "src" / "epicast" / "data"


def _counts(inv) -> dict:
    return {k: v for k, (v, unit) in inv.layers.items() if unit == "count"}


def test_fixture_seed_reproduces_committed_fixtures(tmp_path):
    dates, national, states = inputs.build(inputs.load_recipe(ROOT),
                                           inputs.FIXTURE_SEED)
    inputs.write_series(tmp_path / "s.csv", dates, national)
    inputs.write_panel(tmp_path / "p.csv", dates, national, states)
    assert (tmp_path / "s.csv").read_bytes() == \
        (DATA / "india_confirmed.csv").read_bytes()
    assert (tmp_path / "p.csv").read_bytes() == \
        (DATA / "india_panel.csv").read_bytes()


def test_other_seed_gives_different_inputs_that_parse(tmp_path):
    data = inputs.make_inputs(ROOT, 7, tmp_path)
    paths = data["paths"]
    fixture = parse_series_csv(DATA / "india_confirmed.csv")
    growth = parse_series_csv(paths["growth"])
    window = parse_series_csv(paths["window"])
    panel = parse_panel_csv(paths["panel"])
    assert len(growth) == inputs.R0_DAYS and len(window) == 90
    assert len(panel) == 302 and panel.n == len(data["holdout_states"]) == 6
    assert list(growth.values) != list(fixture.values[:inputs.R0_DAYS])
    assert list(growth.values) == data["growth"]
    assert list(window.values) == data["window"]
    assert inputs.make_inputs(ROOT, 7, tmp_path / "again")["window"] == \
        data["window"]


def _short_monitor(data, tmp_path):
    """The monitor path on the first 40 window days with two tags and a
    small network budget, so it runs in seconds."""
    tags = ("arima", "holt-wbann")
    lines = data["paths"]["window"].read_text().splitlines(keepends=True)
    short = tmp_path / "short.csv"
    short.write_text("".join(lines[:41]))
    workload = dataclasses.replace(
        WORKLOADS["monitor"],
        argv=lambda d: ["monitor", "--input", str(short), "--model",
                        ",".join(tags), "--epochs", "20", "--repeats", "2"],
        check=functools.partial(check_monitor, tags=tags),
    )
    return workload, dict(data, window=data["window"][:40])


@pytest.mark.parametrize("name", ["r0", "monitor"])
def test_counts_and_digest_repeat(name, tmp_path):
    data = inputs.make_inputs(ROOT, 3, tmp_path / "inputs")
    workload = WORKLOADS[name]
    if name == "monitor":
        workload, data = _short_monitor(data, tmp_path)
    first, second = (run.invoke(ROOT, workload, data, tmp_path / f"out{i}",
                                tmp_path / "spans.jsonl") for i in (1, 2))
    for inv in (first, second):
        assert inv.problems == [] and inv.failed == 0
    assert first.digest == second.digest
    assert _counts(first) == _counts(second)
    counts = _counts(first)
    if name == "r0":
        assert counts["epi.sir_simulate.calls"] > 0
        assert all(v == 0 for k, v in counts.items() if k.startswith(
            ("forecasters.", "neural.", "wavelet.", "hybrid.")))
    else:
        assert counts["evaluate.monitor.origins"] == 17
        assert counts["epi.sir_simulate.calls"] == 0
        assert counts["forecasters.css_fit.calls"] > counts[
            "forecasters.arima_fit.calls"] > 0


def test_metric_names_match_benchmark_json(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert declared == run.END_TO_END_UNITS
    data = inputs.make_inputs(ROOT, 3, tmp_path / "inputs")
    workload, data = _short_monitor(data, tmp_path)
    inv = run.invoke(ROOT, workload, data, tmp_path / "out",
                     tmp_path / "spans.jsonl")
    metrics, problems = run.per_layer([inv], [inv])
    metrics["check.rel_error"] = (0.0, "1")
    assert problems == []
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {k: unit for k, (_, unit) in metrics.items()}


def test_refuses_a_directory_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    here = Path(__file__).resolve().parent
    (tmp_path / here.name).mkdir()
    for file in here.glob("*.py"):
        (tmp_path / here.name / file.name).write_bytes(file.read_bytes())
    done = subprocess.run(
        [sys.executable, f"{here.name}/run.py", "--workload", "r0", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
