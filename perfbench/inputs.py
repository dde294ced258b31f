"""Workload inputs made from a seed by the repository's fixture recipe.

``scripts/make_fixtures.py`` draws the national series and the six state
series from a generator seeded with its module constant ``SEED``; the
benchmark loads that script, puts the workload seed in place of ``SEED`` and
writes the CSVs itself, in the same format, so seed 20200314 reproduces the
committed fixtures byte for byte. The program only ever sees these files.
"""

from __future__ import annotations

import csv
import datetime
import importlib.util
from pathlib import Path

FIXTURE_SEED = 20200314
MONITOR_WINDOW = (165, 255)  # days 165..254, 90 days around the peak
ADJUST_HOLDOUT = 1  # the panel's last day is scored, never shown
# r0 fits the growth phase, days 0..99, well before the peak near day 185.
# There the SIR search runs to its evaluation cap for every seed tried
# (1-20), so seeds change the noise, not the amount of work. On the full
# series the search stops after 385 to 602 evaluations, depending on the
# seed.
R0_DAYS = 100


def load_recipe(root: Path):
    """Import ``scripts/make_fixtures.py`` from a checkout as a module."""
    path = root / "scripts" / "make_fixtures.py"
    spec = importlib.util.spec_from_file_location("_perfbench_fixtures", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def build(recipe, seed: int):
    """The recipe's ``build()`` with ``seed`` in place of its fixed seed."""
    saved = recipe.SEED
    recipe.SEED = seed
    try:
        national, states = recipe.build()
    finally:
        recipe.SEED = saved
    dates = [recipe.START + datetime.timedelta(days=i)
             for i in range(len(national))]
    return dates, national, states


def write_series(path: Path, dates, values) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "value"])
        for d, v in zip(dates, values):
            writer.writerow([d.isoformat(), int(v)])


def write_panel(path: Path, dates, national, states, stop=None) -> None:
    stop = len(dates) if stop is None else stop
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "india"] + list(states))
        for i in range(stop):
            row = [dates[i].isoformat(), int(national[i])]
            row += [int(states[name][i]) for name in states]
            writer.writerow(row)


def make_inputs(root: Path, seed: int, out_dir: Path) -> dict:
    """Write every workload's CSVs for ``seed`` into ``out_dir``.

    Returns the paths and the values the output checks score against: the
    r0 series, the monitor window and the panel's held-out last day.
    """
    dates, national, states = build(load_recipe(root), seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    lo, hi = MONITOR_WINDOW
    cut = len(dates) - ADJUST_HOLDOUT
    paths = {
        "growth": out_dir / "growth.csv",
        "window": out_dir / "window.csv",
        "panel": out_dir / "panel.csv",
    }
    write_series(paths["growth"], dates[:R0_DAYS], national[:R0_DAYS])
    write_series(paths["window"], dates[lo:hi], national[lo:hi])
    write_panel(paths["panel"], dates, national, states, stop=cut)
    return {
        "paths": paths,
        "growth": [int(v) for v in national[:R0_DAYS]],
        "window": [int(v) for v in national[lo:hi]],
        "holdout_states": {name: int(col[cut]) for name, col in states.items()},
    }
