"""The three workloads: the command each one runs, how many units of work
one invocation completes, and the checks on its ``--out`` files.

Each check returns ``(failed_units, rel_error, problems)``. ``rel_error`` is
a deterministic accuracy figure, so a speed-up that cuts epochs, restarts or
search budget shows up as a change in it.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

MONITOR_TAGS = ("arima", "arima-wbf", "holt", "holt-wbann")
MONITOR_K = 4
POPULATION = 1.38e9
SUM_TOLERANCE = 1e-9


def _rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _finite(*texts) -> bool:
    try:
        return all(math.isfinite(float(t)) for t in texts)
    except ValueError:
        return False


def monitor_origins(n: int, k: int = MONITOR_K) -> list[int]:
    """1-indexed rolling origins the monitor scores on ``n`` observations."""
    return list(range(n // 2 + 1, n - k + 2))


def check_monitor(out: Path, data: dict, tags=MONITOR_TAGS):
    """One finite row per origin x tag; dominance and weighted shares each
    sum to 100. rel_error is the mean ``m`` over origins and tags divided by
    the mean |actual| over the days they score."""
    values = data["window"]
    origins = monitor_origins(len(values))
    problems = []
    by_origin = {o: {} for o in origins}
    for row in _rows(out / "monitor.csv"):
        origin = int(row["origin"])
        if origin in by_origin and _finite(row["rmse"], row["mae"], row["m"]):
            by_origin[origin].setdefault(row["model"], []).append(float(row["m"]))
    bad = [o for o, got in by_origin.items()
           if sorted(got) != sorted(tags) or any(len(v) != 1 for v in got.values())]
    if bad:
        problems.append(f"origins without one finite row per tag: {bad[:5]}")
    shares = _rows(out / "dominance.csv")
    share_problems = []
    for column in ("dominance_pct", "weighted_pct"):
        total = sum(float(r[column]) for r in shares)
        if abs(total - 100.0) > 100.0 * SUM_TOLERANCE:
            share_problems.append(f"{column} sums to {total!r}, not 100")
    problems += share_problems
    # shares that do not add up spoil every origin's verdict
    failed = len(origins) if share_problems else len(bad)
    ms = [m for got in by_origin.values() for v in got.values() for m in v]
    scored = sorted({d for o in origins for d in range(o - 1, o - 1 + MONITOR_K)})
    scale = sum(abs(values[d]) for d in scored) / len(scored)
    rel_error = (sum(ms) / len(ms)) / scale if ms else math.inf
    return failed, rel_error, problems


def check_adjust(out: Path, data: dict):
    """Adjusted states sum to the adjusted national value and the weights to
    1. rel_error is the mean |adjusted - held-out actual| over states divided
    by the mean held-out state value."""
    rows = _rows(out / "adjustment.csv")
    truth = data["holdout_states"]
    states = [r for r in rows if r["state"] in truth]
    national = [r for r in rows if r["state"] not in truth]
    problems = []
    if sorted(r["state"] for r in states) != sorted(truth) or len(national) != 1:
        problems.append(f"unexpected rows: {[r['state'] for r in rows]}")
    elif not all(_finite(r["adjusted"], r["weight"]) for r in states) \
            or not _finite(national[0]["adjusted"]):
        problems.append("non-finite adjusted value or weight")
    else:
        state_sum = sum(float(r["adjusted"]) for r in states)
        nat = float(national[0]["adjusted"])
        if abs(state_sum - nat) > SUM_TOLERANCE * max(abs(nat), 1.0):
            problems.append(f"states sum to {state_sum!r}, national is {nat!r}")
        weight_sum = sum(float(r["weight"]) for r in states)
        if abs(weight_sum - 1.0) > SUM_TOLERANCE:
            problems.append(f"weights sum to {weight_sum!r}")
    if problems:
        return len(truth) + 1, math.inf, problems
    errors = [abs(float(r["adjusted"]) - truth[r["state"]]) for r in states]
    scale = sum(truth.values()) / len(truth)
    return 0, (sum(errors) / len(errors)) / scale, problems


def check_r0(out: Path, data: dict):
    """Finite estimates, with ci_lower <= r0 <= ci_upper for the growth
    method. rel_error is sqrt(SIR mse) divided by the mean observed
    cumulative fraction."""
    rows = {r["method"]: r for r in _rows(out / "r0.csv")}
    growth, sir = rows.get("growth"), rows.get("sir")
    problems = []
    if growth is None or sir is None:
        problems.append(f"missing methods: {sorted(rows)}")
    elif not _finite(growth["r0"], growth["ci_lower"], growth["ci_upper"],
                     growth["mse"], sir["r0"], sir["mse"]):
        problems.append("non-finite estimate")
    elif not (float(growth["ci_lower"]) <= float(growth["r0"])
              <= float(growth["ci_upper"])):
        problems.append("growth r0 outside its interval")
    if problems:
        return 1, math.inf, problems
    cumulative, total = [], 0
    for v in data["growth"]:
        total += v
        cumulative.append(total / POPULATION)
    scale = sum(cumulative) / len(cumulative)
    return 0, math.sqrt(float(sir["mse"])) / scale, problems


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is recorded in BENCHMARK.json."""

    name: str
    unit: str
    argv: Callable[[dict], list]
    units: Callable[[dict], int]
    check: Callable[[Path, dict], tuple]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="monitor",
            unit="origin",
            argv=lambda d: ["monitor", "--input", str(d["paths"]["window"]),
                            "--model", ",".join(MONITOR_TAGS),
                            "--window", str(MONITOR_K)],
            units=lambda d: len(monitor_origins(len(d["window"]))),
            check=check_monitor,
        ),
        Workload(
            name="adjust",
            unit="series fitted",
            argv=lambda d: ["adjust", "--input", str(d["paths"]["panel"]),
                            "--model", "holt-wbann", "--weight-mode", "last"],
            units=lambda d: len(d["holdout_states"]) + 1,
            check=check_adjust,
        ),
        Workload(
            name="r0",
            unit="location",
            argv=lambda d: ["r0", "--input", str(d["paths"]["growth"]),
                            "--population", repr(POPULATION)],
            units=lambda d: 1,
            check=check_r0,
        ),
    )
}
