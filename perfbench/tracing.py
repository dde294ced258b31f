"""Spans around epicast's public functions, recorded from outside.

A :class:`Tracer` replaces each traced function at the name its caller looks
up: ``from x import y`` binds ``y`` in the caller's module, so that is where
the wrapper must go. Spans (name, start, end, parent span) stay in memory and
are written out only when the run ends, beside the result and never into
the program's ``--out`` directory. Nothing inside ``src/`` changes.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import statistics
import time
from contextlib import contextmanager

# (module whose global the caller looks up, attribute, layer span name)
PATCH_SITES = (
    ("epicast.cli", "parse_series_csv", "core.parse"),
    ("epicast.cli", "parse_panel_csv", "core.parse"),
    ("epicast.cli", "monitor", "evaluate.monitor"),
    ("epicast.cli", "fit_tagged_models", "hybrid.fit_tagged_models"),
    ("epicast.evaluate", "fit_tagged_models", "hybrid.fit_tagged_models"),
    ("epicast.forecasters", "holt_fit", "forecasters.holt_fit"),
    ("epicast.forecasters", "arima_fit", "forecasters.arima_fit"),
    ("epicast.forecasters", "css_fit", "forecasters.css_fit"),
    ("epicast.hybrid", "wbann_fit", "neural.wbann_fit"),
    ("epicast.hybrid", "wbann_forecast", "neural.wbann_forecast"),
    ("epicast.neural", "modwt_haar", "wavelet.modwt_haar"),
    ("epicast.epi", "sir_fit", "epi.sir_fit"),
    ("epicast.epi", "sir_simulate", "epi.sir_simulate"),
    ("epicast.epi", "fit_growth_rate", "epi.fit_growth_rate"),
    ("epicast.adjust", "adjust_forecasts", "adjust.adjust_forecasts"),
)

ROOT_SPAN = "cli.main"
CALL_LAYERS = (
    "forecasters.css_fit", "forecasters.arima_fit", "forecasters.holt_fit",
    "neural.wbann_fit", "wavelet.modwt_haar", "neural.wbann_forecast",
    "hybrid.fit_tagged_models", "epi.sir_simulate", "adjust.adjust_forecasts",
)
SELF_ONLY_LAYERS = (
    "evaluate.monitor", "epi.sir_fit", "epi.fit_growth_rate", "core.parse",
    ROOT_SPAN,
)
TAIL_PERCENTILES = (99, 95, 90, 75, 50)
TAIL_MIN_BEYOND = 10


def _sample_epochs(bound, result) -> int:
    """components x restarts x epochs x training rows, for one wbann_fit."""
    residuals, config = bound["residuals"], bound["config"]
    rows = len(residuals) - config.lags
    return (result.levels + 1) * config.repeats * config.epochs * rows


def _rk4_steps(bound, result) -> int:
    """days x RK4 substeps per day, for one sir_simulate."""
    return bound["days"] * max(1, math.ceil(1.0 / bound["step"]))


# layer -> (count name, counter over the bound arguments and the result)
WORK_COUNTERS = {
    "neural.wbann_fit": ("sample_epochs", _sample_epochs),
    "epi.sir_simulate": ("rk4_steps", _rk4_steps),
}


class Tracer:
    """Records nested spans while installed; restores every site on exit."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None]
        self.work = {}  # layer -> {count name: total}
        self._stack = []
        self._saved = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        span = [name, time.perf_counter(), 0.0, parent]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        span[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def _wrap(self, name, fn):
        counter = WORK_COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                totals = self.work.setdefault(name, {})
                totals[counter[0]] = (
                    totals.get(counter[0], 0) + counter[1](bound.arguments, result)
                )
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        for module_name, attr, name in PATCH_SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        return False

    def write_jsonl(self, path, origin: float) -> None:
        """Spans as JSON lines, times in seconds from ``origin``."""
        with open(path, "a", encoding="utf-8") as fh:
            for index, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": index, "name": name, "parent": parent,
                    "start": start - origin, "end": end - origin,
                }) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the part its children cover."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
    return [end - start - child_time[i]
            for i, (_, start, end, _) in enumerate(spans)]


def origin_durations(spans) -> list[float]:
    """One monitor origin runs from its fit_tagged_models call to the next
    (the last to the end of the monitor call), so it includes scoring."""
    out = []
    for index, (name, _, end, _) in enumerate(spans):
        if name != "evaluate.monitor":
            continue
        starts = sorted(s for n, s, _, p in spans
                        if n == "hybrid.fit_tagged_models" and p == index)
        out.extend(b - a for a, b in zip(starts, starts[1:] + [end]))
    return out


def tail(values):
    """(percentile, value): the highest listed percentile with at least
    ``TAIL_MIN_BEYOND`` samples beyond it, or (0, 0.0) without enough."""
    for pct in TAIL_PERCENTILES:
        if len(values) * (1 - pct / 100) >= TAIL_MIN_BEYOND:
            cuts = statistics.quantiles(values, n=100, method="inclusive")
            return pct, cuts[pct - 1]
    return 0, 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer counts and self times of one traced command invocation."""
    spans = tracer.spans
    selfs = self_times(spans)
    calls, busy = {}, {}
    for (name, *_), own in zip(spans, selfs):
        calls[name] = calls.get(name, 0) + 1
        busy[name] = busy.get(name, 0.0) + own
    out = {}
    for layer in CALL_LAYERS:
        out[f"{layer}.calls"] = (calls.get(layer, 0), "count")
    for layer in CALL_LAYERS + SELF_ONLY_LAYERS:
        out[f"{layer}.self_s"] = (busy.get(layer, 0.0), "s")
    for layer, (count, _) in WORK_COUNTERS.items():
        total = tracer.work.get(layer, {}).get(count, 0)
        own = busy.get(layer, 0.0)
        out[f"{layer}.{count}"] = (total, "count")
        out[f"{layer}.{count}_per_s"] = (total / own if own else 0.0, "1/s")
    attempts = calls.get("forecasters.css_fit", 0)
    useful = calls.get("forecasters.arima_fit", 0)
    out["forecasters.arima_order.useful_ratio"] = (
        useful / attempts if attempts else 0.0, "1")
    origins = origin_durations(spans)
    pct, tail_s = tail(origins) if origins else (0, 0.0)
    out["evaluate.monitor.origins"] = (len(origins), "count")
    out["evaluate.origin.p50_s"] = (
        statistics.median(origins) if origins else 0.0, "s")
    out["evaluate.origin.tail_s"] = (tail_s, "s")
    out["evaluate.origin.tail_pct"] = (pct, "%")
    return out
