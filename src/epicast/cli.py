"""Command-line front end: ingestion, models, adjustment, evaluation and
report emission.

Subcommands: ``forecast``, ``adjust``, ``monitor``, ``shelflife``, ``r0``.
Every run is deterministic given the input file, flags and ``--seed``
(default 42): randomness derives from the seed as documented per module
(per-origin ``seed + T`` in the monitor, per-component ``seed + k`` in the
residual networks). Commands compute everything first and write all output
files last, so a failing run leaves no partial outputs. Set ``EPICAST_LOG``
to ``debug``/``info`` for progress logging.
"""

from __future__ import annotations

import argparse
import csv
import errno
import logging
import os
import sys
from dataclasses import replace
from datetime import timedelta
from pathlib import Path

import numpy as np

from . import adjust as adjust_mod
from . import epi
from .core import parse_panel_csv, parse_series_csv
from .errors import EpicastError, ValidationError
from .evaluate import monitor, shelf_life
from .forecasters import check_horizon
from .hybrid import MODEL_TAGS, fit_panel, fit_tagged_models
from .neural import TdnnConfig

log = logging.getLogger("epicast")

DEFAULT_MODEL = "holt-wbann"
DEFAULT_POPULATION = 1.38e9
TAG_GRAMMAR = (f"{', '.join(MODEL_TAGS)} or arima(p,d,q) with p and q from 0 "
               "to 5 and d from 0 to 2, ignoring case and surrounding blanks")


def _fmt(x) -> str:
    return repr(float(x))


def _write(path: Path, kind: str, payload) -> None:
    """Write one prepared output: ``("csv", (header, rows))`` or
    ``("text", text)``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if kind == "csv":
            header, rows = payload
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
        else:
            fh.write(payload)


def _svg_chart(series_by_name: dict, title: str, width=720, height=360) -> str:
    """Minimal multi-line SVG chart; data-only, no external services."""
    pad = 40
    xs = [x for _, points in series_by_name.items() for x, _ in points]
    ys = [y for _, points in series_by_name.items() for _, y in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    palette = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<title>{title}</title>',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for idx, (name, points) in enumerate(series_by_name.items()):
        coords = []
        for x, y in points:
            px = pad + (x - x_lo) / x_span * (width - 2 * pad)
            py = height - pad - (y - y_lo) / y_span * (height - 2 * pad)
            coords.append(f"{px:.2f},{py:.2f}")
        colour = palette[idx % len(palette)]
        parts.append(
            f'<polyline fill="none" stroke="{colour}" stroke-width="1.5" '
            f'points="{" ".join(coords)}"/>'
        )
        parts.append(
            f'<text x="{pad}" y="{pad + 14 * idx}" font-size="12" '
            f'fill="{colour}">{name}</text>'
        )
    parts.append("</svg>\n")
    return "\n".join(parts)


def _tdnn_config(args) -> TdnnConfig:
    config = TdnnConfig(seed=args.seed)
    overrides = {}
    for key in ("lags", "hidden", "repeats", "epochs"):
        value = getattr(args, key, None)
        if value is not None:
            overrides[key] = value
    return replace(config, **overrides) if overrides else config


def _split_tags(text: str) -> list[str]:
    """Split a comma-separated tag list, ignoring commas inside parentheses
    so fixed-order specs like ``arima(0,1,0)`` survive."""
    tags, depth, current = [], 0, []
    for ch in text:
        if ch == "," and depth == 0:
            tags.append("".join(current).strip())
            current = []
            continue
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        current.append(ch)
    tags.append("".join(current).strip())
    return [tag for tag in tags if tag]


def _parse_weight_mode(text: str):
    parts = text.strip().lower().split(":")
    mode = parts[0]
    try:
        if mode == "last" and len(parts) == 1:
            rule = {"mode": "last"}
        elif mode == "window" and len(parts) == 2:
            rule = {"mode": "window", "window": int(parts[1])}
        elif mode == "ewma" and len(parts) == 2:
            rule = {"mode": "ewma", "decay": float(parts[1])}
        else:
            raise ValueError(mode)
    except ValueError:
        raise ValidationError(
            f"bad --weight-mode {text!r}; expected last, window:K or ewma:LAMBDA"
        ) from None
    adjust_mod.check_weight_rule(**rule)  # out of range fails before any fit
    return rule


def _parse_growth_window(text: str) -> tuple[int, int]:
    try:
        start, stop = (int(v) for v in text.split(":"))
    except ValueError:
        raise ValidationError(
            f"bad --growth-window {text!r}; expected START:STOP integers"
        ) from None
    return start, stop


def cmd_forecast(args) -> list[Path]:
    series = parse_series_csv(args.input)
    check_horizon(args.horizon)  # fail before the fit, not after it
    (model,) = fit_tagged_models(series, [args.model], _tdnn_config(args)).values()
    raw = model.forecast(args.horizon)
    out_dir = Path(args.out)
    rows = []
    points = []
    for i, value in enumerate(raw, start=1):
        date = series.last_date + timedelta(days=i)
        rows.append([date.isoformat(), _fmt(value), _fmt(max(0.0, value))])
        points.append((len(series) + i, float(value)))
    outputs = [(out_dir / "forecast.csv", "csv",
                (["date", "point_forecast", "clamped_forecast"], rows))]
    if args.svg:
        history = [(i + 1, float(v)) for i, v in enumerate(series.values)]
        chart = _svg_chart(
            {series.name: history, f"{args.model} forecast": points},
            f"{args.model} forecast for {series.name}",
        )
        outputs.append((out_dir / "forecast.svg", "text", chart))
    return _emit(outputs, optional=[out_dir / "forecast.svg"])


def cmd_adjust(args) -> list[Path]:
    panel = parse_panel_csv(args.input)
    config = _tdnn_config(args)
    mode = _parse_weight_mode(args.weight_mode)
    national, models = fit_panel(panel, args.model, config)
    # a state whose fit failed is left out, and the others share its weight
    states = [(s, m) for s, m in zip(panel.states, models)
              if not isinstance(m, EpicastError)]
    excluded = [(s.name, str(m)) for s, m in zip(panel.states, models)
                if isinstance(m, EpicastError)]
    if not states:
        raise ValidationError("every state failed to fit; nothing to adjust")
    for name, reason in excluded:
        log.warning("excluding %s: %s", name, reason)

    state_forecasts = np.array([m.forecast(1)[0] for _, m in states])
    fitted = [m.fitted() for _, m in states]
    # fitted values are defined on a tail of each series, up to its last day
    depth = min(int(np.isfinite(f).sum()) for f in fitted)
    obs_hist = np.column_stack([s.values[-depth:] for s, _ in states])
    fit_hist = np.column_stack([f[-depth:] for f in fitted])
    weights = adjust_mod.compute_weights_history(obs_hist, fit_hist, **mode)

    nat_unadj = float(national.forecast(1)[0])
    adjustment = adjust_mod.adjust_forecasts(
        adjust_mod.AdjustmentInput(
            state_forecasts=state_forecasts,
            national_forecast=nat_unadj,
            last_observed_states=obs_hist[-1],
            last_fitted_states=fit_hist[-1],
            last_observed_national=float(panel.national.values[-1]),
            last_fitted_national=float(national.fitted()[-1]),
        ),
        weights=weights,
    )
    rows = []
    for (s, _), unadj, w, corr in zip(
        states,
        state_forecasts,
        adjustment.weights,
        adjustment.corrected_state_forecasts - state_forecasts,
    ):
        rows.append(
            [s.name, _fmt(unadj), _fmt(w), _fmt(corr), _fmt(unadj + corr)]
        )
    rows.append(
        [
            panel.national.name,
            _fmt(nat_unadj),
            "",
            _fmt(adjustment.corrected_national_forecast - nat_unadj),
            _fmt(adjustment.corrected_national_forecast),
        ]
    )
    out_dir = Path(args.out)
    outputs = [(out_dir / "adjustment.csv", "csv",
                (["state", "unadjusted", "weight", "correction", "adjusted"],
                 rows))]
    if excluded:
        text = "".join(f"{name}: {reason}\n" for name, reason in excluded)
        outputs.append((out_dir / "exclusions.txt", "text", text))
    written = _emit(outputs, optional=[out_dir / "exclusions.txt"])
    print(f"branch: {adjustment.branch}")
    return written


def cmd_monitor(args) -> list[Path]:
    series = parse_series_csv(args.input)
    models = _split_tags(args.model)
    report = monitor(
        series, models, k=args.window, seed=args.seed, config=_tdnn_config(args)
    )
    metric_rows = [
        [r.origin, r.model, _fmt(r.rmse), _fmt(r.mae), _fmt(r.m)]
        for r in report.records
    ]
    dominance_rows = [
        [tag, _fmt(report.dominance[tag]), _fmt(report.weighted_share[tag])]
        for tag in report.models
    ]
    by_origin = {origin: {} for origin in report.origins}
    for r in report.records:
        by_origin[r.origin][r.model] = r.m
    timeline_rows = [
        [origin] + [_fmt(by_origin[origin][tag]) for tag in report.models]
        for origin in report.origins
    ]
    out_dir = Path(args.out)
    outputs = [
        (out_dir / "monitor.csv", "csv",
         (["origin", "model", "rmse", "mae", "m"], metric_rows)),
        (out_dir / "dominance.csv", "csv",
         (["model", "dominance_pct", "weighted_pct"], dominance_rows)),
        (out_dir / "timeline.csv", "csv",
         (["origin"] + [f"m_{tag}" for tag in report.models], timeline_rows)),
    ]
    if args.svg:
        chart = _svg_chart(
            {
                tag: [(origin, by_origin[origin][tag]) for origin in report.origins]
                for tag in report.models
            },
            f"moving-window metric, k={report.k}",
        )
        outputs.append((out_dir / "monitor.svg", "text", chart))
    written = _emit(outputs, optional=[out_dir / "monitor.svg"])
    print(f"mode winner: {report.mode_winner}")
    print(f"recency-weighted winner: {report.weighted_winner}")
    return written


def cmd_shelflife(args) -> list[Path]:
    series = parse_series_csv(args.input)
    train_len = args.train_len if args.train_len is not None else len(series) // 2
    result = shelf_life(
        series,
        train_len,
        model=args.model,
        threshold_pct=args.threshold,
        seed=args.seed,
        config=_tdnn_config(args),
    )
    ape_rows = [
        [t, _fmt(a), _fmt(line)]
        for (t, a), line in zip(result.ape_series, result.fitted_line)
    ]
    if result.unbounded:
        verdict = (
            "shelf life unbounded: the APE trend is not increasing "
            f"(slope {result.slope!r} %/day)\n"
        )
    else:
        verdict = f"shelf life: {result.shelf_days!r} days\n"
    text = (
        f"model: {args.model}\n"
        f"train_len: {result.train_len}\n"
        f"threshold_pct: {result.threshold_pct!r}\n"
        f"slope: {result.slope!r}\n"
        f"intercept: {result.intercept!r}\n"
        f"crossing_t: {result.crossing_t!r}\n" + verdict
    )
    out_dir = Path(args.out)
    written = _emit([
        (out_dir / "ape.csv", "csv", (["t", "ape", "fitted_line"], ape_rows)),
        (out_dir / "shelflife.txt", "text", text),
    ])
    print(verdict, end="")
    return written


def cmd_r0(args) -> list[Path]:
    window = None
    if args.growth_window is not None:
        window = _parse_growth_window(args.growth_window)
    series = parse_series_csv(args.input)
    gi = epi.GenerationInterval(args.gi_mean, args.gi_shape)
    r, stderr, mse = epi.fit_growth_rate(series, window)
    growth = epi.r0_from_growth(r, gi, stderr=stderr, mse=mse)
    sir = epi.sir_fit(series, args.population)
    rows = [
        [series.name, "growth", _fmt(growth.r0), _fmt(growth.ci_lower),
         _fmt(growth.ci_upper), _fmt(growth.fit_mse)],
        [series.name, "sir", _fmt(sir.r0_sir), "", "",
         _fmt(sir.trajectory_mse)],
    ]
    out_dir = Path(args.out)
    written = _emit([
        (out_dir / "r0.csv", "csv",
         (["location", "method", "r0", "ci_lower", "ci_upper", "mse"], rows)),
    ])
    print(f"growth r0: {growth.r0!r}  sir r0: {sir.r0_sir!r}")
    return written


def _emit(outputs, optional=()) -> list[Path]:
    """Write all prepared outputs, all or nothing; directories are created
    as needed.

    Each payload goes to a temporary file beside its target. The files are
    renamed into place only once all are written and no target is a
    directory; a failure before that removes them and changes no target.
    ``optional`` names the files the command writes only on some runs; any
    of them this run did not write is removed last, so a rerun into the
    same directory leaves no stale file from an earlier run.
    """
    targets = [path for path, _, _ in outputs]
    stale = [path for path in optional
             if path not in targets and path.exists()]
    staged = []
    try:
        for path, kind, payload in outputs:
            path.parent.mkdir(parents=True, exist_ok=True)
            staged.append(path.with_name(f".{path.name}.{os.getpid()}.tmp"))
            _write(staged[-1], kind, payload)
        for path in targets + stale:
            if path.is_dir():
                raise IsADirectoryError(
                    errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        for temporary, path in zip(staged, targets):
            temporary.replace(path)
            log.info("wrote %s", path)
    finally:
        for temporary in staged:
            temporary.unlink(missing_ok=True)
    for path in stale:
        path.unlink()
        log.info("removed stale %s", path)
    return targets


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epicast",
        description="Daily count forecasting, reconciliation and monitoring",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--input", required=True, help="input CSV path")
        p.add_argument("--seed", type=int, default=42, help="master seed")
        p.add_argument("--out", default=".", help="output directory")

    def model_flags(p, model_default=DEFAULT_MODEL,
                    model_help=f"model tag: {TAG_GRAMMAR}"):
        common(p)
        p.add_argument("--model", default=model_default, help=model_help)
        p.add_argument("--lags", type=int, default=None)
        p.add_argument("--hidden", type=int, default=None)
        p.add_argument("--repeats", type=int, default=None)
        p.add_argument("--epochs", type=int, default=None)

    p = sub.add_parser("forecast", help="h-step point forecasts")
    model_flags(p)
    p.add_argument("--horizon", type=int, default=7)
    p.add_argument("--svg", action="store_true", help="also draw an SVG chart")
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser("adjust", help="constant-sum correction over a panel")
    model_flags(p)
    p.add_argument(
        "--weight-mode",
        default="last",
        help="correction shares: last, window:K or ewma:LAMBDA",
    )
    p.set_defaults(func=cmd_adjust)

    p = sub.add_parser("monitor", help="rolling-window model comparison")
    model_flags(p, model_default=",".join(MODEL_TAGS),
                model_help=f"comma-separated model tags, no tag twice, "
                           f"each {TAG_GRAMMAR}")
    p.add_argument("--window", type=int, default=4, help="window width k")
    p.add_argument("--svg", action="store_true", help="also draw an SVG chart")
    p.set_defaults(func=cmd_monitor)

    p = sub.add_parser("shelflife", help="APE-trend staleness horizon")
    model_flags(p)
    p.add_argument("--train-len", type=int, default=None,
                   help="training prefix length (default: half the series)")
    p.add_argument("--threshold", type=float, default=5.0,
                   help="APE staleness threshold in percent")
    p.set_defaults(func=cmd_shelflife)

    p = sub.add_parser("r0", help="reproduction number estimates")
    common(p)
    p.add_argument("--population", type=float, default=DEFAULT_POPULATION)
    p.add_argument("--gi-mean", type=float, default=5.0,
                   help="generation interval mean (days)")
    p.add_argument("--gi-shape", type=float, default=5.0,
                   help="generation interval gamma shape")
    p.add_argument("--growth-window", default=None,
                   help="START:STOP indices for the growth regression")
    p.set_defaults(func=cmd_r0)
    return parser


def main(argv=None) -> int:
    level = os.environ.get("EPICAST_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (EpicastError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
