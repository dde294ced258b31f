"""Dated daily count series, hierarchical panels and CSV ingestion.

All types are immutable after construction and safe to share across threads.
CSV schemas: ``date,value`` for a single series and
``date,<national>,<state1>,<state2>,...`` for a panel; ISO-8601 dates,
UTF-8, ``.`` decimal separator, no thousands separators.
"""

from __future__ import annotations

import csv
import datetime
import warnings
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import InsufficientDataError, ParseError, ValidationError

ONE_DAY = datetime.timedelta(days=1)


class NegativeValueWarning(UserWarning):
    """Negative daily counts seen (real feeds contain downward corrections)."""


def _as_date(obj) -> datetime.date:
    if isinstance(obj, datetime.datetime):
        return obj.date()
    if isinstance(obj, datetime.date):
        return obj
    raise ValidationError(f"expected a calendar date, got {type(obj).__name__}")


def _rebuild(cls, fields: dict):
    """Unpickle or copy an immutable type without rerunning its checks.

    The fields were validated when the original was built, so going round
    ``__init__`` keeps a copy from warning again about negative values; the
    arrays are made read-only again, since pickling drops that flag.
    """
    obj = object.__new__(cls)
    for key, value in fields.items():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        object.__setattr__(obj, key, value)
    return obj


class UnivariateSeries:
    """A named daily count series on a gap-free, strictly increasing date index.

    Negative values are accepted but flagged via ``has_negatives`` and a
    :class:`NegativeValueWarning`, since reporting feeds contain corrections.
    """

    __slots__ = ("name", "dates", "values", "has_negatives")

    def __init__(self, name: str, dates, values):
        dates = tuple(_as_date(d) for d in dates)
        vals = np.asarray(values, dtype=float)
        if vals.ndim != 1:
            raise ValidationError("values must be one-dimensional")
        if len(dates) != len(vals):
            raise ValidationError(
                f"{name}: {len(dates)} dates but {len(vals)} values"
            )
        missing = []
        for prev, cur in zip(dates, dates[1:]):
            if cur <= prev:
                raise ValidationError(
                    f"{name}: dates not strictly increasing at {cur.isoformat()}"
                )
            gap = prev + ONE_DAY
            while gap < cur:
                missing.append(gap.isoformat())
                gap += ONE_DAY
        if missing:
            raise ValidationError(
                f"{name}: date index has gaps, missing: {', '.join(missing)}"
            )
        if not np.all(np.isfinite(vals)):
            bad = int(np.flatnonzero(~np.isfinite(vals))[0])
            raise ValidationError(
                f"{name}: non-finite value at {dates[bad].isoformat()}"
            )
        has_neg = bool(len(vals)) and bool(np.any(vals < 0))
        if has_neg:
            warnings.warn(
                f"{name}: series contains negative values", NegativeValueWarning
            )
        vals.setflags(write=False)
        object.__setattr__(self, "name", str(name))
        object.__setattr__(self, "dates", dates)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "has_negatives", has_neg)

    def __setattr__(self, key, value):
        raise AttributeError("UnivariateSeries is immutable")

    def __reduce__(self):
        fields = {key: getattr(self, key) for key in self.__slots__}
        return _rebuild, (type(self), fields)

    def __len__(self) -> int:
        return len(self.values)

    def __eq__(self, other) -> bool:
        if not isinstance(other, UnivariateSeries):
            return NotImplemented
        return (
            self.name == other.name
            and self.dates == other.dates
            and np.array_equal(self.values, other.values)
        )

    def __repr__(self) -> str:
        span = ""
        if self.dates:
            span = f" {self.dates[0].isoformat()}..{self.dates[-1].isoformat()}"
        return f"UnivariateSeries({self.name!r}, n={len(self)}{span})"

    def window(self, start: int, stop: int) -> "UnivariateSeries":
        """Contiguous sub-series over positions [start, stop)."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NegativeValueWarning)
            return UnivariateSeries(
                self.name, self.dates[start:stop], self.values[start:stop]
            )

    def prefix(self, n: int) -> "UnivariateSeries":
        return self.window(0, n)

    @property
    def last_date(self) -> datetime.date:
        if not self.dates:
            raise InsufficientDataError(f"{self.name}: empty series has no dates")
        return self.dates[-1]

    def to_csv(self, path) -> None:
        """Write the ``date,value`` schema; inverse of :func:`parse_series_csv`."""
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["date", "value"])
            for d, v in zip(self.dates, self.values):
                writer.writerow([d.isoformat(), _format_value(v)])


class HierarchicalPanel:
    """A national series plus n state series on one shared date index.

    The per-date consistency defect ``national - sum(states)`` is computed
    and stored, never assumed zero: source feeds carry unattributed counts.
    """

    __slots__ = ("national", "states", "defect")

    def __init__(self, national: UnivariateSeries, states):
        states = tuple(states)
        if len(states) < 1:
            raise ValidationError("panel needs at least one state series")
        for s in states:
            if s.dates != national.dates:
                raise ValidationError(
                    f"state {s.name!r} does not share the national date index"
                )
        defect = national.values - np.sum([s.values for s in states], axis=0)
        defect.setflags(write=False)
        object.__setattr__(self, "national", national)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "defect", defect)

    def __setattr__(self, key, value):
        raise AttributeError("HierarchicalPanel is immutable")

    def __reduce__(self):
        fields = {key: getattr(self, key) for key in self.__slots__}
        return _rebuild, (type(self), fields)

    @property
    def n(self) -> int:
        return len(self.states)

    def __len__(self) -> int:
        return len(self.national)

    def __eq__(self, other) -> bool:
        if not isinstance(other, HierarchicalPanel):
            return NotImplemented
        return self.national == other.national and self.states == other.states

    def __repr__(self) -> str:
        return f"HierarchicalPanel({self.national.name!r}, n={self.n})"

    def to_csv(self, path) -> None:
        """Write the panel schema; inverse of :func:`parse_panel_csv`."""
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["date", self.national.name] + [s.name for s in self.states]
            )
            for i, d in enumerate(self.national.dates):
                row = [d.isoformat(), _format_value(self.national.values[i])]
                row += [_format_value(s.values[i]) for s in self.states]
                writer.writerow(row)


def _format_value(v: float) -> str:
    f = float(v)
    if f.is_integer():
        return str(int(f))
    return repr(f)


def _read_rows(path):
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise ParseError(f"cannot open {path}: {exc}") from exc
    with fh:
        return list(csv.reader(fh))


def _parse_date(text: str, line_no: int):
    try:
        return datetime.date.fromisoformat(text.strip())
    except ValueError as exc:
        raise ParseError(f"line {line_no}: bad date {text!r}") from exc


def _parse_number(text: str, line_no: int) -> float:
    try:
        return float(text.strip())
    except ValueError as exc:
        raise ParseError(f"line {line_no}: bad number {text!r}") from exc


def _check_duplicates(dated_rows, label: str):
    seen = set()
    for d, _ in dated_rows:
        if d in seen:
            raise ValidationError(f"{label}: duplicated date {d.isoformat()}")
        seen.add(d)


def parse_series_csv(path) -> UnivariateSeries:
    """Parse the ``date,value`` schema into a validated series.

    Rows are sorted by date before validation; the series name is the
    file stem.
    """
    rows = _read_rows(path)
    if not rows or [c.strip() for c in rows[0]] != ["date", "value"]:
        raise ParseError(f"{path}: expected header 'date,value'")
    name = Path(path).stem
    dated = []
    for line_no, row in enumerate(rows[1:], start=2):
        if len(row) != 2:
            raise ParseError(f"line {line_no}: expected 2 fields, got {len(row)}")
        dated.append((_parse_date(row[0], line_no), _parse_number(row[1], line_no)))
    dated.sort(key=lambda pair: pair[0])
    _check_duplicates(dated, name)
    return UnivariateSeries(name, [d for d, _ in dated], [v for _, v in dated])


def parse_panel_csv(path) -> HierarchicalPanel:
    """Parse the panel schema: first data column national, rest states."""
    rows = _read_rows(path)
    if not rows:
        raise ParseError(f"{path}: empty file")
    header = [c.strip() for c in rows[0]]
    if len(header) < 3 or header[0] != "date":
        raise ParseError(
            f"{path}: expected header 'date,<national>,<state>...' with at "
            f"least two data columns"
        )
    width = len(header)
    dated = []
    for line_no, row in enumerate(rows[1:], start=2):
        if len(row) != width:
            raise ParseError(
                f"line {line_no}: expected {width} fields, got {len(row)}"
            )
        d = _parse_date(row[0], line_no)
        vals = [_parse_number(cell, line_no) for cell in row[1:]]
        dated.append((d, vals))
    dated.sort(key=lambda pair: pair[0])
    _check_duplicates(dated, Path(path).stem)
    dates = [d for d, _ in dated]
    columns = np.array([vals for _, vals in dated], dtype=float)
    series = [
        UnivariateSeries(header[j + 1], dates, columns[:, j])
        for j in range(width - 1)
    ]
    return HierarchicalPanel(series[0], series[1:])


def fixture_path(name: str) -> Path:
    """Path of a CSV fixture committed with the package."""
    return Path(resources.files("epicast.data") / name)


def load_india_series() -> UnivariateSeries:
    """Committed daily confirmed-case series for the whole country."""
    return parse_series_csv(fixture_path("india_confirmed.csv"))


def load_india_panel() -> HierarchicalPanel:
    """Committed national + six hotspot-state panel."""
    return parse_panel_csv(fixture_path("india_panel.csv"))
