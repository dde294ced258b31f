"""Dated daily count series, hierarchical panels and CSV ingestion.

All types are immutable after construction and safe to share across threads.
CSV schemas: ``date,value`` for a single series and
``date,<national>,<state1>,<state2>,...`` for a panel; ISO-8601 dates,
UTF-8 (a leading byte-order mark is dropped), ``.`` decimal separator, no
thousands separators.
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


class _Frozen:
    """Slots set once, by ``__init__`` through ``object.__setattr__``."""

    __slots__ = ()

    def __setattr__(self, key, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        fields = {key: getattr(self, key) for key in self.__slots__}
        return _rebuild, (type(self), fields)


class UnivariateSeries(_Frozen):
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
        _write_table(path, ["value"], self.dates, self.values[:, None])


class HierarchicalPanel(_Frozen):
    """A national series plus n state series on one shared date index.

    The per-date consistency defect ``national - sum(states)`` is computed
    and stored, never assumed zero: source feeds carry unattributed counts.
    A date where the sum or the defect overflows the float range is a
    :class:`ValidationError`.
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
        with np.errstate(over="ignore"):
            defect = national.values - np.sum([s.values for s in states], axis=0)
        overflow = np.flatnonzero(~np.isfinite(defect))
        if len(overflow):
            raise ValidationError(
                "state sum or national-minus-states defect overflows on "
                f"{national.dates[overflow[0]].isoformat()}"
            )
        defect.setflags(write=False)
        object.__setattr__(self, "national", national)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "defect", defect)

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
        series = (self.national, *self.states)
        _write_table(path, [s.name for s in series], self.national.dates,
                     np.column_stack([s.values for s in series]))


def _format_value(v: float) -> str:
    f = float(v)
    if f.is_integer():
        return str(int(f))
    return repr(f)


def _write_table(path, names, dates, columns) -> None:
    """Write a ``date,<name>...`` header, then one row per date of
    ``columns`` (days x names); inverse of :func:`_read_table`."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", *names])
        for d, row in zip(dates, columns):
            writer.writerow([d.isoformat(), *map(_format_value, row)])


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


def _read_table(path, header_error):
    """Read a ``date,<column>...`` file into its stripped header cells, its
    dates and a (days x columns) array, with rows sorted by date.

    ``header_error(header)`` gives the message for a header the schema
    refuses, or ``None``; ``header`` is ``None`` for an empty file.
    """
    try:
        fh = open(path, "r", encoding="utf-8-sig", newline="")
    except OSError as exc:
        raise ParseError(f"cannot open {path}: {exc}") from exc
    with fh:
        try:
            rows = list(csv.reader(fh))
        except (UnicodeDecodeError, csv.Error) as exc:
            raise ParseError(f"{path}: {exc}") from exc
    header = [c.strip() for c in rows[0]] if rows else None
    message = header_error(header)
    if message is not None:
        raise ParseError(f"{path}: {message}")
    width = len(header)
    dated = []
    for line_no, row in enumerate(rows[1:], start=2):
        if len(row) != width:
            raise ParseError(f"line {line_no}: expected {width} fields, "
                             f"got {len(row)}")
        d = _parse_date(row[0], line_no)
        dated.append((d, [_parse_number(cell, line_no) for cell in row[1:]]))
    dated.sort(key=lambda pair: pair[0])
    for (prev, _), (d, _) in zip(dated, dated[1:]):
        if d == prev:
            raise ValidationError(
                f"{Path(path).stem}: duplicated date {d.isoformat()}")
    columns = np.array([vals for _, vals in dated], dtype=float).reshape(
        len(dated), width - 1)  # a header alone gives empty columns
    return header, [d for d, _ in dated], columns


def parse_series_csv(path) -> UnivariateSeries:
    """Parse the ``date,value`` schema into a validated series.

    Rows are sorted by date before validation; the series name is the
    file stem.
    """
    _, dates, columns = _read_table(
        path, lambda header: None if header == ["date", "value"]
        else "expected header 'date,value'")
    return UnivariateSeries(Path(path).stem, dates, columns[:, 0])


def _panel_header_error(header):
    if header is None:
        return "empty file"
    if len(header) < 3 or header[0] != "date":
        return ("expected header 'date,<national>,<state>...' with at "
                "least two data columns")


def parse_panel_csv(path) -> HierarchicalPanel:
    """Parse the panel schema: first data column national, rest states."""
    header, dates, columns = _read_table(path, _panel_header_error)
    series = [
        UnivariateSeries(name, dates, columns[:, j])
        for j, name in enumerate(header[1:])
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
