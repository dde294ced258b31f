import copy
import datetime
import pickle
import warnings

import numpy as np
import pytest

from epicast.core import (
    HierarchicalPanel,
    NegativeValueWarning,
    UnivariateSeries,
    parse_panel_csv,
    parse_series_csv,
)
from epicast.errors import ParseError, ValidationError

from conftest import make_series


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestParseSeries:
    def test_three_row_file(self, tmp_path):
        p = write(
            tmp_path / "tiny.csv",
            "date,value\n2020-03-14,5\n2020-03-15,7\n2020-03-16,4\n",
        )
        s = parse_series_csv(p)
        assert len(s) == 3
        assert s.name == "tiny"
        assert list(s.values) == [5.0, 7.0, 4.0]
        assert s.dates[0] == datetime.date(2020, 3, 14)

    def test_rows_sorted_before_validation(self, tmp_path):
        p = write(
            tmp_path / "shuffled.csv",
            "date,value\n2020-03-16,4\n2020-03-14,5\n2020-03-15,7\n",
        )
        assert list(parse_series_csv(p).values) == [5.0, 7.0, 4.0]

    def test_duplicate_date_names_the_date(self, tmp_path):
        p = write(
            tmp_path / "dup.csv",
            "date,value\n2020-03-14,5\n2020-03-14,7\n",
        )
        with pytest.raises(ValidationError, match="2020-03-14"):
            parse_series_csv(p)

    def test_gap_lists_missing_dates(self, tmp_path):
        p = write(
            tmp_path / "gap.csv",
            "date,value\n2020-03-14,5\n2020-03-18,7\n",
        )
        with pytest.raises(ValidationError) as exc:
            parse_series_csv(p)
        msg = str(exc.value)
        assert "2020-03-15" in msg and "2020-03-16" in msg and "2020-03-17" in msg

    def test_malformed_row_reports_line(self, tmp_path):
        p = write(tmp_path / "bad.csv", "date,value\n2020-03-14,5\nnot-a-date,7\n")
        with pytest.raises(ParseError, match="line 3"):
            parse_series_csv(p)

    def test_non_numeric_value(self, tmp_path):
        p = write(tmp_path / "bad.csv", "date,value\n2020-03-14,abc\n")
        with pytest.raises(ParseError, match="abc"):
            parse_series_csv(p)

    def test_wrong_header(self, tmp_path):
        p = write(tmp_path / "bad.csv", "day,count\n2020-03-14,5\n")
        with pytest.raises(ParseError, match="header"):
            parse_series_csv(p)

    def test_india_fixture_spans_source_range(self, india):
        # the source feed covers 2020-03-14 .. 2021-01-10, i.e. 303 days
        assert india.dates[0] == datetime.date(2020, 3, 14)
        assert india.dates[-1] == datetime.date(2021, 1, 10)
        assert len(india) == 303
        assert not india.has_negatives

    def test_round_trip(self, tmp_path, india):
        out = tmp_path / "india_confirmed.csv"
        india.to_csv(out)
        assert parse_series_csv(out) == india

    def test_round_trip_fractional_values(self, tmp_path):
        s = make_series([1.5, 2.25, 3.125], name="frac")
        out = tmp_path / "frac.csv"
        s.to_csv(out)
        assert parse_series_csv(out) == s


class TestParsePanel:
    def test_exact_sum_gives_zero_defect(self, tmp_path):
        p = write(
            tmp_path / "p.csv",
            "date,total,a,b\n2020-03-14,100,40,60\n2020-03-15,90,50,40\n",
        )
        panel = parse_panel_csv(p)
        assert panel.n == 2
        assert np.array_equal(panel.defect, [0.0, 0.0])

    def test_defect_equals_difference(self, tmp_path):
        p = write(
            tmp_path / "p.csv",
            "date,total,a,b\n2020-03-14,100,40,60\n2020-03-15,97,50,40\n",
        )
        panel = parse_panel_csv(p)
        assert np.array_equal(panel.defect, [0.0, 7.0])

    def test_fixture_panel_has_six_states(self, panel):
        assert panel.n == 6
        names = {s.name for s in panel.states}
        assert names == {
            "maharashtra",
            "andhra_pradesh",
            "tamil_nadu",
            "karnataka",
            "chhattisgarh",
            "kerala",
        }
        # unattributed remainder: national always exceeds the state sum
        assert np.all(panel.defect > 0)

    def test_defect_identity_on_fixture(self, panel):
        expected = panel.national.values - sum(s.values for s in panel.states)
        assert np.array_equal(panel.defect, expected)

    def test_ragged_row(self, tmp_path):
        p = write(tmp_path / "p.csv", "date,total,a,b\n2020-03-14,100,40\n")
        with pytest.raises(ParseError, match="line 2"):
            parse_panel_csv(p)

    def test_needs_two_data_columns(self, tmp_path):
        p = write(tmp_path / "p.csv", "date,total\n2020-03-14,100\n")
        with pytest.raises(ParseError):
            parse_panel_csv(p)

    def test_round_trip(self, tmp_path, panel):
        out = tmp_path / "india_panel.csv"
        panel.to_csv(out)
        assert parse_panel_csv(out) == panel


class TestSeriesInvariants:
    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            UnivariateSeries("x", [datetime.date(2020, 3, 14)], [1.0, 2.0])

    def test_non_finite_value(self):
        with pytest.raises(ValidationError, match="non-finite"):
            make_series([1.0, np.nan, 3.0])

    def test_negative_values_warn_and_flag(self):
        with pytest.warns(NegativeValueWarning):
            s = make_series([5.0, -2.0, 3.0])
        assert s.has_negatives

    def test_immutable(self):
        s = make_series([1.0, 2.0])
        with pytest.raises(AttributeError):
            s.name = "other"
        with pytest.raises(ValueError):
            s.values[0] = 9.0

    def test_panel_requires_shared_dates(self):
        a = make_series([1.0, 2.0], name="a")
        b = make_series([1.0, 2.0], name="b", start=datetime.date(2020, 3, 15))
        with pytest.raises(ValidationError):
            HierarchicalPanel(a, [b])


COPIES = {
    "pickle": lambda obj: pickle.loads(pickle.dumps(obj)),
    "deepcopy": copy.deepcopy,
}


@pytest.mark.parametrize("how", sorted(COPIES))
class TestCopies:
    """Pickling and copying rebuild the immutable types as they were, without
    rerunning their checks."""

    def test_series_round_trip(self, how):
        with pytest.warns(NegativeValueWarning):
            s = make_series([5.0, -2.0, 3.0], name="corrected")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t = COPIES[how](s)
        assert t == s and t.name == "corrected" and t.has_negatives
        assert t.values.tobytes() == s.values.tobytes()
        assert t.values is not s.values
        with pytest.raises(ValueError):
            t.values[0] = 9.0
        with pytest.raises(AttributeError):
            t.name = "other"

    def test_panel_round_trip(self, how, panel):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            q = COPIES[how](panel)
        assert q == panel and q.n == panel.n
        assert q.defect.tobytes() == panel.defect.tobytes()
        for got, want in zip(q.states, panel.states):
            assert got == want
            assert not got.values.flags.writeable
        with pytest.raises(ValueError):
            q.defect[0] = 0.0
        with pytest.raises(AttributeError):
            q.defect = None

