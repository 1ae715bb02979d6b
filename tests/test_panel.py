import csv
import gc
import io
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panelctrl.errors import (
    ConfigError,
    DuplicateCellError,
    MissingCellError,
    PanelFormatError,
    TreatmentTimeError,
    UnknownUnitError,
)
from panelctrl.estimators import EstimatorSpec, estimate_on_blocks
from panelctrl import panel
from panelctrl.panel import (
    PanelBlocks,
    PanelData,
    load_panel,
    periods_preceding,
    split_and_center,
)
from panelctrl.panel import parse_time_label as parse

from conftest import make_panel
from oracles import load_panel_by_rows


def _csv(rows, header="unit,time,outcome"):
    return io.StringIO(header + "\n" + "\n".join(rows) + "\n")


def _grid_csv(units, times, value=lambda u, t: 1.0 + 0.1 * t):
    rows = [f"{u},{t},{value(i, j)}" for i, u in enumerate(units) for j, t in enumerate(times)]
    return _csv(rows)


class TestLoadPanel:
    def test_small_reshape(self):
        src = _csv(
            [
                "KS,1,1.0", "KS,2,1.1", "KS,3,1.2", "KS,4,1.3",
                "NE,1,2.0", "NE,2,2.1", "NE,3,2.2", "NE,4,2.3",
                "MO,1,3.0", "MO,2,3.1", "MO,3,3.2", "MO,4,3.3",
            ]
        )
        p = load_panel(src, "KS", 3)
        assert p.n_units == 3
        assert p.n_periods == 4
        assert p.t0 == 2
        assert p.unit_ids[p.treated_index] == "KS"
        assert p.outcomes[p.treated_index, 0] == 1.0

    def test_application_scale(self):
        units = [f"s{i:02d}" for i in range(51)]
        times = list(range(1, 106))
        p = load_panel(_grid_csv(units, times), "s00", 90)
        assert p.t0 == 89
        assert p.n_donors == 50
        assert p.n_periods == 105

    def test_time_labels_parsed_at_most_twice(self, monkeypatch):
        # once to sort and count the pre periods, once in PanelData's
        # ordering check, plus the treatment time
        calls = []
        monkeypatch.setattr(panel, "parse_time_label", lambda v: calls.append(v) or parse(v))
        times = list(range(1, 92))
        p = load_panel(_grid_csv(["a", "b", "c"], times), "a", 80)
        assert p.t0 == 79
        assert len(calls) <= 2 * len(times) + 1

    def test_missing_cell_names_unit_and_time(self):
        rows = [
            "a,1,1.0", "a,2,1.1", "a,3,1.2",
            "b,1,2.0", "b,3,2.2",
            "c,1,3.0", "c,2,3.1", "c,3,3.2",
        ]
        with pytest.raises(MissingCellError) as err:
            load_panel(_csv(rows), "a", 3)
        assert err.value.unit == "b"
        assert err.value.time == "2"

    def test_blank_outcome_is_missing(self):
        rows = ["a,1,1.0", "a,2,", "b,1,2.0", "b,2,2.1", "c,1,0.5", "c,2,0.7"]
        with pytest.raises(MissingCellError):
            load_panel(_csv(rows), "a", 2)

    def test_duplicate_cell(self):
        rows = ["a,1,1.0", "a,1,1.5", "b,1,2.0"]
        with pytest.raises(DuplicateCellError):
            load_panel(_csv(rows), "a", 1)

    def test_unknown_treated(self):
        with pytest.raises(UnknownUnitError):
            load_panel(_grid_csv(["a", "b"], [1, 2, 3]), "zz", 3)

    def test_treatment_at_first_period(self):
        with pytest.raises(TreatmentTimeError):
            load_panel(_grid_csv(["a", "b"], [1, 2, 3]), "a", 1)

    def test_treatment_past_last_period(self):
        with pytest.raises(TreatmentTimeError):
            load_panel(_grid_csv(["a", "b"], [1, 2, 3, 4]), "a", 99)

    @pytest.mark.parametrize(
        "source", [42, ["unit,time,outcome", "a,1,1.0"], [{"unit": "a", "time": 1, "outcome": 1.0}]]
    )
    def test_source_neither_path_nor_file_rejected(self, source):
        with pytest.raises(PanelFormatError, match="CSV path or file object"):
            load_panel(source, "a", 2)

    def test_single_pre_period_rejected(self):
        with pytest.raises(TreatmentTimeError):
            load_panel(_grid_csv(["a", "b"], [1, 2, 3]), "a", 2)

    def test_string_times_sort_lexicographically(self):
        rows = [
            "a,q1,1.0", "a,q2,1.1", "a,q3,1.2",
            "b,q1,2.0", "b,q2,2.1", "b,q3,2.2",
        ]
        p = load_panel(_csv(rows), "a", "q3")
        assert p.time_ids == ("q1", "q2", "q3")
        assert p.t0 == 2

    def test_numeric_times_sort_numerically(self):
        rows = [
            "a,2,1.0", "a,10,1.1", "a,1,0.9",
            "b,2,2.0", "b,10,2.1", "b,1,1.9",
        ]
        p = load_panel(_csv(rows), "a", 10)
        assert [float(v) for v in p.time_ids] == [1.0, 2.0, 10.0]
        assert p.t0 == 2

    def test_mixed_labels_fall_back_to_string_order(self):
        rows = [
            "a,q1,1.0", "a,2,1.1", "a,q3,1.2",
            "b,q1,2.0", "b,2,2.1", "b,q3,2.2",
        ]
        p = load_panel(_csv(rows), "a", "q3")
        assert p.time_ids == ("2", "q1", "q3")  # lexicographic fallback
        assert p.t0 == 2

    def test_non_numeric_treatment_time_on_numeric_axis(self):
        rows = [f"{u},{t},{v}" for u in ("a", "b") for t, v in ((1, 1.0), (2, 2.0), (3, 3.0))]
        with pytest.raises(TreatmentTimeError, match="not numeric"):
            load_panel(_csv(rows), "a", "q1")

    def test_ragged_row_names_its_line(self):
        rows = ["a,1,1.0", "a,2", "b,1,2.0", "b,2,2.1"]
        with pytest.raises(PanelFormatError, match="line 3 has 2 field"):
            load_panel(_csv(rows), "a", 2)

    def test_ragged_row_counts_only_the_requested_columns(self):
        rows = [f"{u},{t},{t}.5,{t}" for u in ("a", "b", "c") for t in (1, 2, 3)]
        rows[4] = "b,2,2.5"
        header = "unit,time,outcome,gdp"
        assert load_panel(_csv(rows, header), "a", 3).n_periods == 3
        with pytest.raises(PanelFormatError, match="line 6 has 3 field"):
            load_panel(_csv(rows, header), "a", 3, ["gdp"])

    def test_covariate_columns_read_in_the_same_pass(self):
        rows = [f"{u},{t},{i + 0.1 * t},{10 * i + t},{-t}" for i, u in enumerate("abc")
                for t in (3, 1, 2)]
        p = load_panel(_csv(rows, "Unit,Time,Outcome,GDP,pop"), "b", 3, ["gdp", "pop"])
        assert p.covariate_names == ("gdp", "pop")
        assert p.covariates.shape == (3, 3, 2)
        assert np.array_equal(p.covariates[:, :, 0], [[1, 2, 3], [11, 12, 13], [21, 22, 23]])
        assert np.array_equal(p.covariates[:, :, 1], [[-1, -2, -3]] * 3)
        assert not p.covariates.flags.writeable

    def test_unknown_covariate_column(self):
        with pytest.raises(PanelFormatError, match="must contain 'gdp'"):
            load_panel(_grid_csv(["a", "b"], [1, 2, 3]), "a", 3, ["gdp"])

    @pytest.mark.parametrize("names", [["gdp", "gdp"], ["gdp", " GDP "], ["pop", "gdp", "Pop"]])
    def test_repeated_covariate_column(self, names):
        # refused before the source is read: this one has no header to match
        with pytest.raises(ConfigError, match="name one column more than once"):
            load_panel(io.StringIO("not,a,panel\n"), "a", 3, names)

    @pytest.mark.parametrize("cell", ["", " ", "nan", " NaN "])
    def test_missing_covariate_cell(self, cell):
        rows = [f"{u},{t},1.0,{t}" for u in ("a", "b", "c") for t in (1, 2, 3)]
        rows[7] = f"c,2,1.0,{cell}"
        with pytest.raises(MissingCellError, match="missing gdp") as err:
            load_panel(_csv(rows, "unit,time,outcome,gdp"), "a", 3, ["gdp"])
        assert (err.value.unit, err.value.time, err.value.column) == ("c", "2", "gdp")

    @pytest.mark.parametrize("cell", ["inf", "-inf", " -INF ", "Infinity", "1e400"])
    def test_infinite_outcome_cell(self, cell):
        rows = [f"{u},{t},1.{t}" for u in ("a", "b", "c") for t in (1, 2, 3)]
        rows[4] = f"b,2,{cell}"
        sign = "-" if "-" in cell else ""
        with pytest.raises(PanelFormatError, match=f"non-finite outcome {sign}inf for unit 'b' at time '2'"):
            load_panel(_csv(rows), "a", 3)

    @pytest.mark.parametrize("cell", ["inf", "-inf"])
    def test_infinite_covariate_cell(self, cell):
        rows = [f"{u},{t},1.0,{t}" for u in ("a", "b", "c") for t in (1, 2, 3)]
        rows[2] = f"a,3,1.0,{cell}"  # a post period: every requested cell is read
        header = "unit,time,outcome,gdp"
        with pytest.raises(PanelFormatError, match=f"non-finite gdp {cell} for unit 'a' at time '3'"):
            load_panel(_csv(rows, header), "a", 3, ["gdp"])
        assert load_panel(_csv(rows, header), "a", 3).n_periods == 3  # gdp not requested

    def test_non_numeric_covariate_in_a_post_period_row(self):
        rows = [f"{u},{t},1.0,{t}" for u in ("a", "b", "c") for t in (1, 2, 3)]
        rows[2] = "a,3,1.0,n/a"
        with pytest.raises(PanelFormatError, match="non-numeric gdp 'n/a' for unit 'a' at time"):
            load_panel(_csv(rows, "unit,time,outcome,gdp"), "a", 3, ["gdp"])


def _parity_case(rng):
    """One small long CSV text and the arguments to read it with.

    The rows are a full unit x time grid in random order, then mutated at
    random: blank, whitespace-only (among them one with every column and a
    tab for its first cell), comma-only and quoted whitespace-and-newline
    rows, short rows, duplicate pairs (some with their labels padded
    differently, so the error must name the stripped labels) and missing
    pairs, bad cells, a unit whose label cells are blank, quoted commas and
    line breaks, padded labels, an upper-case header and extra columns, so
    most texts are read and many raise. A text is one block of the reader's,
    and half the texts have at most one mutation, so each kind of row often
    sits in a block that is otherwise clean.
    """
    pick = lambda options: options[rng.integers(len(options))]  # noqa: E731
    units = [str(u) for u in rng.permutation(["a", "b", "10", "2", "x,y", "p\nq"])]
    units = units[: rng.integers(2, 5)]
    times = pick([["1", "2", "3", "4", "10"], ["2001", "2001.5", "2002", "2003"],
                  ["q1", "q2", "q3", "q4"], ["1", "2", "q3", "q4"], ["1", "2", "1.0", "3"]])
    times = times[: rng.integers(3, len(times) + 1)]
    header = [str(h) for h in rng.permutation(
        ["unit", "time", "outcome"] + [c for c in ("gdp", "note") if rng.random() < 0.5])]
    covariates = ["gdp"] if rng.random() < (0.7 if "gdp" in header else 0.05) else []

    def pad(label):
        return pick(["", " ", "  "]) + label + pick(["", " "]) if rng.random() < 0.2 else label

    def field(name, unit, time_label):
        return {
            "unit": pad(unit),
            "time": pad(time_label),
            "outcome": f"{rng.normal():.3f}",
            "gdp": f"{rng.normal() * 10:.2f}",
            "note": pick(["n", "one, two", "line\nbreak", ""]),
        }[name]

    rows = [[field(h, u, t) for h in header] for u in units for t in times]
    rows = [rows[i] for i in rng.permutation(len(rows))]
    values = [header.index(h) for h in ("outcome", "gdp") if h in header]
    labels = [header.index("unit"), header.index("time")]
    for _ in range(rng.integers(0, 4)):
        at = int(rng.integers(len(rows) + 1))
        kind = rng.random()
        if kind < 0.12 and rows:  # a short row: first, middle or last
            row = rows[pick([0, len(rows) - 1, at % len(rows)])]
            del row[max(1, rng.integers(len(row) + 1)) :]
        elif kind < 0.24 and rows:  # a duplicate pair, before or after the other rows
            row = list(rows[at % len(rows)])
            for col in labels if rng.random() < 0.5 else ():  # the same labels, padded anew
                if col < len(row):
                    row[col] = pick(["", " ", "  "]) + row[col].strip() + pick(["", " "])
            rows.insert(at, row)
        elif kind < 0.33 and rows:  # a missing pair
            del rows[at % len(rows)]
        elif kind < 0.47 and rows:  # a bad cell
            row, col = rows[at % len(rows)], pick(values)
            if col < len(row):
                row[col] = pick(["", " ", "nan", "-inf", "1e999", "abc", "1_0"])
        elif kind < 0.55 and rows:  # a unit whose label cells are blank, its other cells not
            row, blank = rows[at % len(rows)], pick(["", " ", "\t"])
            unit = row[labels[0]] if len(row) > labels[0] else None
            for row in rows:
                if len(row) > labels[0] and row[labels[0]] == unit:
                    row[labels[0]] = blank
        else:  # a blank row, some with every column and a tab first
            rows.insert(at, list(pick([[], ["  "], ["", "", ""], [" ", " ", ""], [" \n "], ["\t"],
                                       ["\t", *[" "] * (len(header) - 1)]])))
    header = [h.upper() if rng.random() < 0.2 else h for h in header]
    if rng.random() < 0.03:
        header[int(rng.integers(len(header)))] = "outcme"

    def line(row):
        return ",".join(
            '"' + f.replace('"', '""') + '"' if any(c in f for c in ',"\n') or rng.random() < 0.1
            else f
            for f in row
        )

    eol = pick(["\n", "\r\n"])
    text = eol.join(map(line, [header, *rows])) + pick([eol, ""])
    treated = pick([*units * 3, "zz"])
    treatment_time = pick([times[len(times) // 2]] * 4 + [times[-1], times[0], "99", "q9"])
    return text, pick(["\n", ""]), treated, treatment_time, covariates


def _read_outcome(read, text, newline, *args, fail_after=None):
    """What ``read`` makes of ``text``: the PanelData's parts, or the class and
    message of what it raised. With ``fail_after`` the source raises OSError
    once it has given that many lines."""
    if fail_after is None:
        source = io.StringIO(text, newline=newline)
    else:
        source = _FailingSource(text, newline=newline, lines=fail_after)
    try:
        p = read(source, *args)
    except Exception as exc:  # the class and message are compared
        return type(exc), str(exc)
    return (p.outcomes.shape, p.outcomes.tobytes(), p.covariates.shape, p.covariates.tobytes(),
            p.unit_ids, p.time_ids, p.treated_index, p.t0, p.covariate_names)


class _FailingSource(io.StringIO):
    """A text file whose line iteration raises OSError after ``lines`` lines."""

    def __init__(self, text, newline, lines):
        super().__init__(text, newline=newline)
        self.left = lines

    def __next__(self):
        if not self.left:
            raise OSError("read failed")
        self.left -= 1
        return super().__next__()


def test_reader_matches_the_row_at_a_time_oracle():
    """On 1,000 generated texts ``load_panel`` returns the same PanelData bytes
    as the row-at-a-time reader, or raises the same class and message."""
    rng = np.random.default_rng(20150)
    seen = {}
    for _ in range(1000):
        text, newline, *args = _parity_case(rng)
        got = _read_outcome(load_panel, text, newline, *args)
        assert got == _read_outcome(load_panel_by_rows, text, newline, *args), repr(text)
        kind = got[0] if isinstance(got[0], type) else PanelData
        seen[kind] = seen.get(kind, 0) + 1
    # every outcome the reader can give is drawn often enough to matter
    for kind in (PanelData, PanelFormatError, DuplicateCellError, MissingCellError,
                 UnknownUnitError, TreatmentTimeError):
        assert seen.get(kind, 0) >= 20, seen


def test_short_row_line_counts_quoted_breaks():
    # the blank row's one field spans lines 3-4; the short row ends on line 5
    text = 'unit,time,outcome\na,1,1.0\n" \n "\na,2\nb,1,2.0\n'
    with pytest.raises(PanelFormatError, match="line 5 has 2 field"):
        load_panel(io.StringIO(text), "a", 2)


def test_first_offending_row_decides():
    dup_first = ["a,1,1.0", "a,1,1.5", "a,2", "b,1,2.0"]
    with pytest.raises(DuplicateCellError, match="unit 'a' at time '1'"):
        load_panel(_csv(dup_first), "a", 2)
    short_first = ["a,1,1.0", "a,2", "a,1,1.5", "b,1,2.0"]
    with pytest.raises(PanelFormatError, match="line 3 has 2 field"):
        load_panel(_csv(short_first), "a", 2)


def _block_case(rng):
    """A long CSV text of 300-2,000 rows whose offending rows sit before, at
    and after the reader's block boundaries, the arguments to read it with,
    and, for about half the texts, a number of lines after which the source
    fails: within two lines of an offending row, so that row is read on
    either side of the failure.

    The rows are a full unit x time grid, unit by unit, then mutated near a
    boundary: blank rows (among them a quoted field of spaces and line breaks
    that spans several lines), duplicate and missing pairs, short rows, bad
    cells and, rarely, a field over the csv size limit, which makes ``csv``
    itself fail.
    """
    size = panel._BLOCK_ROWS
    pick = lambda options: options[rng.integers(len(options))]  # noqa: E731
    n_units = int(rng.integers(6, 41))
    n_periods = int(rng.integers(-(-300 // n_units), 2000 // n_units + 1))
    header = ["unit", "time", "outcome", "gdp"][: 3 + (rng.random() < 0.5)]
    covariates = ["gdp"] if len(header) == 4 and rng.random() < 0.7 else []
    rows = [[f"u{i}", str(t), f"{rng.normal():.3f}", f"{rng.normal():.2f}"][: len(header)]
            for i in range(n_units) for t in range(1, n_periods + 1)]

    def near():  # a data row index within two rows of a block boundary
        at = size * int(rng.integers(1, len(rows) // size + 1)) + int(rng.integers(-2, 3))
        return min(max(at - 1, 0), len(rows) - 1)  # the header is the reader's row 0

    offending = []
    for _ in range(rng.integers(0, 4)):
        at, kind = near(), rng.random()
        if kind < 0.3:  # a blank row
            row = list(pick([[], ["  "], ["", "", ""], [" \n \n "], [" \r\n  \n"]]))
            rows.insert(at, row)
        elif kind < 0.5:  # a duplicate pair, after the row it repeats
            row = list(rows[int(rng.integers(at + 1))])
            rows.insert(at, row)
        elif kind < 0.65:  # a missing pair
            del rows[at]
            continue
        elif len(rows[at]) < 3:  # already blank or short
            continue
        elif kind < 0.8:  # a short row
            row = rows[at]
            del row[int(rng.integers(1, 3)) :]
        elif kind < 0.97:  # a bad cell
            row = rows[at]
            row[int(rng.integers(2, len(row)))] = pick(["", " ", "abc", "1_0", "nan", "inf"])
        else:  # a field csv refuses
            row = rows[at]
            row[0] = "x" * (csv.field_size_limit() + 1)
        offending.append(row)

    def line(row):
        return ",".join('"' + f + '"' if any(c in f for c in ',"\r\n') else f for f in row)

    eol = pick(["\n", "\r\n"])
    texts = [line(header), *map(line, rows)]
    text = eol.join(texts) + eol
    fail_after = None
    if rng.random() < 0.5:  # the source fails within two lines of an offending row
        marked = {id(row) for row in offending}
        starts = [1 + sum(t.count("\n") + 1 for t in texts[: i + 1])
                  for i, row in enumerate(rows) if id(row) in marked]
        if starts:
            fail_after = max(0, pick(starts) + int(rng.integers(-2, 2)))
    treated = pick(["u0"] * 4 + [f"u{n_units - 1}", "zz"])
    treatment_time = pick([str(n_periods // 2)] * 4 + [str(n_periods + 1), "1"])
    return text, pick(["\n", ""]), fail_after, treated, treatment_time, covariates


def test_reader_matches_the_oracle_across_block_boundaries():
    """On 150 generated texts of 300-2,000 rows, with offending rows near the
    block boundaries and sources that fail beside them, ``load_panel`` returns
    the same PanelData bytes as the row-at-a-time reader, or raises the same
    class and message."""
    rng = np.random.default_rng(20170)
    seen = {}
    for _ in range(150):
        text, newline, fail_after, *args = _block_case(rng)
        got = _read_outcome(load_panel, text, newline, *args, fail_after=fail_after)
        want = _read_outcome(load_panel_by_rows, text, newline, *args, fail_after=fail_after)
        assert got == want, (fail_after, args)
        kind = got[0] if isinstance(got[0], type) else PanelData
        seen[kind] = seen.get(kind, 0) + 1
    for kind in (PanelData, PanelFormatError, DuplicateCellError, MissingCellError, OSError):
        assert seen.get(kind, 0) >= 10, seen
    assert seen.get(csv.Error, 0) >= 1, seen


def _long_rows(n_units=4, n_periods=100):
    return [f"u{i},{t},{i + 0.01 * t}" for i in range(n_units) for t in range(1, n_periods + 1)]


@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize(
    "offence, fails_first, expected",
    [
        ("duplicate", False, (DuplicateCellError, "unit 'u0' at time '1'")),
        ("duplicate", True, (OSError, "read failed")),
        ("short", False, (PanelFormatError, "has 2 field")),
        ("short", True, (OSError, "read failed")),
        ("quoted short", False, (PanelFormatError, "has 2 field")),
        ("quoted short", True, (OSError, "read failed")),
    ],
)
def test_a_read_failure_is_raised_after_the_rows_before_it(offset, offence, fails_first, expected):
    """The source fails on a block boundary with an offending row on one side
    of it: the earlier of the two in file order is raised, as the oracle does.
    A short row whose quoted field the failure cuts is never read."""
    rows = _long_rows()
    at = panel._BLOCK_ROWS + offset  # the data row index of the offending row
    row = {"duplicate": "u0,1,5.0", "short": "u0,999", "quoted short": 'u0,"99\n9"'}[offence]
    rows.insert(at, row)
    text = "unit,time,outcome\n" + "\n".join(rows) + "\n"
    first_line = at + 2  # the header is line 1
    fail_after = first_line - 1 if fails_first else first_line + row.count("\n")
    if offence == "quoted short" and fails_first:
        fail_after = first_line  # inside the quoted field
    got = _read_outcome(load_panel, text, "", "u0", 50, fail_after=fail_after)
    assert got == _read_outcome(load_panel_by_rows, text, "", "u0", 50, fail_after=fail_after)
    error, message = expected
    assert got[0] is error and message in got[1], got


def test_a_csv_failure_is_raised_after_the_rows_before_it():
    rows = _long_rows()
    huge = "x" * (csv.field_size_limit() + 1)
    at = panel._BLOCK_ROWS
    for offending, error in ((["u0,1,5.0", f"{huge},1,1"], DuplicateCellError),
                             ([f"{huge},1,1", "u0,1"], csv.Error)):
        text = "unit,time,outcome\n" + "\n".join([*rows[:at], *offending, *rows[at:]]) + "\n"
        with pytest.raises(error):
            load_panel(io.StringIO(text), "u0", 50)


def test_short_row_after_a_multi_line_blank_row_on_a_boundary():
    # the blank row is the last of the first block and spans lines 257-259
    rows = _long_rows()
    rows[panel._BLOCK_ROWS - 1 : panel._BLOCK_ROWS - 1] = ['" \n \n "', "u0,500"]
    text = "unit,time,outcome\n" + "\n".join(rows) + "\n"
    with pytest.raises(PanelFormatError, match=r"^line 260 has 2 field"):
        load_panel(io.StringIO(text), "u0", 50)


def test_reading_holds_few_rows_at_once():
    """csv rows are freed block by block, so even at a young-generation
    threshold of 1,000 objects a 20,000-row read starts no collection."""
    text = "unit,time,outcome\n" + "".join(
        f"u{i},{t},{i + 0.001 * t}\n" for i in range(200) for t in range(1, 101))
    collections = []

    def count(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    thresholds = gc.get_threshold()
    gc.collect()
    gc.set_threshold(1000)
    gc.callbacks.append(count)
    try:
        p = load_panel(io.StringIO(text), "u0", 51)
    finally:
        gc.callbacks.remove(count)
        gc.set_threshold(*thresholds)
    assert p.outcomes.shape == (200, 100)
    assert collections == []


class TestPeriodsPreceding:
    def test_numeric_axis(self):
        assert periods_preceding(("1", "2", "10", "11"), "10") == 2
        assert periods_preceding((1, 2, 10, 11), 10.5) == 3

    def test_string_axis_compares_strings(self):
        assert periods_preceding(("2012Q1", "2012Q2", "2012Q3"), "2012Q3") == 2
        # mixed labels order as strings, so a numeric label does too
        assert periods_preceding(("2", "q1", "q3"), "3") == 1

    def test_label_kind_mismatch(self):
        with pytest.raises(TreatmentTimeError):
            periods_preceding((1, 2, 3), "q1")


class TestPanelData:
    def test_nan_rejected(self):
        out = np.ones((3, 4))
        out[1, 2] = np.nan
        with pytest.raises(MissingCellError):
            PanelData(out, ("a", "b", "c"), (1, 2, 3, 4), 0, 2)

    def test_covariates_empty_by_default(self, rng):
        p = make_panel(rng, 4, 6, 4)
        assert p.covariates.shape == (4, 6, 0)
        assert p.covariate_names == ()

    def test_covariates_follow_the_outcome_rules(self):
        z = np.ones((3, 4, 2))
        with pytest.raises(PanelFormatError, match="N x T x K"):
            PanelData(np.ones((3, 4)), ("a", "b", "c"), (1, 2, 3, 4), 0, 2, z.copy(), ("gdp",))
        z[2, 1, 1] = np.nan
        with pytest.raises(MissingCellError, match="missing pop for unit 'c' at time 2"):
            PanelData(np.ones((3, 4)), ("a", "b", "c"), (1, 2, 3, 4), 0, 2, z, ("gdp", "pop"))

    def test_infinite_cell_rejected(self):
        out = np.ones((3, 4))
        out[2, 3] = -np.inf
        with pytest.raises(PanelFormatError, match="non-finite outcome -inf for unit 'c' at time 4"):
            PanelData(out, ("a", "b", "c"), (1, 2, 3, 4), 0, 2)

    def test_failed_construction_leaves_the_callers_array_writable(self):
        z = np.ones((3, 4, 2))
        with pytest.raises(PanelFormatError, match="N x T x K"):
            PanelData(np.ones((3, 4)), ("a", "b", "c"), (1, 2, 3, 4), 0, 2, z, ("gdp",))
        assert z.flags.writeable
        z[2, 1, 1] = np.nan

    def test_later_writes_to_the_callers_array_do_not_reach_the_panel(self):
        out, z = np.ones((3, 4)), np.ones((3, 4, 1))
        p = PanelData(out, ("a", "b", "c"), (1, 2, 3, 4), 0, 2, z, ("gdp",))
        out[0, 0], z[0, 0, 0] = 99.0, 99.0
        assert p.outcomes[0, 0] == 1.0 and p.covariates[0, 0, 0] == 1.0
        assert not p.outcomes.flags.writeable

    def test_read_only_input_is_kept(self):
        out = np.ones((3, 4))
        out.setflags(write=False)
        p = PanelData(out, ("a", "b", "c"), (1, 2, 3, 4), 0, 2)
        assert p.outcomes is out

    def test_t0_bounds(self):
        out = np.ones((3, 4))
        with pytest.raises(TreatmentTimeError):
            PanelData(out, ("a", "b", "c"), (1, 2, 3, 4), 0, 1)
        with pytest.raises(TreatmentTimeError):
            PanelData(out, ("a", "b", "c"), (1, 2, 3, 4), 0, 4)

    def test_times_must_increase(self):
        with pytest.raises(PanelFormatError):
            PanelData(np.ones((2, 3)), ("a", "b"), (3, 2, 4), 0, 2)

    def test_immutable(self, rng):
        p = make_panel(rng, 4, 6, 4)
        with pytest.raises(ValueError):
            p.outcomes[0, 0] = 99.0


class TestSplitAndCenter:
    def test_hand_arithmetic(self):
        out = np.array([[5.0, 5.0, 9.0], [1.0, 3.0, 7.0], [3.0, 5.0, 8.0]])
        p = PanelData(out, ("t", "d1", "d2"), (1, 2, 3), 0, 2)
        blocks = split_and_center(p)
        assert np.allclose(blocks.x0, [[-1.0, -1.0], [1.0, 1.0]])
        assert np.allclose(blocks.x1, [3.0, 1.0])
        assert np.allclose(blocks.y0_post[:, 0], [7.0, 8.0])
        assert blocks.y1_post[0] == 9.0

    def test_column_means_tiny(self, rng):
        for _ in range(20):
            p = make_panel(rng, 7, 10, 7)
            blocks = split_and_center(p)
            assert np.abs(blocks.x0.mean(axis=0)).max() < 1e-12

    def test_stacking_reconstructs_panel(self, rng):
        p = make_panel(rng, 6, 9, 6, treated_index=2)
        blocks = split_and_center(p)
        full = np.empty((p.n_units, p.n_periods - p.t0))
        full[p.treated_index] = blocks.y1_post
        full[p.donor_indices] = blocks.y0_post
        assert np.array_equal(full, p.outcomes[:, p.t0 :])

    @settings(max_examples=40)
    @given(
        seed=st.integers(0, 2**32 - 1),
        scale=st.floats(1e-2, 1e4),
        shift=st.floats(0.0, 100.0),
    )
    def test_centring_is_an_invariant(self, seed, scale, shift):
        # blocks are centred whatever the input, and a per-period shift of
        # every unit moves no estimate
        rng = np.random.default_rng(seed)
        p = make_panel(rng, 8, 14, 10)
        outcomes = scale * p.outcomes
        shifted = outcomes + scale * shift * rng.uniform(-1.0, 1.0, size=p.n_periods)
        atts = {}
        for values in (outcomes, shifted):
            blocks = split_and_center(replace(p, outcomes=values))
            assert np.abs(blocks.x0.mean(axis=0)).max() <= 1e-12 * scale
            for spec in (
                EstimatorSpec(method="scm"),
                EstimatorSpec(method="ridge_ascm", lam=scale**2),
                EstimatorSpec(method="demeaned"),
            ):
                atts.setdefault(spec.method, []).append(estimate_on_blocks(blocks, spec).att)
        for a, b in atts.values():
            assert np.all(np.abs(a - b) <= 1e-10 * np.maximum(np.abs(a), np.abs(b)))

    def test_blocks_validation(self):
        with pytest.raises(PanelFormatError, match="x1 length must match x0 columns"):
            PanelBlocks(
                x1=np.ones(2),  # one entry per pre period
                x0=np.ones((4, 3)),
                y0_post=np.ones((4, 1)),
                y1_post=np.ones(1),
            )

    def test_blocks_reject_non_finite(self):
        x0 = np.zeros((4, 3))
        x0[2, 1] = np.inf
        with pytest.raises(PanelFormatError):
            PanelBlocks(
                x1=np.ones(3), x0=x0, y0_post=np.ones((4, 1)), y1_post=np.ones(1)
            )
