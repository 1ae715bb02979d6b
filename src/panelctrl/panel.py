"""Panel ingestion and the treated/control, pre/post block layout.

A panel is a complete N x T outcome matrix with a single treated unit and
a treatment time splitting the columns into T0 pre-treatment periods and
T - T0 post-treatment periods, plus an N x T x K table of auxiliary
covariates (empty by default). Long-format CSV with header
``unit,time,outcome`` is the canonical input; :func:`load_panel` reads it
in blocks of a few hundred csv rows into whole columns, together with any
extra columns requested as covariates.
"""

from __future__ import annotations

import csv
import itertools
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    ConfigError,
    DuplicateCellError,
    MissingCellError,
    PanelFormatError,
    TreatmentTimeError,
    UnknownUnitError,
)

# csv rows held at once by load_panel: a block's row lists are freed before
# the next block is read, so they never build up into a garbage collection
_BLOCK_ROWS = 256

__all__ = [
    "PanelData",
    "PanelBlocks",
    "load_panel",
    "split_and_center",
    "demean_rows",
    "parse_time_label",
    "periods_preceding",
    "period_folds",
]


def parse_time_label(label):
    """Return a sort key for a period label: numeric when possible, else string.

    All labels in one panel must parse into the same domain so comparisons
    stay total.
    """
    if isinstance(label, (int, float)) and not isinstance(label, bool):
        return float(label)
    try:
        return float(str(label).strip())
    except ValueError:
        return str(label)


def _time_keys(labels):
    keys = [parse_time_label(v) for v in labels]
    kinds = {isinstance(k, str) for k in keys}
    if len(kinds) > 1:
        # mixed numeric / non-numeric labels: fall back to string ordering
        keys = [str(v) for v in labels]
    return keys


def periods_preceding(time_ids, label):
    """Number of periods in ``time_ids`` strictly before ``label``.

    ``label`` is compared under the ordering of the whole time axis: as a
    string when the axis is string-ordered (including mixed labels), as a
    number when it is numeric. A non-numeric label on a numeric axis has no
    place in that ordering and raises :class:`TreatmentTimeError`.
    """
    return _preceding(_time_keys(time_ids), label)


def _preceding(keys, label):
    """:func:`periods_preceding` on the parsed keys of the time axis."""
    if isinstance(keys[0], str):
        key = str(label)
    else:
        key = parse_time_label(label)
        if isinstance(key, str):
            raise TreatmentTimeError(
                f"time label {label!r} is not numeric but the panel's periods are"
            )
    return sum(1 for k in keys if k < key)


def readonly_array(a):
    """``a`` as a C-contiguous float array that cannot be written through.

    An array that is already one is returned as is. Anything else is copied
    first, so the caller's own array keeps its flags and later writes to it
    do not reach the result.
    """
    a = np.asarray(a, dtype=float)
    if a.flags.writeable or not a.flags.c_contiguous:
        a = np.array(a, order="C")
        a.setflags(write=False)
    return a


@dataclass(frozen=True)
class PanelData:
    """Wide outcome matrix with one treated unit and a treatment time.

    Attributes
    ----------
    outcomes : np.ndarray
        N x T matrix of outcomes, rows in ``unit_ids`` order, columns in
        ``time_ids`` order.
    unit_ids : tuple
        N opaque unit labels.
    time_ids : tuple
        T period labels, strictly increasing under their parsed ordering.
    treated_index : int
        Row index of the single treated unit.
    t0 : int
        Number of pre-treatment periods, 2 <= t0 < T.
    covariates : np.ndarray
        N x T x K auxiliary covariates laid out like ``outcomes`` (K = 0 by
        default), column k named ``covariate_names[k]``.
    """

    outcomes: np.ndarray
    unit_ids: tuple
    time_ids: tuple
    treated_index: int
    t0: int
    covariates: np.ndarray = None
    covariate_names: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "outcomes", readonly_array(self.outcomes))
        object.__setattr__(self, "unit_ids", tuple(self.unit_ids))
        object.__setattr__(self, "time_ids", tuple(self.time_ids))
        object.__setattr__(self, "covariate_names", tuple(self.covariate_names))
        n, t = self.outcomes.shape
        k = len(self.covariate_names)
        covariates = np.empty((n, t, 0)) if self.covariates is None else self.covariates
        object.__setattr__(self, "covariates", readonly_array(covariates))
        if self.covariates.shape != (n, t, k):
            raise PanelFormatError(f"covariates must be N x T x K = {(n, t, k)}")
        if len(self.unit_ids) != n:
            raise PanelFormatError("unit_ids length does not match outcome rows")
        if len(self.time_ids) != t:
            raise PanelFormatError("time_ids length does not match outcome columns")
        if len(set(self.unit_ids)) != n:
            raise PanelFormatError("unit_ids must be unique")
        if not 0 <= self.treated_index < n:
            raise PanelFormatError("treated_index out of range")
        if not 2 <= self.t0 < t:
            raise TreatmentTimeError(
                f"need 2 <= T0 < T, got T0={self.t0} with T={t}"
            )
        cells = np.concatenate([self.outcomes[:, :, None], self.covariates], axis=2)
        bad = ~np.isfinite(cells)
        if bad.any():
            i, j, c = np.argwhere(bad)[0]
            column = ("outcome", *self.covariate_names)[c]
            if np.isnan(cells[i, j, c]):
                raise MissingCellError(self.unit_ids[i], self.time_ids[j], column)
            raise PanelFormatError(
                f"non-finite {column} {cells[i, j, c]} for unit {self.unit_ids[i]!r} "
                f"at time {self.time_ids[j]!r}"
            )
        keys = _time_keys(self.time_ids)
        if any(a >= b for a, b in zip(keys, keys[1:])):
            raise PanelFormatError("time_ids must be strictly increasing")

    @property
    def n_units(self):
        return self.outcomes.shape[0]

    @property
    def n_periods(self):
        return self.outcomes.shape[1]

    @property
    def n_donors(self):
        return self.n_units - 1

    @property
    def donor_indices(self):
        return [i for i in range(self.n_units) if i != self.treated_index]

    @property
    def donor_ids(self):
        return [self.unit_ids[i] for i in self.donor_indices]


@dataclass(frozen=True)
class PanelBlocks:
    """Treated/control pre/post blocks extracted from a panel.

    ``x1`` and ``x0`` hold pre-period outcomes, always centred on the
    donor column means (:func:`center_pre`): with weights summing to one, no
    residual, counterfactual or effect depends on those means. The y blocks
    hold raw post-period outcomes and are never centred.
    """

    x1: np.ndarray
    x0: np.ndarray
    y0_post: np.ndarray
    y1_post: np.ndarray

    def __post_init__(self):
        for name in ("x1", "x0", "y0_post", "y1_post"):
            object.__setattr__(self, name, readonly_array(getattr(self, name)))
            if not np.all(np.isfinite(getattr(self, name))):
                raise PanelFormatError(f"{name} contains non-finite values")
        n0, t0 = self.x0.shape
        if self.x1.shape != (t0,):
            raise PanelFormatError("x1 length must match x0 columns")
        if self.y0_post.shape[0] != n0:
            raise PanelFormatError("y0_post rows must match x0 rows")
        if self.y1_post.shape != (self.y0_post.shape[1],):
            raise PanelFormatError("y1_post length must match y0_post columns")
        x1, x0 = center_pre(self.x1, self.x0)
        object.__setattr__(self, "x1", readonly_array(x1))
        object.__setattr__(self, "x0", readonly_array(x0))

    @property
    def n_donors(self):
        return self.x0.shape[0]

    @property
    def t0(self):
        return self.x0.shape[1]

    @cached_property
    def control_svd(self):
        """The :class:`ridge.ControlSVD` of ``x0``, computed once."""
        from .ridge import ControlSVD  # ridge imports this module
        return ControlSVD.compute(self.x0)

    @property
    def n_post(self):
        return self.y0_post.shape[1]


def load_panel(source, treated_label, treatment_time, covariates=()):
    """Read a long-format CSV into a validated :class:`PanelData`.

    ``source`` is a CSV path or file object whose header names ``unit``,
    ``time``, ``outcome`` and every column in ``covariates`` (matched
    case-insensitively); those columns fill ``PanelData.covariates``, and one
    named twice under that match raises :class:`ConfigError` before any read.
    ``treatment_time`` is the first treated period: T0 counts the periods
    strictly before it. Every (unit, time) pair appears once, and each of its
    requested cells holds a number; docs/schemas.md ("Input") lists the errors.

    The source's lines are read into a list first. ``csv.reader`` then parses
    them _BLOCK_ROWS rows at a time, and each block is transposed onto the
    requested columns, so no row's list outlives its block. A block whose rows
    all have the requested columns and a non-blank first cell holds no blank or
    short row; any other block first loses its blank rows and stops at its
    first short row. The columns are then checked and converted whole, each
    distinct raw label stripped once. The errors and their order are those of
    a row-at-a-time reader: a failure of the source or of ``csv`` is raised
    only after the rows read before it pass the short-row and duplicate checks.
    """
    keys = [name.strip().lower() for name in covariates]
    if len(set(keys)) < len(keys):
        raise ConfigError(f"covariates {list(covariates)} name one column more than once")
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", newline="") as fh:
            return load_panel(fh, treated_label, treatment_time, covariates)
    if not hasattr(source, "read"):
        raise PanelFormatError(
            f"panel source must be a CSV path or file object, got {type(source).__name__}"
        )
    lines, rest = [], ()  # lines: parsed in blocks, and again to name a short row's line
    source = iter(source)
    try:
        lines.extend(source)
    except Exception as exc:  # the reader meets it after the lines read before it
        rest = _raising(exc)
    reader = csv.reader(itertools.chain(lines, rest))
    try:
        header = next(reader)
    except StopIteration:
        raise PanelFormatError("empty input: no header row") from None
    cols = {name.strip().lower(): i for i, name in enumerate(header)}
    names = ("outcome", *covariates)
    for required in ("unit", "time", *names):
        if required.strip().lower() not in cols:
            raise PanelFormatError(f"input header must contain {required!r}; got {header}")
    picked = [cols[name.strip().lower()] for name in ("unit", "time", *names)]
    need = max(picked) + 1
    columns = [[] for _ in picked]  # the picked cells of the rows before the first short row
    short = failure = None
    full = True
    while full and short is None and failure is None:
        block = []  # at most _BLOCK_ROWS rows are alive at once
        try:
            block.extend(itertools.islice(reader, _BLOCK_ROWS))
        except Exception as exc:  # raised once the rows read before it pass their checks
            failure = exc
        full = len(block) == _BLOCK_ROWS
        fields = list(zip(*block))  # the block's columns, as many as its shortest row has
        if len(fields) < need or not all(map(str.strip, set(fields[0]))):
            # the block may hold a blank or short row: drop the blank rows, then
            # cut the block at its first short row
            block = list(itertools.compress(block, map(str.strip, map("".join, block))))
            end = next((i for i, row in enumerate(block) if len(row) < need), None)
            if end is not None:
                short, width = len(columns[0]) + end, len(block[end])
                del block[end:]
            fields = list(zip(*block))
        if fields:
            for column, i in zip(columns, picked):
                column.extend(fields[i])
    unit_col, time_col = columns[:2]
    unit_of, time_of = dict.fromkeys(unit_col), dict.fromkeys(time_col)  # distinct raw labels
    units = list(dict.fromkeys(map(str.strip, unit_of)))
    labels = list(dict.fromkeys(map(str.strip, time_of)))
    ordered = sorted(zip(_time_keys(labels), labels))  # each label parsed once
    time_list = [label for _, label in ordered]
    for codes, order in ((unit_of, units), (time_of, time_list)):  # raw label -> index
        at = {label: i for i, label in enumerate(order)}
        codes.update({raw: at[raw.strip()] for raw in codes})
    n = len(unit_col)
    cell = np.fromiter(map(unit_of.__getitem__, unit_col), np.intp, n) * len(time_list)
    cell += np.fromiter(map(time_of.__getitem__, time_col), np.intp, n)
    order = np.arange(n)
    row_of = np.full((len(units), len(time_list)), n)  # first file row of each cell
    np.minimum.at(row_of.reshape(-1), cell, order)
    repeats = row_of.flat[cell] != order
    if repeats.any():  # the first row that repeats a pair, as a row loop meets it
        r = int(repeats.argmax())
        unit, time_label = unit_col[r].strip(), time_col[r].strip()
        raise DuplicateCellError(f"duplicate observation for unit {unit!r} at time {time_label!r}")
    if short is not None:  # parse the lines again, to the short row (the header is row 0)
        reader = csv.reader(lines)
        ends = (reader.line_num for row in reader if "".join(row).strip())
        raise PanelFormatError(
            f"line {next(itertools.islice(ends, short + 1, None))} has {width} field(s); "
            f"the requested columns need {need}"
        )
    if failure is not None:
        raise failure

    if not n:
        raise PanelFormatError("empty input: no observations found")
    values = np.column_stack(
        [_column(unit_col, time_col, raw, name) for raw, name in zip(columns[2:], names)]
    )
    if treated_label not in units:
        raise UnknownUnitError(f"treated unit {treated_label!r} not found in data")
    if (row_of == n).any():
        i, j = np.argwhere(row_of == n)[0]
        raise MissingCellError(units[i], time_list[j], "outcome")

    t0 = _preceding([key for key, _ in ordered], treatment_time)
    if t0 == 0:
        raise TreatmentTimeError(
            f"treatment time {treatment_time!r} is at or before the first period"
        )
    if t0 >= len(time_list):
        raise TreatmentTimeError(
            f"treatment time {treatment_time!r} is after the last observed period"
        )
    if t0 < 2:
        raise TreatmentTimeError(
            f"treatment time {treatment_time!r} leaves only {t0} pre period(s); need at least 2"
        )

    table = values[row_of]  # a nan cell raises MissingCellError in PanelData
    return PanelData(
        outcomes=table[:, :, 0],
        unit_ids=tuple(units),
        time_ids=tuple(time_list),
        treated_index=units.index(treated_label),
        t0=t0,
        covariates=table[:, :, 1:],
        covariate_names=tuple(covariates),
    )


def _raising(exc):
    """An iterator that raises ``exc`` when it is first advanced."""
    raise exc
    yield


def _column(unit_col, time_col, raw, name):
    """One column's raw cells, in file order, as floats; a blank cell raises
    MissingCellError and any other non-number PanelFormatError, naming the
    stripped labels of the raw ``unit_col`` and ``time_col`` cells."""
    try:
        return np.array(raw, dtype=float)
    except ValueError:
        for unit, time_label, text in zip(map(str.strip, unit_col), map(str.strip, time_col), raw):
            if not text.strip():
                raise MissingCellError(unit, time_label, name) from None
            try:
                float(text)
            except ValueError:
                raise PanelFormatError(
                    f"non-numeric {name} {text!r} for unit {unit!r} at time {time_label!r}"
                ) from None
        raise


def split_and_center(p):
    """The panel's :class:`PanelBlocks`, the pre blocks centred on the donor
    column means."""
    donors = p.donor_indices
    return PanelBlocks(
        x1=p.outcomes[p.treated_index, : p.t0],
        x0=p.outcomes[donors, : p.t0],
        y0_post=p.outcomes[donors, p.t0 :],
        y1_post=p.outcomes[p.treated_index, p.t0 :],
    )


def demean_rows(blocks):
    """Blocks under the unit-mean outcome model m(X_i), unit i's pre-period mean.

    Every outcome, pre and post, loses its unit's pre-period mean
    (:func:`subtract_unit_means`), so weighting the post blocks gives the
    weighted difference-in-differences effect (Y_1 - m_1) - sum_i g_i (Y_i
    - m_i); the pre blocks being centred shifts every m_i by one constant,
    which moves no effect. Like every design, the de-meaned pre columns are
    centred over donors again, so the default dispersion penalty of an SCM
    fit to them does not move when a constant is added to a period.
    """
    return PanelBlocks(*subtract_unit_means(blocks.x1, blocks.x0, blocks.y0_post, blocks.y1_post))


def center_pre(x1, x0):
    """The pre blocks ``x1`` (... x T0) and ``x0`` (... x N0 x T0) of one
    design, or of a stack along leading axes, less the donor column means."""
    means = x0.mean(axis=-2)
    return x1 - means, x0 - means[..., None, :]


def subtract_unit_means(x1, x0, y0_post, y1_post):
    """The blocks of one design, or of a stack along leading axes
    (:func:`center_pre`; ``y0_post`` ... x N0 x T1, ``y1_post`` ... x T1),
    each outcome less its unit's pre-period mean."""
    m1 = x1.mean(axis=-1, keepdims=True)
    m0 = x0.mean(axis=-1, keepdims=True)
    return x1 - m1, x0 - m0, y0_post - m0, y1_post - m1


def period_folds(blocks, mode="leave-one"):
    """Yield ``(t, fold)`` for every pre period t held out of ``blocks``.

    ``mode`` "leave-one" keeps every other pre period; "leave-future" keeps
    only the periods before t, so each fold is a forecast (its first folds
    keep fewer than two periods and callers decide whether to skip them).
    The held-out period becomes the fold's last post column:
    ``y0_post[:, -1]`` is ``blocks.x0[:, t]`` and ``y1_post[-1]`` is
    ``blocks.x1[t]``, so an estimate on the fold predicts it like any other
    post period.
    """
    if mode not in ("leave-one", "leave-future"):
        raise ConfigError(f"unknown fold mode {mode!r}")
    for t in range(blocks.t0):
        yield t, period_fold(blocks, t, mode)


def period_fold(blocks, t, mode):
    """The fold of :func:`period_folds` that holds out pre period ``t``."""
    periods = np.arange(blocks.t0)
    keep = np.delete(periods, t) if mode == "leave-one" else periods[:t]
    return PanelBlocks(
        x1=blocks.x1[keep],
        x0=blocks.x0[:, keep],
        y0_post=np.hstack([blocks.y0_post, blocks.x0[:, t : t + 1]]),
        y1_post=np.append(blocks.y1_post, blocks.x1[t]),
    )
