"""Panel ingestion and the treated/control, pre/post block layout.

A panel is a complete N x T outcome matrix with a single treated unit and
a treatment time splitting the columns into T0 pre-treatment periods and
T - T0 post-treatment periods. Long-format CSV with header
``unit,time,outcome`` is the canonical input; extra columns are ignored
here (the covariate loader picks them up separately).
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    DuplicateCellError,
    MissingCellError,
    PanelFormatError,
    TreatmentTimeError,
    UnknownUnitError,
)

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
    keys = _time_keys(time_ids)
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
    """``a`` as a C-contiguous float array that cannot be written through."""
    a = np.ascontiguousarray(np.asarray(a, dtype=float))
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
    """

    outcomes: np.ndarray
    unit_ids: tuple
    time_ids: tuple
    treated_index: int
    t0: int

    def __post_init__(self):
        object.__setattr__(self, "outcomes", readonly_array(self.outcomes))
        object.__setattr__(self, "unit_ids", tuple(self.unit_ids))
        object.__setattr__(self, "time_ids", tuple(self.time_ids))
        n, t = self.outcomes.shape
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
        if np.isnan(self.outcomes).any():
            i, j = np.argwhere(np.isnan(self.outcomes))[0]
            raise MissingCellError(self.unit_ids[i], self.time_ids[j])
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

    ``x1`` and ``x0`` hold pre-period outcomes (optionally shifted by the
    control column means recorded in ``centering``); the y blocks hold raw
    post-period outcomes and are never centered.
    """

    x1: np.ndarray
    x0: np.ndarray
    y0_post: np.ndarray
    y1_post: np.ndarray
    centering: np.ndarray = field(default=None)

    def __post_init__(self):
        object.__setattr__(self, "x1", readonly_array(self.x1))
        object.__setattr__(self, "x0", readonly_array(self.x0))
        object.__setattr__(self, "y0_post", readonly_array(self.y0_post))
        object.__setattr__(self, "y1_post", readonly_array(self.y1_post))
        centering = self.centering
        if centering is None:
            centering = np.zeros(self.x1.shape[0])
        object.__setattr__(self, "centering", readonly_array(centering))
        n0, t0 = self.x0.shape
        for name in ("x1", "x0", "y0_post", "y1_post"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise PanelFormatError(f"{name} contains non-finite values")
        if self.x1.shape != (t0,):
            raise PanelFormatError("x1 length must match x0 columns")
        if self.centering.shape != (t0,):
            raise PanelFormatError("centering length must match x0 columns")
        if self.y0_post.shape[0] != n0:
            raise PanelFormatError("y0_post rows must match x0 rows")
        if self.y1_post.shape != (self.y0_post.shape[1],):
            raise PanelFormatError("y1_post length must match y0_post columns")
        if np.any(self.centering != 0.0):
            worst = np.abs(self.x0.mean(axis=0)).max()
            if worst >= 1e-12:
                raise PanelFormatError(
                    f"centered x0 has column mean {worst:.3e} above 1e-12"
                )

    @property
    def n_donors(self):
        return self.x0.shape[0]

    @property
    def t0(self):
        return self.x0.shape[1]

    @property
    def n_post(self):
        return self.y0_post.shape[1]


def load_panel(source, treated_label, treatment_time):
    """Read a long-format stream into a validated :class:`PanelData`.

    Parameters
    ----------
    source : str | os.PathLike | file-like
        CSV with header containing ``unit``, ``time``, ``outcome`` columns.
    treated_label
        Unit label of the treated unit.
    treatment_time
        First treated period; T0 counts the periods strictly before it.
    """
    rows = _read_rows(source)
    cells = {}
    units = []
    seen_units = set()
    times = set()
    for unit, time_label, raw in rows:
        if unit not in seen_units:
            seen_units.add(unit)
            units.append(unit)
        times.add(time_label)
        key = (unit, time_label)
        if key in cells:
            raise DuplicateCellError(
                f"duplicate observation for unit {unit!r} at time {time_label!r}"
            )
        if raw is None or str(raw).strip() == "" or str(raw).strip().lower() == "nan":
            raise MissingCellError(unit, time_label)
        try:
            cells[key] = float(raw)
        except ValueError as exc:
            raise PanelFormatError(
                f"non-numeric outcome {raw!r} for unit {unit!r} at time {time_label!r}"
            ) from exc

    if not units:
        raise PanelFormatError("empty input: no observations found")
    if treated_label not in seen_units:
        raise UnknownUnitError(f"treated unit {treated_label!r} not found in data")

    unsorted_labels = list(times)
    unsorted_keys = _time_keys(unsorted_labels)
    order = sorted(range(len(unsorted_labels)), key=lambda i: unsorted_keys[i])
    time_list = [unsorted_labels[i] for i in order]
    n, t = len(units), len(time_list)
    outcomes = np.empty((n, t))
    for i, unit in enumerate(units):
        for j, time_label in enumerate(time_list):
            try:
                outcomes[i, j] = cells[(unit, time_label)]
            except KeyError:
                raise MissingCellError(unit, time_label) from None

    t0 = periods_preceding(time_list, treatment_time)
    if t0 == 0:
        raise TreatmentTimeError(
            f"treatment time {treatment_time!r} is at or before the first period"
        )
    if t0 >= t:
        raise TreatmentTimeError(
            f"treatment time {treatment_time!r} is after the last observed period"
        )
    if t0 < 2:
        raise TreatmentTimeError(
            f"treatment time {treatment_time!r} leaves only {t0} pre period(s); need at least 2"
        )

    return PanelData(
        outcomes=outcomes,
        unit_ids=tuple(units),
        time_ids=tuple(time_list),
        treated_index=units.index(treated_label),
        t0=t0,
    )


def _read_rows(source):
    """Yield (unit, time, outcome) triples from a CSV path or file object."""
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", newline="") as fh:
            yield from _read_rows(fh)
        return
    if not hasattr(source, "read"):
        raise PanelFormatError(
            f"panel source must be a CSV path or file object, got {type(source).__name__}"
        )
    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise PanelFormatError("empty input: no header row") from None
    cols = {name.strip().lower(): i for i, name in enumerate(header)}
    for required in ("unit", "time", "outcome"):
        if required not in cols:
            raise PanelFormatError(f"input header must contain {required!r}; got {header}")
    iu, it, iy = cols["unit"], cols["time"], cols["outcome"]
    for row in reader:
        if not row or all(not c.strip() for c in row):
            continue
        yield row[iu].strip(), row[it].strip(), row[iy]


def split_and_center(p, center=True):
    """Extract :class:`PanelBlocks`, optionally shifting the pre blocks by
    control column means.

    Centering is required by the ridge paths; the shift is recorded so the
    original scale can be reconstructed. Post-period outcomes are never
    centered.
    """
    donors = p.donor_indices
    x1 = p.outcomes[p.treated_index, : p.t0].copy()
    x0 = p.outcomes[donors, : p.t0].copy()
    y1_post = p.outcomes[p.treated_index, p.t0 :].copy()
    y0_post = p.outcomes[donors, p.t0 :].copy()
    if center:
        shift = x0.mean(axis=0)
        x0 = x0 - shift
        x1 = x1 - shift
        # kill residual round-off so downstream mean checks are exact
        x0 = x0 - x0.mean(axis=0)
    else:
        shift = np.zeros(p.t0)
    return PanelBlocks(x1=x1, x0=x0, y0_post=y0_post, y1_post=y1_post, centering=shift)


def demean_rows(blocks):
    """Blocks under the unit-mean outcome model m(X_i), unit i's pre-period mean.

    Every outcome, pre and post, loses its unit's raw (uncentred) pre-period
    mean, so weighting the post blocks gives the weighted
    difference-in-differences effect (Y_1 - m_1) - sum_i g_i (Y_i - m_i).
    The de-meaned pre columns are then centred over donors, so the default
    dispersion penalty of an SCM fit to them does not move when a constant
    is added to a period; with weights summing to one the centring leaves
    every fit residual unchanged.
    """
    x1 = blocks.x1 + blocks.centering
    x0 = blocks.x0 + blocks.centering
    m1 = x1.mean()
    m0 = x0.mean(axis=1)
    x1 = x1 - m1
    x0 = x0 - m0[:, None]
    shift = x0.mean(axis=0)
    return PanelBlocks(
        x1=x1 - shift,
        x0=x0 - shift,
        y0_post=blocks.y0_post - m0[:, None],
        y1_post=blocks.y1_post - m1,
        centering=np.zeros(blocks.t0),
    )


def period_folds(blocks, mode="leave-one"):
    """Yield ``(t, fold)`` for every pre period t held out of ``blocks``.

    ``mode`` "leave-one" keeps every other pre period; "leave-future" keeps
    only the periods before t, so each fold is a forecast (its first folds
    keep fewer than two periods and callers decide whether to skip them).
    The kept pre columns are re-centred on their control means. The held-out
    period becomes the fold's last post column: ``y0_post[:, -1]`` is
    ``blocks.x0[:, t]`` and ``y1_post[-1]`` is ``blocks.x1[t]``, so an
    estimate on the fold predicts it like any other post period.
    """
    if mode not in ("leave-one", "leave-future"):
        raise ConfigError(f"unknown fold mode {mode!r}")
    periods = np.arange(blocks.t0)
    for t in range(blocks.t0):
        keep = np.delete(periods, t) if mode == "leave-one" else periods[:t]
        x0 = blocks.x0[:, keep]
        shift = x0.mean(axis=0)
        yield t, PanelBlocks(
            x1=blocks.x1[keep] - shift,
            x0=x0 - shift,
            y0_post=np.hstack([blocks.y0_post, blocks.x0[:, t : t + 1]]),
            y1_post=np.append(blocks.y1_post, blocks.x1[t]),
            centering=np.zeros(keep.size),
        )
