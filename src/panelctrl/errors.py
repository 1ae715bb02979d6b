"""Exception types shared across the package.

Every error carries an ``exit_code`` so the CLI can map failures to
distinct process exit statuses.
"""

from __future__ import annotations


class PanelCtrlError(Exception):
    """Base class for all panelctrl errors."""

    exit_code = 1


class PanelFormatError(PanelCtrlError):
    """Malformed or inconsistent input panel data."""

    exit_code = 2


class DuplicateCellError(PanelFormatError):
    """The same (unit, time) pair appears more than once."""


class MissingCellError(PanelFormatError):
    """A (unit, time) combination is absent or has a missing value in a column."""

    def __init__(self, unit, time, column):
        super().__init__(f"missing {column} for unit {unit!r} at time {time!r}")
        self.unit = unit
        self.time = time
        self.column = column


class UnknownUnitError(PanelFormatError):
    """The requested treated unit is not present in the data."""


class TreatmentTimeError(PanelFormatError):
    """Treatment time leaves too few pre or post periods."""


class ConfigError(PanelCtrlError):
    """Invalid configuration or option combination."""

    exit_code = 3


class SingularityError(PanelCtrlError):
    """A linear solve required an inverse that does not exist."""

    exit_code = 4


class ConvergenceError(PanelCtrlError):
    """Iterative solver stopped before reaching its residual target."""

    exit_code = 5

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class GridError(PanelCtrlError):
    """A search grid was too narrow or too coarse to produce a result."""

    exit_code = 6
