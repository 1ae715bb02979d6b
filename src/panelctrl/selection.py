"""Penalty selection by leave-one-out cross-validation and in-time placebos.

The cross-validation criterion holds out one pre-treatment period at a
time, refits the caller's ridge estimator (its method, covariates and
dispersion penalty) on the remaining periods, and scores the held-out
treated outcome against the weighted donor outcomes. The "leave-future"
variant drops all periods at or after the held-out one instead, turning
every fold into a forecast.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, TreatmentTimeError
from .estimators import EstimatorSpec, fold_predictions
from .panel import PanelData, periods_preceding, readonly_array

__all__ = [
    "CvResult",
    "loo_cv",
    "cv_from_folds",
    "select_lambda",
    "placebo_panel",
    "default_lambda_grid",
]


@dataclass(frozen=True)
class CvResult:
    """Cross-validation curve over a descending penalty grid.

    ``cv_mse`` is the mean held-out squared residual per penalty value and
    ``cv_se`` its standard error over folds; ``lambda_1se`` is the largest
    penalty whose score is within one standard error of the minimum.
    """

    lambda_grid: np.ndarray
    cv_mse: np.ndarray
    cv_se: np.ndarray
    lambda_min: float
    lambda_1se: float
    mode: str
    skipped: tuple

    def __post_init__(self):
        for name in ("lambda_grid", "cv_mse", "cv_se"):
            object.__setattr__(self, name, readonly_array(getattr(self, name)))
        object.__setattr__(self, "skipped", tuple(self.skipped))
        if not np.all(self.cv_mse >= 0):
            raise ConfigError("cv_mse must be nonnegative, not NaN")
        if self.lambda_1se < self.lambda_min:
            raise ConfigError("lambda_1se must not be below lambda_min")

    def rows(self):
        return [
            (float(lam), float(m), float(s))
            for lam, m, s in zip(self.lambda_grid, self.cv_mse, self.cv_se)
        ]


def default_lambda_grid(blocks, size=20):
    """Log-spaced penalty grid bracketing the design's leading curvature.

    Spans 1e-3 s to 1e3 s with s the squared top singular value of the
    scaled control block, descending.
    """
    svd = blocks.control_svd
    if svd.rank == 0:
        raise ConfigError("control block is identically zero; no sensible grid")
    return _grids(float(svd.d[0] ** 2), size)


def _grids(top, size):
    """:func:`default_lambda_grid` of each squared top singular value in
    ``top`` (a number, or an array with one grid per entry along a new last
    axis)."""
    return np.logspace(np.log10(1e3 * top), np.log10(1e-3 * top), size, axis=-1)


def loo_cv(blocks, spec=None, cov=None, lambda_grid=None, mode="leave-one"):
    """Cross-validated MSE of a ridge estimator over penalties.

    ``spec`` names the estimator (default: ridge ASCM with the default
    dispersion penalty) and ``cov`` its covariates, as for
    :func:`estimators.estimate`; the spec's own ``lam`` is replaced by each
    grid value, and a method without a ridge penalty raises ConfigError.
    One :func:`estimators.fold_predictions` pass covers the whole grid.
    """
    spec = spec or EstimatorSpec()
    if not spec.needs_lambda():
        raise ConfigError(f"cross-validation needs a ridge method (got {spec.method!r})")
    if lambda_grid is None:
        lambda_grid = default_lambda_grid(blocks)
    grid = np.sort(np.asarray(lambda_grid, dtype=float))[::-1]
    if grid.size == 0:
        raise ConfigError("lambda grid must be nonempty")
    bad = grid[~((grid > 0) & (grid < np.inf))]
    if bad.size:
        raise ConfigError(f"lambda must be finite and positive, got {bad[0]}")
    return cv_from_folds(grid, fold_predictions(blocks, spec, cov, grid, mode), mode)


def cv_from_folds(grid, folds, mode="leave-one"):
    """The CV curve of a :func:`estimators.fold_predictions` pass over the
    descending ``grid``: held-out truth against the last prediction column."""
    truth, predictions, skipped = folds
    cv_mse, cv_se, best, one_se = _cv_curves(truth, predictions[..., -1])
    return CvResult(
        lambda_grid=grid,
        cv_mse=cv_mse,
        cv_se=cv_se,
        lambda_min=float(grid[best]),
        lambda_1se=float(grid[one_se]),
        mode=mode,
        skipped=skipped,
    )


def _cv_curves(truth, held):
    """The CV curves of held-out ``truth`` (..., F) against its ``held``
    predictions (..., F, L), over any leading axes: the mean squared
    residual and its standard error over the F folds, the index of the
    smallest mean, and the first index whose mean is within one standard
    error of it (the largest penalty on a descending grid)."""
    sq_residuals = (truth[..., None] - held) ** 2
    n_used = truth.shape[-1]
    cv_mse = sq_residuals.mean(axis=-2)
    if n_used > 1:
        cv_se = sq_residuals.std(axis=-2, ddof=1) / np.sqrt(n_used)
    else:
        cv_se = np.zeros(cv_mse.shape)
    best = np.argmin(cv_mse, axis=-1)
    at_best = np.take_along_axis(cv_mse + cv_se, best[..., None], axis=-1)
    return cv_mse, cv_se, best, np.argmax(cv_mse <= at_best, axis=-1)


def select_lambda(cv, rule="min"):
    """Pick a penalty from a CV curve by the given rule."""
    if rule == "min":
        return cv.lambda_min
    if rule == "one-se":
        return cv.lambda_1se
    raise ConfigError(f"unknown selection rule {rule!r}")


def placebo_panel(p, placebo_time):
    """The panel an in-time placebo runs on.

    Post periods are discarded, from the outcomes and the covariates alike,
    and the pre-period count is re-designated at ``placebo_time``, which
    must leave at least 3 pre periods and lie strictly before the true
    treatment time. Run the estimator on it for the placebo gaps.
    """
    new_t0 = periods_preceding(p.time_ids, placebo_time)
    if new_t0 >= p.t0:
        raise TreatmentTimeError(
            f"placebo time {placebo_time!r} is not strictly before the true treatment time"
        )
    if new_t0 < 3:
        raise TreatmentTimeError(
            f"placebo time {placebo_time!r} leaves only {new_t0} pre period(s); need at least 3"
        )
    return PanelData(
        outcomes=p.outcomes[:, : p.t0],
        unit_ids=p.unit_ids,
        time_ids=p.time_ids[: p.t0],
        treated_index=p.treated_index,
        t0=new_t0,
        covariates=p.covariates[:, : p.t0],
        covariate_names=p.covariate_names,
    )

