"""Penalty selection by leave-one-out cross-validation and in-time placebos.

The cross-validation criterion holds out one pre-treatment period at a
time, refits the caller's ridge estimator (its method, covariates and
dispersion penalty) on the remaining periods, and scores the held-out
treated outcome against the weighted donor outcomes. The "leave-future"
variant drops all periods at or after the held-out one instead, turning
every fold into a forecast.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, TreatmentTimeError
from .estimators import EstimatorSpec, design_and_anchor, estimate
from .panel import PanelData, period_folds, periods_preceding
from .ridge import ControlSVD, augment_path

logger = logging.getLogger(__name__)

__all__ = [
    "CvResult",
    "loo_cv",
    "select_lambda",
    "placebo_panel",
    "in_time_placebo",
    "default_lambda_grid",
]

_MIN_FOLD_PERIODS = 2


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
            arr = np.ascontiguousarray(np.asarray(getattr(self, name), dtype=float))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "skipped", tuple(self.skipped))
        if np.any(self.cv_mse < 0):
            raise ConfigError("cv_mse must be nonnegative")
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
    svd = ControlSVD.compute(blocks.x0 - blocks.x0.mean(axis=0))
    if svd.rank == 0:
        raise ConfigError("control block is identically zero; no sensible grid")
    s = float(svd.d[0] ** 2)
    return np.logspace(np.log10(1e3 * s), np.log10(1e-3 * s), size)


def loo_cv(blocks, spec=None, cov=None, lambda_grid=None, mode="leave-one"):
    """Cross-validated MSE of a ridge estimator over penalties.

    ``spec`` names the estimator (default: ridge ASCM with the default
    dispersion penalty) and ``cov`` its covariates, as for
    :func:`estimators.estimate`; the spec's own ``lam`` is replaced by each
    grid value, and a method without a ridge penalty raises ConfigError.
    For each held-out period t the penalty-free anchor is fit once on the
    remaining pre periods, the ridge adjustment is applied for the whole
    grid from one SVD, and the held-out treated outcome is predicted as the
    weighted donor outcome at t. Folds with fewer than two remaining
    periods are skipped and recorded.
    """
    spec = spec or EstimatorSpec()
    if not spec.needs_lambda():
        raise ConfigError(f"cross-validation needs a ridge method (got {spec.method!r})")
    if blocks.t0 < 3:
        raise ConfigError("cross-validation needs at least 3 pre periods")
    if lambda_grid is None:
        lambda_grid = default_lambda_grid(blocks)
    grid = np.sort(np.asarray(lambda_grid, dtype=float))[::-1]
    if grid.size == 0 or np.any(grid <= 0):
        raise ConfigError("lambda grid must be nonempty and positive")

    sq_residuals = []
    skipped = []
    for t, fold in period_folds(blocks, mode):
        if fold.t0 < _MIN_FOLD_PERIODS:
            skipped.append(t)
            logger.warning("cv fold %d skipped: only %d periods remain", t, fold.t0)
            continue
        design, anchor = design_and_anchor(fold, spec, cov)
        preds = fold.y0_post[:, -1] @ augment_path(anchor, design, grid)
        sq_residuals.append((fold.y1_post[-1] - preds) ** 2)

    n_used = len(sq_residuals)
    if n_used == 0:
        raise ConfigError("all cross-validation folds were skipped")
    sq_residuals = np.array(sq_residuals)
    cv_mse = sq_residuals.mean(axis=0)
    if n_used > 1:
        cv_se = sq_residuals.std(axis=0, ddof=1) / np.sqrt(n_used)
    else:
        cv_se = np.zeros(grid.size)
    best = int(np.argmin(cv_mse))
    threshold = cv_mse[best] + cv_se[best]
    within = np.nonzero(cv_mse <= threshold)[0]
    lambda_1se = float(grid[within[0]])  # grid is descending: first hit is largest
    return CvResult(
        lambda_grid=grid,
        cv_mse=cv_mse,
        cv_se=cv_se,
        lambda_min=float(grid[best]),
        lambda_1se=lambda_1se,
        mode=mode,
        skipped=skipped,
    )


def select_lambda(cv, rule="min"):
    """Pick a penalty from a CV curve by the given rule."""
    if rule == "min":
        return cv.lambda_min
    if rule == "one-se":
        return cv.lambda_1se
    raise ConfigError(f"unknown selection rule {rule!r}")


def placebo_panel(p, placebo_time):
    """The panel an in-time placebo runs on.

    Post periods are discarded and the pre-period count is re-designated
    at ``placebo_time``, which must leave at least 3 pre periods and lie
    strictly before the true treatment time.
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
    )


def in_time_placebo(p, placebo_time, spec, cov=None):
    """Re-run the estimator pretending treatment happened at an earlier time.

    The full estimator runs on :func:`placebo_panel`; post-placebo
    "effects" are the placebo gaps. ``cov`` should summarize only the
    periods before ``placebo_time``, or the placebo fit sees its own
    post period.
    """
    return estimate(placebo_panel(p, placebo_time), spec, cov=cov)
