"""Conformal p-values and prediction intervals for the counterfactual.

Full conformal inference enforces a candidate effect tau0, appends the
adjusted post-treatment observation to the pre-period design as one more
column, refits the weights, and ranks the adjusted post residual among
the pre-period residuals. The jackknife+ alternative needs only the T0
leave-one-period-out refits, shared by all post periods, and builds each
interval from order statistics of shifted leave-one-out predictions.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, GridError
from .estimators import estimate_on_blocks, fold_predictions, weights_for_design
from .panel import PanelBlocks, split_and_center

logger = logging.getLogger(__name__)

__all__ = [
    "PredictionInterval",
    "conformal_p",
    "conformal_interval",
    "jackknife_plus",
    "jackknife_intervals",
    "convert_target",
]

_WEIGHTING_METHODS = ("scm", "ridge", "ridge_ascm")
_TARGETS = ("counterfactual", "effect")
# the conformal tau grid: points per grid, and how often its half-width may
# double while an endpoint stays accepted
_GRID_POINTS = 101
_MAX_WIDENINGS = 8


@dataclass(frozen=True)
class PredictionInterval:
    """Interval for the counterfactual outcome or the treatment effect.

    ``grid_step`` documents the tau grid spacing for the conformal method;
    ``disconnected`` flags acceptance regions with interior gaps (the hull
    is still reported); ``open_ended`` flags bounds it may extend past: grid
    endpoints still accepted after widening, or jackknife+ bounds clamped.
    """

    lower: float
    upper: float
    level: float
    method: str
    target: str
    grid_step: float = 0.0
    disconnected: bool = False
    open_ended: bool = False

    def __post_init__(self):
        if not self.lower <= self.upper:
            raise ConfigError("interval lower bound exceeds upper bound")
        if not 0.0 < self.level < 1.0:
            raise ConfigError("level must be strictly between 0 and 1")
        if self.method not in ("full-conformal", "jackknife-plus"):
            raise ConfigError(f"unknown interval method {self.method!r}")
        if self.target not in _TARGETS:
            raise ConfigError(f"unknown interval target {self.target!r}")


def convert_target(interval, y1_post_value):
    """Exact switch between effect and counterfactual intervals.

    tau = Y_obs - Y(0), so the two targets are mirror images shifted by
    the observed post outcome.
    """
    return replace(
        interval,
        lower=y1_post_value - interval.upper,
        upper=y1_post_value - interval.lower,
        target="counterfactual" if interval.target == "effect" else "effect",
    )


def _augmented_design(blocks, tau0, post_period):
    """Append the tau0-adjusted post observation as one more design column."""
    return PanelBlocks(
        x1=np.append(blocks.x1, blocks.y1_post[post_period] - tau0),
        x0=np.hstack([blocks.x0, blocks.y0_post[:, post_period, None]]),
        y0_post=blocks.y0_post,
        y1_post=blocks.y1_post,
    )


def _require_weighting(spec):
    """Refuse conformal inference for a method that is not a weighting one."""
    if spec.method not in _WEIGHTING_METHODS:
        raise ConfigError(
            f"conformal inference supports weighting estimators {_WEIGHTING_METHODS}, "
            f"got {spec.method!r}"
        )


def _conformal_p_blocks(blocks, tau0, spec, post_period, cov=None):
    design = _augmented_design(blocks, tau0, post_period)
    w = weights_for_design(design, spec, cov)
    residuals = design.x1 - design.x0.T @ w.values
    pre = np.abs(residuals[:-1])
    post = abs(residuals[-1])
    t_total = blocks.t0 + 1
    return (int(np.sum(post <= pre)) + 1) / t_total


def conformal_p(p, tau0, spec, post_period=0, cov=None):
    """p-value for the sharp hypothesis that the effect equals tau0.

    The refit includes the adjusted post observation in the fitting panel
    (it joins the design as one more balanced column, entering the
    covariate pipeline when one is configured), so the weights depend on
    tau0. Values live on the grid {1/(T0+1), ..., 1}.
    """
    _require_weighting(spec)
    blocks = split_and_center(p)
    if not 0 <= post_period < blocks.n_post:
        raise ConfigError(f"post_period {post_period} out of range")
    return _conformal_p_blocks(blocks, tau0, spec, post_period, cov=cov)


def conformal_interval(p, alpha, spec, target="effect", cov=None):
    """Level 1-alpha intervals, one per post period in order (a tuple, as
    :func:`jackknife_plus` gives), by inverting the conformal test over tau
    grids. The panel is split and the point estimate fit once. A period's
    grid has 101 points spanning its point estimate plus or minus five
    pre-period residual RMS, widened (doubling the half-width, at most eight
    times) while an endpoint stays accepted. The reported interval is the
    hull of the accepted set; disconnected acceptance is flagged. ``cov``
    enters every refit and the point estimate that centres the grids.
    ``spec`` and ``target`` are checked before any refit.
    """
    _require_weighting(spec)
    if not 0.0 < alpha < 1.0:
        raise ConfigError("alpha must be strictly between 0 and 1")
    if target not in _TARGETS:
        raise ConfigError(f"unknown interval target {target!r}")
    blocks = split_and_center(p)
    point = estimate_on_blocks(blocks, spec, cov=cov)
    half = 5.0 * max(float(np.sqrt(np.mean(point.gap_pre**2))), 1e-12)
    return tuple(
        _conformal_hull(blocks, alpha, spec, cov, k, float(point.att[k]), half, target)
        for k in range(blocks.n_post)
    )


def _conformal_hull(blocks, alpha, spec, cov, post_period, center, half, target):
    """The interval of one post period, on grids around ``center`` of
    half-width ``half`` at first (see :func:`conformal_interval`)."""
    min_p = 1.0 / (blocks.t0 + 1)
    widenings = 0
    while True:
        grid = np.linspace(center - half, center + half, _GRID_POINTS)
        mask = np.array(
            [
                _conformal_p_blocks(blocks, tau0, spec, post_period, cov=cov) >= alpha - 1e-12
                for tau0 in grid
            ]
        )
        open_ended = bool(mask[0] or mask[-1])
        if not open_ended or widenings >= _MAX_WIDENINGS or alpha <= min_p:
            break
        half *= 2.0
        widenings += 1
    if open_ended and alpha > min_p:
        logger.warning("post period %d: conformal grid endpoints still accepted after %d "
                       "widenings", post_period, widenings)

    if not mask.any():
        raise GridError("no tau value on the conformal grid was accepted")
    idx = np.nonzero(mask)[0]
    interval = PredictionInterval(
        lower=float(grid[idx[0]]),
        upper=float(grid[idx[-1]]),
        level=1.0 - alpha,
        method="full-conformal",
        target="effect",
        grid_step=float(grid[1] - grid[0]),
        disconnected=bool(np.any(np.diff(idx) > 1)),
        open_ended=open_ended,
    )
    if target == "counterfactual":
        interval = convert_target(interval, float(blocks.y1_post[post_period]))
    return interval


def jackknife_plus(p, alpha, spec, target="counterfactual", cov=None):
    """Leave-one-period-out prediction intervals, one per post period.

    The estimator (with ``cov`` when given) is refit once per held-out pre
    period by :func:`estimators.fold_predictions`, and
    :func:`jackknife_intervals` turns that one pass into a tuple of
    :class:`PredictionInterval` in post-period order.
    """
    blocks = split_and_center(p)
    truth, predictions, _ = fold_predictions(blocks, spec, cov)
    return jackknife_intervals(truth, predictions[:, 0], blocks.y1_post, alpha, target)


def jackknife_intervals(truth, predictions, y1_post, alpha, target="counterfactual"):
    """Jackknife+ intervals from a fold pass at one penalty.

    ``truth`` holds each fold's held-out treated outcome and ``predictions``
    (folds x (n_post + 1)) its counterfactuals, the held-out period last.
    Each post period's interval combines the leave-one-out post predictions
    shifted by the absolute held-out residuals through lower/upper order
    statistics at level alpha/2 on each side. An order statistic past the
    folds (too few for alpha) is infinite in the method; the bound is
    clamped to the extreme fold and the interval flagged ``open_ended``.
    """
    if not 0.0 < alpha < 1.0:
        raise ConfigError("alpha must be strictly between 0 and 1")
    if target not in _TARGETS:
        raise ConfigError(f"unknown interval target {target!r}")
    resids = np.abs(truth - predictions[:, -1])[:, None]
    lows, highs = predictions[:, :-1] - resids, predictions[:, :-1] + resids

    t_total = truth.size + 1
    k_lo = int(np.floor(alpha / 2.0 * t_total))
    k_hi = int(np.ceil((1.0 - alpha / 2.0) * t_total))
    clamped = k_lo < 1 or k_hi > truth.size
    # the k-th smallest of each post period's folds (1-indexed), clamped to the folds
    lower = np.sort(lows, axis=0)[min(max(k_lo, 1), truth.size) - 1]
    upper = np.sort(highs, axis=0)[min(max(k_hi, 1), truth.size) - 1]
    intervals = []
    for k in range(lows.shape[1]):
        interval = PredictionInterval(
            lower=float(lower[k]),
            upper=float(upper[k]),
            level=1.0 - alpha,
            method="jackknife-plus",
            target="counterfactual",
            open_ended=clamped,
        )
        if target == "effect":
            interval = convert_target(interval, float(y1_post[k]))
        intervals.append(interval)
    return tuple(intervals)
