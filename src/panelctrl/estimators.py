"""Estimator configuration and dispatch.

A single :class:`EstimatorSpec` names one of the supported counterfactual
estimators and its hyper-parameters; :func:`estimate` runs it on a panel,
and the lower-level :func:`weights_for_design` produces the donor weights
for an arbitrary design matrix. It is the only place a spec (plus optional
covariates) becomes weights, so the point estimate, the conformal refits
and the jackknife+ folds all fit the same estimator.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .covariates import (
    joint_augment,
    joint_solve,
    residualized_blocks,
    standardize_to_outcomes,
    two_step_weights,
)
from .errors import ConfigError
from .panel import PanelBlocks, split_and_center
from .ridge import AugEstimate, augment_weights, ridge_weights
from .scm import DonorWeights, ScmConfig, solve_scm

logger = logging.getLogger(__name__)

__all__ = ["EstimatorSpec", "estimate", "weights_for_design", "demean_rows"]

_METHODS = ("scm", "ridge", "ridge_ascm", "demeaned", "fixed_effects")


@dataclass(frozen=True)
class EstimatorSpec:
    """Which estimator to run and with what hyper-parameters.

    ``method`` is one of:

    - ``scm``: simplex-weighted synthetic control.
    - ``ridge``: ridge regression alone (uniform-anchored weights).
    - ``ridge_ascm``: ridge-augmented synthetic control.
    - ``demeaned``: SCM on unit-demeaned outcomes combined with the
      unit-mean outcome model (weighted difference-in-differences).
    - ``fixed_effects``: the same outcome model with uniform weights
      (plain difference-in-differences against the donor average).

    ``lam`` is the ridge penalty on the public scale; required for the two
    ridge methods. ``covariate_mode`` selects how covariates enter when a
    covariate panel is supplied ("joint" or "residualize").
    """

    method: str = "ridge_ascm"
    lam: float | None = None
    zeta: float | None = None
    max_iter: int = 20_000
    tol: float = 1e-9
    covariate_mode: str = "joint"

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ConfigError(f"unknown estimator method {self.method!r}")
        if self.covariate_mode not in ("joint", "residualize"):
            raise ConfigError(f"unknown covariate mode {self.covariate_mode!r}")
        if self.lam is not None and self.lam < 0:
            raise ConfigError("lambda must be nonnegative")

    def scm_config(self):
        return ScmConfig(zeta=self.zeta, max_iter=self.max_iter, tol=self.tol)

    def needs_lambda(self):
        return self.method in ("ridge", "ridge_ascm")

    def with_lambda(self, lam):
        return replace(self, lam=float(lam))


def demean_rows(blocks):
    """Blocks with each unit's pre-period mean removed from its pre outcomes.

    Used to fit SCM weights for the de-meaned estimator, which balances
    residual outcomes rather than levels. The de-meaned columns are then
    centred over donors, so the default dispersion penalty, computed from
    this design, does not move when a constant is added to a period.
    """
    x1_raw = blocks.x1 + blocks.centering
    x0_raw = blocks.x0 + blocks.centering
    x1 = x1_raw - x1_raw.mean()
    x0 = x0_raw - x0_raw.mean(axis=1)[:, None]
    shift = x0.mean(axis=0)
    return PanelBlocks(
        x1=x1 - shift,
        x0=x0 - shift,
        y0_post=blocks.y0_post,
        y1_post=blocks.y1_post,
        centering=np.zeros(blocks.t0),
    )


def weights_for_design(blocks, spec, cov=None):
    """Donor weights for the configured method on an arbitrary (centered) design.

    This is the one place a spec becomes weights: the point estimate, the
    conformal refits and the jackknife+ folds all come through here. For
    the two ridge methods ``lam`` must be set on the spec. When ``cov`` (a
    CovariatePanel with at least one column) is given, the covariates enter
    per ``spec.covariate_mode``: jointly stacked with standardized scales,
    or via two-step residualization. Covariates are only supported for the
    ridge-augmented method; any other method raises ConfigError.
    """
    cfg = spec.scm_config()
    if cov is not None and cov.k > 0:
        if spec.method != "ridge_ascm":
            raise ConfigError(
                f"covariates are only supported with ridge_ascm (got {spec.method!r})"
            )
        _require_lam(spec)
        if spec.covariate_mode == "joint":
            scaled, _ = standardize_to_outcomes(cov, blocks)
            return joint_augment(joint_solve(blocks, scaled, cfg), blocks, scaled, spec.lam)
        w = solve_scm(residualized_blocks(blocks, cov), cfg)
        return two_step_weights(w, blocks, cov, spec.lam)
    if spec.method == "scm":
        return solve_scm(blocks, cfg)
    if spec.method == "ridge":
        _require_lam(spec)
        return ridge_weights(blocks, spec.lam)
    if spec.method == "ridge_ascm":
        _require_lam(spec)
        return augment_weights(solve_scm(blocks, cfg), blocks, spec.lam)
    if spec.method == "demeaned":
        return solve_scm(demean_rows(blocks), cfg)
    if spec.method == "fixed_effects":
        n0 = blocks.n_donors
        return DonorWeights(values=np.full(n0, 1.0 / n0), provenance="scm")
    raise ConfigError(f"unknown estimator method {spec.method!r}")


def _require_lam(spec):
    if spec.lam is None:
        raise ConfigError(f"method {spec.method!r} requires a lambda value")


def _unit_mean_correction(blocks, g):
    """Counterfactual and pre-period fit of weights g corrected by the unit
    fixed-effects outcome model m(X_i) = mean of unit i's pre outcomes.

    Per post period the estimate is m(X_1) + sum_i g_i (Y_i - m(X_i)): the
    de-meaned (weighted difference-in-differences) estimator.
    """
    x1_raw = blocks.x1 + blocks.centering
    x0_raw = blocks.x0 + blocks.centering
    m1 = float(x1_raw.mean())
    m0 = x0_raw.mean(axis=1)
    counterfactual = np.array(
        [m1 + float(g @ (blocks.y0_post[:, k] - m0)) for k in range(blocks.n_post)]
    )
    gap_pre = (x1_raw - m1) - (x0_raw - m0[:, None]).T @ g
    return counterfactual, gap_pre


def estimate(p, spec, cov=None):
    """Run the configured estimator on a panel; returns an AugEstimate.

    ``cov`` (a CovariatePanel) enters the weights as described in
    :func:`weights_for_design`.
    """
    blocks = split_and_center(p, center=True)
    return estimate_on_blocks(blocks, spec, cov=cov)


def estimate_on_blocks(blocks, spec, cov=None):
    """Like :func:`estimate` but starting from already-built blocks."""
    weights = weights_for_design(blocks, spec, cov)
    g = weights.values
    if spec.method in ("demeaned", "fixed_effects"):
        counterfactual, gap_pre = _unit_mean_correction(blocks, g)
    else:
        counterfactual = g @ blocks.y0_post
        gap_pre = blocks.x1 - blocks.x0.T @ g
    return AugEstimate(
        counterfactual=counterfactual,
        att=blocks.y1_post - counterfactual,
        gap_pre=gap_pre,
        weights=weights,
    )
