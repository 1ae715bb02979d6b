"""Estimator configuration and dispatch.

A single :class:`EstimatorSpec` names one of the supported counterfactual
estimators and its hyper-parameters; :func:`estimate` runs it on a panel.
Every method is a design, a penalty-free anchor on that design and, for
the two ridge methods, the one closed-form ridge adjustment of
:func:`ridge.augment_weights` applied on the same design:

- ``scm``: the SCM weights, not adjusted;
- ``ridge``: uniform weights plus the adjustment (ridge regression);
- ``ridge_ascm``: the SCM weights plus the adjustment;
- ``demeaned`` and ``fixed_effects``: SCM or uniform weights on the
  unit-demeaned outcomes (:func:`panel.demean_rows`), not adjusted.

Covariates change the design of the ridge methods: ``joint`` stacks the
standardized covariates under the lagged outcomes, ``residualize`` removes
their projection from the lagged outcomes and shifts the anchor by the
exact covariate correction. :func:`design_and_anchor` is the penalty-free
half and :func:`weights_for_design` the whole; they are the only place a
spec (plus optional covariates) becomes weights, so the point estimate,
the cross-validation folds, the conformal refits and the jackknife+ folds
all fit the same estimator.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .covariates import (
    balance_covariates,
    residualize,
    stacked_blocks,
    standardize_to_outcomes,
)
from .errors import ConfigError
from .panel import demean_rows, split_and_center
from .ridge import AugEstimate, augment_weights
from .scm import DonorWeights, ScmConfig, solve_scm

logger = logging.getLogger(__name__)

__all__ = ["EstimatorSpec", "estimate", "design_and_anchor", "weights_for_design"]

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
    ridge methods. ``zeta`` is the SCM dispersion penalty (None selects the
    solver default). ``covariate_mode`` selects how covariates enter when a
    covariate panel is supplied ("joint" or "residualize").
    """

    method: str = "ridge_ascm"
    lam: float | None = None
    zeta: float | None = None
    covariate_mode: str = "joint"

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ConfigError(f"unknown estimator method {self.method!r}")
        if self.covariate_mode not in ("joint", "residualize"):
            raise ConfigError(f"unknown covariate mode {self.covariate_mode!r}")
        if self.lam is not None and self.lam < 0:
            raise ConfigError("lambda must be nonnegative")

    def needs_lambda(self):
        return self.method in ("ridge", "ridge_ascm")

    def with_lambda(self, lam):
        return replace(self, lam=float(lam))


def design_and_anchor(blocks, spec, cov=None):
    """The penalty-free half of an estimator on (centered) blocks.

    Returns the design the method balances and its anchor weights there;
    for the ridge methods the weights are the anchor plus the ridge
    adjustment on that design at ``spec.lam``, which is not read here. When
    ``cov`` (a CovariatePanel with at least one column) is given, the
    covariates enter per ``spec.covariate_mode``; they are only supported
    for the ridge methods, and any other method raises ConfigError.
    """
    with_cov = cov is not None and cov.k > 0
    if with_cov:
        if not spec.needs_lambda():
            raise ConfigError(
                f"covariates are only supported with the ridge methods (got {spec.method!r})"
            )
        if spec.covariate_mode == "joint":
            design = stacked_blocks(blocks, standardize_to_outcomes(cov, blocks)[0])
        else:
            design = residualize(blocks, cov)
    elif spec.method == "demeaned":
        design = demean_rows(blocks)
    else:
        design = blocks
    if spec.method in ("ridge", "fixed_effects"):
        n0 = blocks.n_donors
        anchor = DonorWeights(values=np.full(n0, 1.0 / n0))
    else:
        anchor = solve_scm(design, ScmConfig(zeta=spec.zeta))
    if with_cov and spec.covariate_mode == "residualize":
        anchor = balance_covariates(anchor, cov)
    return design, anchor


def weights_for_design(blocks, spec, cov=None):
    """Donor weights for the configured method on an arbitrary (centered) design.

    The anchor of :func:`design_and_anchor`, plus for the two ridge
    methods the ridge adjustment at ``spec.lam``, which must be set.
    """
    if spec.needs_lambda() and spec.lam is None:
        raise ConfigError(f"method {spec.method!r} requires a lambda value")
    design, anchor = design_and_anchor(blocks, spec, cov)
    if not spec.needs_lambda():
        return anchor
    return augment_weights(anchor, design, spec.lam)


def estimate(p, spec, cov=None):
    """Run the configured estimator on a panel; returns an AugEstimate.

    ``cov`` (a CovariatePanel) enters the weights as described in
    :func:`design_and_anchor`.
    """
    blocks = split_and_center(p, center=True)
    return estimate_on_blocks(blocks, spec, cov=cov)


def estimate_on_blocks(blocks, spec, cov=None):
    """Like :func:`estimate` but starting from already-built blocks.

    ``demeaned`` and ``fixed_effects`` weight the unit-demeaned outcomes:
    per post period the counterfactual is m(X_1) + sum_i g_i (Y_i - m(X_i)).
    """
    weights = weights_for_design(blocks, spec, cov)
    g = weights.values
    fitted = demean_rows(blocks) if spec.method in ("demeaned", "fixed_effects") else blocks
    att = fitted.y1_post - g @ fitted.y0_post
    return AugEstimate(
        counterfactual=blocks.y1_post - att,
        att=att,
        gap_pre=fitted.x1 - fitted.x0.T @ g,
        weights=weights,
    )
