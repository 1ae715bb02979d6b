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
the conformal refits and the folds of :func:`fold_predictions`, shared by
cross-validation and jackknife+, all fit the same estimator.

A fold drops one pre period, so its SCM solution is nearly the full
sample's, the :class:`AnchorFit` that a caller wanting the point estimate
too passes as ``fit`` to reuse. For ``scm``, ``ridge`` and ``ridge_ascm``
(no covariates, or residualized ones) a leave-one fold's design is the full
design without one column. Then :func:`scm.solve_leave_one` runs every
fold's SCM solve in lockstep, one stacked system per round, and every
fold's prediction, ridge adjustments included, comes from one SVD of the
full design: the one-design call of :func:`ridge._leave_one_predictions`,
which the Monte Carlo harness calls on its stacks.
``demeaned``, ``fixed_effects``, joint covariates (re-standardized per
fold) and leave-future folds build and solve every fold, each warm from
the full-sample weights.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .covariates import (
    balance_covariates,
    residualize,
    stacked_blocks,
    standardize_to_outcomes,
)
from .errors import ConfigError
from .panel import PanelBlocks, demean_rows, period_folds, split_and_center
from .ridge import (
    AugEstimate,
    _leave_one_predictions,
    _require_invertible,
    augment_path,
    augment_weights,
)
from .scm import DonorWeights, solve_leave_one, solve_scm

logger = logging.getLogger(__name__)

__all__ = [
    "EstimatorSpec",
    "AnchorFit",
    "estimate",
    "design_and_anchor",
    "weights_for_design",
    "fold_predictions",
]

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

    ``lam`` is the ridge penalty on the public scale, finite and
    nonnegative; required for the two ridge methods. ``zeta`` is the SCM
    dispersion penalty, finite and nonnegative (None selects the solver
    default). ``covariate_mode`` selects how covariates enter when a
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
        if self.lam is not None and not 0 <= self.lam < math.inf:
            raise ConfigError(f"lambda must be finite and nonnegative, got {self.lam}")
        if self.zeta is not None and not 0 <= self.zeta < math.inf:
            raise ConfigError(f"zeta must be finite and nonnegative, got {self.zeta}")

    def needs_lambda(self):
        return self.method in ("ridge", "ridge_ascm")

    def with_lambda(self, lam):
        return replace(self, lam=float(lam))


class AnchorFit(NamedTuple):
    """The penalty-free half of an estimator on one set of blocks.

    ``design`` is what the method balances and ``anchor`` its weights
    there; for ``demeaned`` and ``fixed_effects`` it is the de-meaned
    blocks, which the counterfactual reads too. ``scm`` is the SCM solution
    the anchor comes from, None for ``ridge`` and ``fixed_effects``, which
    solve none; it differs from the anchor only under ``residualize``,
    whose covariate shift it precedes.
    """

    design: PanelBlocks
    anchor: DonorWeights
    scm: DonorWeights | None


def design_and_anchor(blocks, spec, cov=None, start=None):
    """The :class:`AnchorFit` of an estimator on blocks.

    For the ridge methods the weights are the anchor plus the ridge
    adjustment on the design at ``spec.lam``, which is not read here. When
    ``cov`` (a CovariatePanel with at least one column) is given, the
    covariates enter per ``spec.covariate_mode``; they are only supported
    for the ridge methods, and any other method raises ConfigError.
    ``start`` is the SCM solver's starting point (see :func:`solve_scm`).
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
    elif spec.method in ("demeaned", "fixed_effects"):
        design = demean_rows(blocks)
    else:
        design = blocks
    if spec.method in ("ridge", "fixed_effects"):
        n0 = blocks.n_donors
        scm, anchor = None, DonorWeights(values=np.full(n0, 1.0 / n0))
    else:
        scm = anchor = solve_scm(design, spec.zeta, start=start)
    if with_cov and spec.covariate_mode == "residualize":
        anchor = balance_covariates(anchor, cov)
    return AnchorFit(design, anchor, scm)


def _require_lambda(spec):
    """Refuse a ridge method without a penalty."""
    if spec.needs_lambda() and spec.lam is None:
        raise ConfigError(f"method {spec.method!r} requires a lambda value")


def weights_for_design(blocks, spec, cov=None, fit=None):
    """Donor weights for the configured method on an arbitrary design.

    The anchor of :func:`design_and_anchor`, plus for the two ridge
    methods the ridge adjustment at ``spec.lam``, which must be set.
    ``fit``, when given, is that :class:`AnchorFit`, already solved for
    ``blocks``, ``spec`` and ``cov``.
    """
    _require_lambda(spec)
    design, anchor, _ = design_and_anchor(blocks, spec, cov) if fit is None else fit
    if not spec.needs_lambda():
        return anchor
    return augment_weights(anchor, design, spec.lam)


def estimate(p, spec, cov=None):
    """Run the configured estimator on a panel; returns an AugEstimate.

    ``cov`` (a CovariatePanel) enters the weights as described in
    :func:`design_and_anchor`.
    """
    blocks = split_and_center(p)
    return estimate_on_blocks(blocks, spec, cov=cov)


def estimate_on_blocks(blocks, spec, cov=None, fit=None):
    """Like :func:`estimate` but starting from already-built blocks (and
    optionally their :class:`AnchorFit`, as for :func:`weights_for_design`)."""
    _require_lambda(spec)
    fit = design_and_anchor(blocks, spec, cov) if fit is None else fit
    weights = weights_for_design(blocks, spec, cov, fit)
    g = weights.values
    fitted = _fitted(blocks, spec, fit.design)
    counterfactual = _counterfactual(blocks, fitted, g[:, None])[0]
    return AugEstimate(
        counterfactual=counterfactual,
        att=blocks.y1_post - counterfactual,
        gap_pre=fitted.x1 - fitted.x0.T @ g,
        weights=weights,
    )


def _fitted(blocks, spec, design):
    """The blocks a method's weights fit: its de-meaned ``design`` for
    ``demeaned`` and ``fixed_effects``, ``blocks`` otherwise."""
    return design if spec.method in ("demeaned", "fixed_effects") else blocks


def _counterfactual(blocks, fitted, weights):
    """Post counterfactuals of ``weights`` on the ``fitted`` blocks of
    :func:`_fitted`: m(X_1) + sum_i g_i (Y_i - m(X_i)) per period, m being
    the unit pre-period mean for ``demeaned`` and ``fixed_effects`` and zero
    otherwise. ``weights`` is N0 x L (L fits) and the result L x T1, or of
    a stack along leading axes, to which the blocks' arrays broadcast, ... x
    N0 x L and ... x L x T1, each design's product its lone call's."""
    shift = blocks.y1_post - fitted.y1_post
    return shift[..., None, :] + np.swapaxes(weights, -1, -2) @ fitted.y0_post


def _check_fold_count(t0):
    """Refuse a fold pass over fewer than 3 pre periods."""
    if t0 < 3:
        raise ConfigError("leave-one-period-out folds need at least 3 pre periods")


def fold_predictions(blocks, spec, cov=None, lambdas=None, mode="leave-one", fit=None):
    """One pass over the folds of :func:`panel.period_folds`.

    Each fold fits its anchor once; a ridge method adjusts it for every
    penalty in ``lambdas`` (default ``[spec.lam]``), the others give one
    column. ``fit`` is the :class:`AnchorFit` of ``blocks`` (solved here
    when not given). Fewer than 3 pre periods are refused.

    When every fold's design is the full design without one column
    ("leave-one" folds of ``scm``, ``ridge`` and ``ridge_ascm``, with no
    covariates or residualized ones), the SCM anchors of all folds come
    from one lockstep active-set solve started at ``fit.scm``
    (:func:`scm.solve_leave_one`; a fold it cannot finish, which is rare,
    is solved alone), and their ridge adjustments from one SVD of the full
    design (:func:`ridge._leave_one_predictions`). Otherwise (``demeaned``,
    ``fixed_effects``, joint covariates, re-standardized per fold, and
    "leave-future" folds) every fold is built, solved from ``fit.scm`` and
    adjusted on its own design (:func:`ridge.augment_path`).

    Returns ``(truth, predictions, skipped)``: each kept fold's held-out
    treated outcome, the folds x L x (n_post + 1) counterfactuals (held-out
    period last) and the periods whose folds kept fewer than two periods.
    """
    _check_fold_count(blocks.t0)
    if lambdas is None:
        _require_lambda(spec)
        lambdas = [spec.lam]
    if fit is None:
        fit = design_and_anchor(blocks, spec, cov)
    joint = cov is not None and cov.k > 0 and spec.covariate_mode == "joint"
    if mode == "leave-one" and spec.method in ("scm", "ridge", "ridge_ascm") and not joint:
        predictions = _column_subset_predictions(blocks, spec, cov, lambdas, fit)
        return blocks.x1.copy(), predictions, ()
    start = None if fit.scm is None else fit.scm.values
    truth, predictions, skipped = [], [], []
    for t, fold in period_folds(blocks, mode):
        if fold.t0 < 2:
            skipped.append(t)
            logger.warning("fold %d skipped: only %d periods remain", t, fold.t0)
            continue
        design, anchor, _ = design_and_anchor(fold, spec, cov, start)
        truth.append(fold.y1_post[-1])
        g = augment_path(anchor, design, lambdas) if spec.needs_lambda() else anchor.values[:, None]
        predictions.append(_counterfactual(fold, _fitted(fold, spec, design), g))
    logger.debug(
        "%s fold pass: %d folds in 0 batched rounds, %d fitted one by one",
        mode, len(truth), len(truth),
    )
    return np.array(truth), np.array(predictions), tuple(skipped)


def _column_subset_predictions(blocks, spec, cov, lambdas, fit):
    """The leave-one fold predictions of a method whose fold designs are
    column subsets of ``fit.design`` (see :func:`fold_predictions`): the
    one-design call of :func:`ridge._leave_one_predictions`."""
    design = fit.design
    adjust = ()
    if spec.needs_lambda():
        # refuse lambda 0 on a rank-deficient full design before any fold solve
        lambdas = np.asarray(lambdas, dtype=float)
        _require_invertible(design, lambdas)
        svd = tuple(f[None] for f in design.control_svd)  # a stack of one
        adjust = ((design.x1[None], design.x0[None], svd), lambdas[None])
    if fit.scm is None:  # ridge solves no SCM: every fold keeps the full sample's anchor
        anchors = np.repeat(fit.anchor.values[:, None], blocks.t0, axis=1)
        logger.debug(
            "leave-one fold pass: %d folds in 0 batched rounds, 0 fitted one by one", blocks.t0
        )
    else:
        anchors = solve_leave_one(design, fit.scm, spec.zeta)
    if fit.scm is not None and cov is not None and cov.k > 0:  # residualized: shift every anchor
        anchors = np.column_stack([balance_covariates(g, cov).values for g in anchors.T])
    return _leave_one_predictions(
        anchors[None], blocks.y0_post[None], blocks.x0[None], *adjust
    )[0]
