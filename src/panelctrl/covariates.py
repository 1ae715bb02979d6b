"""Auxiliary covariates: joint balancing and two-step residualization.

Two routes are supported. The joint route stacks (scaled) covariates next
to the lagged outcomes and runs the usual machinery on the longer feature
vector. The two-step route regresses pre- and post-treatment outcomes on
the control covariates, fits the augmented estimator on the residualized
series, and corrects with an unregularized covariate term; the resulting
weights balance the covariates exactly no matter how well the synthetic
control fits.
"""

from __future__ import annotations

import csv
import io
import logging
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, PanelFormatError, SingularityError
from .panel import PanelBlocks
from .ridge import ControlSVD, _exact_sum_to_one, augment_weights
from .scm import DonorWeights, solve_scm

logger = logging.getLogger(__name__)

__all__ = [
    "CovariatePanel",
    "ResidualizedPanel",
    "joint_solve",
    "joint_augment",
    "residualize",
    "two_step_weights",
    "stacked_blocks",
    "residualized_blocks",
    "standardize_to_outcomes",
    "balance_table",
    "covariates_from_long",
]


@dataclass(frozen=True)
class CovariatePanel:
    """Treated and control covariates, centered to control column means.

    ``theta_x`` / ``theta_z`` weight the two balance terms in the joint
    objective; ``lambda_x`` / ``lambda_z`` are the per-block regression
    penalties (None means "use the penalty passed at call time").
    """

    z1: np.ndarray
    z0: np.ndarray
    theta_x: float = 1.0
    theta_z: float = 1.0
    lambda_x: float | None = None
    lambda_z: float | None = None
    names: tuple = None

    def __post_init__(self):
        z1 = np.ascontiguousarray(np.asarray(self.z1, dtype=float))
        z0 = np.ascontiguousarray(np.asarray(self.z0, dtype=float))
        z1.setflags(write=False)
        z0.setflags(write=False)
        object.__setattr__(self, "z1", z1)
        object.__setattr__(self, "z0", z0)
        if z0.ndim != 2 or z1.shape != (z0.shape[1],):
            raise ConfigError("z1 must be a K-vector and z0 an N0 x K matrix")
        if self.k > 0:
            worst = float(np.abs(z0.mean(axis=0)).max())
            scale = 1.0 + float(np.abs(z0).max(initial=0.0))
            if worst > 1e-12 * max(1.0, scale):
                raise ConfigError(
                    f"z0 columns must be centered to control means (max |mean| {worst:.3e})"
                )
        for name in ("theta_x", "theta_z"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be nonnegative")
        for name in ("lambda_x", "lambda_z"):
            val = getattr(self, name)
            if val is not None and val < 0:
                raise ConfigError(f"{name} must be nonnegative")
        if self.names is None:
            object.__setattr__(
                self, "names", tuple(f"z{i + 1}" for i in range(self.k))
            )
        else:
            object.__setattr__(self, "names", tuple(self.names))
            if len(self.names) != self.k:
                raise ConfigError("names length must match the number of covariates")

    @property
    def k(self):
        return self.z0.shape[1]

    @property
    def n_donors(self):
        return self.z0.shape[0]

    @classmethod
    def from_raw(cls, z1, z0, **kwargs):
        """Center raw covariates by the control column means."""
        z0 = np.asarray(z0, dtype=float)
        z1 = np.asarray(z1, dtype=float)
        if z0.ndim != 2:
            raise ConfigError("z0 must be an N0 x K matrix")
        means = z0.mean(axis=0) if z0.shape[1] else np.zeros(0)
        z0c = z0 - means
        z0c = z0c - z0c.mean(axis=0) if z0.shape[1] else z0c
        return cls(z1=z1 - means, z0=z0c, **kwargs)


@dataclass(frozen=True)
class ResidualizedPanel:
    """Pre-period outcomes with the control-fitted covariate projection removed."""

    x1_check: np.ndarray
    x0_check: np.ndarray
    projection: np.ndarray

    def __post_init__(self):
        for name in ("x1_check", "x0_check", "projection"):
            arr = np.ascontiguousarray(np.asarray(getattr(self, name), dtype=float))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def standardize_to_outcomes(cov, blocks):
    """Scale covariate columns to the pooled dispersion of the lagged outcomes.

    Every covariate column is rescaled so its control standard deviation
    equals the pooled standard deviation of the (control) pre-period
    outcome entries; returns the rescaled panel and the applied factors.
    """
    if cov.k == 0:
        return cov, np.zeros(0)
    x_pool = float(np.std(blocks.x0 - blocks.x0.mean(axis=0)))
    sds = cov.z0.std(axis=0)
    if np.any(sds == 0):
        idx = [cov.names[i] for i in np.nonzero(sds == 0)[0]]
        raise ConfigError(f"constant covariate column(s) {idx} cannot be standardized")
    factors = x_pool / sds
    scaled = CovariatePanel(
        z1=cov.z1 * factors,
        z0=cov.z0 * factors,
        theta_x=cov.theta_x,
        theta_z=cov.theta_z,
        lambda_x=cov.lambda_x,
        lambda_z=cov.lambda_z,
        names=cov.names,
    )
    return scaled, factors


def stacked_blocks(blocks, cov, theta=True, z_scale=1.0):
    """Blocks whose design stacks lagged outcomes and covariates.

    When ``theta`` is true the two feature groups are multiplied by
    sqrt(theta_x) and sqrt(theta_z); ``z_scale`` applies an extra factor to
    the covariate block (used to fold differing regression penalties into
    a single one).
    """
    sx = np.sqrt(cov.theta_x) if theta else 1.0
    sz = (np.sqrt(cov.theta_z) if theta else 1.0) * z_scale
    x1 = np.concatenate([sx * blocks.x1, sz * cov.z1])
    x0 = np.hstack([sx * blocks.x0, sz * cov.z0])
    return PanelBlocks(
        x1=x1,
        x0=x0,
        y0_post=blocks.y0_post,
        y1_post=blocks.y1_post,
        centering=np.zeros(x1.shape[0]),
    )


def joint_solve(blocks, cov, cfg=None):
    """Simplex weights balancing lagged outcomes and covariates together.

    Minimizes theta_x ||x1 - x0'g||^2 + theta_z ||z1 - z0'g||^2 plus the
    dispersion penalty, by running the SCM solver on the stacked, scaled
    feature matrix. Standardize the covariates first when using the
    default theta_x = theta_z = 1.
    """
    if cov.n_donors != blocks.n_donors:
        raise ConfigError("covariate rows must match the donor count")
    return solve_scm(stacked_blocks(blocks, cov, theta=True), cfg)


def joint_augment(scm_w, blocks, cov, lam):
    """Ridge-augmented weights on the stacked (outcomes, covariates) features.

    With a common penalty this is the closed-form augmentation applied to
    the (T0+K)-dimensional design; differing ``lambda_x`` / ``lambda_z``
    are folded in by rescaling the covariate block. All the augmentation
    identities hold on the stacked system. K=0 reduces exactly to the
    covariate-free path.
    """
    lam_x = cov.lambda_x if cov.lambda_x is not None else lam
    lam_z = cov.lambda_z if cov.lambda_z is not None else lam
    if lam_x <= 0 or lam_z <= 0:
        raise ConfigError("joint augmentation requires positive penalties")
    z_scale = float(np.sqrt(lam_x / lam_z)) if cov.k else 1.0
    stacked = stacked_blocks(blocks, cov, theta=False, z_scale=z_scale)
    weights = augment_weights(scm_w, stacked, lam_x)
    return DonorWeights(
        values=weights.values,
        provenance="covariate-adjusted",
        sum_constrained=True,
        simplex=False,
    )


def _z_gram_solve(cov, rhs):
    """(z0'z0)^{-1} rhs with an explicit full-rank requirement."""
    z0 = cov.z0
    gram = z0.T @ z0
    u, s, vt = np.linalg.svd(z0, full_matrices=False)
    if s.size == 0 or s[-1] <= 1e-10 * s[0]:
        bad = np.abs(vt[-1]) if s.size else np.ones(cov.k)
        worst = [cov.names[i] for i in np.nonzero(bad > 0.5 * bad.max())[0]]
        raise SingularityError(
            f"z0'z0 is singular; near-dependent covariate column(s): {worst}"
        )
    return np.linalg.solve(gram, rhs)


def residualize(blocks, cov):
    """Remove the control-fitted covariate projection from both treated and
    control pre-period outcomes."""
    if cov.k == 0:
        return ResidualizedPanel(
            x1_check=blocks.x1.copy(),
            x0_check=blocks.x0.copy(),
            projection=np.zeros((0, blocks.t0)),
        )
    if cov.k >= cov.n_donors:
        raise ConfigError(
            f"two-step residualization needs K < N0 (got K={cov.k}, N0={cov.n_donors})"
        )
    projection = _z_gram_solve(cov, cov.z0.T @ blocks.x0)
    return ResidualizedPanel(
        x1_check=blocks.x1 - projection.T @ cov.z1,
        x0_check=blocks.x0 - cov.z0 @ projection,
        projection=projection,
    )


def residualized_blocks(blocks, cov):
    """Blocks carrying the residualized pre outcomes (post outcomes raw)."""
    rp = residualize(blocks, cov)
    return PanelBlocks(
        x1=rp.x1_check,
        x0=rp.x0_check,
        y0_post=blocks.y0_post,
        y1_post=blocks.y1_post,
        centering=np.zeros(blocks.t0),
    )


def two_step_weights(scm_w_on_resid, blocks, cov, lam):
    """Covariate-exact weights from the two-step procedure.

    Takes SCM weights fit on the residualized outcomes, augments them in
    the residualized space with penalty ``lam``, and adds the
    unregularized covariate correction. The result balances the covariates
    exactly; the lagged-outcome imbalance shrinks the residualized-space
    imbalance by at least lam / (lam + s_min(x0_check)^2).
    """
    g = np.asarray(
        scm_w_on_resid.values
        if isinstance(scm_w_on_resid, DonorWeights)
        else scm_w_on_resid,
        dtype=float,
    )
    if cov.k == 0:
        base = augment_weights(scm_w_on_resid, blocks, lam)
        return DonorWeights(
            values=base.values,
            provenance="covariate-adjusted",
            sum_constrained=True,
            simplex=False,
        )
    rp = residualize(blocks, cov)
    svd = ControlSVD.compute(rp.x0_check)
    resid_gap = rp.x1_check - rp.x0_check.T @ g
    x_adj = rp.x0_check @ svd.gram_inverse_apply(resid_gap, lam)
    x_adj -= x_adj.mean()  # zero-sum in exact arithmetic (centered columns)
    z_adj = cov.z0 @ _z_gram_solve(cov, cov.z1 - cov.z0.T @ g)
    z_adj -= z_adj.mean()
    return DonorWeights(
        values=_exact_sum_to_one(g + x_adj + z_adj),
        provenance="covariate-adjusted",
        sum_constrained=True,
        simplex=False,
    )


def balance_table(cov, weights):
    """Standardized absolute covariate gaps, raw and weighted.

    Each covariate is scaled by its control standard deviation; the raw
    gap compares the treated unit with the unweighted donor mean, the
    weighted gap with the synthetic control.
    """
    g = np.asarray(
        weights.values if isinstance(weights, DonorWeights) else weights, dtype=float
    )
    rows = []
    for k in range(cov.k):
        sd = float(cov.z0[:, k].std())
        if sd == 0:
            sd = 1.0
        raw = abs(float(cov.z1[k] - cov.z0[:, k].mean())) / sd
        weighted = abs(float(cov.z1[k] - cov.z0[:, k] @ g)) / sd
        rows.append((cov.names[k], raw, weighted))
    return rows


def covariates_from_long(source, p, columns):
    """Per-unit pre-treatment means of extra CSV columns as covariates.

    ``source`` is the same long-format CSV used for the panel; ``columns``
    names the covariate columns. Values are averaged over each unit's
    pre-treatment rows and centered to control means.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", newline="") as fh:
            return covariates_from_long(fh, p, columns)
    if not (isinstance(source, io.TextIOBase) or hasattr(source, "read")):
        raise ConfigError("covariate loading requires a CSV path or file object")
    reader = csv.reader(source)
    header = next(reader, None)
    if header is None:
        raise PanelFormatError("empty input: no header row")
    idx = {name.strip().lower(): i for i, name in enumerate(header)}
    for required in ("unit", "time"):
        if required not in idx:
            raise PanelFormatError(f"input header must contain {required!r}")
    for col in columns:
        if col.strip().lower() not in idx:
            raise PanelFormatError(f"covariate column {col!r} not found in header")
    pre_times = {str(t) for t in p.time_ids[: p.t0]}
    sums = {unit: np.zeros(len(columns)) for unit in p.unit_ids}
    counts = {unit: 0 for unit in p.unit_ids}
    for row in reader:
        if not row or all(not c.strip() for c in row):
            continue
        unit = row[idx["unit"]].strip()
        time_label = row[idx["time"]].strip()
        if unit not in sums or time_label not in pre_times:
            continue
        try:
            vals = [float(row[idx[c.strip().lower()]]) for c in columns]
        except (ValueError, IndexError) as exc:
            raise PanelFormatError(
                f"non-numeric covariate value for unit {unit!r} at time {time_label!r}"
            ) from exc
        sums[unit] += np.asarray(vals)
        counts[unit] += 1
    z = np.empty((p.n_units, len(columns)))
    for i, unit in enumerate(p.unit_ids):
        if counts[unit] == 0:
            raise PanelFormatError(f"no pre-treatment covariate rows for unit {unit!r}")
        z[i] = sums[unit] / counts[unit]
    return CovariatePanel.from_raw(
        z1=z[p.treated_index], z0=z[p.donor_indices], names=tuple(columns)
    )
