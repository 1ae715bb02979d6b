"""Auxiliary covariates: the stacked and the residualized designs.

Covariates reach an estimator by changing the design its weights balance;
the weights themselves come from the estimator pipeline in
:mod:`panelctrl.estimators`. The joint route stacks standardized
covariates next to the lagged outcomes (:func:`stacked_blocks`), so the
anchor weights and the ridge adjustment both balance the longer feature
vector. The two-step route removes the control-fitted covariate projection
from the lagged outcomes (:func:`residualize`), fits the anchor and the
adjustment there, and shifts the anchor by the unregularized covariate
correction (:func:`balance_covariates`); the resulting weights balance the
covariates exactly no matter how well the synthetic control fits.
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
from .scm import DonorWeights

logger = logging.getLogger(__name__)

__all__ = [
    "CovariatePanel",
    "stacked_blocks",
    "residualize",
    "balance_covariates",
    "standardize_to_outcomes",
    "balance_table",
    "covariates_from_long",
]


@dataclass(frozen=True)
class CovariatePanel:
    """Treated and control covariates, centered to control column means."""

    z1: np.ndarray
    z0: np.ndarray
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
    scaled = CovariatePanel(z1=cov.z1 * factors, z0=cov.z0 * factors, names=cov.names)
    return scaled, factors


def stacked_blocks(blocks, cov):
    """Blocks whose design stacks the lagged outcomes and the covariates.

    Weights fit to it balance ||x1 - x0'g||^2 + ||z1 - z0'g||^2, so
    standardize the covariates first to give both groups comparable scale.
    """
    if cov.n_donors != blocks.n_donors:
        raise ConfigError("covariate rows must match the donor count")
    x1 = np.concatenate([blocks.x1, cov.z1])
    x0 = np.hstack([blocks.x0, cov.z0])
    return PanelBlocks(
        x1=x1,
        x0=x0,
        y0_post=blocks.y0_post,
        y1_post=blocks.y1_post,
        centering=np.zeros(x1.shape[0]),
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
    """Blocks whose pre outcomes have the control-fitted covariate projection
    removed, for treated and controls alike (post outcomes stay raw).

    The residualized control columns are orthogonal to every covariate, so
    shifting weights along the covariates leaves their pre-period fit alone.
    """
    if cov.k == 0:
        return blocks
    if cov.k >= cov.n_donors:
        raise ConfigError(
            f"two-step residualization needs K < N0 (got K={cov.k}, N0={cov.n_donors})"
        )
    projection = _z_gram_solve(cov, cov.z0.T @ blocks.x0)
    return PanelBlocks(
        x1=blocks.x1 - projection.T @ cov.z1,
        x0=blocks.x0 - cov.z0 @ projection,
        y0_post=blocks.y0_post,
        y1_post=blocks.y1_post,
        centering=np.zeros(blocks.t0),
    )


def balance_covariates(weights, cov):
    """Weights shifted by the unregularized covariate correction.

    Adds z0 (z0'z0)^{-1} (z1 - z0'g), the smallest shift after which the
    weights balance the covariates exactly; it sums to zero because z0 is
    centered, so the result is still sum-constrained but leaves the simplex.
    """
    g = np.asarray(
        weights.values if isinstance(weights, DonorWeights) else weights, dtype=float
    )
    shift = cov.z0 @ _z_gram_solve(cov, cov.z1 - cov.z0.T @ g)
    shift -= shift.mean()  # zero-sum in exact arithmetic (centered columns)
    return DonorWeights(values=g + shift, sum_constrained=True, simplex=False)


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
