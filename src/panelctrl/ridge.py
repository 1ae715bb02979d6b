"""Ridge outcome model and ridge-augmented synthetic control.

The augmentation has a closed form: starting from anchor weights g, the
augmented weights are

    g_aug_i = g_i + (x1 - x0' g)' (x0' x0 + lam I)^{-1} x_i,

equivalently the minimizer of (1/(2 lam)) ||x1 - x0' w||^2 + (1/2)||w - g||^2
over sum(w) = 1. It is the only ridge adjustment in the package: ridge ASCM
anchors it at the SCM weights, plain ridge regression of post on pre
outcomes at uniform weights, and the covariate estimators apply it on a
stacked or residualized design. All linear solves go through one shared
SVD of the scaled control block, with singular values below 1e-10 of the
largest treated as zero; the same decomposition powers the imbalance
identities, the weight-norm bound, and the error-bound sketch. The public
hyper-parameter is always lam = lam_ridge; diagnostics that need the
scaled convention divide by the donor count internally and report both
values.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SingularityError
from .panel import demean_rows
from .scm import DonorWeights

logger = logging.getLogger(__name__)

__all__ = [
    "RidgeFit",
    "ControlSVD",
    "AugEstimate",
    "BoundSketch",
    "PenalizedFormReport",
    "SvdImbalanceReport",
    "WeightNormReport",
    "fit_ridge",
    "augment_weights",
    "augment_path",
    "verify_penalized_form",
    "svd_imbalance",
    "weight_norm_bound",
    "bound_sketch",
    "demeaned_estimate",
]

RANK_CUTOFF = 1e-10


@dataclass(frozen=True)
class RidgeFit:
    """Intercept and coefficients of the control-side ridge regression."""

    intercept: float
    coefs: np.ndarray
    lam: float

    def __post_init__(self):
        coefs = np.ascontiguousarray(np.asarray(self.coefs, dtype=float))
        coefs.setflags(write=False)
        object.__setattr__(self, "coefs", coefs)
        if not np.all(np.isfinite(coefs)) or not np.isfinite(self.intercept):
            raise SingularityError("ridge fit produced non-finite coefficients")
        if self.lam < 0:
            raise ConfigError("lambda must be nonnegative")

    def predict(self, x):
        x = np.asarray(x, dtype=float)
        return self.intercept + x @ self.coefs


@dataclass(frozen=True)
class ControlSVD:
    """Thin SVD of x0 / sqrt(N0) with small singular values dropped.

    ``u`` is N0 x m, ``d`` the m singular values in descending order, and
    ``v`` is T0 x m; ``rank`` = m is the numerical rank.
    """

    u: np.ndarray
    d: np.ndarray
    v: np.ndarray
    rank: int
    n0: int
    t0: int

    @classmethod
    def compute(cls, x0):
        x0 = np.asarray(x0, dtype=float)
        n0, t0 = x0.shape
        u, d, vt = np.linalg.svd(x0 / np.sqrt(n0), full_matrices=False)
        if d.size == 0 or d[0] == 0.0:
            keep = np.zeros(d.shape, dtype=bool)
        else:
            keep = d > RANK_CUTOFF * d[0]
        m = int(keep.sum())
        return cls(
            u=u[:, :m].copy(),
            d=d[:m].copy(),
            v=vt[:m].T.copy(),
            rank=m,
            n0=n0,
            t0=t0,
        )

    @property
    def full_column_rank(self):
        return self.rank == self.t0

    def rotate(self, x):
        """Coordinates of x along the right singular vectors (length m)."""
        return self.v.T @ np.asarray(x, dtype=float)

    def gram_inverse_apply(self, vec, lams):
        """(x0' x0 + lam I)^{-1} vec for every lam in ``lams``: a T0 x L matrix.

        lam is on the lam_ridge scale. Requires full column rank at lam=0.
        """
        vec = np.asarray(vec, dtype=float)
        lams = np.asarray(lams, dtype=float)
        if np.any(lams == 0.0) and not self.full_column_rank:
            raise SingularityError(
                f"x0'x0 is singular (rank {self.rank} < {self.t0}); lambda=0 not allowed"
            )
        coef = self.v.T @ vec
        out = self.v @ (coef[:, None] / (self.n0 * self.d[:, None] ** 2 + lams))
        # the part of vec outside the row space is scaled by 1/lam; at lam=0
        # full column rank leaves no such part
        inv = np.divide(1.0, lams, out=np.zeros_like(lams), where=lams != 0.0)
        return out + np.outer(vec - self.v @ coef, inv)


@dataclass(frozen=True)
class AugEstimate:
    """Counterfactual path, per-period effects, and pre-period fit."""

    counterfactual: np.ndarray
    att: np.ndarray
    gap_pre: np.ndarray
    weights: DonorWeights

    def __post_init__(self):
        for name in ("counterfactual", "att", "gap_pre"):
            arr = np.ascontiguousarray(np.asarray(getattr(self, name), dtype=float))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.counterfactual.shape != self.att.shape:
            raise ConfigError("counterfactual and att must have equal length")

    def to_rows(self, time_ids=None, observed=None):
        """(time, observed, counterfactual, gap) rows over all periods.

        ``observed`` must hold the treated unit's full outcome series when
        given; without it the observed column is NaN. Pre-period rows
        reconstruct the synthetic path from the recorded fit residuals.
        """
        t0 = self.gap_pre.shape[0]
        total = t0 + self.counterfactual.shape[0]
        if time_ids is None:
            time_ids = list(range(1, total + 1))
        rows = []
        for j in range(total):
            obs = float(observed[j]) if observed is not None else float("nan")
            if j < t0:
                gap = float(self.gap_pre[j])
                cf = obs - gap
            else:
                cf = float(self.counterfactual[j - t0])
                gap = float(self.att[j - t0])
            rows.append((time_ids[j], obs, cf, gap))
        return rows


@dataclass(frozen=True)
class PenalizedFormReport:
    residual: float
    threshold: float
    passed: bool


@dataclass(frozen=True)
class SvdImbalanceReport:
    direct: float
    via_svd: float
    upper_bound: float
    lambda_ridge: float
    lambda_scaled: float


@dataclass(frozen=True)
class WeightNormReport:
    norm: float
    bound: float
    lambda_ridge: float
    lambda_scaled: float


def _values(w):
    return np.asarray(w.values if isinstance(w, DonorWeights) else w, dtype=float)


def _exact_sum_to_one(values):
    """Spread exactly-summed drift uniformly so fsum(values) returns 1."""
    drift = math.fsum(values) - 1.0
    if drift != 0.0:
        values = values - drift / values.shape[0]
    return values


def _require_centered(x0, where):
    worst = float(np.abs(x0.mean(axis=0)).max(initial=0.0))
    scale = 1.0 + float(np.abs(x0).max(initial=0.0))
    if worst > 1e-8 * scale:
        raise ConfigError(
            f"{where} requires column-centered control outcomes "
            f"(max |column mean| = {worst:.3e}); center the blocks first"
        )


def fit_ridge(blocks, lam, post_period=0):
    """Ridge regression of a control post-period outcome on pre outcomes.

    Minimizes 0.5 * sum (y_i - eta0 - x_i' eta)^2 subject to a penalty
    whose stationary point is eta = (x0'x0 + lam I)^{-1} x0' (y - ybar);
    with centered pre outcomes the intercept is the control post mean.
    At lam=0 the solve uses the rank-truncated pseudo-inverse; designs that
    are rank-deficient beyond the deficiency induced by column centering
    are rejected.
    """
    if lam < 0:
        raise ConfigError("lambda must be nonnegative")
    if not 0 <= post_period < blocks.n_post:
        raise ConfigError(f"post_period {post_period} out of range")
    y = blocks.y0_post[:, post_period]
    xbar = blocks.x0.mean(axis=0)
    xc = blocks.x0 - xbar
    ybar = float(y.mean())
    yc = y - ybar
    svd = ControlSVD.compute(xc)
    n0, t0 = xc.shape
    if lam == 0.0 and svd.rank < min(n0 - 1, t0):
        raise SingularityError(
            f"normal equations are singular at lambda=0 (rank {svd.rank} < "
            f"{min(n0 - 1, t0)})"
        )
    scale = np.sqrt(n0) * svd.d / (n0 * svd.d**2 + lam)
    coefs = svd.v @ (scale * (svd.u.T @ yc))
    intercept = ybar - float(xbar @ coefs)
    return RidgeFit(intercept=intercept, coefs=coefs, lam=float(lam))


def augment_path(anchor, blocks, lambdas, svd=None):
    """Ridge-augmented weights for every penalty in ``lambdas`` from one SVD.

    Column l is anchor + x0 (x0'x0 + lam_l I)^{-1} (x1 - x0' anchor): an
    N0 x L matrix whose columns sum to one up to round-off. Requires
    centered blocks and sum-constrained anchor weights.
    """
    g = _values(anchor)
    if isinstance(anchor, DonorWeights) and not anchor.sum_constrained:
        raise ConfigError("anchor weights must be sum-constrained")
    lambdas = np.asarray(lambdas, dtype=float)
    if np.any(lambdas < 0):
        raise ConfigError("lambda must be nonnegative")
    _require_centered(blocks.x0, "augment_weights")
    svd = svd or ControlSVD.compute(blocks.x0)
    adj = blocks.x0 @ svd.gram_inverse_apply(blocks.x1 - blocks.x0.T @ g, lambdas)
    adj -= adj.mean(axis=0)  # exactly zero-sum in exact arithmetic; strip round-off
    return g[:, None] + adj


def augment_weights(anchor, blocks, lam, svd=None):
    """Closed-form ridge-augmented weights at one penalty.

    The single column of :func:`augment_path`, summing to one exactly. The
    result generally leaves the simplex.
    """
    values = augment_path(anchor, blocks, [lam], svd=svd)[:, 0]
    return DonorWeights(values=_exact_sum_to_one(values), sum_constrained=True, simplex=False)


def verify_penalized_form(w, anchor, blocks, lam, threshold=1e-8):
    """Stationarity check of w for the sum-constrained penalized problem.

    The problem is (1/(2 lam)) ||x1 - x0' w||^2 + (1/2) ||w - anchor||^2
    over sum(w) = 1; the report carries the norm of the gradient projected
    onto the sum-zero direction. ``anchor`` is a weight vector or the
    string "uniform".
    """
    if lam <= 0:
        raise ConfigError("penalized-form check requires lambda > 0")
    g = _values(w)
    if isinstance(anchor, str):
        if anchor != "uniform":
            raise ConfigError(f"unknown anchor {anchor!r}")
        a = np.full(g.shape[0], 1.0 / g.shape[0])
    else:
        a = _values(anchor)
    grad = -(1.0 / lam) * (blocks.x0 @ (blocks.x1 - blocks.x0.T @ g)) + (g - a)
    proj = grad - grad.mean()
    residual = float(np.linalg.norm(proj))
    return PenalizedFormReport(
        residual=residual, threshold=threshold, passed=residual <= threshold
    )


def svd_imbalance(scm_w, blocks, lam, svd=None):
    """Post-augmentation pre-period fit: direct norm, spectral form, bound.

    ``lam`` is lam_ridge; the spectral factors use the scaled convention
    lam / N0 against the singular values of x0 / sqrt(N0). When the design
    is rank-deficient the residual component orthogonal to the row space
    passes through augmentation unchanged, so the spectral form carries it
    with factor one and the worst-case bound factor is taken at an
    effective zero smallest singular value.
    """
    svd = svd or ControlSVD.compute(blocks.x0)
    g = _values(scm_w)
    lam_scaled = lam / svd.n0
    aug = augment_weights(scm_w, blocks, lam, svd=svd)
    direct = float(np.linalg.norm(blocks.x1 - blocks.x0.T @ aug.values))
    r = blocks.x1 - blocks.x0.T @ g
    rt = svd.rotate(r)
    perp = r - svd.v @ rt
    factors = lam_scaled / (svd.d**2 + lam_scaled) if lam_scaled > 0 else np.zeros_like(svd.d)
    via = float(np.sqrt(np.sum((factors * rt) ** 2) + perp @ perp))
    d_eff = svd.d[-1] if (svd.full_column_rank and svd.rank > 0) else 0.0
    if lam_scaled == 0.0:
        upper_factor = 0.0 if d_eff > 0 else 1.0
    else:
        upper_factor = lam_scaled / (d_eff**2 + lam_scaled)
    upper = float(upper_factor * np.linalg.norm(r))
    return SvdImbalanceReport(
        direct=direct,
        via_svd=via,
        upper_bound=upper,
        lambda_ridge=float(lam),
        lambda_scaled=float(lam_scaled),
    )


def weight_norm_bound(scm_w, blocks, lam, svd=None):
    """L2 norm of the augmented weights and its deterministic bound."""
    svd = svd or ControlSVD.compute(blocks.x0)
    g = _values(scm_w)
    lam_scaled = lam / svd.n0
    aug = augment_weights(scm_w, blocks, lam, svd=svd)
    rt = svd.rotate(blocks.x1 - blocks.x0.T @ g)
    factors = svd.d / (svd.d**2 + lam_scaled)
    bound = float(
        np.linalg.norm(g) + np.linalg.norm(factors * rt) / np.sqrt(svd.n0)
    )
    return WeightNormReport(
        norm=float(np.linalg.norm(aug.values)),
        bound=bound,
        lambda_ridge=float(lam),
        lambda_scaled=float(lam_scaled),
    )


def demeaned_estimate(scm_w, blocks):
    """Weighted difference-in-differences form of the de-meaned estimator.

    Returns (per-period estimates via the level form, via the averaged
    per-lag form); the two are algebraically identical.
    """
    g = _values(scm_w)
    demeaned = demean_rows(blocks)
    level = demeaned.y1_post - g @ demeaned.y0_post
    x1_raw = blocks.x1 + blocks.centering
    x0_raw = blocks.x0 + blocks.centering
    averaged = np.empty(blocks.n_post)
    for k in range(blocks.n_post):
        y1 = blocks.y1_post[k]
        y0 = blocks.y0_post[:, k]
        diffs = [
            (y1 - x1_raw[t]) - float(g @ (y0 - x0_raw[:, t])) for t in range(blocks.t0)
        ]
        averaged[k] = float(np.mean(diffs))
    return level, averaged


@dataclass(frozen=True)
class BoundSketch:
    """Error-bound terms on a (lambda, sigma) grid, normalized at large lambda.

    ``imbalance``, ``excess`` and ``scm_approx`` are already scaled by the
    common factor J * M^2 / sqrt(T0) so ``total = imbalance + excess +
    scm_approx`` entrywise; ``total_pct`` rescales each noise level so its
    largest-lambda entry is 100.
    """

    lambda_grid: np.ndarray
    sigma_grid: np.ndarray
    imbalance: np.ndarray
    excess: np.ndarray
    scm_approx: float
    total: np.ndarray
    total_pct: np.ndarray
    j_factors: int
    m_bound: float
    t0: int

    def rows(self):
        """Long-format rows (lambda, sigma, imbalance, excess, scm, total_pct)."""
        out = []
        for si, sig in enumerate(self.sigma_grid):
            for li, lam in enumerate(self.lambda_grid):
                out.append(
                    (
                        float(lam),
                        float(sig),
                        float(self.imbalance[li]),
                        float(self.excess[li, si]),
                        float(self.scm_approx),
                        float(self.total_pct[li, si]),
                    )
                )
        return out


def bound_sketch(
    scm_w,
    blocks,
    lambda_grid,
    sigma_grid,
    j_factors=3,
    m_bound=1.0,
    beta_norm=None,
    svd=None,
):
    """Evaluate the factor-model error-bound terms over a hyper-parameter grid.

    For each (lambda, sigma) the sketch sums an imbalance term
    ||diag(lam/(d_j^2+lam)) r~||, an excess over-fitting term
    4 sigma ||diag(d_j/(d_j^2+lam)) r~||, and a constant term
    2 sqrt(log 2 N0), each scaled by J M^2 / sqrt(T0), with the
    high-probability slack set to zero. r~ is the SCM pre-period residual
    rotated onto the singular directions of the scaled control block.
    Totals are reported as percentages of each noise level's largest-lambda
    entry, so values below 100 mark improvement over unadjusted weights.

    ``beta_norm`` switches to the plain linear-outcome-model bound: the
    imbalance term is scaled by the supplied coefficient norm instead and
    the excess and baseline terms are dropped.
    """
    lambda_grid = np.sort(np.asarray(lambda_grid, dtype=float))
    sigma_grid = np.asarray(sigma_grid, dtype=float)
    if np.any(lambda_grid <= 0) or np.any(sigma_grid < 0):
        raise ConfigError("lambda grid must be positive and sigma grid nonnegative")
    svd = svd or ControlSVD.compute(blocks.x0)
    g = _values(scm_w)
    rt = svd.rotate(blocks.x1 - blocks.x0.T @ g)
    if beta_norm is not None:
        if beta_norm < 0:
            raise ConfigError("beta_norm must be nonnegative")
        scale = float(beta_norm)
        scm_term = 0.0
    else:
        scale = j_factors * m_bound**2 / np.sqrt(blocks.t0)
        scm_term = float(scale * 2.0 * np.sqrt(np.log(2.0 * svd.n0)))
    n_lam, n_sig = lambda_grid.shape[0], sigma_grid.shape[0]
    imb = np.empty(n_lam)
    excess = np.empty((n_lam, n_sig))
    for li, lam in enumerate(lambda_grid):
        lam_scaled = lam / svd.n0
        imb[li] = scale * np.linalg.norm(lam_scaled / (svd.d**2 + lam_scaled) * rt)
        if beta_norm is not None:
            excess[li] = 0.0
        else:
            base = np.linalg.norm(svd.d / (svd.d**2 + lam_scaled) * rt)
            excess[li] = scale * 4.0 * sigma_grid * base
    total = imb[:, None] + excess + scm_term
    anchor = total[-1, :]
    total_pct = 100.0 * total / anchor
    return BoundSketch(
        lambda_grid=lambda_grid,
        sigma_grid=sigma_grid,
        imbalance=imb,
        excess=excess,
        scm_approx=scm_term,
        total=total,
        total_pct=total_pct,
        j_factors=int(j_factors),
        m_bound=float(m_bound),
        t0=int(blocks.t0),
    )
