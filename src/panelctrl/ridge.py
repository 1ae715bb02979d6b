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
identities, the weight-norm bound, and the error-bound sketch. A
leave-one-period-out fold only deletes one column of the design, so
:func:`fold_adjustments` gives every fold's adjustment from the one SVD
of the full design by the bordered-inverse deletion identity, and the fold
pass of cross-validation and jackknife+ takes one SVD in all. The public
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
from .panel import demean_rows, readonly_array
from .scm import DonorWeights, weight_values

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
    "fold_adjustments",
    "verify_penalized_form",
    "svd_imbalance",
    "weight_norm_bound",
    "bound_sketch",
    "demeaned_estimate",
]

RANK_CUTOFF = 1e-10
STATIONARITY_TOL = 1e-8  # passing residual of verify_penalized_form
BOUND_FACTORS = 3  # J, the factor count of bound_sketch's model
BOUND_M = 1.0  # M, the bound on its latent factor values


@dataclass(frozen=True)
class RidgeFit:
    """Intercept and coefficients of the control-side ridge regression."""

    intercept: float
    coefs: np.ndarray
    lam: float

    def __post_init__(self):
        coefs = readonly_array(self.coefs)
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


@dataclass(frozen=True)
class AugEstimate:
    """Counterfactual path, per-period effects, and pre-period fit."""

    counterfactual: np.ndarray
    att: np.ndarray
    gap_pre: np.ndarray
    weights: DonorWeights

    def __post_init__(self):
        for name in ("counterfactual", "att", "gap_pre"):
            object.__setattr__(self, name, readonly_array(getattr(self, name)))
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


def _require_invertible(svd, lambdas):
    """Refuse lam=0 unless the design's Gram matrix x0'x0 is invertible."""
    if np.any(lambdas < 0):
        raise ConfigError("lambda must be nonnegative")
    if np.any(lambdas == 0.0) and not svd.full_column_rank:
        raise SingularityError(
            f"x0'x0 is singular (rank {svd.rank} < {svd.t0}); lambda=0 not allowed"
        )


def augment_path(anchor, blocks, lambdas):
    """Ridge-augmented weights for every penalty in ``lambdas`` from one SVD.

    Column l is anchor + x0 (x0'x0 + lam_l I)^{-1} r with r = x1 - x0'
    anchor, computed as sqrt(N0) U (d s V'r), s = 1 / (N0 d^2 + lam_l): an
    N0 x L matrix whose columns sum to one up to round-off. Requires
    centered blocks and sum-constrained anchor weights; lam = 0 requires
    full column rank.
    """
    g = weight_values(anchor)
    lambdas = np.asarray(lambdas, dtype=float)
    _require_centered(blocks.x0, "augment_weights")
    svd = ControlSVD.compute(blocks.x0)
    _require_invertible(svd, lambdas)
    rotated = svd.rotate(blocks.x1 - blocks.x0.T @ g)
    scale = np.sqrt(svd.n0) * svd.d[:, None] / (svd.n0 * svd.d[:, None] ** 2 + lambdas)
    adj = svd.u @ (scale * rotated[:, None])
    adj -= adj.mean(axis=0)  # exactly zero-sum in exact arithmetic; strip round-off
    return g[:, None] + adj


def fold_adjustments(svd, residuals, post, held_out, lambdas):
    """Every leave-one-period-out fold's ridge adjustment from one SVD.

    ``svd`` is the :class:`ControlSVD` of the column-centred full design
    C = sqrt(N0) U diag(d) V' (N0 x T0). Fold t's design is C without
    column t, and column t of the T0 x T0 ``residuals`` is its residual
    r_t: x1 - x0' g_t on the kept periods, 0 in row t. Deleting column t
    takes c_t c_t' off C C' + lam I, so the bordered-inverse identity gives
    fold t's adjustment C_t (C_t'C_t + lam I)^{-1} r_t as sqrt(N0) U (d z_t),

        z_t = s V'r_t + (s V_t) q_t / delta_t,    s = 1 / (N0 d^2 + lam),
        q_t = V_t . (N0 d^2 s V'r_t),   delta_t = lam V_t . (s V_t) + 1 - |V_t|^2,

    with V_t row t of V. When C has full column rank, V_t . V'r_t = r_t[t]
    = 0 and |V_t| = 1, so lam cancels from the ratio and
    q_t / delta_t = -V_t . (s V'r_t) / V_t . (s V_t); that form is used
    there, and lam = 0 requires it.

    Returns the T0 x L x (P + 1) products of each fold's adjustment with
    the donor outcomes: the N0 x P ``post`` block, shared by every fold,
    then column t of the N0 x T0 ``held_out`` block for fold t. The loop
    runs over penalties, so extra memory stays O(T0 m).
    """
    lambdas = np.asarray(lambdas, dtype=float)
    _require_invertible(svd, lambdas)
    v, n0d2 = svd.v, svd.n0 * svd.d**2
    v_sq = v**2
    outside = 1.0 - v_sq.sum(axis=1)  # 1 - |V_t|^2, zero at full column rank
    rotated = v.T @ residuals
    outcomes = np.hstack([post, held_out])
    # adjustments sum to zero, so centring the outcomes only strips round-off
    outcomes = outcomes - outcomes.mean(axis=0)
    coords = (np.sqrt(svd.n0) * svd.d)[:, None] * (svd.u.T @ outcomes)
    n_post = post.shape[1]
    out = np.empty((svd.t0, lambdas.size, n_post + 1))
    for li, lam in enumerate(lambdas):
        s = 1.0 / (n0d2 + lam)
        z = s[:, None] * rotated
        if svd.full_column_rank:
            ratio = -np.einsum("tj,jt->t", v, z) / (v_sq @ s)
        else:
            ratio = np.einsum("tj,jt->t", v * n0d2, z) / (lam * (v_sq @ s) + outside)
        z += s[:, None] * v.T * ratio
        out[:, li, :n_post] = z.T @ coords[:, :n_post]
        out[:, li, n_post] = np.einsum("jt,jt->t", z, coords[:, n_post:])
    return out


def augment_weights(anchor, blocks, lam):
    """Closed-form ridge-augmented weights at one penalty.

    The single column of :func:`augment_path`, summing to one exactly. The
    result generally leaves the simplex.
    """
    values = augment_path(anchor, blocks, [lam])[:, 0]
    return DonorWeights(values=_exact_sum_to_one(values), simplex=False)


def verify_penalized_form(w, anchor, blocks, lam):
    """Stationarity check of w for the sum-constrained penalized problem.

    The problem is (1/(2 lam)) ||x1 - x0' w||^2 + (1/2) ||w - anchor||^2
    over sum(w) = 1, ``anchor`` a weight vector; the report carries the
    norm of the gradient projected onto the sum-zero direction, which
    passes at :data:`STATIONARITY_TOL`.
    """
    if lam <= 0:
        raise ConfigError("penalized-form check requires lambda > 0")
    g = weight_values(w)
    a = weight_values(anchor)
    grad = -(1.0 / lam) * (blocks.x0 @ (blocks.x1 - blocks.x0.T @ g)) + (g - a)
    residual = float(np.linalg.norm(grad - grad.mean()))
    return PenalizedFormReport(
        residual=residual, threshold=STATIONARITY_TOL, passed=residual <= STATIONARITY_TOL
    )


def svd_imbalance(scm_w, blocks, lam):
    """Post-augmentation pre-period fit: direct norm, spectral form, bound.

    ``lam`` is lam_ridge; the spectral factors use the scaled convention
    lam / N0 against the singular values of x0 / sqrt(N0). When the design
    is rank-deficient the residual component orthogonal to the row space
    passes through augmentation unchanged, so the spectral form carries it
    with factor one and the worst-case bound factor is taken at an
    effective zero smallest singular value.
    """
    svd = ControlSVD.compute(blocks.x0)
    g = weight_values(scm_w)
    lam_scaled = lam / svd.n0
    aug = augment_weights(scm_w, blocks, lam)
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


def weight_norm_bound(scm_w, blocks, lam):
    """L2 norm of the augmented weights and its deterministic bound."""
    svd = ControlSVD.compute(blocks.x0)
    g = weight_values(scm_w)
    lam_scaled = lam / svd.n0
    aug = augment_weights(scm_w, blocks, lam)
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
    g = weight_values(scm_w)
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
    common factor J M^2 / sqrt(T0) (:data:`BOUND_FACTORS` = J,
    :data:`BOUND_M` = M) so ``total = imbalance + excess +
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


def bound_sketch(scm_w, blocks, lambda_grid, sigma_grid):
    """Evaluate the factor-model error-bound terms over a hyper-parameter grid.

    For each (lambda, sigma) the sketch sums an imbalance term
    ||diag(lam/(d_j^2+lam)) r~||, an excess over-fitting term
    4 sigma ||diag(d_j/(d_j^2+lam)) r~||, and a constant term
    2 sqrt(log 2 N0), each scaled by J M^2 / sqrt(T0), with the
    high-probability slack set to zero. r~ is the SCM pre-period residual
    rotated onto the singular directions of the scaled control block.
    Totals are reported as percentages of each noise level's largest-lambda
    entry, so values below 100 mark improvement over unadjusted weights.
    """
    lambda_grid = np.sort(np.asarray(lambda_grid, dtype=float))
    sigma_grid = np.asarray(sigma_grid, dtype=float)
    if np.any(lambda_grid <= 0) or np.any(sigma_grid < 0):
        raise ConfigError("lambda grid must be positive and sigma grid nonnegative")
    svd = ControlSVD.compute(blocks.x0)
    g = weight_values(scm_w)
    rt = svd.rotate(blocks.x1 - blocks.x0.T @ g)
    scale = BOUND_FACTORS * BOUND_M**2 / np.sqrt(blocks.t0)
    scm_term = float(scale * 2.0 * np.sqrt(np.log(2.0 * svd.n0)))
    n_lam, n_sig = lambda_grid.shape[0], sigma_grid.shape[0]
    imb = np.empty(n_lam)
    excess = np.empty((n_lam, n_sig))
    for li, lam in enumerate(lambda_grid):
        lam_scaled = lam / svd.n0
        imb[li] = scale * np.linalg.norm(lam_scaled / (svd.d**2 + lam_scaled) * rt)
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
        t0=int(blocks.t0),
    )
