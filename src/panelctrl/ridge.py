"""Ridge outcome model and ridge-augmented synthetic control.

The augmentation has a closed form: starting from anchor weights g, the
augmented weights are

    g_aug_i = g_i + (x1 - x0' g)' (x0' x0 + lam I)^{-1} x_i,

equivalently the minimizer of (1/(2 lam)) ||x1 - x0' w||^2 + (1/2)||w - g||^2
over sum(w) = 1. It is the only ridge adjustment in the package: ridge ASCM
anchors it at the SCM weights, plain ridge regression of post on pre
outcomes at uniform weights, and the covariate estimators apply it on a
stacked or residualized design. The outcome model is a ridge regression
with an intercept, so it needs donor-centred pre outcomes, which every
:class:`panel.PanelBlocks` holds by construction. All linear solves go
through one shared SVD of the scaled control block, the tuple
:class:`ControlSVD` computed once per design (``PanelBlocks.control_svd``),
with singular values below 1e-10 of the largest treated as zero; the ridge
fit, the imbalance identities, the weight-norm bound and the error-bound
sketch read it. A leave-one-period-out fold only deletes one column of the
design, so :func:`_leave_one_predictions` gives every fold's prediction at
every penalty from the one SVD of the full design by the bordered-inverse
deletion identity, and the fold pass of cross-validation and jackknife+
takes one SVD in all. The SVD, the adjustment and the fold predictions are
each written once, over the R designs of a Monte Carlo stack, and the lone
calls are their one-design case. The public hyper-parameter is always lam
= lam_ridge; diagnostics that need the scaled convention divide by the
donor count internally and report both values.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import NamedTuple

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
        if not 0 <= self.lam < math.inf:
            raise ConfigError(f"lambda must be finite and nonnegative, got {self.lam}")

    def predict(self, x):
        x = np.asarray(x, dtype=float)
        return self.intercept + x @ self.coefs


class ControlSVD(NamedTuple):
    """Thin SVD of x0 / sqrt(N0) with small singular values dropped: ``u``
    (N0 x m), the m singular values ``d`` in descending order, ``v`` (T0 x m)
    and ``rank`` m, the numerical rank (T0 at full column rank), of one design
    or, along leading axes, of each design of a stack (:func:`_svd_stack`).
    """

    u: np.ndarray
    d: np.ndarray
    v: np.ndarray
    rank: np.ndarray

    @classmethod
    def compute(cls, x0):
        return _svd_stack(np.asarray(x0, dtype=float))


def _svd_stack(x0):
    """The :class:`ControlSVD` of one design (N0 x T0), or of R designs of
    one shape (R x N0 x T0) from one batched call, each scaled by 1 /
    sqrt(N0), keeping per design the singular values above ``RANK_CUTOFF``
    of its largest. A stack's ``u`` is R x N0 x m, ``d`` R x m, ``v`` R x
    T0 x m and ``rank`` the R ranks, m being the largest: a design of lower
    rank has zero columns (and singular values) past its own. Each design's
    factors are those of a lone ``np.linalg.svd`` call.
    """
    u, d, vt = np.linalg.svd(x0 / np.sqrt(x0.shape[-2]), full_matrices=False)
    keep = d > RANK_CUTOFF * d[..., :1]  # none where the largest is zero
    rank = keep.sum(axis=-1)
    m = rank.max(initial=0)
    keep = keep[..., :m]
    return ControlSVD(
        np.ascontiguousarray(u[..., :m] * keep[..., None, :]),
        d[..., :m] * keep,
        np.ascontiguousarray(vt[..., :m, :].swapaxes(-1, -2) * keep[..., None, :]),
        rank,
    )


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


def fit_ridge(blocks, lam, post_period=0):
    """Ridge regression of a control post-period outcome on pre outcomes.

    Minimizes 0.5 * sum (y_i - eta0 - x_i' eta)^2 subject to a penalty
    whose stationary point is eta = (x0'x0 + lam I)^{-1} x0' (y - ybar);
    the pre outcomes of blocks are centred, so the intercept is the control
    post mean. At lam=0 the solve uses the rank-truncated pseudo-inverse;
    designs that are rank-deficient beyond the deficiency induced by column
    centring are rejected.
    """
    if not 0 <= lam < math.inf:
        raise ConfigError(f"lambda must be finite and nonnegative, got {lam}")
    if not 0 <= post_period < blocks.n_post:
        raise ConfigError(f"post_period {post_period} out of range")
    y = blocks.y0_post[:, post_period]
    ybar = float(y.mean())
    svd = blocks.control_svd
    n0, t0 = blocks.x0.shape
    if lam == 0.0 and svd.rank < min(n0 - 1, t0):
        raise SingularityError(
            f"normal equations are singular at lambda=0 (rank {svd.rank} < "
            f"{min(n0 - 1, t0)})"
        )
    scale = np.sqrt(n0) * svd.d / (n0 * svd.d**2 + lam)
    coefs = svd.v @ (scale * (svd.u.T @ (y - ybar)))
    return RidgeFit(intercept=ybar, coefs=coefs, lam=float(lam))


def _require_invertible(blocks, lambdas):
    """Refuse a penalty that is negative or not finite, or lam=0 unless x0'x0 is invertible."""
    bad = lambdas[~((lambdas >= 0) & (lambdas < math.inf))]
    if bad.size:
        raise ConfigError(f"lambda must be finite and nonnegative, got {bad[0]}")
    rank = blocks.control_svd.rank
    if np.any(lambdas == 0.0) and rank < blocks.t0:
        raise SingularityError(
            f"x0'x0 is singular (rank {rank} < {blocks.t0}); lambda=0 not allowed"
        )


def augment_path(anchor, blocks, lambdas):
    """Ridge-augmented weights for every penalty in ``lambdas`` from one SVD.

    Column l is anchor + x0 (x0'x0 + lam_l I)^{-1} r with r = x1 - x0'
    anchor, computed as sqrt(N0) U (d s V'r), s = 1 / (N0 d^2 + lam_l): an
    N0 x L matrix whose columns sum to one up to round-off. Requires
    sum-constrained anchor weights; lam = 0 requires full column rank.
    """
    g = weight_values(anchor)
    lambdas = np.asarray(lambdas, dtype=float)
    _require_invertible(blocks, lambdas)
    svd = tuple(f[None] for f in blocks.control_svd)  # a stack of one
    return _augment(svd, blocks.x1[None], blocks.x0[None], g[None, None], lambdas[None])[0, 0]


def _augment(svd, x1, x0, anchors, lambdas):
    """:func:`augment_path` of R designs of one shape (``svd`` as from
    :func:`_svd_stack`, ``x1`` R x T0, ``x0`` R x N0 x T0), each with A
    anchors (R x A x N0) and L penalties (R x L, positive below full column
    rank): R x A x N0 x L. Each product is the lone call's, per design and
    anchor, so the weights are the lone calls' bit for bit where the designs
    share their rank (padding a lower one moves them by round-off only)."""
    u, d, v, _ = svd
    n0 = x0.shape[-2]
    gaps = x1[:, None, :, None] - x0.swapaxes(1, 2)[:, None] @ anchors[..., None]
    rotated = v.swapaxes(1, 2)[:, None] @ gaps  # R x A x m x 1: V'r
    scale = np.sqrt(n0) * d[:, :, None] / (n0 * d[:, :, None] ** 2 + lambdas[:, None])
    adj = u[:, None] @ (scale[:, None] * rotated)
    adj -= adj.mean(axis=-2, keepdims=True)  # zero-sum in exact arithmetic; strip round-off
    return anchors[..., None] + adj


def _leave_one_predictions(anchors, post, held_out, design=None, lambdas=None):
    """Every leave-one-period-out fold's predictions on R designs of one
    shape, R x T0 x L x (P + 1): fold t weighs the ``post`` block (R x N0 x
    P) then column t of ``held_out`` (R x N0 x T0) by column t of
    ``anchors`` (R x N0 x T0). Given the designs' ``(x1, x0, svd)``, ``svd``
    as from :func:`_svd_stack`, it adds each fold's ridge adjustment at the
    ``lambdas`` (R x L) to its residual with the held-out entry zeroed;
    without them L = 1."""
    held = np.einsum("rit,rit->rt", anchors, held_out)
    base = np.concatenate([anchors.swapaxes(1, 2) @ post, held[..., None]], axis=-1)[:, :, None]
    if design is None:
        return base
    x1, x0, (u, d, v, rank) = design
    t0 = x0.shape[-1]
    residuals = x1[:, :, None] - x0.swapaxes(1, 2) @ anchors
    residuals[:, range(t0), range(t0)] = 0.0
    return base + _fold_adjustments(u, d, v, rank == t0, residuals, post, held_out, lambdas)


def _fold_adjustments(u, d, v, full, residuals, post, held_out, lambdas):
    """Every leave-one-period-out fold's ridge adjustment on R designs of
    one shape, from one SVD of each: ``u``, ``d`` and ``v`` as from
    :func:`_svd_stack`, design r being the column-centred C = sqrt(N0) U
    diag(d) V' (N0 x T0), and ``full`` the R-mask of designs of full
    column rank. Fold t's design is C without column t, and column t of a
    design's T0 x T0 ``residuals`` is its residual r_t: x1 - x0' g_t on
    the kept periods, 0 in row t. Deleting column t takes c_t c_t' off
    C C' + lam I, so the bordered-inverse identity gives fold t's
    adjustment C_t (C_t'C_t + lam I)^{-1} r_t as sqrt(N0) U (d z_t),

        z_t = s V'r_t + (s V_t) q_t / delta_t,    s = 1 / (N0 d^2 + lam),
        q_t = V_t . (N0 d^2 s V'r_t),   delta_t = lam V_t . (s V_t) + 1 - |V_t|^2,

    with V_t row t of V. When C has full column rank, V_t . V'r_t = r_t[t]
    = 0 and |V_t| = 1, so lam cancels from the ratio and
    q_t / delta_t = -V_t . (s V'r_t) / V_t . (s V_t); that form is used
    there, and lam = 0 requires it.

    Returns R x T0 x L x (P + 1): fold t's adjustment at each ``lambdas``
    (R x L, positive below full column rank) times the ``post`` block (R x
    N0 x P) then column t of ``held_out`` (R x N0 x T0). For outcome
    coordinates c_j that is sum_j s_j (V'r_t)_j c_j + (q_t / delta_t) sum_j
    s_j V_tj c_j, matrix products with the L x m factors s, so beside the
    result the extra memory per design is O(m (T0 + L P) + L T0).
    """
    n0, n_post = u.shape[-2], post.shape[-1]
    n0d2 = n0 * d**2
    s = 1.0 / (n0d2[:, None, :] + lambdas[:, :, None])  # R x L x m
    vt = v.swapaxes(-1, -2)  # R x m x T0
    v_sq = vt**2
    rotated = vt @ residuals  # column t: V'r_t
    at_full = full[:, None, None]
    # q_t and delta_t; at full column rank -V_t . (s V'r_t) and V_t . (s V_t)
    q = s @ (np.where(at_full, -1.0, n0d2[:, :, None]) * (vt * rotated))
    delta = np.where(at_full, 1.0, lambdas[:, :, None]) * (s @ v_sq)
    delta += np.where(at_full, 0.0, 1.0 - v_sq.sum(axis=1)[:, None, :])
    ratio = q / delta  # R x L x T0
    outcomes = np.concatenate([post, held_out], axis=-1)
    # adjustments sum to zero, so centring the outcomes only strips round-off
    outcomes = outcomes - outcomes.mean(axis=-2, keepdims=True)
    coords = (np.sqrt(n0) * d)[:, :, None] * (u.swapaxes(-1, -2) @ outcomes)
    shared, own = coords[..., :n_post], coords[..., n_post:]
    scaled = s[..., None] * shared[:, None]  # R x L x m x P
    post = rotated.swapaxes(-1, -2)[:, None] @ scaled + ratio[..., None] * (v[:, None] @ scaled)
    held = s @ (rotated * own) + ratio * (s @ (vt * own))
    return np.concatenate([post, held[..., None]], axis=-1).swapaxes(1, 2)


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
    if not 0 < lam < math.inf:
        raise ConfigError(f"lambda must be finite and positive, got {lam}")
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
    svd = blocks.control_svd
    g = weight_values(scm_w)
    lam_scaled = lam / blocks.n_donors
    aug = augment_weights(scm_w, blocks, lam)
    direct = float(np.linalg.norm(blocks.x1 - blocks.x0.T @ aug.values))
    r = blocks.x1 - blocks.x0.T @ g
    rt = svd.v.T @ r
    perp = r - svd.v @ rt
    factors = lam_scaled / (svd.d**2 + lam_scaled) if lam_scaled > 0 else np.zeros_like(svd.d)
    via = float(np.sqrt(np.sum((factors * rt) ** 2) + perp @ perp))
    d_eff = svd.d[-1] if (svd.rank == blocks.t0 and svd.rank > 0) else 0.0
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
    svd = blocks.control_svd
    g = weight_values(scm_w)
    lam_scaled = lam / blocks.n_donors
    aug = augment_weights(scm_w, blocks, lam)
    rt = svd.v.T @ (blocks.x1 - blocks.x0.T @ g)
    factors = svd.d / (svd.d**2 + lam_scaled)
    bound = float(
        np.linalg.norm(g) + np.linalg.norm(factors * rt) / np.sqrt(blocks.n_donors)
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
    # post period k's difference from pre period t, n_post x T0
    lags = (blocks.y1_post[:, None] - blocks.x1) - g @ (blocks.y0_post.T[:, :, None] - blocks.x0)
    return level, lags.mean(axis=1)


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
    bad = lambda_grid[~((lambda_grid > 0) & (lambda_grid < math.inf))]
    if bad.size:
        raise ConfigError(f"lambda must be finite and positive, got {bad[0]}")
    bad = sigma_grid[~((sigma_grid >= 0) & (sigma_grid < math.inf))]
    if bad.size:
        raise ConfigError(f"sigma must be finite and nonnegative, got {bad[0]}")
    svd = blocks.control_svd
    g = weight_values(scm_w)
    rt = svd.v.T @ (blocks.x1 - blocks.x0.T @ g)
    scale = BOUND_FACTORS * BOUND_M**2 / np.sqrt(blocks.t0)
    scm_term = float(scale * 2.0 * np.sqrt(np.log(2.0 * blocks.n_donors)))
    n_lam, n_sig = lambda_grid.shape[0], sigma_grid.shape[0]
    imb = np.empty(n_lam)
    excess = np.empty((n_lam, n_sig))
    for li, lam in enumerate(lambda_grid):
        lam_scaled = lam / blocks.n_donors
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
