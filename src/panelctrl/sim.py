"""Calibrated data-generating processes and the Monte Carlo harness.

Three DGP families are provided: a linear factor model (unit effects,
time effects, three latent factors), a pure two-way fixed-effects model,
and an AR(3) model. The factor trajectories and time effects ship as a
versioned CSV fixture with synthetic smooth shapes (three factors; the
original calibration targets are not numerically recoverable, so
evaluation asserts relative rather than absolute numbers). A sharp null
of zero treatment effect holds in every family: the designated treated
unit's outcomes are untouched, so each replication's estimate is pure
error.

The Monte Carlo harness runs its replications in stacks, in arrays from
the draw on: each seed's draws go into one R x N x T outcome array, whose
blocks and de-meaned blocks are formed over the stack; the SCM problems of
the stack's replications (full-sample and de-meaned designs, then the
leave-one CV folds) go through one lockstep pass each
(:func:`scm.solve_leave_one`'s kernel), and the stack finishes in arrays:
one batched SVD, every design's fold predictions at every penalty, the CV
curves and penalty choices, then the estimates as stacked products. A
replication whose blocks are not all finite, with a problem handed back, or
with a step that would raise, is drawn again as a :class:`PanelData` and
finishes alone through the estimators' own calls.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import astuple, dataclass, field
from importlib import resources
from typing import NamedTuple

import numpy as np

from .errors import ConfigError
from .estimators import (
    AnchorFit,
    EstimatorSpec,
    _check_fold_count,
    _fold_predictions,
    design_and_anchor,
    estimate_on_blocks,
)
from .panel import PanelData, demean_rows, readonly_array, split_and_center
from .ridge import _exact_sum_to_one, _fold_adjustments, _svd_stack
from .scm import DonorWeights, _cold_stack, _leave_one_stack, imbalance
from .selection import _cv_curves, _grids, cv_from_folds, default_lambda_grid, select_lambda

logger = logging.getLogger(__name__)

__all__ = [
    "FactorDgp",
    "FixedEffectsDgp",
    "Ar3Dgp",
    "McReport",
    "draw_panel",
    "run_monte_carlo",
    "default_dgp",
    "load_factor_fixture",
]


def load_factor_fixture():
    """Time effects and factor paths from the packaged fixture CSV.

    Returns (nu, mu) with nu a T-vector and mu a T x 3 matrix.
    """
    ref = resources.files("panelctrl") / "_fixtures" / "factors.csv"
    with ref.open("r") as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    cols = {name: i for i, name in enumerate(header)}
    nu = data[:, cols["nu"]]
    mu = data[:, [cols["mu1"], cols["mu2"], cols["mu3"]]]
    return nu, mu


def _check_noise(params):
    """Refuse a NaN, infinite or negative noise scale."""
    for name in ("sigma_eps", "sigma_multiplier"):
        value = getattr(params, name)
        if not 0 <= value < math.inf:
            raise ConfigError(f"{name} must be finite and nonnegative, got {value}")


@dataclass(frozen=True)
class FactorDgp:
    """Linear factor model Y_it = alpha_i + nu_t + phi_i . mu_t + eps_it.

    ``theta`` scales the selection score (standardized unit effect plus
    loading sum); ``sigma_multiplier`` supports the high-noise variant.
    """

    mu: np.ndarray
    nu: np.ndarray
    alpha_mean: float = 0.0
    alpha_sd: float = 1.0
    phi_cov: np.ndarray = field(
        default_factory=lambda: np.array(
            [[0.25, 0.02, 0.01], [0.02, 0.05, 0.01], [0.01, 0.01, 0.05]]
        )
    )
    sigma_eps: float = 0.05
    sigma_multiplier: float = 1.0
    theta: float = 0.5

    def __post_init__(self):
        mu, nu = readonly_array(self.mu), readonly_array(self.nu)
        phi_cov = readonly_array(self.phi_cov)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "phi_cov", phi_cov)
        if mu.ndim != 2 or mu.shape[1] < 1:
            raise ConfigError("mu must be a T x J matrix with J >= 1")
        if nu.shape != (mu.shape[0],):
            raise ConfigError("nu length must match mu rows")
        j = mu.shape[1]
        if phi_cov.shape != (j, j):
            raise ConfigError("phi_cov must be J x J")
        if not np.allclose(phi_cov, phi_cov.T, atol=1e-12):
            raise ConfigError("phi_cov must be symmetric")
        eigs = np.linalg.eigvalsh(phi_cov)
        if eigs.min() < -1e-10:
            raise ConfigError("phi_cov must be positive semidefinite")
        _check_noise(self)

    @property
    def n_factors(self):
        return self.mu.shape[1]

    @property
    def noise_sd(self):
        return self.sigma_eps * self.sigma_multiplier


@dataclass(frozen=True)
class FixedEffectsDgp:
    """Two-way fixed effects Y_it = alpha_i + nu_t + eps_it."""

    nu: np.ndarray
    alpha_mean: float = 0.0
    alpha_sd: float = 0.3
    sigma_eps: float = 0.05
    sigma_multiplier: float = 1.0
    theta: float = 1.5

    def __post_init__(self):
        object.__setattr__(self, "nu", readonly_array(self.nu))
        _check_noise(self)

    @property
    def noise_sd(self):
        return self.sigma_eps * self.sigma_multiplier


@dataclass(frozen=True)
class Ar3Dgp:
    """AR(3) outcomes Y_it = beta0 + sum_j beta_j Y_i,t-j + eps_it.

    Start-up uses a 200-period burn-in from zero initial conditions,
    discarded before the observation window. Non-stationary coefficient
    vectors are rejected.
    """

    beta0: float = 0.02
    betas: tuple = (0.7, 0.2, 0.05)
    sigma_eps: float = 0.02
    sigma_multiplier: float = 1.0
    theta: float = 2.5
    burn_in: int = 200

    def __post_init__(self):
        betas = tuple(float(b) for b in self.betas)
        object.__setattr__(self, "betas", betas)
        if len(betas) != 3:
            raise ConfigError("AR(3) needs exactly 3 lag coefficients")
        companion = np.zeros((3, 3))
        companion[0, :] = betas
        companion[1, 0] = 1.0
        companion[2, 1] = 1.0
        radius = float(np.abs(np.linalg.eigvals(companion)).max())
        if radius >= 1.0 - 1e-10:
            raise ConfigError(
                f"AR coefficients are non-stationary (companion spectral radius {radius:.4f})"
            )
        _check_noise(self)

    @property
    def noise_sd(self):
        return self.sigma_eps * self.sigma_multiplier


def default_dgp(family):
    """The calibrated default parameter set for a DGP family."""
    if family == "factor":
        nu, mu = load_factor_fixture()
        return FactorDgp(mu=mu, nu=nu)
    if family == "fixed-effects":
        nu, _ = load_factor_fixture()
        return FixedEffectsDgp(nu=nu)
    if family == "ar3":
        return Ar3Dgp()
    raise ConfigError(f"unknown DGP family {family!r}")


def _standardize(v):
    sd = v.std()
    if sd == 0:
        return np.zeros_like(v)
    return (v - v.mean()) / sd


def _pick_treated(rng, score, theta):
    probs = 1.0 / (1.0 + np.exp(-theta * score))
    probs = probs / probs.sum()
    return int(rng.choice(score.shape[0], p=probs))


_PARAMS = {"factor": FactorDgp, "fixed-effects": FixedEffectsDgp, "ar3": Ar3Dgp}


def _check_design(family, params, n, t, t0):
    """Refuse a design no replication could draw: fewer than 3 units, a
    split outside 2 <= t0 < t, params of another family, or more periods
    than the family's fixture provides."""
    if not (isinstance(n, (int, np.integer)) and n >= 3):
        raise ConfigError(f"need at least 3 units, got n={n!r}")
    if not 2 <= t0 < t:
        raise ConfigError(f"need 2 <= t0 < t, got t0={t0}, t={t}")
    if family not in _PARAMS:
        raise ConfigError(f"unknown DGP family {family!r}")
    if not isinstance(params, _PARAMS[family]):
        raise ConfigError(f"{family} family expects {_PARAMS[family].__name__} params")
    if family != "ar3" and t > params.nu.shape[0]:
        raise ConfigError(f"fixture provides {params.nu.shape[0]} periods, requested {t}")


def draw_panel(family, params, n, t, t0, seed):
    """Draw one panel from the named family under the sharp null.

    Selection into treatment follows an inverse-logit score in the unit
    heterogeneity (standardized to unit variance), normalized so exactly
    one unit is treated. The draws are :func:`_draw`'s, the one draw of
    the Monte Carlo stacks, here checked as a :class:`PanelData`.
    """
    _check_design(family, params, n, t, t0)
    outcomes, treated = _draw(family, params, n, t, t0, seed, _loadings(family, params))
    return PanelData(
        outcomes=outcomes,
        unit_ids=tuple(f"u{i:03d}" for i in range(n)),
        time_ids=tuple(range(1, t + 1)),
        treated_index=treated,
        t0=t0,
    )


def _loadings(family, params):
    """The factor family's u sqrt(s), from the SVD u s v' of ``phi_cov``: the
    matrix ``Generator.multivariate_normal(method="svd")`` turns standard
    normals into loadings with (None for the other families)."""
    if family != "factor":
        return None
    u, s, _ = np.linalg.svd(params.phi_cov)
    return u * np.sqrt(s)


def _draw(family, params, n, t, t0, seed, loadings):
    """The n x t outcomes and the treated row of the panel of ``seed``,
    unchecked, from one generator per seed. The factor loadings take the
    calls and arithmetic of ``Generator.multivariate_normal(method="svd")``
    after its own SVD and check: standard normals times ``loadings``
    (:func:`_loadings`), so they are its draws bit for bit."""
    rng = np.random.default_rng(seed)

    if family == "factor":
        mu = params.mu[:t]
        nu = params.nu[:t]
        alpha = rng.normal(params.alpha_mean, params.alpha_sd, size=n)
        k = params.n_factors
        phi = np.zeros(k) + rng.standard_normal((n, k)) @ loadings.T
        eps = rng.normal(0.0, params.noise_sd, size=(n, t))
        outcomes = alpha[:, None] + nu[None, :] + phi @ mu.T + eps
        score = _standardize(alpha) + _standardize(phi.sum(axis=1))
        treated = _pick_treated(rng, score, params.theta)
    elif family == "fixed-effects":
        nu = params.nu[:t]
        alpha = rng.normal(params.alpha_mean, params.alpha_sd, size=n)
        eps = rng.normal(0.0, params.noise_sd, size=(n, t))
        outcomes = alpha[:, None] + nu[None, :] + eps
        treated = _pick_treated(rng, _standardize(alpha), params.theta)
    else:
        total = params.burn_in + t
        eps = rng.normal(0.0, params.noise_sd, size=(n, total))
        path = np.zeros((n, total))
        b1, b2, b3 = params.betas
        for s in range(total):
            y1 = path[:, s - 1] if s >= 1 else 0.0
            y2 = path[:, s - 2] if s >= 2 else 0.0
            y3 = path[:, s - 3] if s >= 3 else 0.0
            path[:, s] = params.beta0 + b1 * y1 + b2 * y2 + b3 * y3 + eps[:, s]
        outcomes = path[:, params.burn_in :]
        recent = outcomes[:, max(t0 - 4, 0) : t0].sum(axis=1)
        treated = _pick_treated(rng, _standardize(recent), params.theta)
    return outcomes, treated


class _Blocks(NamedTuple):
    """The blocks of a stack of panels of one shape, replication r's at
    index r of each array, named as in :class:`PanelBlocks` (whose
    ``centering`` the stack does not use): ``x1`` (R x T0), ``x0`` (R x N0
    x T0), ``y0_post`` (R x N0 x T1) and ``y1_post`` (R x T1)."""

    x1: np.ndarray
    x0: np.ndarray
    y0_post: np.ndarray
    y1_post: np.ndarray

    def take(self, rows):
        """The stack of replications ``rows``, ascending indices."""
        if len(rows) == len(self.x1):
            return self
        return _Blocks(*(a[rows] for a in self))


def _centred(x1, x0, y0_post, y1_post):
    """Stacked blocks with their pre blocks centred on the donor column
    means, as :class:`PanelBlocks` centres them, and those means."""
    means = x0.mean(axis=1)
    return _Blocks(x1 - means, x0 - means[:, None], y0_post, y1_post), means


def _stack_blocks(outcomes, treated, t0):
    """The blocks and de-meaned blocks (two :class:`_Blocks`) of R drawn
    panels, ``outcomes`` (R x N x T) with treated rows ``treated``: the
    array operations of :func:`split_and_center` and :func:`demean_rows`,
    taken over the stack, so each replication's arrays are its lone blocks'
    bit for bit. A draw that is not finite, or that overflows, leaves
    values that are not finite and raises no warning."""
    n_reps, n, _ = outcomes.shape
    reps = np.arange(n_reps)
    donors = np.arange(n - 1) + (np.arange(n - 1) >= treated[:, None])
    pre, post = outcomes[..., :t0], outcomes[..., t0:]
    # indexed by arrays, every block is a C-contiguous copy, laid out as a
    # PanelBlocks' arrays are: the finish's products round by the layout
    with np.errstate(over="ignore", invalid="ignore"):
        blocks, means = _centred(
            pre[reps, treated], pre[reps[:, None], donors], post[reps[:, None], donors],
            post[reps, treated],
        )
        x1, x0 = blocks.x1 + means, blocks.x0 + means[:, None]  # the uncentred pre blocks
        m1, m0 = x1.mean(axis=1, keepdims=True), x0.mean(axis=2, keepdims=True)
        demeaned, _ = _centred(x1 - m1, x0 - m0, blocks.y0_post - m0, blocks.y1_post - m1)
    return blocks, demeaned


@dataclass(frozen=True)
class McEstimatorRow:
    """Aggregates for one estimator across replications."""

    name: str
    bias: float
    bias_se: float
    abs_bias_pct_of_scm: float
    rmse: float
    rmse_se: float
    rmse_pct_of_scm: float
    n_used: int
    n_dropped: int


@dataclass(frozen=True)
class McReport:
    """Monte Carlo summary normalized to the SCM baseline."""

    rows: tuple
    replications: int
    seed: int
    family: str
    estimand_period: int
    fit_quartiles: tuple = ()

    def row(self, name):
        for r in self.rows:
            if r.name == name:
                return r
        raise KeyError(name)

    def csv_rows(self):
        return [astuple(r) for r in self.rows]


# the simulation study's estimators, in report order, by method
_BANK = {
    "scm": "scm",
    "ridge": "ridge",
    "ridge_ascm": "ridge_ascm",
    "fixed_effects": "fixed_effects",
    "demeaned_scm": "demeaned",
}
_LAMBDA_RULES = {"cv-min": "min", "cv-1se": "one-se"}
_GRID_SIZE = 12  # penalties in each replication's CV grid


# replications drawn and solved together: a stack's arrays grow with it
_STACK = 20


def _replication_stack(family, params, n, t, t0, seeds, lam, estimand_period):
    """``(estimates, scm_fit, error)`` of the replication of each seed in
    ``seeds``, by the stages of :func:`run_monte_carlo`: the estimates of
    ``_BANK`` at ``estimand_period`` and the SCM fit's imbalance or, for a
    dropped replication, only its exception, as ``ExceptionClass: message``.
    A replication whose stacked blocks are not all finite, with a problem
    handed back, or one :func:`_finish_stack` leaves, is drawn again by
    :func:`draw_panel` and finishes alone (:func:`_finish_alone`)."""
    reps, blocks, demeaned, results = _draw_stack(family, params, n, t, t0, seeds)
    solved = {}  # replication -> its stacked full, de-meaned and fold solutions, or None
    if reps.size:
        stacked = _solve_stack(blocks, demeaned, lam)
        whole = [i for i, (full, dm, folds) in enumerate(stacked) if full is not None
                 and dm is not None and (folds is None or not folds[1].any())]
        if whole:
            finished = _finish_stack(
                blocks.take(whole),
                demeaned.take(whole),
                np.array([stacked[i][:2] for i in whole]),
                np.array([stacked[i][2][0] for i in whole]) if isinstance(lam, str) else None,
                lam,
                estimand_period,
            )
            for r, row in zip(reps[whole], finished):
                if row is not None:
                    results[r] = (dict(zip(_BANK, row[:-1])), row[-1], "")
        solved = dict(zip(reps.tolist(), stacked))
    for r, seed in enumerate(seeds):
        if results[r] is None:
            try:
                blocks = split_and_center(draw_panel(family, params, n, t, t0, seed))
                finish = _finish_alone(blocks, *solved.get(r, (None,) * 3), lam, estimand_period)
                results[r] = (*finish, "")
            except Exception as exc:  # noqa: BLE001 - dropped reps are counted, never averaged
                results[r] = _dropped(exc)
    return results


def _draw_stack(family, params, n, t, t0, seeds):
    """Each seed's draw (:func:`_draw`), written into one outcome array:
    the indices of the replications whose blocks and de-meaned blocks
    (:func:`_stack_blocks`) are all finite, those blocks, and a result per
    seed, dropped where the draw raised (as :func:`draw_panel` raises it)
    and None elsewhere."""
    outcomes, treated = np.zeros((len(seeds), n, t)), np.zeros(len(seeds), dtype=int)
    results, loadings = [None] * len(seeds), _loadings(family, params)
    for r, seed in enumerate(seeds):
        try:
            outcomes[r], treated[r] = _draw(family, params, n, t, t0, seed, loadings)
        except Exception as exc:  # noqa: BLE001 - dropped reps are counted, never averaged
            results[r] = _dropped(exc)
    blocks, demeaned = _stack_blocks(outcomes, treated, t0)
    finite = np.logical_and.reduce(
        [np.isfinite(a).reshape(len(seeds), -1).all(axis=1) for a in (*blocks, *demeaned)]
    )
    reps = np.flatnonzero(finite & np.array([res is None for res in results]))
    return reps, blocks.take(reps), demeaned.take(reps), results


def _solve_stack(blocks, demeaned, lam):
    """The lockstep SCM passes of a stack: one cold pass over every
    replication's full-sample and de-meaned designs, then, under a
    cross-validated ``lam``, one over the leave-one folds of every full
    design not handed back, each warm from its solution. Returns per
    replication its full and de-meaned solutions (None where handed back)
    and its fold solutions with their handed-back mask (None where not
    solved)."""
    n_reps, n0, t0 = blocks.x0.shape
    g, back = _cold_stack(
        np.stack([blocks.x0, demeaned.x0], axis=1).reshape(-1, n0, t0),
        np.stack([blocks.x1, demeaned.x1], axis=1).reshape(-1, t0),
    )
    cold = [
        [None if b else w for w, b in zip(*pair)]
        for pair in zip(g.T.reshape(n_reps, 2, n0), back.reshape(n_reps, 2))
    ]
    folds = [None] * n_reps
    ready = [i for i, (full, _) in enumerate(cold) if full is not None]
    if isinstance(lam, str) and ready:
        fulls = np.array([cold[i][0] for i in ready])
        stacked = _leave_one_stack(blocks.x0[ready], blocks.x1[ready], fulls)
        for i, fold in zip(ready, zip(*stacked)):
            folds[i] = fold
    return [(full, dm, fold) for (full, dm), fold in zip(cold, folds)]


def _dropped(exc):
    logger.warning("replication dropped: %s", exc)
    return None, None, f"{type(exc).__name__}: {exc}"


def _finish_alone(blocks, full, dm, stacked, lam, estimand_period):
    """One replication's estimates and SCM imbalance by the lone calls:
    the full-sample SCM solve (``full``, or solved here when None), the
    penalty grid, the leave-one fold pass (its lockstep solutions
    ``stacked``, as for :func:`estimators._fold_predictions`, or solved
    here), the penalty choice and the estimates of ``_BANK`` in order,
    demeaned_scm's from its solution ``dm`` on ``demean_rows(blocks)``
    (solved here when None). One SCM solution is the scm entry, the
    ridge_ascm anchor and the start of every CV fold."""
    ascm = EstimatorSpec()  # ridge ASCM, whose penalty is cross-validated
    shared = design_and_anchor(blocks, ascm) if full is None else _anchor_fit(blocks, full)
    if isinstance(lam, str):
        grid = default_lambda_grid(blocks, size=_GRID_SIZE)
        folds = _fold_predictions(blocks, ascm, None, grid, "leave-one", shared, stacked)
        lam = select_lambda(cv_from_folds(grid, folds), _LAMBDA_RULES[lam])
    estimates = {}
    for name, method in _BANK.items():
        fit = shared if method in ("scm", "ridge_ascm") else None
        if method == "demeaned" and dm is not None:
            fit = _anchor_fit(demean_rows(blocks), dm)
        est = estimate_on_blocks(blocks, EstimatorSpec(method=method, lam=lam), fit=fit)
        estimates[name] = float(est.att[estimand_period])
    return estimates, imbalance(blocks, shared.scm)


def _anchor_fit(design, values):
    """The :class:`AnchorFit` of an SCM solution on its design."""
    weights = DonorWeights(values=values)
    return AnchorFit(design, weights, weights)


def _finish_stack(blocks, demeaned, cold, folds, lam, estimand_period):
    """The steps of :func:`_finish_alone` for R replications, as array
    products over the stack: ``blocks`` and ``demeaned`` (:class:`_Blocks`)
    hold their blocks and de-meaned blocks, ``cold`` (R x 2 x N0) their SCM
    solutions and ``folds`` (R x N0 x T0) the leave-one fold solutions
    (None under a fixed ``lam``).

    Returns one row per replication, the five estimates then the imbalance,
    or None where a lone step would raise (a zero design under CV, lam = 0
    without full column rank, weights off the sum-to-one check, or a value
    that is not finite): that replication finishes alone.
    """
    x0, x1 = blocks.x0, blocks.x1
    n_reps, n0, t0 = x0.shape
    u, d, v, rank = _svd_stack(x0)
    reps = np.arange(n_reps)
    with np.errstate(divide="ignore", invalid="ignore"):  # such rows finish alone
        if isinstance(lam, str):
            ok = rank > 0
            grids = _grids(d[:, 0] ** 2 if d.shape[1] else np.zeros(n_reps), _GRID_SIZE)
            held_out = np.einsum("rit,rit->rt", folds, x0)
            residuals = x1[:, :, None] - x0.swapaxes(1, 2) @ folds
            residuals[:, range(t0), range(t0)] = 0.0
            adjust = _fold_adjustments(
                u, d, v, rank == t0, residuals, x0[:, :, :0], x0, grids
            )
            best, one_se = _cv_curves(x1, held_out[:, :, None] + adjust[..., 0])[2:]
            lams = grids[reps, best if _LAMBDA_RULES[lam] == "min" else one_se]
        else:
            ok = (rank == t0) | (lam > 0)
            lams = np.full(n_reps, float(lam))
        # ridge and ridge_ascm: the uniform and the SCM anchor, each augmented.
        # Every product is matrix-vector, as in augment_path and AugEstimate,
        # so a replication's numbers are those of its lone calls
        anchors = np.stack([np.full((n_reps, n0), 1.0 / n0), cold[:, 0]], axis=1)
        gaps = x1[:, None, :, None] - x0.swapaxes(1, 2)[:, None] @ anchors[..., None]
        scale = np.sqrt(n0) * d / (n0 * d**2 + lams[:, None])
        rotated = v.swapaxes(1, 2)[:, None] @ gaps
        adj = (u[:, None] @ (scale[:, None, :, None] * rotated))[..., 0]
        adj -= adj.mean(axis=-1, keepdims=True)
        ridge = anchors + adj
        for r, w in zip(np.repeat(reps, 2), ridge.reshape(-1, n0)):  # as augment_weights
            try:
                w[:] = _exact_sum_to_one(w)
                ok[r] &= abs(math.fsum(w) - 1.0) <= 1e-10
            except (ValueError, OverflowError):  # inf - inf, or too large to sum
                ok[r] = False
        y0, y1 = blocks.y0_post[:, None], blocks.y1_post[:, None]
        dy0, dy1 = demeaned.y0_post[:, None], demeaned.y1_post[:, None]
        plain = np.concatenate([cold[:, :1], ridge], axis=1)  # scm, ridge, ridge_ascm
        dm = np.stack([anchors[:, 0], cold[:, 1]], axis=1)  # fixed_effects, demeaned_scm
        att_plain = y1 - (plain[:, :, None] @ y0)[:, :, 0]
        att_dm = y1 - (y1 - dy1 + (dm[:, :, None] @ dy0)[:, :, 0])
        scm_gap = gaps[:, 1]
        rows = np.column_stack([
            att_plain[..., estimand_period],
            att_dm[..., estimand_period],
            np.sqrt(scm_gap.swapaxes(1, 2) @ scm_gap)[:, 0, 0],
        ])
    ok &= np.isfinite(rows).all(axis=1)
    return [row.tolist() if good else None for row, good in zip(rows, ok)]


def run_monte_carlo(
    family,
    params,
    replications=200,
    seed=0,
    n=20,
    t=30,
    t0=25,
    lam="cv-min",
    stratify_by_fit=False,
    rep_log=None,
):
    """Replicate draw-and-estimate and aggregate bias / RMSE per estimator.

    The estimators are those of the simulation study, in report order:
    ``scm`` (the normalization baseline), ``ridge``, ``ridge_ascm``,
    ``fixed_effects`` and ``demeaned_scm``. ``lam`` is the penalty of the
    two ridge entries: a finite nonnegative number, or "cv-min" / "cv-1se"
    to cross-validate ridge ASCM per replication by that rule and give both
    entries its penalty. In a replication one SCM solve is the ``scm``
    entry, the ``ridge_ascm`` anchor and the start of every CV fold.

    The replications run in stacks of ``_STACK``, in four stages: every
    seed's draws go into one outcome array, from which the stack's blocks
    and de-meaned blocks are formed as arrays; one lockstep pass solves
    every full-sample and de-meaned SCM problem, cold from the best vertex
    as :func:`scm.solve_scm` does; under a cross-validated ``lam`` one more
    solves every leave-one fold, each warm from its replication's full
    solution; then the stack finishes in arrays, from one batched SVD of
    its designs: the penalty grids, every fold prediction at every penalty,
    the CV curves and each replication's penalty, the two ridge
    augmentations, and the five estimates at the estimand period with the
    SCM fit's imbalance. A replication whose blocks are not all finite, with
    a problem a pass hands back, or with a step that would raise alone, is
    drawn again and finishes by the lone calls, at the step that uses them,
    so every replication reports what it would alone, up to round-off, and
    drops with the same error. A cross-validated ``lam`` needs ``t0`` >= 3,
    and is refused before any draw otherwise.

    Under the sharp null the per-replication true effect is zero, so bias
    equals the mean estimate, taken at the final post period for the factor
    and fixed-effects families and the first for AR. A replication in which
    any estimator fails is dropped from every aggregate (and counted).
    Per-replication seeds come from spawning one seed sequence, so results
    do not depend on execution order; aggregation uses compensated
    summation.
    """
    if not (isinstance(replications, (int, np.integer)) and replications >= 1):
        raise ConfigError(f"need at least 1 replication, got {replications!r}")
    if isinstance(lam, str):
        if lam not in _LAMBDA_RULES:
            raise ConfigError(f"lam must be a number, 'cv-min' or 'cv-1se', got {lam!r}")
    else:
        EstimatorSpec(lam=lam)  # refuses a negative or non-finite penalty
    _check_design(family, params, n, t, t0)
    if isinstance(lam, str):
        _check_fold_count(t0)
    estimand_period = (t - t0 - 1) if family in ("factor", "fixed-effects") else 0

    seeds = np.random.SeedSequence(seed).spawn(replications)
    results = []
    for first in range(0, replications, _STACK):
        results += _replication_stack(
            family, params, n, t, t0, seeds[first : first + _STACK], lam, estimand_period
        )

    kept = [(est, fit) for est, fit, _ in results if est is not None]
    n_dropped = len(results) - len(kept)
    if not kept:
        raise ConfigError("every replication failed; nothing to aggregate")
    if rep_log is not None:
        _write_rep_log(rep_log, results, list(_BANK))

    names = list(_BANK)
    taus = {name: [est[name] for est, _ in kept] for name in names}
    fits = np.array([fit for _, fit in kept])

    def aggregate(values):
        arr = np.asarray(values)
        r = arr.shape[0]
        bias = math.fsum(arr) / r
        rmse = math.sqrt(math.fsum(arr**2) / r)
        bias_se = float(arr.std(ddof=1) / np.sqrt(r)) if r > 1 else 0.0
        if rmse > 0 and r > 1:
            rmse_se = float(np.std(arr**2, ddof=1) / np.sqrt(r) / (2 * rmse))
        else:
            rmse_se = 0.0
        return bias, bias_se, rmse, rmse_se

    scm_bias, _, scm_rmse, _ = aggregate(taus["scm"])
    rows = []
    for name in names:
        bias, bias_se, rmse, rmse_se = aggregate(taus[name])
        rows.append(
            McEstimatorRow(
                name=name,
                bias=bias,
                bias_se=bias_se,
                abs_bias_pct_of_scm=100.0 * abs(bias) / abs(scm_bias)
                if scm_bias != 0
                else float("nan"),
                rmse=rmse,
                rmse_se=rmse_se,
                rmse_pct_of_scm=100.0 * rmse / scm_rmse if scm_rmse != 0 else float("nan"),
                n_used=len(taus[name]),
                n_dropped=n_dropped,
            )
        )

    quartile_rows = ()
    if stratify_by_fit:
        edges = np.quantile(fits, [0.25, 0.5, 0.75])
        labels = np.digitize(fits, edges)  # 0..3, exhaustive and disjoint
        q_out = []
        for q in range(4):
            mask = labels == q
            if not mask.any():
                continue
            for name in names:
                vals = np.asarray(taus[name])[mask]
                bias, bias_se, rmse, rmse_se = aggregate(vals)
                q_out.append((q + 1, name, bias, bias_se, rmse, rmse_se, int(mask.sum())))
        quartile_rows = tuple(q_out)

    return McReport(
        rows=tuple(rows),
        replications=replications,
        seed=seed,
        family=family,
        estimand_period=estimand_period,
        fit_quartiles=quartile_rows,
    )


def _write_rep_log(path, results, names):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["replication", "status"] + names + ["scm_fit", "error"])
        for r, (est, fit, error) in enumerate(results):
            if est is None:
                writer.writerow([r, "dropped"] + [""] * (len(names) + 1) + [error])
            else:
                writer.writerow(
                    [r, "ok"]
                    + [format(est[n], ".17g") for n in names]
                    + [format(fit, ".17g"), ""]
                )
