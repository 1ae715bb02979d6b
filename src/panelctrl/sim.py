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

The Monte Carlo harness runs its replications in stacks. Each seed is
drawn once, into one R x N x T outcome array, whose blocks and de-meaned
blocks are formed over the stack, and the stack finishes in one pass of the
stacked forms of the lone steps, each owned by its estimator module: the
lockstep SCM passes (cold, then the leave-one CV folds), one batched SVD,
the fold predictions, CV choices and ridge augmentations, the
counterfactuals and the imbalance. A replication that leaves the pass is
checked as the :class:`PanelData` of its own row and finishes alone, by the
estimators' own calls.
"""

from __future__ import annotations

import logging
import math
from dataclasses import astuple, dataclass, field
from importlib import resources
from typing import NamedTuple

import numpy as np

from .errors import ConfigError
from .estimators import (
    EstimatorSpec,
    _check_fold_count,
    _counterfactual,
    design_and_anchor,
    estimate_on_blocks,
    fold_predictions,
)
from .panel import PanelData, center_pre, readonly_array, split_and_center, subtract_unit_means
from .ridge import _augment, _exact_sum_to_one, _leave_one_predictions, _svd_stack
from .scm import _cold_stack, _leave_one_stack, _sums_to_one, imbalance
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
    split of periods outside the integers 2 <= t0 < t, params of another
    family, or more periods than the family's fixture provides."""
    if not (isinstance(n, (int, np.integer)) and n >= 3):
        raise ConfigError(f"need at least 3 units, got n={n!r}")
    for name, value in (("t", t), ("t0", t0)):
        if not isinstance(value, (int, np.integer)):
            raise ConfigError(f"{name} must be an integer, got {name}={value!r}")
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
    return _panel(*_draw(family, params, n, t, t0, seed, _loadings(family, params)), t0)


def _panel(outcomes, treated, t0):
    """The :class:`PanelData` of one draw, ``outcomes`` (n x t) with treated
    row ``treated``: the check that refuses a draw that is not finite."""
    n, t = outcomes.shape
    return PanelData(
        outcomes=outcomes,
        unit_ids=tuple(f"u{i:03d}" for i in range(n)),
        time_ids=tuple(range(1, t + 1)),
        treated_index=int(treated),
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
    index r of each array, named as in :class:`PanelBlocks`: ``x1`` (R x
    T0), ``x0`` (R x N0 x T0), ``y0_post`` (R x N0 x T1) and ``y1_post``
    (R x T1)."""

    x1: np.ndarray
    x0: np.ndarray
    y0_post: np.ndarray
    y1_post: np.ndarray


def _stack_blocks(outcomes, treated, t0):
    """The blocks and de-meaned blocks (two :class:`_Blocks`) of R drawn
    panels, ``outcomes`` (R x N x T) with treated rows ``treated``, by the
    helpers of :func:`split_and_center` and :func:`demean_rows` taken over
    the stack, so each replication's arrays are its lone blocks' bit for
    bit. A draw that is not finite, or that overflows, leaves values that
    are not finite and raises no warning."""
    n_reps, n, _ = outcomes.shape
    reps = np.arange(n_reps)
    donors = np.arange(n - 1) + (np.arange(n - 1) >= treated[:, None])
    pre, post = outcomes[..., :t0], outcomes[..., t0:]
    # indexed by arrays, every block is a C-contiguous copy, laid out as a
    # PanelBlocks' arrays are: the finish's products round by the layout
    with np.errstate(over="ignore", invalid="ignore"):
        blocks = _Blocks(
            *center_pre(pre[reps, treated], pre[reps[:, None], donors]),
            post[reps[:, None], donors], post[reps, treated],
        )
        x1, x0, y0_post, y1_post = subtract_unit_means(*blocks)
        demeaned = _Blocks(*center_pre(x1, x0), y0_post, y1_post)
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
    rep_log: tuple = ()

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
    ``seeds``: the estimates of ``_BANK`` at ``estimand_period`` and the SCM
    fit's imbalance or, for a dropped replication, only its exception, as
    ``ExceptionClass: message``. Each seed is drawn once (:func:`_draw_stack`);
    a replication that the stack's one pass (:func:`_finish_stack`) leaves
    is checked as the panel of its own row (:func:`_panel`) and finishes
    alone from the start (:func:`_finish_alone`)."""
    outcomes, treated, results = _draw_stack(family, params, n, t, t0, seeds)
    rows = _finish_stack(*_stack_blocks(outcomes, treated, t0), lam, estimand_period)
    for r, row in enumerate(rows):
        if row is not None:
            results[r] = (dict(zip(_BANK, row[:-1])), row[-1], "")
        elif results[r] is None:
            try:
                blocks = split_and_center(_panel(outcomes[r], treated[r], t0))
                results[r] = (*_finish_alone(blocks, lam, estimand_period), "")
            except Exception as exc:  # noqa: BLE001 - dropped reps are counted, never averaged
                results[r] = _dropped(exc)
    return results


def _draw_stack(family, params, n, t, t0, seeds):
    """Each seed's draw (:func:`_draw`), once: the R x n x t outcomes, the R
    treated rows and a result per seed, dropped where the draw raised (as
    :func:`draw_panel` raises it, its outcomes left NaN), None elsewhere."""
    outcomes, treated = np.full((len(seeds), n, t), np.nan), np.zeros(len(seeds), dtype=int)
    results, loadings = [None] * len(seeds), _loadings(family, params)
    for r, seed in enumerate(seeds):
        try:
            outcomes[r], treated[r] = _draw(family, params, n, t, t0, seed, loadings)
        except Exception as exc:  # noqa: BLE001 - dropped reps are counted, never averaged
            results[r] = _dropped(exc)
    return outcomes, treated, results


def _dropped(exc):
    logger.warning("replication dropped: %s", exc)
    return None, None, f"{type(exc).__name__}: {exc}"


def _finish_alone(blocks, lam, estimand_period):
    """One replication's estimates and SCM imbalance by the lone calls: the
    full-sample SCM solve, the penalty grid, the leave-one fold pass, the
    penalty choice and the estimates of ``_BANK`` in order. One SCM
    solution is the scm entry, the ridge_ascm anchor and the start of every
    CV fold."""
    ascm = EstimatorSpec()  # ridge ASCM, whose penalty is cross-validated
    shared = design_and_anchor(blocks, ascm)
    if isinstance(lam, str):
        grid = default_lambda_grid(blocks, size=_GRID_SIZE)
        folds = fold_predictions(blocks, ascm, lambdas=grid, fit=shared)
        lam = select_lambda(cv_from_folds(grid, folds), _LAMBDA_RULES[lam])
    estimates = {}
    for name, method in _BANK.items():
        fit = shared if method in ("scm", "ridge_ascm") else None
        est = estimate_on_blocks(blocks, EstimatorSpec(method=method, lam=lam), fit=fit)
        estimates[name] = float(est.att[estimand_period])
    return estimates, imbalance(blocks, shared.scm)


def _finish_stack(blocks, demeaned, lam, estimand_period):
    """The steps of :func:`_finish_alone` for R replications in one pass, by
    the stacked forms of its lone calls, on their blocks and de-meaned blocks
    (:class:`_Blocks`): a lockstep pass over every full-sample and de-meaned
    SCM problem, cold, one over every leave-one fold under a cross-validated
    ``lam``, each warm from its full solution, then one batched SVD, the
    penalty grids, fold predictions, CV curves and choices, the two ridge
    augmentations, the counterfactuals and the SCM fit's imbalance. Each
    step takes the replications that the steps before it kept.

    Returns one row per replication, the five estimates then the imbalance,
    or None where it leaves the stack: its blocks are not all finite, a pass
    hands one of its problems back (one that overflows included), or a lone
    step would raise (a zero design under CV, lam = 0 without full column
    rank, weights off the sum-to-one check, or a value that is not finite).
    """
    n_reps, n0, t0 = blocks.x0.shape
    rows = [None] * n_reps
    kept = np.flatnonzero(np.logical_and.reduce(
        [np.isfinite(a).reshape(n_reps, -1).all(axis=1) for a in (*blocks, *demeaned)]
    ))
    if not kept.size:  # an empty stack has no lockstep pass
        return rows
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # such rows leave
        g, back = _cold_stack(
            np.stack([blocks.x0[kept], demeaned.x0[kept]], axis=1).reshape(-1, n0, t0),
            np.stack([blocks.x1[kept], demeaned.x1[kept]], axis=1).reshape(-1, t0),
        )
        solved = ~back.reshape(-1, 2).any(axis=1)
        # each replication's full and de-meaned solutions, C-ordered: products round by layout
        kept, cold = kept[solved], np.ascontiguousarray(g.T.reshape(-1, 2, n0)[solved])
        if not kept.size:
            return rows
        if isinstance(lam, str):
            folds, back = _leave_one_stack(blocks.x0[kept], blocks.x1[kept], cold[:, 0])
            solved = ~back.any(axis=1)
            kept, cold, folds = kept[solved], cold[solved], folds[solved]
        blocks, demeaned = (_Blocks(*(a[kept] for a in b)) for b in (blocks, demeaned))
        x1, x0 = blocks.x1, blocks.x0
        _, d, _, rank = svd = _svd_stack(x0)
        if isinstance(lam, str):
            ok = rank > 0
            grids = _grids(d[:, 0] ** 2 if d.shape[1] else np.zeros(kept.size), _GRID_SIZE)
            held = _leave_one_predictions(folds, x0[:, :, :0], x0, (x1, x0, svd), grids)
            best, one_se = _cv_curves(x1, held[..., 0])[2:]
            lams = grids[np.arange(kept.size), best if _LAMBDA_RULES[lam] == "min" else one_se]
        else:
            ok = (rank == t0) | (lam > 0)
            lams = np.full(kept.size, float(lam))
        # ridge and ridge_ascm: the uniform and the SCM anchor, each augmented
        uniform = np.full((kept.size, n0), 1.0 / n0)
        anchors = np.stack([uniform, cold[:, 0]], axis=1)
        ridge = _augment(svd, x1, x0, anchors, lams[:, None])[..., 0]
        for r, a in np.ndindex(ridge.shape[:2]):  # as augment_weights
            try:
                ridge[r, a] = _exact_sum_to_one(ridge[r, a])
                ok[r] &= _sums_to_one(ridge[r, a])
            except (ValueError, OverflowError):  # inf - inf, or too large to sum
                ok[r] = False
        # the bank in report order: scm, ridge and ridge_ascm weigh the
        # blocks, fixed_effects and demeaned_scm the de-meaned blocks
        plain = np.stack([cold[:, 0], ridge[:, 0], ridge[:, 1]])[..., None]
        dm = np.stack([uniform, cold[:, 1]])[..., None]
        counterfactuals = np.concatenate(
            [_counterfactual(blocks, blocks, plain), _counterfactual(blocks, demeaned, dm)]
        )
        att = blocks.y1_post - counterfactuals[..., 0, :]
        finished = np.column_stack([*att[..., estimand_period], imbalance(blocks, cold[:, 0])])
    ok &= np.isfinite(finished).all(axis=1)
    for r, row, good in zip(kept, finished, ok):
        if good:
            rows[r] = row.tolist()
    return rows


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
):
    """Replicate draw-and-estimate and aggregate bias / RMSE per estimator.

    The estimators are those of the simulation study, in report order:
    ``scm`` (the normalization baseline), ``ridge``, ``ridge_ascm``,
    ``fixed_effects`` and ``demeaned_scm``. ``lam`` is the penalty of the
    two ridge entries: a finite nonnegative number, or "cv-min" / "cv-1se"
    to cross-validate ridge ASCM per replication by that rule and give both
    entries its penalty. In a replication one SCM solve is the ``scm``
    entry, the ``ridge_ascm`` anchor and the start of every CV fold.

    The replications run in stacks of ``_STACK``. Each seed is drawn once,
    into one outcome array, and the stack finishes in one pass
    (:func:`_finish_stack`): a lockstep pass solves every full-sample and
    de-meaned SCM problem, cold from the best vertex as :func:`scm.solve_scm`
    does, another every leave-one CV fold, warm from its full solution, and
    the other steps are the stacked forms of the lone ones. A replication
    that leaves the pass (its blocks not all finite, a problem handed back,
    or a step that would raise alone) is checked as the panel of its own row
    and finishes by the lone calls from the start, so it reports exactly
    what it would alone and drops with the same error; a replication
    finished in the stack reports the same up to round-off. Before any
    draw, a cross-validated ``lam`` needs ``t0`` >= 3 and ``seed`` must suit
    ``np.random.SeedSequence``.

    Under the sharp null the per-replication true effect is zero, so bias
    equals the mean estimate, taken at the final post period for the factor
    and fixed-effects families and the first for AR. A replication in which
    any estimator fails is dropped from every aggregate (and counted).
    Per-replication seeds come from spawning one seed sequence, so results
    do not depend on execution order; aggregation uses compensated
    summation. The report's ``rep_log`` holds each replication's estimates
    in report order and SCM fit, or its error text; no file is written.
    """
    if not (isinstance(replications, (int, np.integer)) and replications >= 1):
        raise ConfigError(f"need at least 1 replication, got {replications!r}")
    try:
        root = np.random.SeedSequence(seed)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"seed must be a nonnegative integer, got {seed!r}") from exc
    if lam is None or (isinstance(lam, str) and lam not in _LAMBDA_RULES):
        raise ConfigError(f"lam must be a number, 'cv-min' or 'cv-1se', got {lam!r}")
    if not isinstance(lam, str):
        EstimatorSpec(lam=lam)  # refuses a negative or non-finite penalty
    _check_design(family, params, n, t, t0)
    if isinstance(lam, str):
        _check_fold_count(t0)
    estimand_period = (t - t0 - 1) if family in ("factor", "fixed-effects") else 0

    seeds = root.spawn(replications)
    results = []
    for first in range(0, replications, _STACK):
        results += _replication_stack(
            family, params, n, t, t0, seeds[first : first + _STACK], lam, estimand_period
        )

    kept = [(est, fit) for est, fit, _ in results if est is not None]
    n_dropped = len(results) - len(kept)
    if not kept:
        raise ConfigError("every replication failed; nothing to aggregate")

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
        rep_log=tuple(
            error if est is None else (*(est[name] for name in names), fit)
            for est, fit, error in results
        ),
    )
