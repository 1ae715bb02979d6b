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

The Monte Carlo harness works on stacks of replications, in arrays. A
stack's draw makes only the generator calls per seed; the DGP arithmetic
and the selection probabilities run once over the R x N x T stack, each
row bit for bit its seed's lone draw, which is the one-seed stack. The
blocks and de-meaned blocks are formed over the stack, and it finishes in
one pass of the stacked forms of the lone steps, each owned by its
estimator module: the lockstep SCM passes (cold, then the leave-one CV
folds), one batched SVD, the fold predictions, CV choices and ridge
augmentations, the counterfactuals and the imbalance. A replication that
leaves the pass is checked as the :class:`PanelData` of its own row and
finishes alone, by the estimators' own calls. One call aggregates the
estimates of every estimator.
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


def _check_params(params):
    """Refuse parameters no replication can draw: a scale that is negative or
    not finite (the noise's product too), a location or strength not finite."""
    for name in ("sigma_eps", "sigma_multiplier", "alpha_sd"):
        value = getattr(params, name, 0.0)
        if not 0 <= value < math.inf:
            raise ConfigError(f"{name} must be finite and nonnegative, got {value}")
    if params.noise_sd == math.inf:
        raise ConfigError("sigma_eps * sigma_multiplier overflows")
    for name in ("theta", "alpha_mean", "beta0"):
        value = getattr(params, name, 0.0)
        if not -math.inf < value < math.inf:
            raise ConfigError(f"{name} must be finite, got {value}")


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
        _check_params(self)

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
        _check_params(self)

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
        if not (isinstance(self.burn_in, (int, np.integer)) and self.burn_in >= 0):
            raise ConfigError(f"burn_in must be a nonnegative integer, got {self.burn_in!r}")
        _check_params(self)

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
    """Each row of ``v`` less its mean, over its standard deviation (zero
    where that is zero)."""
    sd = v.std(axis=-1, keepdims=True)
    return np.where(sd == 0, 0.0, (v - v.mean(axis=-1, keepdims=True)) / sd)


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


def _seed_sequence(seed):
    """``np.random.SeedSequence(seed)``, or the ConfigError of a seed that
    cannot be one."""
    try:
        return np.random.SeedSequence(seed)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"seed must be a nonnegative integer, got {seed!r}") from exc


def draw_panel(family, params, n, t, t0, seed):
    """Draw one panel from the named family under the sharp null.

    Selection into treatment follows an inverse-logit score in the unit
    heterogeneity (standardized to unit variance), normalized so exactly
    one unit is treated. ``seed`` is what ``np.random.SeedSequence`` takes,
    or one. The draw is the one-seed stack of :func:`_draw_stack`, the
    Monte Carlo's draw, checked as a :class:`PanelData`, so a draw that is
    not finite raises PanelData's error.
    """
    _check_design(family, params, n, t, t0)
    seed = seed if isinstance(seed, np.random.SeedSequence) else _seed_sequence(seed)
    outcomes, treated, (error,) = _draw_stack(family, params, n, t, t0, [seed])
    if error is not None:
        raise error
    return _panel(outcomes[0], treated[0], t0)


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


def _generate(family, params, n, t, seed):
    """The generator of ``seed`` and its draws before the pick of the treated
    unit, in order: the unit effects (not for AR(3)), standard normals for
    the factor loadings (factor only), then the noise, over the burn-in too
    for AR(3)."""
    rng = np.random.default_rng(seed)
    if family == "ar3":
        return rng, (rng.normal(0.0, params.noise_sd, size=(n, params.burn_in + t)),)
    alpha = rng.normal(params.alpha_mean, params.alpha_sd, size=n)
    loadings = (rng.standard_normal((n, params.n_factors)),) if family == "factor" else ()
    return rng, (alpha, *loadings, rng.normal(0.0, params.noise_sd, size=(n, t)))


def _draw_stack(family, params, n, t, t0, seeds):
    """The draw of each seed: the R x n x t outcomes, the R treated rows and,
    per seed, the exception its draw raised or None.

    Only the generator calls run per seed: :func:`_generate`, then the pick
    of the treated unit by the seed's row of the selection probabilities.
    The arithmetic runs once over the stack, each row by a lone draw's
    operations in its order, so a row is its seed's draw bit for bit. The
    factor loadings are those of ``Generator.multivariate_normal(method=
    "svd")``: standard normals times u sqrt(s), from the SVD u s v' of
    ``phi_cov``. The arithmetic raises no warning: a pick from probabilities
    that are not finite raises, and :func:`_panel` refuses outcomes that
    are not finite."""
    reps = len(seeds)
    rngs, errors, columns = [None] * reps, [None] * reps, None
    for r, seed in enumerate(seeds):
        try:
            rngs[r], drawn = _generate(family, params, n, t, seed)
        except Exception as exc:  # noqa: BLE001 - dropped reps are counted, never averaged
            errors[r] = exc
            continue
        if columns is None:
            columns = [np.full((reps, *a.shape), np.nan) for a in drawn]
        for column, a in zip(columns, drawn):
            column[r] = a
    treated = np.zeros(reps, dtype=int)
    if columns is None:
        return np.full((reps, n, t), np.nan), treated, errors
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if family == "factor":
            alpha, z, eps = columns
            u, s, _ = np.linalg.svd(params.phi_cov)
            phi = np.zeros(params.n_factors) + z @ (u * np.sqrt(s)).T
            outcomes = alpha[..., None] + params.nu[:t] + phi @ params.mu[:t].T + eps
            score = _standardize(alpha) + _standardize(phi.sum(axis=-1))
        elif family == "fixed-effects":
            alpha, eps = columns
            outcomes = alpha[..., None] + params.nu[:t] + eps
            score = _standardize(alpha)
        else:
            outcomes = _ar3_window(params, *columns)
            score = _standardize(outcomes[..., max(t0 - 4, 0) : t0].sum(axis=-1))
        probs = 1.0 / (1.0 + np.exp(-params.theta * score))
        probs = probs / probs.sum(axis=-1, keepdims=True)
    for r, rng in enumerate(rngs):
        if rng is not None:
            try:
                treated[r] = rng.choice(n, p=probs[r])
            except ValueError as exc:  # probabilities that are not finite
                errors[r] = exc
    return outcomes, treated, errors


def _ar3_window(params, eps):
    """The AR(3) outcomes (R x n x t) of the noise ``eps`` (R x n x (burn-in
    + t)): the recursion from zero initial conditions, one period at a time
    over every row, the burn-in discarded as it goes."""
    b1, b2, b3 = params.betas
    y1 = y2 = y3 = 0.0
    window = []
    for s, step in enumerate(np.moveaxis(eps, -1, 0)):
        y1, y2, y3 = params.beta0 + b1 * y1 + b2 * y2 + b3 * y3 + step, y1, y2
        if s >= params.burn_in:
            window.append(y1)
    return np.stack(window, axis=-1)


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
    outcomes, treated, errors = _draw_stack(family, params, n, t, t0, seeds)
    results = [None if exc is None else _dropped(exc) for exc in errors]
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


def _aggregate(values):
    """(bias, bias_se, rmse, rmse_se) of each row of ``values`` (estimators x
    replications): compensated sums for the bias and RMSE, each row's
    ``std(ddof=1)`` for the standard errors (zero from one replication)."""
    values = np.ascontiguousarray(values)  # each row summed as one estimator's array is
    n_reps = values.shape[1]
    squares = values**2
    bias = [math.fsum(row) / n_reps for row in values.tolist()]
    rmse = [math.sqrt(math.fsum(row) / n_reps) for row in squares.tolist()]
    if n_reps == 1:
        return [(b, 0.0, m, 0.0) for b, m in zip(bias, rmse)]
    bias_se = (values.std(axis=1, ddof=1) / np.sqrt(n_reps)).tolist()
    square_se = (squares.std(axis=1, ddof=1) / np.sqrt(n_reps)).tolist()
    return [
        (b, b_se, m, s_se / (2 * m) if m > 0 else 0.0)
        for b, b_se, m, s_se in zip(bias, bias_se, rmse, square_se)
    ]


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

    The replications run in stacks of ``_STACK``, each drawn once in arrays
    (:func:`_draw_stack`, each row the seed's :func:`draw_panel` bit for
    bit) and finished in one pass (:func:`_finish_stack`): a lockstep pass
    solves every full-sample and de-meaned SCM problem, cold from the best
    vertex as :func:`scm.solve_scm` does, another every leave-one CV fold,
    warm from its full solution, and the other steps are the stacked forms
    of the lone ones. A replication that leaves the pass (its blocks not
    all finite, a problem handed back, or a step that would raise alone) is
    checked as the panel of its own row and finishes by the lone calls, so
    it reports exactly what it would alone and drops with the same error;
    one finished in the stack reports the same up to round-off. Before any
    draw, a cross-validated ``lam`` needs ``t0`` >= 3 and ``seed`` must suit
    ``np.random.SeedSequence``.

    Under the sharp null the true effect is zero, so bias is the mean
    estimate, at the final post period for the factor and fixed-effects
    families and the first for AR. A replication in which any estimator
    fails is dropped from every aggregate (and counted). Per-replication
    seeds are spawned from one seed sequence, so results do not depend on
    execution order. One call (:func:`_aggregate`) aggregates every
    estimator, and every fit quartile, with compensated sums. The report's
    ``rep_log`` holds each replication's estimates in report order and SCM
    fit, or its error text; no file is written.
    """
    if not (isinstance(replications, (int, np.integer)) and replications >= 1):
        raise ConfigError(f"need at least 1 replication, got {replications!r}")
    root = _seed_sequence(seed)
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
    taus = np.array([[est[name] for est, _ in kept] for name in names])
    fits = np.array([fit for _, fit in kept])
    aggregates = _aggregate(taus)
    scm_bias, _, scm_rmse, _ = aggregates[0]

    def pct(value, scm):  # |value| as a percentage of the scm entry's
        return 100.0 * abs(value) / abs(scm) if scm != 0 else math.nan

    rows = tuple(
        McEstimatorRow(name, bias, bias_se, pct(bias, scm_bias), rmse, rmse_se,
                       pct(rmse, scm_rmse), len(kept), n_dropped)
        for name, (bias, bias_se, rmse, rmse_se) in zip(names, aggregates)
    )

    quartile_rows = []
    if stratify_by_fit:
        labels = np.digitize(fits, np.quantile(fits, [0.25, 0.5, 0.75]))  # 0..3, a partition
        for q in range(4):
            mask = labels == q
            if mask.any():
                for name, agg in zip(names, _aggregate(taus[:, mask])):
                    quartile_rows.append((q + 1, name, *agg, int(mask.sum())))

    return McReport(
        rows=rows,
        replications=replications,
        seed=seed,
        family=family,
        estimand_period=estimand_period,
        fit_quartiles=tuple(quartile_rows),
        rep_log=tuple(
            error if est is None else (*(est[name] for name in names), fit)
            for est, fit, error in results
        ),
    )
