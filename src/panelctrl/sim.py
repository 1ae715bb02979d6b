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
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import astuple, dataclass, field
from importlib import resources

import numpy as np

from .errors import ConfigError
from .estimators import EstimatorSpec, design_and_anchor, estimate_on_blocks, fold_predictions
from .panel import PanelData, readonly_array, split_and_center
from .scm import imbalance
from .selection import cv_from_folds, default_lambda_grid, select_lambda

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
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(v) for v in row] for row in reader if row]
    data = np.asarray(rows)
    cols = {name: i for i, name in enumerate(header)}
    nu = data[:, cols["nu"]]
    mu = data[:, [cols["mu1"], cols["mu2"], cols["mu3"]]]
    return nu, mu


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
        if self.sigma_eps < 0 or self.sigma_multiplier < 0:
            raise ConfigError("noise scales must be nonnegative")

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
        if self.sigma_eps < 0 or self.sigma_multiplier < 0:
            raise ConfigError("noise scales must be nonnegative")

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
        if self.sigma_eps < 0 or self.sigma_multiplier < 0:
            raise ConfigError("noise scales must be nonnegative")

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


def draw_panel(family, params, n, t, t0, seed):
    """Draw one panel from the named family under the sharp null.

    Selection into treatment follows an inverse-logit score in the unit
    heterogeneity (standardized to unit variance), normalized so exactly
    one unit is treated.
    """
    if not (isinstance(n, (int, np.integer)) and n >= 3):
        raise ConfigError("need at least 3 units")
    if not 2 <= t0 < t:
        raise ConfigError(f"need 2 <= t0 < t, got t0={t0}, t={t}")
    rng = np.random.default_rng(seed)

    if family == "factor":
        if not isinstance(params, FactorDgp):
            raise ConfigError("factor family expects FactorDgp params")
        if t > params.mu.shape[0]:
            raise ConfigError(
                f"fixture provides {params.mu.shape[0]} periods, requested {t}"
            )
        mu = params.mu[:t]
        nu = params.nu[:t]
        alpha = rng.normal(params.alpha_mean, params.alpha_sd, size=n)
        phi = rng.multivariate_normal(
            np.zeros(params.n_factors), params.phi_cov, size=n, method="svd"
        )
        eps = rng.normal(0.0, params.noise_sd, size=(n, t))
        outcomes = alpha[:, None] + nu[None, :] + phi @ mu.T + eps
        score = _standardize(alpha) + _standardize(phi.sum(axis=1))
        treated = _pick_treated(rng, score, params.theta)
    elif family == "fixed-effects":
        if not isinstance(params, FixedEffectsDgp):
            raise ConfigError("fixed-effects family expects FixedEffectsDgp params")
        if t > params.nu.shape[0]:
            raise ConfigError(
                f"fixture provides {params.nu.shape[0]} periods, requested {t}"
            )
        nu = params.nu[:t]
        alpha = rng.normal(params.alpha_mean, params.alpha_sd, size=n)
        eps = rng.normal(0.0, params.noise_sd, size=(n, t))
        outcomes = alpha[:, None] + nu[None, :] + eps
        treated = _pick_treated(rng, _standardize(alpha), params.theta)
    elif family == "ar3":
        if not isinstance(params, Ar3Dgp):
            raise ConfigError("ar3 family expects Ar3Dgp params")
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
    else:
        raise ConfigError(f"unknown DGP family {family!r}")

    return PanelData(
        outcomes=outcomes,
        unit_ids=tuple(f"u{i:03d}" for i in range(n)),
        time_ids=tuple(range(1, t + 1)),
        treated_index=treated,
        t0=t0,
    )


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


def _one_replication(args):
    family, params, n, t, t0, rep_seed, lam, estimand_period = args
    blocks = split_and_center(draw_panel(family, params, n, t, t0, rep_seed), center=True)
    ascm = EstimatorSpec()  # ridge ASCM, whose penalty is cross-validated
    # one SCM solve: the scm entry, the ridge_ascm anchor and every CV fold's start
    shared = design_and_anchor(blocks, ascm)
    if isinstance(lam, str):
        grid = default_lambda_grid(blocks, size=12)
        folds = fold_predictions(blocks, ascm, lambdas=grid, fit=shared)
        lam = select_lambda(cv_from_folds(grid, folds), _LAMBDA_RULES[lam])
    estimates = {
        name: estimate_on_blocks(
            blocks,
            EstimatorSpec(method=method, lam=lam),
            fit=shared if method in ("scm", "ridge_ascm") else None,
        )
        for name, method in _BANK.items()
    }
    return (
        {name: float(est.att[estimand_period]) for name, est in estimates.items()},
        imbalance(blocks, shared.scm),
    )


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
    estimand_period = (t - t0 - 1) if family in ("factor", "fixed-effects") else 0
    if not 0 <= estimand_period < t - t0:
        raise ConfigError(f"estimand period {estimand_period} out of range")

    seeds = np.random.SeedSequence(seed).spawn(replications)
    jobs = [
        (family, params, n, t, t0, seeds[r], lam, estimand_period)
        for r in range(replications)
    ]
    results = [_safe_replication(job) for job in jobs]

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


def _safe_replication(job):
    """``(estimates, scm_fit, error)``; a dropped replication keeps only its
    exception, as ``ExceptionClass: message``."""
    try:
        return (*_one_replication(job), "")
    except Exception as exc:  # noqa: BLE001 - dropped reps are counted, never averaged
        logger.warning("replication dropped: %s", exc)
        return None, None, f"{type(exc).__name__}: {exc}"


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
