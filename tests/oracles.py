"""Independent oracles used to check the library's solver paths.

Everything here is deliberately brute-force or first-order so it shares
no code with the implementations under test: exhaustive simplex grids,
projected gradient descent on the sum-to-one affine set, dense
normal-equation solves, rational-arithmetic solves, and from-scratch refit
loops. The one exception is the jackknife+ rebuild, which checks the fold
bookkeeping rather than the estimator and so fits each fold with the
library's ``estimate_on_blocks``, and the lone Monte Carlo replication,
which checks the stacking of replications in ``sim`` and so runs each
replication's steps with the library's estimators, one replication at a
time. The Monte Carlo draw through NumPy's own multivariate normal checks
the harness's one draw. The per-penalty loop of the fold adjustments writes
out the same identity as the library's all-penalty evaluation, one sum at a
time. The row-at-a-time CSV reader checks the library's whole-column
reader and shares with it only the time ordering and ``PanelData``'s
validation. The cell formatter that tests one ``isinstance`` after another
checks the CLI's writer, which chooses a formatter once per cell type.
"""

from __future__ import annotations

import csv
import itertools
import operator
from fractions import Fraction

import numpy as np

from panelctrl.errors import (
    DuplicateCellError,
    MissingCellError,
    PanelFormatError,
    TreatmentTimeError,
    UnknownUnitError,
)
from panelctrl.estimators import (
    EstimatorSpec,
    design_and_anchor,
    estimate_on_blocks,
    fold_predictions,
)
from panelctrl.panel import (
    PanelBlocks,
    PanelData,
    _time_keys,
    periods_preceding,
    split_and_center,
)
from panelctrl.scm import imbalance
from panelctrl.selection import cv_from_folds, default_lambda_grid, select_lambda
from panelctrl.sim import draw_panel


def scm_objective(blocks, w, zeta):
    """The SCM objective ||x1 - x0'w||^2 + zeta ||w||^2 at a weight vector."""
    g = np.asarray(getattr(w, "values", w), dtype=float)
    return float(np.sum((blocks.x1 - blocks.x0.T @ g) ** 2) + zeta * np.sum(g**2))


def simplex_grid_objective(x1, x0, resolution=1e-3, zeta=0.0):
    """Minimum objective over an exhaustive simplex lattice.

    Enumerates all weight vectors whose entries are integer multiples of
    ``resolution`` summing to one; feasible only for a handful of donors.
    Returns (best objective, best weights).
    """
    n0 = x0.shape[0]
    steps = int(round(1.0 / resolution))

    def objective(gamma):
        gap = x1 - gamma @ x0  # works for single vectors and row batches
        fit = np.sum(gap**2, axis=-1)
        if zeta == 0.0:
            return fit
        return fit + zeta * np.sum(gamma**2, axis=-1)

    if n0 == 2:
        k = np.arange(steps + 1)
        grid = np.stack([k / steps, 1.0 - k / steps], axis=1)
        vals = objective(grid)
        best = int(np.argmin(vals))
        return float(vals[best]), grid[best]
    if n0 == 3:
        best_val, best_w = np.inf, None
        chunk = 2048
        ks = np.arange(steps + 1)
        for i in ks:
            j = np.arange(steps + 1 - i)
            grid = np.stack(
                [np.full(j.shape, i / steps), j / steps, (steps - i - j) / steps], axis=1
            )
            vals = objective(grid)
            idx = int(np.argmin(vals))
            if vals[idx] < best_val:
                best_val, best_w = float(vals[idx]), grid[idx]
        return best_val, best_w
    # generic fallback: coarse lattice via integer compositions
    best_val, best_w = np.inf, None
    for comp in itertools.product(range(steps + 1), repeat=n0 - 1):
        rest = steps - sum(comp)
        if rest < 0:
            continue
        gamma = np.array(list(comp) + [rest]) / steps
        val = float(objective(gamma))
        if val < best_val:
            best_val, best_w = val, gamma
    return best_val, best_w


def affine_qp_descent(x1, x0, anchor, lam, iters=200_000, seed_starts=5, rng=None):
    """Minimize (1/(2 lam))||x1 - x0'w||^2 + 0.5||w - anchor||^2 over sum(w)=1.

    First-order method: gradient steps projected onto the sum-zero
    direction, from the anchor projection plus a few random feasible
    starts (grid seeding for a convex quadratic). Returns (best objective,
    best weights).
    """
    rng = rng or np.random.default_rng(0)
    n0 = x0.shape[0]

    def objective(w):
        gap = x1 - x0.T @ w
        return float(gap @ gap / (2.0 * lam) + 0.5 * np.sum((w - anchor) ** 2))

    def grad(w):
        return -(x0 @ (x1 - x0.T @ w)) / lam + (w - anchor)

    lips = float(np.linalg.norm(x0, 2)) ** 2 / lam + 1.0
    step = 1.0 / lips
    best_val, best_w = np.inf, None
    starts = [anchor - anchor.mean() + 1.0 / n0]
    for _ in range(seed_starts - 1):
        z = rng.normal(size=n0)
        starts.append(z - z.mean() + 1.0 / n0)
    for w in starts:
        w = w.copy()
        for _ in range(iters):
            g = grad(w)
            g = g - g.mean()
            w_new = w - step * g
            if np.linalg.norm(w_new - w) < 1e-14:
                w = w_new
                break
            w = w_new
        val = objective(w)
        if val < best_val:
            best_val, best_w = val, w
    return best_val, best_w


def dense_ridge_solve(x0, y, lam):
    """Normal-equation ridge coefficients (x0'x0 + lam I)^{-1} x0' (y - mean)."""
    t0 = x0.shape[1]
    yc = y - y.mean()
    return np.linalg.solve(x0.T @ x0 + lam * np.eye(t0), x0.T @ yc)


def exact_ridge_adjustment(x0, r, lam):
    """The ridge adjustment a solving (x0 x0' + lam I) a = x0 r, exactly.

    Every float is read at its exact binary value and the donor-space
    normal equations are solved by Gauss-Jordan elimination in
    ``fractions.Fraction`` arithmetic, so the only rounding is the caller's
    final conversion. Returns the N0 Fractions; for small designs only
    (N0 up to about a dozen) and lam > 0.
    """
    x0 = [[Fraction(float(v)) for v in row] for row in np.asarray(x0, dtype=float)]
    r = [Fraction(float(v)) for v in np.asarray(r, dtype=float)]
    lam = Fraction(float(lam))
    n0 = len(x0)
    rows = [
        [sum((a * b for a, b in zip(x0[i], x0[j])), Fraction(0)) + (lam if i == j else 0)
         for j in range(n0)]
        + [sum((a * b for a, b in zip(x0[i], r)), Fraction(0))]
        for i in range(n0)
    ]
    for col in range(n0):
        pivot = next(i for i in range(col, n0) if rows[i][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        head = rows[col]
        inv = 1 / head[col]
        head[:] = [v * inv for v in head]
        for i in range(n0):
            if i != col and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], head)]
    return [row[-1] for row in rows]


def exact_weighted_sum(weights, values):
    """sum_i weights_i values_i in Fraction arithmetic, rounded once to float."""
    terms = (Fraction(w) * Fraction(float(v)) for w, v in zip(weights, values))
    return float(sum(terms, Fraction(0)))


def fold_adjustments_by_penalty(svd, residuals, post, held_out, lambdas):
    """``ridge._fold_adjustments`` of one design (its :class:`ControlSVD`
    ``svd``), one penalty at a time: the same bordered-inverse identity,
    with each sum over the singular directions written out for one penalty
    and one fold."""
    lambdas = np.asarray(lambdas, dtype=float)
    n0, t0, v = svd.u.shape[0], svd.v.shape[0], svd.v
    n0d2 = n0 * svd.d**2
    v_sq = v**2
    outside = 1.0 - v_sq.sum(axis=1)
    rotated = v.T @ residuals
    outcomes = np.hstack([post, held_out])
    outcomes = outcomes - outcomes.mean(axis=0)
    coords = (np.sqrt(n0) * svd.d)[:, None] * (svd.u.T @ outcomes)
    n_post = post.shape[1]
    out = np.empty((t0, lambdas.size, n_post + 1))
    for li, lam in enumerate(lambdas):
        s = 1.0 / (n0d2 + lam)
        z = s[:, None] * rotated
        if svd.rank == t0:
            ratio = -np.einsum("tj,jt->t", v, z) / (v_sq @ s)
        else:
            ratio = np.einsum("tj,jt->t", v * n0d2, z) / (lam * (v_sq @ s) + outside)
        z += s[:, None] * v.T * ratio
        out[:, li, :n_post] = z.T @ coords[:, :n_post]
        out[:, li, n_post] = np.einsum("jt,jt->t", z, coords[:, n_post:])
    return out


def loo_cv_rebuild(x1, x0, lam, zeta=1e-10, tol=1e-9):
    """Leave-one-out CV rebuilt from scratch with an independent inner solver.

    For each held-out period the SCM weights come from a long plain
    projected-gradient run (no acceleration, no polish), the augmentation
    from a dense solve. Returns the vector of held-out squared residuals.
    """
    t0 = x1.shape[0]
    out = []
    for t in range(t0):
        keep = [s for s in range(t0) if s != t]
        a = x0[:, keep]
        shift = a.mean(axis=0)
        a = a - shift
        b = x1[keep] - shift
        w = _pgd_simplex(b, a, zeta=zeta, iters=300_000, tol=tol)
        gap = b - a.T @ w
        adj = a @ np.linalg.solve(a.T @ a + lam * np.eye(len(keep)), gap)
        pred = float((w + adj) @ x0[:, t])
        out.append((float(x1[t]) - pred) ** 2)
    return np.array(out)


def _pgd_simplex(x1, x0, zeta, iters, tol):
    n0 = x0.shape[0]
    w = np.full(n0, 1.0 / n0)
    lips = 2.0 * (float(np.linalg.norm(x0, 2)) ** 2 + zeta)
    step = 1.0 / lips
    for _ in range(iters):
        g = -2.0 * (x0 @ (x1 - x0.T @ w)) + 2.0 * zeta * w
        w_new = _proj_simplex_sort(w - step * g)
        if np.linalg.norm(w_new - w) < tol * step:
            return w_new
        w = w_new
    return w


def _proj_simplex_sort(v):
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, v.shape[0] + 1)
    rho = np.nonzero(u - css / idx > 0)[0][-1]
    return np.maximum(v - css[rho] / (rho + 1), 0.0)


def conformal_p_rebuild(panel_outcomes, treated_index, t0, tau0, lam, post_period=0):
    """Conformal p-value rebuilt from scratch for the augmented estimator.

    Builds the tau0-adjusted augmented panel explicitly, solves the SCM
    weights with the plain projected-gradient solver, augments with a
    dense solve, and ranks the residuals.
    """
    donors = [i for i in range(panel_outcomes.shape[0]) if i != treated_index]
    x1 = panel_outcomes[treated_index, :t0]
    x0 = panel_outcomes[donors, :t0]
    y1 = panel_outcomes[treated_index, t0 + post_period]
    y0 = panel_outcomes[donors, t0 + post_period]
    x1a = np.concatenate([x1, [y1 - tau0]])
    x0a = np.hstack([x0, y0[:, None]])
    shift = x0a.mean(axis=0)
    x0a = x0a - shift
    x1a = x1a - shift
    w = _pgd_simplex(x1a, x0a, zeta=1e-10, iters=400_000, tol=1e-10)
    gap = x1a - x0a.T @ w
    adj = x0a @ np.linalg.solve(x0a.T @ x0a + lam * np.eye(t0 + 1), gap)
    g = w + adj
    resid = x1a - x0a.T @ g
    pre = np.abs(resid[:-1])
    post = abs(resid[-1])
    return (int(np.sum(post <= pre)) + 1) / (t0 + 1)


def jackknife_plus_rebuild(p, alpha, spec, post_period, cov=None):
    """Jackknife+ counterfactual interval for one post period, fold by fold.

    Every fold is rebuilt by hand for this post period alone: drop pre
    period t, re-centre, fit with ``estimate_on_blocks`` on the true post
    block, and predict the held-out period separately (the unit-mean
    methods add their outcome model by hand). Returns (lower, upper).
    """
    blocks = split_and_center(p)
    t0 = blocks.t0
    lows, highs = [], []
    for t in range(t0):
        keep = np.array([s for s in range(t0) if s != t])
        shift = blocks.x0[:, keep].mean(axis=0)
        fold = PanelBlocks(
            x1=blocks.x1[keep] - shift,
            x0=blocks.x0[:, keep] - shift,
            y0_post=blocks.y0_post,
            y1_post=blocks.y1_post,
        )
        est = estimate_on_blocks(fold, spec, cov=cov)
        g = est.weights.values
        if spec.method in ("demeaned", "fixed_effects"):
            pre_pred = fold.x1.mean() + g @ (blocks.x0[:, t] - fold.x0.mean(axis=1))
        else:
            pre_pred = g @ blocks.x0[:, t]
        r = abs(float(blocks.x1[t]) - float(pre_pred))
        y_hat = float(est.counterfactual[post_period])
        lows.append(y_hat - r)
        highs.append(y_hat + r)
    k_lo = min(max(int(np.floor(alpha / 2.0 * (t0 + 1))), 1), t0)
    k_hi = min(max(int(np.ceil((1.0 - alpha / 2.0) * (t0 + 1))), 1), t0)
    return float(np.sort(lows)[k_lo - 1]), float(np.sort(highs)[k_hi - 1])


def load_panel_by_rows(source, treated_label, treatment_time, covariates=()):
    """``load_panel`` on a file object, one row at a time.

    Each row is tested for blankness and length, its labels stripped and its
    (unit, time) pair checked against the pairs before it as it is read, so
    the first offending row raises, naming ``reader.line_num``. The same
    errors, in the same order, as docs/schemas.md ("Input") lists.
    """
    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise PanelFormatError("empty input: no header row") from None
    cols = {name.strip().lower(): i for i, name in enumerate(header)}
    names = ("outcome", *covariates)
    for required in ("unit", "time", *names):
        if required.strip().lower() not in cols:
            raise PanelFormatError(f"input header must contain {required!r}; got {header}")
    picked = [cols[name.strip().lower()] for name in ("unit", "time", *names)]
    pick = operator.itemgetter(*picked)
    rows = {}  # (unit, time) -> the row's raw value cells, in file order
    for row in reader:
        if not "".join(row).strip():
            continue
        try:
            unit, time_label, *cells = pick(row)
        except IndexError:
            raise PanelFormatError(
                f"line {reader.line_num} has {len(row)} field(s); "
                f"the requested columns need {max(picked) + 1}"
            ) from None
        key = (unit.strip(), time_label.strip())
        if key in rows:
            raise DuplicateCellError(
                f"duplicate observation for unit {key[0]!r} at time {key[1]!r}"
            )
        rows[key] = cells
    if not rows:
        raise PanelFormatError("empty input: no observations found")

    columns = []
    for raw, name in zip(zip(*rows.values()), names):
        try:
            columns.append(np.array(raw, dtype=float))
        except ValueError:
            for (unit, time_label), text in zip(rows, raw):
                if not text.strip():
                    raise MissingCellError(unit, time_label, name) from None
                try:
                    float(text)
                except ValueError:
                    raise PanelFormatError(
                        f"non-numeric {name} {text!r} for unit {unit!r} at time {time_label!r}"
                    ) from None
            raise
    units = list(dict.fromkeys(unit for unit, _ in rows))
    if treated_label not in units:
        raise UnknownUnitError(f"treated unit {treated_label!r} not found in data")
    labels = list(dict.fromkeys(time_label for _, time_label in rows))
    time_list = [label for _, label in sorted(zip(_time_keys(labels), labels))]
    table = np.full((len(units), len(time_list), len(names)), np.inf)
    for (unit, time_label), cells in zip(rows, zip(*columns)):
        table[units.index(unit), time_list.index(time_label)] = cells
    for i, unit in enumerate(units):
        for j, time_label in enumerate(time_list):
            if (unit, time_label) not in rows:
                raise MissingCellError(unit, time_label, "outcome")

    t0 = periods_preceding(time_list, treatment_time)
    if t0 == 0:
        raise TreatmentTimeError(
            f"treatment time {treatment_time!r} is at or before the first period"
        )
    if t0 >= len(time_list):
        raise TreatmentTimeError(
            f"treatment time {treatment_time!r} is after the last observed period"
        )
    if t0 < 2:
        raise TreatmentTimeError(
            f"treatment time {treatment_time!r} leaves only {t0} pre period(s); need at least 2"
        )
    return PanelData(
        outcomes=table[:, :, 0],
        unit_ids=tuple(units),
        time_ids=tuple(time_list),
        treated_index=units.index(treated_label),
        t0=t0,
        covariates=table[:, :, 1:],
        covariate_names=tuple(covariates),
    )


def format_cell_by_isinstance(x):
    """A CLI artifact cell as text: a boolean as true or false, a float (or
    NumPy floating) to 17 significant digits, an integer in decimal, anything
    else by ``str``; tested in that order on every cell."""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return str(x)


def draw_by_multivariate_normal(family, params, n, t, t0, seed):
    """The outcomes (n x t) and treated row of a Monte Carlo draw, with the
    factor loadings from ``Generator.multivariate_normal(method="svd")``,
    which takes its own SVD of the covariance and checks it, on every draw.
    Selection into treatment: an inverse-logit score in the standardized
    unit heterogeneity, one unit drawn by its normalized probabilities."""
    rng = np.random.default_rng(seed)

    def standardize(v):
        return np.zeros_like(v) if v.std() == 0 else (v - v.mean()) / v.std()

    def pick(score):
        probs = 1.0 / (1.0 + np.exp(-params.theta * score))
        return int(rng.choice(score.shape[0], p=probs / probs.sum()))

    noise = params.sigma_eps * params.sigma_multiplier
    if family == "ar3":
        eps = rng.normal(0.0, noise, size=(n, params.burn_in + t))
        path = np.zeros_like(eps)
        b1, b2, b3 = params.betas
        for s in range(eps.shape[1]):
            lags = [path[:, s - j] if s >= j else 0.0 for j in (1, 2, 3)]
            path[:, s] = params.beta0 + b1 * lags[0] + b2 * lags[1] + b3 * lags[2] + eps[:, s]
        outcomes = path[:, params.burn_in :]
        return outcomes, pick(standardize(outcomes[:, max(t0 - 4, 0) : t0].sum(axis=1)))
    alpha = rng.normal(params.alpha_mean, params.alpha_sd, size=n)
    if family == "fixed-effects":
        eps = rng.normal(0.0, noise, size=(n, t))
        return alpha[:, None] + params.nu[:t][None, :] + eps, pick(standardize(alpha))
    k = params.mu.shape[1]
    phi = rng.multivariate_normal(np.zeros(k), params.phi_cov, size=n, method="svd")
    eps = rng.normal(0.0, noise, size=(n, t))
    outcomes = alpha[:, None] + params.nu[:t][None, :] + phi @ params.mu[:t].T + eps
    return outcomes, pick(standardize(alpha) + standardize(phi.sum(axis=1)))


# the simulation study's estimators, in report order, by method
MC_BANK = {
    "scm": "scm",
    "ridge": "ridge",
    "ridge_ascm": "ridge_ascm",
    "fixed_effects": "fixed_effects",
    "demeaned_scm": "demeaned",
}


def one_replication(family, params, n, t, t0, seed, lam, estimand_period):
    """One Monte Carlo replication of ``sim.run_monte_carlo``, solved on its
    own: ``(estimates, scm_fit, error)``, where a dropped replication has
    only its exception, as ``ExceptionClass: message``. One cold SCM solve
    is the scm entry, the ridge_ascm anchor and the start of the leave-one
    CV folds; demeaned_scm solves its own design."""
    try:
        blocks = split_and_center(draw_panel(family, params, n, t, t0, seed))
        ascm = EstimatorSpec()
        shared = design_and_anchor(blocks, ascm)
        if isinstance(lam, str):
            grid = default_lambda_grid(blocks, size=12)
            folds = fold_predictions(blocks, ascm, lambdas=grid, fit=shared)
            rule = {"cv-min": "min", "cv-1se": "one-se"}[lam]
            lam = select_lambda(cv_from_folds(grid, folds), rule)
        estimates = {
            name: estimate_on_blocks(
                blocks,
                EstimatorSpec(method=method, lam=lam),
                fit=shared if method in ("scm", "ridge_ascm") else None,
            )
            for name, method in MC_BANK.items()
        }
    except Exception as exc:  # noqa: BLE001 - the error a dropped replication logs
        return None, None, f"{type(exc).__name__}: {exc}"
    return (
        {name: float(est.att[estimand_period]) for name, est in estimates.items()},
        imbalance(blocks, shared.scm),
        "",
    )
