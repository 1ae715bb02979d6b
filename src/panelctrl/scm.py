"""Penalized, simplex-constrained synthetic control weights.

Solves

    min_g  ||V^{1/2}(x1 - x0' g)||^2 + zeta * sum_i g_i^2
    s.t.   sum_i g_i = 1,  g_i >= 0

a convex quadratic program whose Hessian H = 2(x0 V x0' + zeta I) is formed
once per solve. The solver is a primal active-set method in the style of
Lawson and Hanson. It starts at the best single-donor vertex (or a
projected start and its support) and keeps a working set of donors. Each
iteration solves the equality-constrained problem on that set as a Newton
step from the current weights. If some weights come out nonpositive, it
steps to the feasibility boundary and drops every donor that reaches zero.
Otherwise it adds the off-set donor whose gradient lies furthest below the
multiplier, and stops when none does. Optimal supports are small, so a
solve costs a few small dense KKT systems; the result is checked against
the unit-step projected-gradient KKT residual.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ConvergenceError

logger = logging.getLogger(__name__)

__all__ = [
    "ScmConfig",
    "DonorWeights",
    "solve_scm",
    "imbalance",
    "kkt_residual",
    "project_simplex",
    "scm_objective",
]

@dataclass(frozen=True)
class ScmConfig:
    """Solver configuration.

    Attributes
    ----------
    importance : array or None
        Nonnegative diagonal of the period importance matrix; ones when None.
    zeta : float or None
        Dispersion penalty strength. None selects the canonical default
        ``1e-8 * tr(x0' V x0) / N0``, which breaks ties between otherwise
        non-unique un-penalized solutions; an explicit 0.0 is honored.
    max_iter : int
        Cap on active-set iterations (one KKT solve each).
    tol : float
        KKT residual target (unit-step projected-gradient fixed-point norm)
        per unit of curvature: a solve must reach ``tol * max(1, H_max)``,
        with H_max the largest diagonal entry of the Hessian. The gradient
        and its round-off grow with the square of the data scale, so the
        target does too, and a rescaled design gets the same weights.
    """

    importance: np.ndarray | None = None
    zeta: float | None = None
    max_iter: int = 20_000
    tol: float = 1e-9

    def __post_init__(self):
        if self.zeta is not None and self.zeta < 0:
            raise ConfigError("zeta must be nonnegative")
        if self.tol <= 0:
            raise ConfigError("tol must be positive")
        if self.max_iter < 1:
            raise ConfigError("max_iter must be positive")
        if self.importance is not None:
            imp = np.asarray(self.importance, dtype=float)
            if imp.ndim != 1 or np.any(imp < 0) or not np.all(np.isfinite(imp)):
                raise ConfigError("importance must be a nonnegative 1-d vector")
            object.__setattr__(self, "importance", imp)

    def resolve(self, blocks):
        """Concrete (importance vector, zeta) for a given design."""
        t0 = blocks.x0.shape[1]
        if self.importance is None:
            v = np.ones(t0)
        else:
            if self.importance.shape != (t0,):
                raise ConfigError(
                    f"importance has length {self.importance.shape[0]}, design has {t0} columns"
                )
            v = self.importance
        if self.zeta is None:
            n0 = blocks.x0.shape[0]
            zeta = 1e-8 * float(np.sum(v * np.sum(blocks.x0**2, axis=0))) / n0
        else:
            zeta = float(self.zeta)
        return v, zeta


@dataclass(frozen=True)
class DonorWeights:
    """Weight vector over donor units.

    ``sum_constrained`` asserts sum(values) == 1 up to 1e-10 and ``simplex``
    additionally asserts nonnegativity up to -1e-12.
    """

    values: np.ndarray
    sum_constrained: bool = True
    simplex: bool = True

    def __post_init__(self):
        vals = np.ascontiguousarray(np.asarray(self.values, dtype=float))
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        if not np.all(np.isfinite(vals)):
            raise ConfigError("weights must be finite")
        # exact summation: the check must not fail from cancellation when
        # individual weights are large (far-out conformal refits)
        total = math.fsum(vals)
        if self.sum_constrained and abs(total - 1.0) > 1e-10:
            raise ConfigError(f"weights sum to {total:.12g}, expected 1")
        if self.simplex and vals.min(initial=0.0) < -1e-12:
            raise ConfigError(f"simplex weights have min {vals.min():.3e} < -1e-12")

    def __len__(self):
        return self.values.shape[0]


def project_simplex(v):
    """Exact Euclidean projection onto the probability simplex."""
    v = np.asarray(v, dtype=float)
    n = v.shape[0]
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    rho_candidates = u - css / np.arange(1, n + 1) > 0
    rho = int(np.nonzero(rho_candidates)[0][-1])
    theta = css[rho] / (rho + 1)
    return np.maximum(v - theta, 0.0)


def scm_objective(blocks, w, cfg=None):
    """Objective value at a weight vector (penalty included)."""
    cfg = cfg or ScmConfig()
    v, zeta = cfg.resolve(blocks)
    g = np.asarray(w.values if isinstance(w, DonorWeights) else w, dtype=float)
    return _objective(blocks, v, zeta, g)


def _objective(blocks, v, zeta, g):
    gap = blocks.x1 - blocks.x0.T @ g
    fit = float(np.sum(v * gap**2))
    if zeta == 0.0:
        return fit
    return fit + zeta * float(np.sum(g**2))


def _gradient(blocks, v, zeta, g):
    gap = blocks.x1 - blocks.x0.T @ g
    grad = -2.0 * (blocks.x0 @ (v * gap))
    if zeta != 0.0:
        grad = grad + 2.0 * zeta * g
    return grad


def kkt_residual(blocks, w, cfg=None):
    """Unit-step projected-gradient fixed-point residual.

    Zero exactly at any solution of the constrained problem; used both as
    the solver stopping rule and as the reported stationarity diagnostic.
    """
    cfg = cfg or ScmConfig()
    v, zeta = cfg.resolve(blocks)
    g = np.asarray(w.values if isinstance(w, DonorWeights) else w, dtype=float)
    grad = _gradient(blocks, v, zeta, g)
    return float(np.linalg.norm(g - project_simplex(g - grad)))


def solve_scm(blocks, cfg=None, start=None, trace=None):
    """Solve the penalized SCM problem; returns simplex :class:`DonorWeights`.

    Parameters
    ----------
    blocks : PanelBlocks
        Design; only ``x1`` and ``x0`` are used. Because the weights sum to
        one, the solution is invariant to column centering.
    cfg : ScmConfig
    start : array or None
        Starting point, projected onto the simplex; its support is the
        first working set. None starts at the best single-donor vertex.
    trace : list or None
        When given, the objective value of every accepted iterate is
        appended (non-increasing by construction).

    Raises
    ------
    ConvergenceError
        If the KKT residual target is not met within ``max_iter``
        active-set iterations; the exception carries the final residual.
    """
    cfg = cfg or ScmConfig()
    n0 = blocks.x0.shape[0]
    if n0 < 2:
        raise ConfigError("need at least 2 donor units")
    v, zeta = cfg.resolve(blocks)
    xv = blocks.x0 * v
    hess = 2.0 * (xv @ blocks.x0.T)
    hess[np.diag_indices(n0)] += 2.0 * zeta
    # H is positive semidefinite, so its largest entry is on the diagonal
    scale = max(1.0, float(hess.diagonal().max()))

    if start is None:
        g = np.zeros(n0)
        g[int(np.argmin(np.sum(v * (blocks.x1 - blocks.x0) ** 2, axis=1)))] = 1.0
    else:
        g = project_simplex(np.asarray(start, dtype=float))
        # weights below the resolution of a unit sum are round-off that the
        # projection spreads over every zero of an already feasible start
        g[g < np.finfo(float).eps] = 0.0
    active = g > 0.0
    support = np.flatnonzero(active)
    grad = _gradient(blocks, v, zeta, g)
    if trace is not None:
        trace.append(_objective(blocks, v, zeta, g))
    stationary = np.ptp(grad[support]) <= _tiny(grad[support].sum() / support.size)
    # the objective strictly decreases from one stationary working set to the
    # next, so meeting one again means round-off is cycling the method
    seen = set()

    for it in range(1, cfg.max_iter + 1):
        if stationary:
            key = active.tobytes()
            if key in seen:
                break
            seen.add(key)
            mu = float(grad[support].sum()) / support.size
            j = int(np.argmin(np.where(active, np.inf, grad)))
            if grad[j] >= mu - _tiny(mu):
                break
            active[j] = True
            support = np.flatnonzero(active)
        gs = g[support]
        z = gs + _newton_step(hess, scale, grad, support, gs)
        blocked = z <= 0.0
        stationary = not blocked.any()
        if not stationary:
            if np.any(blocked & (gs == 0.0)):
                # only a just-added donor starts at zero; its weight came out
                # nonpositive by round-off, so adding it cannot make progress
                break
            # step towards z until the first weight reaches zero; drop every
            # weight that gets there
            ratio = np.full(support.size, np.inf)
            ratio[blocked] = gs[blocked] / (gs[blocked] - z[blocked])
            alpha = ratio.min()
            z = np.maximum(gs + alpha * (z - gs), 0.0)
            z[ratio <= alpha] = 0.0
        g[support] = z
        if not stationary:
            active = g > 0.0
            support = np.flatnonzero(active)
        grad = _gradient(blocks, v, zeta, g)
        if trace is not None:
            trace.append(_objective(blocks, v, zeta, g))

    g = g / g.sum()  # strip round-off in the sum
    res = float(np.linalg.norm(g - project_simplex(g - _gradient(blocks, v, zeta, g))))
    logger.debug(
        "scm active-set solve: %d donors, %d iterations, support %d, KKT residual %.3e",
        n0, it, int(np.count_nonzero(g)), res,
    )
    target = cfg.tol * scale
    if res > target:
        raise ConvergenceError(
            f"SCM solver stopped after {it} active-set iterations with KKT residual "
            f"{res:.3e} > target {target:.3e}",
            residual=res,
        )
    return DonorWeights(values=g, sum_constrained=True, simplex=True)


def _tiny(mu):
    """Gradient differences below this are round-off, not optimality gaps."""
    return 1e-12 * max(1.0, abs(float(mu)))


def _newton_step(hess, scale, grad, support, gs):
    """Step from gs to the minimizer on the support subject to sum(g) = 1.

    The right-hand side is the gradient formed from the fit gap, which keeps
    full accuracy when x0'g nearly matches x1 at a large data scale.
    """
    k = support.size
    kkt = np.zeros((k + 1, k + 1))
    kkt[:k, :k] = hess[support[:, None], support]
    kkt[:k, k] = 1.0
    kkt[k, :k] = 1.0
    rhs = np.empty(k + 1)
    np.negative(grad[support], out=rhs[:k])
    rhs[k] = 1.0 - gs.sum()
    try:
        sol = np.linalg.solve(kkt, rhs)
        # a numerically singular system (zeta = 0 with duplicate donors, or a
        # start whose support outnumbers the periods) can return a huge,
        # inaccurate step instead of raising
        err = np.abs(kkt @ sol - rhs).max()
        singular = not err <= 1e-8 * (scale + np.abs(rhs).max())
    except np.linalg.LinAlgError:
        singular = True
    if singular:
        sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
    return sol[:k]


def imbalance(blocks, w, importance=None):
    """Weighted L2 norm of the pre-period gap, ||V^{1/2}(x1 - x0' g)||."""
    g = np.asarray(w.values if isinstance(w, DonorWeights) else w, dtype=float)
    gap = blocks.x1 - blocks.x0.T @ g
    if importance is None:
        return float(np.linalg.norm(gap))
    v = np.asarray(importance, dtype=float)
    if v.shape != gap.shape:
        raise ConfigError("importance length must match the number of pre periods")
    return float(np.sqrt(np.sum(v * gap**2)))
