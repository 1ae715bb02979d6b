"""Penalized, simplex-constrained synthetic control weights.

Solves

    min_g  ||V^{1/2}(x1 - x0' g)||^2 + zeta * sum_i f(g_i)
    s.t.   sum_i g_i = 1,  g_i >= 0

with f the squared-L2 dispersion penalty f(g) = g^2. The solver runs
accelerated projected gradient descent with exact Euclidean projection onto
the simplex, restarting momentum on non-monotone steps, followed by an
active-set refinement that drives the KKT residual to round-off.
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
        Iteration cap for the gradient loop.
    tol : float
        KKT residual target (unit-step projected-gradient fixed-point norm).
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
    """Weight vector over donor units with provenance.

    ``sum_constrained`` asserts sum(values) == 1 up to 1e-10 and ``simplex``
    additionally asserts nonnegativity up to -1e-12.
    """

    values: np.ndarray
    provenance: str = "scm"
    sum_constrained: bool = True
    simplex: bool = True

    def __post_init__(self):
        vals = np.ascontiguousarray(np.asarray(self.values, dtype=float))
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        if self.provenance not in ("scm", "ridge", "augmented", "covariate-adjusted"):
            raise ConfigError(f"unknown provenance {self.provenance!r}")
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

    def to_rows(self, unit_ids=None):
        """(unit, weight) pairs for CSV serialization."""
        if unit_ids is None:
            unit_ids = [f"unit{i}" for i in range(len(self))]
        if len(unit_ids) != len(self):
            raise ConfigError("unit_ids length must match the number of weights")
        return list(zip(unit_ids, (float(v) for v in self.values)))

    def to_dict(self, unit_ids=None):
        """JSON-ready mapping with provenance and constraint flags."""
        return {
            "weights": {u: w for u, w in self.to_rows(unit_ids)},
            "provenance": self.provenance,
            "sum_constrained": self.sum_constrained,
            "simplex": self.simplex,
        }


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
        Feasible starting point; uniform weights when None.
    trace : list or None
        When given, objective values of accepted iterates are appended
        (non-increasing by construction).

    Raises
    ------
    ConvergenceError
        If the KKT residual target is not met within ``max_iter``; the
        exception carries the final residual.
    """
    cfg = cfg or ScmConfig()
    n0 = blocks.x0.shape[0]
    if n0 < 2:
        raise ConfigError("need at least 2 donor units")
    v, zeta = cfg.resolve(blocks)

    if start is None:
        g = np.full(n0, 1.0 / n0)
    else:
        g = project_simplex(np.asarray(start, dtype=float))

    g, res = _solve_l2(blocks, v, zeta, g, cfg, trace)

    if res > cfg.tol:
        raise ConvergenceError(
            f"SCM solver stopped after {cfg.max_iter} iterations with KKT residual "
            f"{res:.3e} > tol {cfg.tol:.3e}",
            residual=res,
        )
    g = project_simplex(g)
    g = g / g.sum()  # strip projection round-off at large data scales
    return DonorWeights(values=g, provenance="scm", sum_constrained=True, simplex=True)


def _solve_l2(blocks, v, zeta, g, cfg, trace):
    """Monotone FISTA with restarts, then active-set polish."""
    b = blocks.x0 * np.sqrt(v)
    lips = 2.0 * (float(np.linalg.norm(b, 2)) ** 2 + zeta)
    if lips <= 0.0:
        return g, 0.0
    step = 1.0 / lips

    def fval(x):
        gap = blocks.x1 - blocks.x0.T @ x
        return float(np.sum(v * gap**2) + zeta * np.sum(x**2))

    def grad(x):
        gap = blocks.x1 - blocks.x0.T @ x
        return -2.0 * (blocks.x0 @ (v * gap)) + 2.0 * zeta * x

    f_cur = fval(g)
    if trace is not None:
        trace.append(f_cur)
    y = g.copy()
    t_mom = 1.0
    res = np.inf
    check_every = 10
    for it in range(cfg.max_iter):
        cand = project_simplex(y - step * grad(y))
        f_cand = fval(cand)
        if f_cand > f_cur:
            # restart momentum; a plain projected step from g is a descent step
            y = g.copy()
            t_mom = 1.0
            cand = project_simplex(g - step * grad(g))
            f_cand = fval(cand)
            if f_cand > f_cur:
                cand, f_cand = g, f_cur
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_mom**2))
        y = cand + ((t_mom - 1.0) / t_next) * (cand - g)
        g, f_cur, t_mom = cand, f_cand, t_next
        if trace is not None:
            trace.append(f_cur)
        if it % check_every == 0 or it == cfg.max_iter - 1:
            gr = grad(g)
            res = float(np.linalg.norm(g - project_simplex(g - gr)))
            if res <= cfg.tol:
                break
            polished = _active_set_polish(blocks, v, zeta, g)
            if polished is not None:
                fp = fval(polished)
                if fp <= f_cur + 1e-15 * max(1.0, abs(f_cur)):
                    rp = float(
                        np.linalg.norm(polished - project_simplex(polished - grad(polished)))
                    )
                    if rp < res:
                        g, f_cur, res = polished, fp, rp
                        if trace is not None:
                            trace.append(f_cur)
                        if res <= cfg.tol:
                            break
                        y, t_mom = g.copy(), 1.0
    logger.debug("scm l2 solve: %d donors, residual %.3e", len(g), res)
    return g, res


def _active_set_polish(blocks, v, zeta, g, rounds=None):
    """Solve the equality-constrained QP restricted to the active support.

    Returns a candidate weight vector on the simplex or None when the
    restricted solve fails to produce one.
    """
    n0 = g.shape[0]
    support = np.nonzero(g > 1e-12)[0]
    if support.size == 0:
        return None
    xv = blocks.x0 * np.sqrt(v)
    rounds = rounds if rounds is not None else n0 + 2
    for _ in range(rounds):
        k = support.size
        a = 2.0 * (xv[support] @ xv[support].T + zeta * np.eye(k))
        rhs = 2.0 * (blocks.x0[support] @ (v * blocks.x1))
        kkt = np.zeros((k + 1, k + 1))
        kkt[:k, :k] = a
        kkt[:k, k] = 1.0
        kkt[k, :k] = 1.0
        vec = np.append(rhs, 1.0)
        try:
            sol = np.linalg.solve(kkt, vec)
        except np.linalg.LinAlgError:
            sol, *_ = np.linalg.lstsq(kkt, vec, rcond=None)
        ws = sol[:k]
        if np.all(ws >= -1e-14):
            full = np.zeros(n0)
            full[support] = np.maximum(ws, 0.0)
            s = full.sum()
            if s <= 0:
                return None
            full /= s
            # grow the support if an off-support coordinate violates optimality
            grad = _gradient(blocks, v, zeta, full)
            mu = float(np.mean(grad[support]))
            off = np.setdiff1d(np.arange(n0), support, assume_unique=False)
            if off.size and np.any(grad[off] < mu - 1e-12 * max(1.0, abs(mu))):
                worst = off[int(np.argmin(grad[off]))]
                support = np.sort(np.append(support, worst))
                continue
            return full
        drop = support[int(np.argmin(ws))]
        support = support[support != drop]
        if support.size == 0:
            return None
    return None


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
