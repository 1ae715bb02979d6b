"""Penalized, simplex-constrained synthetic control weights.

Solves

    min_g  ||x1 - x0' g||^2 + zeta * sum_i g_i^2
    s.t.   sum_i g_i = 1,  g_i >= 0

a convex quadratic program whose Hessian H = 2(x0 x0' + zeta I) is formed
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

Many small problems of one shape cost little more in lockstep than one
alone, so one private kernel runs this active-set method for M problems on
each of R designs at once: problem (r, m) is design r with one pre period
left out, or whole. Each problem keeps its own weights and working set; a
round is one stacked solve, each design's problems on the union of their
working sets, a problem's rows outside its own set held at zero. Leaving
one period out subtracts a rank-one term from the design's Hessian, so one
Gram per design serves all its problems. :func:`solve_leave_one` is the
kernel on one design's leave-one-period-out folds, all started at the full
solution; the Monte Carlo harness also runs it over a stack of
replications' designs, cold from the best vertex, and over all their
folds. A problem the kernel cannot finish within the KKT gate of
:func:`solve_scm`, which is rare, is handed back and solved alone. Both
paths build their KKT systems with one helper and test the same residual.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ConvergenceError
from .panel import period_fold, readonly_array

logger = logging.getLogger(__name__)

__all__ = [
    "DonorWeights",
    "solve_scm",
    "imbalance",
    "kkt_residual",
    "project_simplex",
]

# Cap on active-set iterations (one KKT solve each).
ITERATION_CAP = 20_000
# KKT residual target per unit of curvature: a solve must reach KKT_TOL *
# max(1, H_max), H_max the Hessian's largest diagonal entry. The gradient's
# round-off grows with the data scale squared, and so does the target.
KKT_TOL = 1e-9
# The default dispersion penalty per unit of ||x0||_F^2 / N0.
ZETA_SCALE = 1e-8


def _zeta(blocks, zeta):
    """The dispersion penalty in force for a design (see :func:`solve_scm`)."""
    if zeta is None:
        # column sums, then their total: the order fixes the weights' last digits
        return ZETA_SCALE * float(np.sum(np.sum(blocks.x0**2, axis=0))) / blocks.n_donors
    zeta = float(zeta)
    if not 0.0 <= zeta < math.inf:
        raise ConfigError(f"zeta must be finite and nonnegative, got {zeta}")
    return zeta


@dataclass(frozen=True)
class DonorWeights:
    """Weight vector over donor units.

    The values always sum to one up to 1e-10; ``simplex`` additionally
    asserts nonnegativity up to -1e-12.
    """

    values: np.ndarray
    simplex: bool = True

    def __post_init__(self):
        vals = readonly_array(self.values)
        object.__setattr__(self, "values", vals)
        if not np.all(np.isfinite(vals)):
            raise ConfigError("weights must be finite")
        # exact summation: the check must not fail from cancellation when
        # individual weights are large (far-out conformal refits)
        total = math.fsum(vals)
        if abs(total - 1.0) > 1e-10:
            raise ConfigError(f"weights sum to {total:.12g}, expected 1")
        if self.simplex and vals.min(initial=0.0) < -1e-12:
            raise ConfigError(f"simplex weights have min {vals.min():.3e} < -1e-12")

    def __len__(self):
        return self.values.shape[0]


def weight_values(w):
    """The weight vector of a :class:`DonorWeights` or of a plain array."""
    return np.asarray(w.values if isinstance(w, DonorWeights) else w, dtype=float)


def project_simplex(v):
    """Exact Euclidean projection onto the probability simplex, of a vector or
    of every row of a matrix."""
    v = np.asarray(v, dtype=float)
    n = v.shape[-1]
    u = np.sort(v, axis=-1)[..., ::-1]
    css = np.cumsum(u, axis=-1) - 1.0
    rho_candidates = u - css / np.arange(1, n + 1) > 0
    rho = n - 1 - np.argmax(rho_candidates[..., ::-1], axis=-1, keepdims=True)
    theta = np.take_along_axis(css, rho, axis=-1) / (rho + 1)
    return np.maximum(v - theta, 0.0)


def _gradient(blocks, zeta, g):
    gap = blocks.x1 - blocks.x0.T @ g
    grad = -2.0 * (blocks.x0 @ gap)
    if zeta != 0.0:
        grad = grad + 2.0 * zeta * g
    return grad


def _residual(g, grad):
    """Unit-step projected-gradient residual ||g - P(g - grad)||, P the simplex
    projection, of a solution or of each column of N0 x m solutions."""
    return np.linalg.norm(g - project_simplex((g - grad).T).T, axis=0)


def kkt_residual(blocks, w, zeta=None):
    """Unit-step projected-gradient fixed-point residual.

    Zero exactly at any solution of the constrained problem; used both as
    the solver stopping rule and as the reported stationarity diagnostic.
    """
    g = weight_values(w)
    return float(_residual(g, _gradient(blocks, _zeta(blocks, zeta), g)))


def solve_scm(blocks, zeta=None, start=None):
    """Solve the penalized SCM problem; returns simplex :class:`DonorWeights`.

    Parameters
    ----------
    blocks : PanelBlocks
        Design; only ``x1`` and ``x0`` are used. Because the weights sum to
        one, the solution is invariant to column centering.
    zeta : float or None
        Dispersion penalty, finite and nonnegative. None selects
        ``1e-8 * ||x0||_F^2 / N0``, which breaks ties between otherwise
        non-unique un-penalized solutions; an explicit 0.0 is honored.
    start : array or None
        Starting point, projected onto the simplex; its support is the
        first working set. None starts at the best single-donor vertex.

    Raises
    ------
    ConfigError
        With fewer than two donors, or a negative or non-finite ``zeta``.
    ConvergenceError
        If the KKT residual target is not met within ``ITERATION_CAP``
        active-set iterations; the exception carries the final residual.
    """
    n0 = blocks.x0.shape[0]
    if n0 < 2:
        raise ConfigError("need at least 2 donor units")
    zeta = _zeta(blocks, zeta)
    # a copy: NumPy's symmetric kernel for x0 @ x0.T rounds differently
    hess = 2.0 * (blocks.x0.copy() @ blocks.x0.T)
    hess[np.diag_indices(n0)] += 2.0 * zeta
    # H is positive semidefinite, so its largest entry is on the diagonal
    scale = max(1.0, float(hess.diagonal().max()))

    if start is None:
        g = np.zeros(n0)
        g[int(np.argmin(np.sum((blocks.x1 - blocks.x0) ** 2, axis=1)))] = 1.0
    else:
        g = project_simplex(np.asarray(start, dtype=float))
        # weights below the resolution of a unit sum are round-off that the
        # projection spreads over every zero of an already feasible start
        g[g < np.finfo(float).eps] = 0.0
    active = g > 0.0
    support = np.flatnonzero(active)
    grad = _gradient(blocks, zeta, g)
    stationary = np.ptp(grad[support]) <= _tiny(grad[support].sum() / support.size)
    # the objective strictly decreases from one stationary working set to the
    # next, so meeting one again means round-off is cycling the method
    seen = set()

    for it in range(1, ITERATION_CAP + 1):
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
        grad = _gradient(blocks, zeta, g)

    g = g / g.sum()  # strip round-off in the sum
    res = float(_residual(g, _gradient(blocks, zeta, g)))
    logger.debug(
        "scm active-set solve: %d donors, %d iterations, support %d, KKT residual %.3e",
        n0, it, int(np.count_nonzero(g)), res,
    )
    target = KKT_TOL * scale
    if res > target:
        raise ConvergenceError(
            f"SCM solver stopped after {it} active-set iterations with KKT residual "
            f"{res:.3e} > target {target:.3e}",
            residual=res,
        )
    return DonorWeights(values=g)


def _tiny(mu):
    """Gradient differences below this are round-off, not optimality gaps
    (elementwise for an array of multipliers)."""
    return 1e-12 * np.maximum(1.0, np.abs(mu))


def _bordered(hess, neg_grad, gs, mask=None):
    """The bordered KKT system of a step from gs on its support: the matrix
    [[H_S, 1], [1', 0]] and the right-hand side [-grad_S, 1 - sum(gs)], for
    one support Hessian H_S (k x k) or a stack of them (m x k x k, with m x k
    minus-gradients). Donors outside ``mask`` (m x k, default none) are held
    at zero: identity rows with a zero border and right-hand side."""
    k = gs.shape[-1]
    if mask is not None:
        hess = np.where(mask[..., None] & mask[..., None, :], hess, np.eye(k))
        neg_grad = np.where(mask, neg_grad, 0.0)
    kkt = np.ones(hess.shape[:-2] + (k + 1, k + 1))
    kkt[..., :k, :k] = hess
    kkt[..., k, k] = 0.0
    if mask is not None:
        kkt[..., :k, k] = kkt[..., k, :k] = mask
    rhs = np.empty(neg_grad.shape[:-1] + (k + 1,))
    rhs[..., :k] = neg_grad
    rhs[..., k] = 1.0 - gs.sum(axis=-1)
    return kkt, rhs


def _newton_step(hess, scale, grad, support, gs):
    """Step from gs to the minimizer on the support subject to sum(g) = 1.

    The right-hand side is the gradient formed from the fit gap, which keeps
    full accuracy when x0'g nearly matches x1 at a large data scale.
    """
    k = support.size
    kkt, rhs = _bordered(hess[support[:, None], support], -grad[support], gs)
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


def solve_leave_one(design, full, zeta):
    """Every leave-one-period-out fold's solution, from ``full``, the
    solution of :func:`solve_scm` on ``design`` at penalty ``zeta``.

    Fold t is ``panel.period_fold(design, t, "leave-one")``: the
    column-centred design C without column t. Its Hessian is 2(C C' -
    c_t c_t' + zeta_t I), zeta_t being ``zeta`` or the default
    ``ZETA_SCALE`` (||C||_F^2 - ||c_t||^2) / N0, and its gradient is formed
    from the fit gap with entry t zeroed. Every fold starts at ``full``, and
    the folds move in lockstep (:func:`_lockstep` on one design), so round 1
    is every fold's step on the support of ``full``. A fold that the
    lockstep pass hands back is solved alone by ``solve_scm``, started at
    ``full``. Returns the N0 x T0 solutions, column t for fold t.
    """
    t0 = design.t0
    zeta = None if zeta is None else _zeta(design, zeta)
    g = np.repeat(full.values[:, None], t0, axis=1)
    g, rejected = _lockstep(
        design.x0[None], design.x1[None], np.arange(t0), zeta, g, "leave-one fold"
    )
    return _solve_rejected(design, full, zeta, g, rejected)


def _solve_rejected(design, full, zeta, g, rejected):
    """``g``, the N0 x T0 leave-one fold solutions of a lockstep pass, with
    each fold in ``rejected`` solved alone by ``solve_scm``, started at
    ``full``."""
    for t in np.flatnonzero(rejected):
        fold = period_fold(design, t, "leave-one")
        g[:, t] = solve_scm(fold, zeta, start=full.values).values
    return g


def _cold_stack(x0, x1):
    """What ``solve_scm`` solves for each of R designs of one shape, centred
    blocks ``x0`` (R x N0 x T0) and ``x1`` (R x T0), at the default penalty
    and from the best single-donor vertex, as one lockstep pass. Returns the
    N0 x R solutions, column r for design r, and the R-mask of those handed
    back to be solved alone."""
    g = np.zeros((x0.shape[1], x0.shape[0]))
    g[np.argmin(np.sum((x1[:, None] - x0) ** 2, axis=2), axis=1), np.arange(x0.shape[0])] = 1.0
    return _lockstep(x0, x1, np.array([-1]), None, g, "cold solve")


def _leave_one_stack(x0, x1, fulls):
    """The leave-one fold solutions of each of R designs of one shape,
    centred blocks ``x0`` (R x N0 x T0) and ``x1`` (R x T0), from its
    full-sample solution, row r of ``fulls`` (R x N0), at the default
    penalty, as one lockstep pass. Returns the R x N0 x T0 solutions and the
    R x T0 mask of folds handed back (see :func:`_solve_rejected`)."""
    n_designs, n0, t0 = x0.shape
    g = np.repeat(fulls.T, t0, axis=1)
    g, rejected = _lockstep(x0, x1, np.arange(t0), None, g, "leave-one fold")
    return g.reshape(n0, n_designs, t0).transpose(1, 0, 2).copy(), rejected.reshape(n_designs, t0)


def _lockstep(x0, x1, held, zeta, g, kind):
    """Solve M problems on each of R designs of one shape in lockstep.

    ``x0`` (R x N0 x T0) and ``x1`` (R x T0) hold the designs' centred
    blocks. Problem (r, m) is design r without column ``held[m]``, or whole
    where ``held[m]`` is -1, at penalty ``zeta`` (None: each problem's
    default, ``ZETA_SCALE`` times the squared norm of its columns over N0).
    Column r M + m of ``g`` (N0 x RM) is its starting point, on the simplex,
    and receives its solution.

    Every problem keeps its own weights and working set under
    ``solve_scm``'s rules, and the live problems move together: a round is
    one stacked solve, each design's problems on the union of their working
    sets, which its other donors pad to the largest union. A problem's rows
    outside its own set are held at zero. A problem is handed back, to be
    solved alone, when it stops on a blocked just-added donor, is still
    live at ``ITERATION_CAP``, fails the gate (normalised, a
    projected-gradient residual above ``KKT_TOL`` times its Hessian's
    largest diagonal entry, at least 1) or when its own system in a round
    is exactly singular. Returns ``g`` and the RM-mask of problems handed
    back.
    """
    n_designs, n0, t0 = x0.shape
    designs = np.arange(n_designs)[:, None]
    first = designs * held.size  # each design's first problem
    design = np.repeat(designs[:, 0], held.size)  # each problem's
    held = np.tile(held, n_designs)
    cut = held >= 0
    kept = (~cut).astype(float)  # 0 for a problem that holds a period out
    col_sq = np.sum(x0**2, axis=1)
    if zeta is None:
        held_sq = np.where(cut, col_sq[design, held], 0.0)
        zetas = ZETA_SCALE * (col_sq.sum(axis=1)[design] - held_sq) / n0
    else:
        zetas = np.full(design.size, zeta)

    def gradients(cols):
        """The N0 x cols.size gradients of the problems ``cols`` (ascending).
        Several designs take one batched product, each design's chosen
        problems first, padded with its others to the most chosen of any
        design; one design takes plain products, which cost less."""
        if n_designs == 1:
            gs = g[:, cols]
            gaps = x1[0][:, None] - x0[0].T @ gs
            gaps[held[cols], np.arange(cols.size)] *= kept[cols]  # held out: 0
            return 2.0 * (zetas[cols] * gs - x0[0] @ gaps)
        chosen = np.zeros(design.size, dtype=bool)
        chosen[cols] = True
        chosen = chosen.reshape(n_designs, -1)
        counts = chosen.sum(axis=1)
        width = np.arange(counts.max())
        pc = np.argsort(~chosen, axis=1, kind="stable")[:, : width.size] + first
        gs = g[:, pc].transpose(1, 0, 2)
        gaps = x1[:, :, None] - x0.transpose(0, 2, 1) @ gs
        gaps[designs, held[pc], width] *= kept[pc]  # held out: 0
        grads = 2.0 * (zetas[pc][:, None, :] * gs - x0 @ gaps)
        valid = (width < counts[:, None]).ravel()
        return grads.transpose(1, 0, 2).reshape(n0, -1).compress(valid, axis=1)

    every = np.arange(design.size)
    active = g > 0.0
    grad = gradients(every)
    spread = np.where(active, grad, -np.inf).max(axis=0)
    spread -= np.where(active, grad, np.inf).min(axis=0)
    stationary = spread <= _tiny(np.where(active, grad, 0.0).sum(axis=0) / active.sum(axis=0))
    live, fallback = np.ones(design.size, dtype=bool), np.zeros(design.size, dtype=bool)
    rounds, seen, ever = 0, [], np.zeros(design.size, dtype=bool)
    for _ in range(ITERATION_CAP):
        adding = live & stationary
        mu = np.where(active, grad, 0.0).sum(axis=0) / active.sum(axis=0)
        j = np.argmin(np.where(active, np.inf, grad), axis=0)
        again = np.flatnonzero(adding & ever)  # cycling needs an earlier addition
        cycled = np.zeros(adding.shape, dtype=bool)
        if again.size:
            now = active[:, again]
            cycled[again] = np.any(
                [was[again] & np.all(past[:, again] == now, axis=0) for past, was in seen], axis=0
            )
        seen.append((active.copy(), adding))
        ever |= adding
        live &= ~(adding & (cycled | (grad[j, every] >= mu - _tiny(mu))))
        adding &= live
        active[j[adding], adding] = True
        folds = np.flatnonzero(live)
        if folds.size == 0:
            break
        # each design's union of its live problems' working sets comes first
        # in its rows, then its other donors, which pad it to the largest
        at = design[folds]
        if n_designs == 1:
            rows = np.flatnonzero(active[:, folds].any(axis=1))[None]
        else:
            union = (active & live).reshape(n0, n_designs, -1).any(axis=2).T
            rows = np.argsort(~union, axis=1, kind="stable")[:, : union.sum(axis=1).max()]
        idx, k = rows[at], rows.shape[1]
        # column by column, so that _bordered sums each problem's weights in order
        mask, gs = active[idx, folds[:, None]], np.ascontiguousarray(g[idx.T, folds]).T
        cu = x0[designs, rows]
        v = np.where(cut[folds, None], cu[at, :, held[folds]], 0.0)  # held-out columns
        gram = cu @ cu.transpose(0, 2, 1)
        hess = 2.0 * ((gram if n_designs == 1 else gram[at]) - v[:, :, None] * v[:, None, :])
        hess[:, range(k), range(k)] += 2.0 * zetas[folds, None]
        kkt, rhs = _bordered(hess, -grad[idx, folds[:, None]], gs, mask)
        solved = np.ones(folds.size, dtype=bool)
        try:
            step = np.linalg.solve(kkt, rhs[..., None])[..., 0]
        except np.linalg.LinAlgError:  # solve the systems that are not exactly singular
            solved = np.linalg.slogdet(kkt)[0] != 0.0  # the same LU as solve's
            step = np.zeros(rhs.shape)
            step[solved] = np.linalg.solve(kkt[solved], rhs[solved, :, None])[..., 0]
        z = gs + step[:, :-1]
        rounds += 1
        blocked = mask & (z <= 0.0)
        stationary[folds] = ~blocked.any(axis=1)
        # a singular problem is left to solve_scm, and so is a blocked
        # just-added donor: it is round-off, which stops solve_scm, and the
        # batch's round-off differs
        moves = solved & ~np.any(blocked & (gs == 0.0), axis=1)
        live[folds[~moves]] = False
        fallback[folds[~moves]] = True
        # step towards z until the first weight reaches zero; drop every
        # weight that gets there
        dropping = (moves & ~stationary[folds])[:, None]
        ratio = np.divide(gs, gs - z, out=np.full(z.shape, np.inf), where=blocked & dropping)
        alpha = np.where(dropping, ratio.min(axis=1, keepdims=True), 1.0)
        z = np.where(dropping, np.maximum(gs + alpha * (z - gs), 0.0), z)
        z[ratio <= alpha] = 0.0
        folds = folds[moves]
        g[idx[moves], folds[:, None]] = z[moves]
        active[:, folds] = g[:, folds] > 0.0
        if folds.size:
            grad[:, folds] = gradients(folds)
    g /= g.sum(axis=0)  # strip round-off in the sums
    held_out = np.where(cut, x0[design, :, held].T, 0.0)
    diagonal = 2.0 * (np.sum(x0**2, axis=2)[design].T - held_out**2 + zetas)  # of each Hessian
    target = KKT_TOL * np.maximum(1.0, diagonal.max(axis=0))
    rejected = live | fallback | ~(_residual(g, gradients(every)) <= target)
    logger.debug(
        "%s pass: %d %s of %d design(s) in %d batched rounds, %d fitted one by one",
        kind, design.size, "folds" if cut.any() else "problems", n_designs, rounds,
        int(rejected.sum()),
    )
    return g, rejected


def imbalance(blocks, w):
    """L2 norm of the pre-period gap, ||x1 - x0' g||."""
    return float(np.linalg.norm(blocks.x1 - blocks.x0.T @ weight_values(w)))
