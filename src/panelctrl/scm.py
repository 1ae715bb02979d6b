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
working sets, a problem's rows outside its own set held at zero, and one
batched product gives every problem's gradient. A round does only the
bookkeeping its live problems need. Leaving one period out subtracts a
rank-one term from the design's Hessian, so one Gram per design serves all
its problems. :func:`solve_leave_one` is the kernel's R = 1 call
on one design's leave-one-period-out folds, all started at the full
solution; the Monte Carlo harness runs it over a stack of replications'
designs, cold from the best vertex as :func:`solve_scm` is, and over all
their folds. A problem the kernel cannot finish within the KKT gate of
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
        if not _sums_to_one(vals):
            raise ConfigError(f"weights sum to {math.fsum(vals):.12g}, expected 1")
        if self.simplex and vals.min(initial=0.0) < -1e-12:
            raise ConfigError(f"simplex weights have min {vals.min():.3e} < -1e-12")

    def __len__(self):
        return self.values.shape[0]


def _sums_to_one(values):
    """Whether weights sum to one up to 1e-10, summed exactly so that large
    weights (far-out conformal refits) cannot fail it by cancellation."""
    return abs(math.fsum(values) - 1.0) <= 1e-10


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
        one, the solution is invariant to column centring.
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
        g = _best_vertex(blocks.x0, blocks.x1)
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


def _multipliers(active, grad):
    """Each column's mean gradient over its working set, summed row by row
    as NumPy sums two or more columns (a lone one pairwise): a problem's
    multiplier does not depend on which others are live."""
    return np.cumsum(np.where(active, grad, 0.0), axis=0)[-1] / active.sum(axis=0)


def _bordered(hess, neg_grad, gs, mask=None):
    """The bordered KKT system of a step from gs on its support: the matrix
    [[H_S, 1], [1', 0]] and the right-hand side [-grad_S, 1 - sum(gs)], for
    one support Hessian H_S (k x k) or a stack of them (m x k x k, with m x k
    minus-gradients). Donors outside ``mask`` (m x k, default none) are held
    at zero: identity rows with a zero border and right-hand side."""
    k = gs.shape[-1]
    kkt = np.ones(hess.shape[:-2] + (k + 1, k + 1))
    kkt[..., :k, :k] = hess
    kkt[..., k, k] = 0.0
    rhs = np.empty(neg_grad.shape[:-1] + (k + 1,))
    rhs[..., :k] = neg_grad
    rhs[..., k] = 1.0 - gs.sum(axis=-1)
    if mask is not None and not mask.all():
        p, i = np.nonzero(~mask)  # problem p's donor i
        kkt[p, i, :] = kkt[p, :, i] = rhs[p, i] = 0.0
        kkt[p, i, i] = 1.0
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


def _best_vertex(x0, x1):
    """All weight on the donor nearest the target, of one design (N0 weights)
    or of each of a stack of R (N0 x R, column r for design r)."""
    nearest = np.argmin(np.sum((x1[..., None, :] - x0) ** 2, axis=-1), axis=-1)
    return np.equal.outer(np.arange(x0.shape[-2]), nearest).astype(float)


def solve_leave_one(design, full, zeta):
    """Every leave-one-period-out fold's solution, from ``full``, the
    solution of :func:`solve_scm` on ``design`` at penalty ``zeta``.

    Fold t is ``panel.period_fold(design, t, "leave-one")``, the centred
    design C without column t: Hessian 2(C C' - c_t c_t' + zeta_t I), zeta_t
    being ``zeta`` or the default ``ZETA_SCALE`` (||C||_F^2 - ||c_t||^2) /
    N0, and gradient formed from the fit gap with entry t zeroed. The folds
    are the R = 1 call of :func:`_leave_one_stack`; a fold it hands back is
    solved alone by ``solve_scm``, started at ``full``. Returns the N0 x T0
    solutions, column t for fold t.
    """
    zeta = None if zeta is None else _zeta(design, zeta)
    (g,), (rejected,) = _leave_one_stack(design.x0[None], design.x1[None], full.values[None], zeta)
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
    return _lockstep(x0, x1, np.array([-1]), None, _best_vertex(x0, x1), "cold solve")


def _leave_one_stack(x0, x1, fulls, zeta=None):
    """The leave-one fold solutions of each of R designs of one shape,
    centred blocks ``x0`` (R x N0 x T0) and ``x1`` (R x T0), all started at
    the design's full solution, row r of ``fulls`` (R x N0), at penalty
    ``zeta`` (None: each fold's default), as one lockstep pass. Returns the
    R x N0 x T0 solutions and the R x T0 mask of folds handed back."""
    n_designs, n0, t0 = x0.shape
    g = np.repeat(fulls.T, t0, axis=1)
    g, rejected = _lockstep(x0, x1, np.arange(t0), zeta, g, "leave-one fold")
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
    ``solve_scm``'s rules, and the live problems move together. In a round
    each live problem at a stationary point adds the off-set donor whose
    gradient lies furthest below its multiplier, or stops: when none does,
    or when it added a donor from this working set before, which only
    round-off brings about. Then one stacked solve steps every live problem,
    each design's on the union of their working sets, which its other
    donors pad to the largest union; a problem's rows outside its own set
    are held at zero. A round's gradients, of every problem, come from one
    batched product over the R x N0 x M stack. A problem is handed back, to
    be solved alone, when it stops on a blocked just-added donor, is still
    live at ``ITERATION_CAP``, fails the gate (normalised, a
    projected-gradient residual above ``KKT_TOL`` times its Hessian's
    largest diagonal entry, at least 1) or when its own system in a round
    is exactly singular. Returns ``g`` and the RM-mask of problems
    handed back.
    """
    n_designs, n0 = x0.shape[:2]
    designs = np.arange(n_designs)[:, None]
    holding = np.flatnonzero(held >= 0)
    held_entry = designs, held[holding], holding  # of the holding problems' fit gaps
    design = np.repeat(designs[:, 0], held.size)  # each problem's
    held = np.tile(held, n_designs)
    cut = held >= 0
    col_sq = np.sum(x0**2, axis=1)
    if zeta is None:
        held_sq = np.where(cut, col_sq[design, held], 0.0)
        zetas = ZETA_SCALE * (col_sq.sum(axis=1)[design] - held_sq) / n0
    else:
        zetas = np.full(design.size, zeta)

    def gradients():
        """The N0 x RM gradients of every problem, from one batched product
        over the R x N0 x M stack of their weights."""
        gs = g.reshape(n0, n_designs, -1).transpose(1, 0, 2)
        gaps = x1[:, :, None] - x0.transpose(0, 2, 1) @ gs
        if holding.size:
            gaps[held_entry] = 0.0
        grads = 2.0 * (zetas.reshape(n_designs, 1, -1) * gs - x0 @ gaps)
        return grads.transpose(1, 0, 2).reshape(n0, -1)

    active = g > 0.0
    grad = gradients()
    spread = np.where(active, grad, -np.inf).max(axis=0)
    spread -= np.where(active, grad, np.inf).min(axis=0)
    stationary = spread <= _tiny(_multipliers(active, grad))
    live, fallback = np.ones(design.size, dtype=bool), np.zeros(design.size, dtype=bool)
    # the working sets of each round in which a problem added a donor, and
    # which problems added in it: rows [:seen] in use, doubled when full
    past, added = np.zeros((4, n0, design.size), dtype=bool), np.zeros((4, design.size), dtype=bool)
    rounds, seen = 0, 0
    for _ in range(ITERATION_CAP):
        adding = np.flatnonzero(live & stationary)
        if adding.size:
            now, grads = active[:, adding], grad[:, adding]
            mu = _multipliers(now, grads)
            j = np.argmin(np.where(now, np.inf, grads), axis=0)
            again = np.all(past[:seen, :, adding] == now, axis=1)  # a working set met again
            cycled = np.any(added[:seen, adding] & again, axis=0)
            live[adding[cycled | (grad[j, adding] >= mu - _tiny(mu))]] = False
            if seen == added.shape[0]:
                past, added = np.concatenate([past, past]), np.concatenate([added, added])
            past[seen], added[seen] = active, live & stationary
            seen += 1
            adds = live[adding]
            active[j[adds], adding[adds]] = True
        folds = np.flatnonzero(live)
        if folds.size == 0:
            break
        # each design's union of its live problems' working sets comes first
        # in its rows, then its other donors, which pad it to the largest
        at = design[folds]
        union = (active & live).reshape(n0, n_designs, -1).any(axis=2).T
        rows = np.argsort(~union, axis=1, kind="stable")[:, : union.sum(axis=1).max()]
        idx, k = rows[at], rows.shape[1]
        # column by column, so that _bordered sums each problem's weights in order
        mask, gs = active[idx, folds[:, None]], np.ascontiguousarray(g[idx.T, folds]).T
        cu = x0[designs, rows]
        gram = cu @ cu.transpose(0, 2, 1)
        hess = gram[at]  # updated in place: a stack's temporaries are large
        if holding.size:
            v = np.where(cut[folds, None], cu[at, :, held[folds]], 0.0)  # held-out columns
            hess -= v[:, :, None] * v[:, None, :]
        hess *= 2.0
        hess.reshape(folds.size, -1)[:, :: k + 1] += 2.0 * zetas[folds, None]  # the diagonals
        kkt, rhs = _bordered(hess, -grad[idx, folds[:, None]], gs, mask)
        solved = np.ones(folds.size, dtype=bool)
        try:
            step = np.linalg.solve(kkt, rhs[..., None])[..., 0]
        except np.linalg.LinAlgError:  # solve the systems that are not exactly singular
            solved = np.linalg.slogdet(kkt)[0] != 0.0  # the same LU as solve's
            step = np.zeros(rhs.shape)
            step[solved] = np.linalg.solve(kkt[solved], rhs[solved, :, None])[..., 0]
        z = gs + step[:, :-1]
        del kkt, rhs, hess, step  # freed before the next round builds its own
        rounds += 1
        blocked = mask & (z <= 0.0)
        stationary[folds] = ~blocked.any(axis=1)
        # a singular problem is left to solve_scm, and so is a blocked
        # just-added donor: it is round-off, which stops solve_scm, and the
        # batch's round-off differs
        moves = solved & ~np.any(blocked & (gs == 0.0), axis=1)
        if not moves.all():
            live[folds[~moves]] = False
            fallback[folds[~moves]] = True
            folds, idx, gs, z, blocked = (a[moves] for a in (folds, idx, gs, z, blocked))
        if blocked.any():
            # step towards z until the first weight reaches zero; drop every
            # weight that gets there
            dropping = blocked.any(axis=1, keepdims=True)
            ratio = np.divide(gs, gs - z, out=np.full(z.shape, np.inf), where=blocked)
            alpha = np.where(dropping, ratio.min(axis=1, keepdims=True), 1.0)
            z = np.where(dropping, np.maximum(gs + alpha * (z - gs), 0.0), z)
            z[ratio <= alpha] = 0.0
        g[idx, folds[:, None]] = z
        active[:, folds] = g[:, folds] > 0.0
        if folds.size:
            grad[:, folds] = gradients()[:, folds]
    g /= g.sum(axis=0)  # strip round-off in the sums
    held_out = np.where(cut, x0[design, :, held].T, 0.0)
    diagonal = 2.0 * (np.sum(x0**2, axis=2)[design].T - held_out**2 + zetas)  # of each Hessian
    target = KKT_TOL * np.maximum(1.0, diagonal.max(axis=0))
    rejected = live | fallback | ~(_residual(g, gradients()) <= target)
    logger.debug(
        "%s pass: %d %s of %d design(s) in %d batched rounds, %d fitted one by one",
        kind, design.size, "folds" if cut.any() else "problems", n_designs, rounds,
        int(rejected.sum()),
    )
    return g, rejected


def imbalance(blocks, w):
    """L2 norm of the pre-period gap, ||x1 - x0' g||, of one design, or of a
    stack along leading axes (``w`` ... x N0) as an array, each design's by
    its lone call's products (``np.linalg.norm`` over an axis rounds apart)."""
    g = weight_values(w)
    gap = blocks.x1[..., None] - np.swapaxes(blocks.x0, -1, -2) @ g[..., None]
    return np.sqrt(np.swapaxes(gap, -1, -2) @ gap)[..., 0, 0][()]  # a float for one design
