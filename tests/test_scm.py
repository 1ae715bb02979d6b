import logging
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panelctrl import scm
from panelctrl.errors import ConfigError, ConvergenceError
from panelctrl.panel import PanelBlocks, period_fold, period_folds
from panelctrl.scm import (
    DonorWeights,
    imbalance,
    kkt_residual,
    project_simplex,
    solve_leave_one,
    solve_scm,
)

from conftest import make_blocks
from oracles import scm_objective, simplex_grid_objective


def _iterations(caplog):
    """The iteration count of the one solve logged in ``caplog``."""
    (line,) = [r.getMessage() for r in caplog.records if "active-set solve" in r.getMessage()]
    return int(re.search(r"(\d+) iterations", line).group(1))


def blocks_from(x1, x0):
    x0 = np.asarray(x0, dtype=float)
    n0 = x0.shape[0]
    return PanelBlocks(
        x1=np.asarray(x1, dtype=float),
        x0=x0,
        y0_post=np.zeros((n0, 1)),
        y1_post=np.zeros(1),
    )


class TestProjectSimplex:
    def test_already_feasible(self):
        v = np.array([0.2, 0.3, 0.5])
        assert np.allclose(project_simplex(v), v)

    def test_random_properties(self, rng):
        for _ in range(200):
            v = rng.normal(size=rng.integers(2, 12)) * 10
            w = project_simplex(v)
            assert w.min() >= 0.0
            assert abs(w.sum() - 1.0) < 1e-12
            # projection is the closest feasible point: check against random feasible points
            z = rng.dirichlet(np.ones(v.shape[0]))
            assert np.linalg.norm(v - w) <= np.linalg.norm(v - z) + 1e-12


class TestSolveScm:
    def test_symmetric_midpoint(self):
        blocks = blocks_from([1.0, 1.0], [[0.0, 0.0], [2.0, 2.0]])
        w = solve_scm(blocks, zeta=0.0)
        assert np.allclose(w.values, [0.5, 0.5], atol=1e-8)
        assert imbalance(blocks, w) < 1e-8

    def test_exact_vertex_fit(self, rng):
        x0 = rng.normal(size=(5, 4))
        blocks = blocks_from(x0[0], x0)
        w = solve_scm(blocks, zeta=1e-6)
        expected = np.zeros(5)
        expected[0] = 1.0
        assert np.abs(w.values - expected).max() < 1e-6

    def test_grid_oracle_small(self, rng):
        for _ in range(5):
            x0 = rng.normal(size=(3, 2))
            x1 = rng.normal(size=2)
            blocks = blocks_from(x1, x0)
            w = solve_scm(blocks, zeta=0.0)
            best, _ = simplex_grid_objective(x1, x0, resolution=1e-3)
            assert scm_objective(blocks, w, zeta=0.0) <= best + 1e-5

    def test_grid_oracle_with_penalty(self, rng):
        x0 = rng.normal(size=(3, 3))
        x1 = rng.normal(size=3)
        blocks = blocks_from(x1, x0)
        w = solve_scm(blocks, zeta=0.3)
        best, _ = simplex_grid_objective(x1, x0, resolution=1e-3, zeta=0.3)
        assert scm_objective(blocks, w, zeta=0.3) <= best + 1e-5

    def test_kkt_residual_on_random_instances(self, rng):
        for _ in range(20):
            n0 = int(rng.integers(4, 20))
            t0 = int(rng.integers(2, 10))
            blocks = make_blocks(rng, n0, t0)
            w = solve_scm(blocks)
            assert kkt_residual(blocks, w) <= 1e-8

    def test_warm_start_at_solution_accepts_one_iterate(self, rng, caplog):
        for _ in range(10):
            blocks = make_blocks(rng, 12, 6)
            w = solve_scm(blocks)
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="panelctrl.scm"):
                again = solve_scm(blocks, start=w.values)
            assert _iterations(caplog) == 1
            assert np.abs(again.values - w.values).max() < 1e-12

    def test_near_duplicate_donors_do_not_cycle(self, caplog):
        # with zeta = 0 a just-added near twin of a support donor can come out
        # with a nonpositive weight by round-off; the solver must stop there,
        # not drop and re-add it until the iteration cap (convergence on such
        # designs is not guaranteed, so a ConvergenceError is allowed)
        for seed in range(40):
            rng = np.random.default_rng(seed)
            x0 = rng.normal(size=(20, 6))
            x0 = np.vstack([x0, x0 + rng.normal(size=x0.shape) * 1e-9])
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="panelctrl.scm"):
                try:
                    solve_scm(blocks_from(rng.normal(size=6), x0), zeta=0.0)
                except ConvergenceError:
                    pass
            assert _iterations(caplog) < 50

    def test_unique_solution_from_different_starts(self, rng):
        for _ in range(10):
            n0 = int(rng.integers(4, 12))
            blocks = make_blocks(rng, n0, 4)
            w1 = solve_scm(blocks, zeta=1e-3)
            start = rng.dirichlet(np.ones(n0))
            w2 = solve_scm(blocks, zeta=1e-3, start=start)
            assert np.abs(w1.values - w2.values).max() < 1e-6

    def test_convex_hull_interior_fit(self, rng):
        # treated constructed inside the hull: certified exact fit
        for _ in range(10):
            n0 = int(rng.integers(3, 8))
            x0 = rng.normal(size=(n0, 3))
            g_true = rng.dirichlet(np.ones(n0))
            x1 = x0.T @ g_true
            blocks = blocks_from(x1, x0)
            w = solve_scm(blocks, zeta=0.0)
            assert imbalance(blocks, w) <= 1e-6

    def test_determinism(self, rng):
        blocks = make_blocks(rng, 10, 6)
        w1 = solve_scm(blocks)
        w2 = solve_scm(blocks)
        assert np.array_equal(w1.values, w2.values)

    @pytest.mark.parametrize("c", [1e3, 1e4])
    def test_rescaled_design_gives_the_same_weights(self, c):
        # data in the thousands: the KKT target grows with the curvature
        for seed in range(10):
            rng = np.random.default_rng(seed)
            x0 = rng.normal(size=(19, 20))
            x1 = rng.normal(size=20)
            w = solve_scm(blocks_from(x1, x0))
            w_c = solve_scm(blocks_from(c * x1, c * x0))
            assert np.abs(w_c.values - w.values).max() < 1e-7

    def test_default_zeta_honors_explicit_zero(self, rng):
        blocks = make_blocks(rng, 6, 4)
        zeta_auto = scm._zeta(blocks, None)
        assert zeta_auto > 0
        assert scm._zeta(blocks, 0.0) == 0.0
        expected = 1e-8 * np.sum(blocks.x0**2) / blocks.n_donors
        assert np.isclose(zeta_auto, expected)

    def test_needs_two_donors(self, rng):
        blocks = make_blocks(rng, 2, 3)
        solve_scm(blocks)  # fine
        one = PanelBlocks(
            x1=blocks.x1,
            x0=blocks.x0[:1] - blocks.x0[:1].mean(axis=0),
            y0_post=blocks.y0_post[:1],
            y1_post=blocks.y1_post,
        )
        with pytest.raises(ConfigError):
            solve_scm(one)


@settings(max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    duplicates=st.booleans(),
    wide=st.booleans(),
    inside_hull=st.booleans(),
    negative_start=st.booleans(),
    zero_zeta=st.booleans(),
)
def test_solution_is_a_kkt_point_on_the_simplex(
    seed, duplicates, wide, inside_hull, negative_start, zero_zeta
):
    """Duplicate donors (zeta = 0), more donors than periods, an exactly
    reachable treated unit and infeasible starts all end at a KKT point."""
    rng = np.random.default_rng(seed)
    if wide:
        n0, t0 = 120, 10
    else:
        n0, t0 = int(rng.integers(2, 15)), int(rng.integers(2, 12))
    x0 = rng.normal(size=(n0, t0))
    if duplicates:
        x0 = np.vstack([x0, x0[rng.integers(n0, size=int(rng.integers(1, n0 + 1)))]])
    x1 = x0.T @ rng.dirichlet(np.ones(x0.shape[0])) if inside_hull else rng.normal(size=t0)
    zeta = 0.0 if duplicates or zero_zeta else None
    start = rng.normal(size=x0.shape[0]) if negative_start else None
    blocks = blocks_from(x1, x0)
    w = solve_scm(blocks, zeta, start=start)
    assert kkt_residual(blocks, w, zeta) <= 1e-8
    assert w.values.min() >= 0.0
    assert abs(math.fsum(w.values) - 1.0) <= 1e-12


@settings(max_examples=80)
@given(
    seed=st.integers(0, 2**32 - 1),
    near_duplicates=st.booleans(),
    wide=st.booleans(),
    zero_zeta=st.booleans(),
)
def test_warm_fold_solve_matches_the_cold_one(seed, near_duplicates, wide, zero_zeta):
    """A leave-one-period-out fold solved from the full-sample weights ends
    where a cold solve of the fold ends, and passes the same KKT gate.

    At zeta = 0 the weights need not be unique, the synthetic control
    x0'g and the objective are, so those are compared. Near-duplicate
    donors at zeta = 0 stop at the gate's accuracy whether warm or cold
    (KKT near 1e-9, see test_near_duplicate_donors_do_not_cycle), so that
    case is compared at the 1e-8 of test_solution_is_a_kkt_point_on_the_simplex
    and may raise ConvergenceError.
    """
    rng = np.random.default_rng(seed)
    if wide:
        n0, t0 = 120, 10
    else:
        n0, t0 = int(rng.integers(2, 15)), int(rng.integers(3, 12))
    x0 = rng.normal(size=(n0, t0))
    if near_duplicates:
        x0 = np.vstack([x0, x0 + rng.normal(size=x0.shape) * 1e-9])
    zeta = 0.0 if near_duplicates or zero_zeta else None
    blocks = blocks_from(rng.normal(size=t0), x0)
    _, fold = list(period_folds(blocks))[int(rng.integers(t0))]
    try:
        full = solve_scm(blocks, zeta)
        warm = solve_scm(fold, zeta, start=full.values)
        cold = solve_scm(fold, zeta)
    except ConvergenceError:
        if near_duplicates:
            return
        raise
    fold_zeta = scm._zeta(fold, zeta)
    scale = max(1.0, 2.0 * float((fold.x0**2).sum(axis=1).max()) + 2.0 * fold_zeta)
    tol = 1e-8 if near_duplicates else 1e-10
    for w in (warm, cold):
        assert kkt_residual(fold, w, zeta) <= scm.KKT_TOL * scale
        assert w.values.min() >= 0.0
    fit_gap = np.abs(fold.x0.T @ (warm.values - cold.values)).max()
    assert fit_gap <= tol * max(1.0, np.abs(fold.x1).max())
    objective = scm_objective(fold, cold, fold_zeta)
    assert abs(scm_objective(fold, warm, fold_zeta) - objective) <= tol * max(1.0, objective)


def _twin_design(seed):
    """A design whose treated unit leans on near-duplicate donors: some
    donors get a twin perturbed by 1e-14..1e-6, and the data is scaled by
    1e-2..1e4."""
    rng = np.random.default_rng(seed)
    n0, t0 = int(rng.integers(3, 10)), int(rng.integers(5, 12))
    x0 = rng.normal(size=(n0, t0))
    twins = rng.choice(n0, size=int(rng.integers(1, n0 + 1)), replace=False)
    noise = 10.0 ** rng.uniform(-14, -6, size=(twins.size, 1))
    x0 = np.vstack([x0, x0[twins] + noise * rng.normal(size=(twins.size, t0))])
    w = np.zeros(x0.shape[0])
    w[twins], w[n0:] = rng.dirichlet(np.ones(twins.size)), rng.dirichlet(np.ones(twins.size))
    x1 = x0.T @ w / 2.0 + 0.3 * rng.normal(size=t0)
    scale = 10.0 ** rng.uniform(-2, 4)
    return blocks_from(x1 * scale, x0 * scale)


def test_leave_one_folds_of_near_duplicate_twins():
    """At zeta = 0, on 300 fixed twin designs, every fold that
    ``solve_leave_one`` returns passes the KKT gate with an objective no
    worse than its own warm ``solve_scm``'s. The batch raises
    ``ConvergenceError`` only for a fold whose warm solve raises it; a few
    warm solves raise where the batch, on its own path, meets the gate."""
    for seed in range(300):
        blocks = _twin_design(seed)
        try:
            full = solve_scm(blocks, 0.0)
        except ConvergenceError:
            continue
        folds, warm = [period_fold(blocks, t, "leave-one") for t in range(blocks.t0)], []
        for fold in folds:
            try:
                warm.append(solve_scm(fold, 0.0, start=full.values))
            except ConvergenceError:
                warm.append(None)
        try:
            solutions = solve_leave_one(blocks, full, 0.0)
        except ConvergenceError:
            assert None in warm
            continue
        assert solutions.min() >= 0.0
        for fold, w, g in zip(folds, warm, solutions.T):
            scale = max(1.0, 2.0 * float((fold.x0**2).sum(axis=1).max()))
            assert kkt_residual(fold, g, 0.0) <= scm.KKT_TOL * scale
            if w is not None:
                assert scm_objective(fold, g, 0.0) <= scm_objective(fold, w, 0.0) + 1e-12 * scale


def test_cycle_guard_stops_a_twin_design_at_its_solution():
    """Solved cold at zeta = 0, twin design 2357 meets again a stationary
    working set that it added a donor from, which round-off alone can do.
    The guard accepts it there, at ``solve_scm``'s solution; without the
    guard the pass cycles on and hands it back."""
    blocks = _twin_design(2357)
    x0, x1 = blocks.x0[None], blocks.x1[None]
    g, rejected = scm._lockstep(x0, x1, np.array([-1]), 0.0, scm._best_vertex(x0, x1), "cold")
    assert not rejected.any()
    assert np.abs(g[:, 0] - solve_scm(blocks, 0.0).values).max() <= 1e-12


def _stack_of_designs(seed, count, n0=9, t0=12):
    """Designs of one shape whose supports differ in size: some targets lie
    near a single donor, others among many."""
    rng = np.random.default_rng(seed)
    designs = []
    for i in range(count):
        x0 = rng.normal(size=(n0, t0)).cumsum(axis=1)
        w = rng.dirichlet(np.ones(1 + i % n0))
        x1 = x0[: w.size].T @ w + 0.3 * rng.normal(size=t0)
        designs.append(blocks_from(x1, x0))
    return designs


def _stacked(designs):
    """The R x N0 x T0 and R x T0 arrays of a list of designs' x0 and x1."""
    return np.stack([d.x0 for d in designs]), np.stack([d.x1 for d in designs])


@pytest.mark.parametrize("count", [17, 1])
@pytest.mark.parametrize("seed", range(6))
def test_stacked_cold_solves_match_solve_scm(seed, count):
    # one lockstep pass over a stack of designs (or of one), each from its
    # best vertex, is each design's own solve_scm up to round-off
    designs = _stack_of_designs(seed, count)
    g, rejected = scm._cold_stack(*_stacked(designs))
    assert g.shape == (9, count) and not rejected.any()
    for design, w in zip(designs, g.T):
        assert np.abs(w - solve_scm(design).values).max() <= 1e-12


@pytest.mark.parametrize("zeta", [None, 0.0, 0.05])
@pytest.mark.parametrize("seed", range(6))
def test_stacked_folds_match_solve_leave_one(seed, zeta):
    # every design's folds in one stack, padded to the largest union of
    # working sets, are the folds of its own lockstep pass, at the default
    # penalty or an explicit one
    designs = _stack_of_designs(seed, 7)
    fulls = np.array([solve_scm(d, zeta).values for d in designs])
    g, rejected = scm._leave_one_stack(*_stacked(designs), fulls, zeta)
    assert g.shape == (7, 9, 12) and not rejected.any()
    for design, full, folds in zip(designs, fulls, g):
        alone = solve_leave_one(design, DonorWeights(values=full), zeta)
        assert np.abs(folds - alone).max() <= 1e-12


@settings(max_examples=25)
@given(seed=st.integers(0, 2**32 - 1), order=st.permutations(range(13)))
def test_permuting_a_stack_permutes_its_solutions(seed, order):
    """A stack's designs in another order give the same solutions and
    hand-back masks, permuted, bit for bit, from the cold pass and from the
    fold pass: no problem's bookkeeping reads another's."""
    x0, x1 = _stacked(_stack_of_designs(seed, 13))
    order = np.array(order)
    g, back = scm._cold_stack(x0, x1)
    g_order, back_order = scm._cold_stack(x0[order], x1[order])
    assert g_order.tobytes() == g[:, order].tobytes()
    assert np.array_equal(back_order, back[order])
    fulls = np.ascontiguousarray(g.T)
    folds, back = scm._leave_one_stack(x0, x1, fulls)
    folds_order, back_order = scm._leave_one_stack(x0[order], x1[order], fulls[order])
    assert folds_order.tobytes() == folds[order].tobytes()
    assert np.array_equal(back_order, back[order])


class TestImbalance:
    def test_perfect_fit_zero(self):
        blocks = blocks_from([1.0, 1.0], [[0.0, 0.0], [2.0, 2.0]])
        assert imbalance(blocks, np.array([0.5, 0.5])) == 0.0

    def test_hand_arithmetic(self):
        blocks = blocks_from([0.0, 1.0], [[0.0, 0.0], [2.0, 0.0]])
        value = imbalance(blocks, np.array([0.5, 0.5]))
        assert np.isclose(value, np.sqrt(2.0))


class TestDonorWeights:
    def test_sum_constraint_enforced(self):
        with pytest.raises(ConfigError):
            DonorWeights(values=np.array([0.6, 0.6]))

    def test_simplex_constraint_enforced(self):
        with pytest.raises(ConfigError):
            DonorWeights(values=np.array([1.5, -0.5]))
        DonorWeights(values=np.array([1.5, -0.5]), simplex=False)  # fine


class TestConfigValidation:
    def test_negative_zeta(self, rng):
        blocks = make_blocks(rng, 4, 3)
        with pytest.raises(ConfigError):
            solve_scm(blocks, zeta=-1.0)

    @pytest.mark.parametrize("zeta", [np.nan, np.inf])
    def test_non_finite_zeta(self, rng, zeta):
        blocks = make_blocks(rng, 4, 3)
        with pytest.raises(ConfigError, match="zeta"):
            solve_scm(blocks, zeta)
        with pytest.raises(ConfigError, match="zeta"):
            kkt_residual(blocks, np.full(4, 0.25), zeta)


class TestConvergenceDiagnostic:
    def test_non_convergence_carries_residual(self, rng, monkeypatch):
        blocks = make_blocks(rng, 10, 6)
        monkeypatch.setattr(scm, "ITERATION_CAP", 1)
        monkeypatch.setattr(scm, "KKT_TOL", 1e-300)
        with pytest.raises(ConvergenceError) as err:
            solve_scm(blocks, zeta=1e-4)
        assert err.value.residual is not None
        assert err.value.residual > 0
        assert "after 1 active-set iterations" in str(err.value)

    def test_debug_log_reports_iterations_support_and_residual(self, rng, caplog):
        blocks = make_blocks(rng, 10, 6)
        with caplog.at_level(logging.DEBUG, logger="panelctrl.scm"):
            w = solve_scm(blocks)
        (message,) = [r.getMessage() for r in caplog.records if r.name == "panelctrl.scm"]
        support = int(np.count_nonzero(w.values))
        assert f"support {support}," in message
        assert " iterations" in message and "KKT residual" in message
