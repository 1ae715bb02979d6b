import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panelctrl.errors import ConfigError, ConvergenceError
from panelctrl.panel import PanelBlocks
from panelctrl.scm import (
    DonorWeights,
    ScmConfig,
    imbalance,
    kkt_residual,
    project_simplex,
    scm_objective,
    solve_scm,
)

from conftest import make_blocks
from oracles import simplex_grid_objective


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
        w = solve_scm(blocks, ScmConfig(zeta=0.0))
        assert np.allclose(w.values, [0.5, 0.5], atol=1e-8)
        assert imbalance(blocks, w) < 1e-8

    def test_exact_vertex_fit(self, rng):
        x0 = rng.normal(size=(5, 4))
        blocks = blocks_from(x0[0], x0)
        w = solve_scm(blocks, ScmConfig(zeta=1e-6))
        expected = np.zeros(5)
        expected[0] = 1.0
        assert np.abs(w.values - expected).max() < 1e-6

    def test_grid_oracle_small(self, rng):
        for _ in range(5):
            x0 = rng.normal(size=(3, 2))
            x1 = rng.normal(size=2)
            blocks = blocks_from(x1, x0)
            cfg = ScmConfig(zeta=0.0)
            w = solve_scm(blocks, cfg)
            best, _ = simplex_grid_objective(x1, x0, resolution=1e-3)
            assert scm_objective(blocks, w, cfg) <= best + 1e-5

    def test_grid_oracle_with_penalty(self, rng):
        x0 = rng.normal(size=(3, 3))
        x1 = rng.normal(size=3)
        blocks = blocks_from(x1, x0)
        cfg = ScmConfig(zeta=0.3)
        w = solve_scm(blocks, cfg)
        best, _ = simplex_grid_objective(x1, x0, resolution=1e-3, zeta=0.3)
        assert scm_objective(blocks, w, cfg) <= best + 1e-5

    def test_kkt_residual_on_random_instances(self, rng):
        for _ in range(20):
            n0 = int(rng.integers(4, 20))
            t0 = int(rng.integers(2, 10))
            blocks = make_blocks(rng, n0, t0)
            w = solve_scm(blocks)
            assert kkt_residual(blocks, w) <= 1e-8

    def test_objective_monotone_along_trace(self, rng):
        for _ in range(10):
            blocks = make_blocks(rng, 8, 5)
            trace = []
            w = solve_scm(blocks, trace=trace)
            # the start is the first accepted iterate; only a solution at the
            # starting vertex itself needs no move
            assert len(trace) >= (2 if np.count_nonzero(w.values) > 1 else 1)
            diffs = np.diff(np.asarray(trace))
            assert np.all(diffs <= 1e-12)

    def test_warm_start_at_solution_accepts_one_iterate(self, rng):
        for _ in range(10):
            blocks = make_blocks(rng, 12, 6)
            w = solve_scm(blocks)
            trace = []
            again = solve_scm(blocks, start=w.values, trace=trace)
            assert len(trace) == 1
            assert np.abs(again.values - w.values).max() < 1e-12

    def test_near_duplicate_donors_do_not_cycle(self):
        # with zeta = 0 a just-added near twin of a support donor can come out
        # with a nonpositive weight by round-off; the solver must stop there,
        # not drop and re-add it until max_iter (convergence on such designs
        # is not guaranteed, so a ConvergenceError is allowed)
        for seed in range(40):
            rng = np.random.default_rng(seed)
            x0 = rng.normal(size=(20, 6))
            x0 = np.vstack([x0, x0 + rng.normal(size=x0.shape) * 1e-9])
            trace = []
            try:
                solve_scm(blocks_from(rng.normal(size=6), x0), ScmConfig(zeta=0.0), trace=trace)
            except ConvergenceError:
                pass
            assert len(trace) < 50

    def test_unique_solution_from_different_starts(self, rng):
        for _ in range(10):
            n0 = int(rng.integers(4, 12))
            blocks = make_blocks(rng, n0, 4)
            cfg = ScmConfig(zeta=1e-3)
            w1 = solve_scm(blocks, cfg)
            start = rng.dirichlet(np.ones(n0))
            w2 = solve_scm(blocks, cfg, start=start)
            assert np.abs(w1.values - w2.values).max() < 1e-6

    def test_convex_hull_interior_fit(self, rng):
        # treated constructed inside the hull: certified exact fit
        for _ in range(10):
            n0 = int(rng.integers(3, 8))
            x0 = rng.normal(size=(n0, 3))
            g_true = rng.dirichlet(np.ones(n0))
            x1 = x0.T @ g_true
            blocks = blocks_from(x1, x0)
            w = solve_scm(blocks, ScmConfig(zeta=0.0, tol=1e-10))
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
        v, zeta_auto = ScmConfig().resolve(blocks)
        assert zeta_auto > 0
        _, zeta_zero = ScmConfig(zeta=0.0).resolve(blocks)
        assert zeta_zero == 0.0
        expected = 1e-8 * np.sum(blocks.x0**2) / blocks.n_donors
        assert np.isclose(zeta_auto, expected)

    def test_importance_weighting_changes_solution(self, rng):
        blocks = make_blocks(rng, 5, 3)
        w_flat = solve_scm(blocks, ScmConfig(zeta=0.0))
        w_skew = solve_scm(blocks, ScmConfig(importance=np.array([100.0, 1.0, 1.0]), zeta=0.0))
        gap_flat = blocks.x1 - blocks.x0.T @ w_flat.values
        gap_skew = blocks.x1 - blocks.x0.T @ w_skew.values
        assert abs(gap_skew[0]) <= abs(gap_flat[0]) + 1e-9

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
    cfg = ScmConfig(zeta=0.0 if duplicates or zero_zeta else None)
    start = rng.normal(size=x0.shape[0]) if negative_start else None
    blocks = blocks_from(x1, x0)
    w = solve_scm(blocks, cfg, start=start)
    assert kkt_residual(blocks, w, cfg) <= 1e-8
    assert w.values.min() >= 0.0
    assert abs(math.fsum(w.values) - 1.0) <= 1e-12


class TestImbalance:
    def test_perfect_fit_zero(self):
        blocks = blocks_from([1.0, 1.0], [[0.0, 0.0], [2.0, 2.0]])
        assert imbalance(blocks, np.array([0.5, 0.5])) == 0.0

    def test_hand_arithmetic(self):
        blocks = blocks_from([0.0, 1.0], [[0.0, 0.0], [2.0, 0.0]])
        value = imbalance(blocks, np.array([0.5, 0.5]))
        assert np.isclose(value, np.sqrt(2.0))

    def test_scaled_importance_quadratic_form(self, rng):
        for _ in range(10):
            blocks = make_blocks(rng, 4, 2, center=False)
            g = rng.dirichlet(np.ones(4))
            v = np.array([4.0, 1.0])
            direct = imbalance(blocks, g, importance=v)
            gap = blocks.x1 - blocks.x0.T @ g
            assert np.isclose(direct, np.sqrt(gap @ (v * gap)))


class TestDonorWeights:
    def test_sum_constraint_enforced(self):
        with pytest.raises(ConfigError):
            DonorWeights(values=np.array([0.6, 0.6]))

    def test_simplex_constraint_enforced(self):
        with pytest.raises(ConfigError):
            DonorWeights(values=np.array([1.5, -0.5]))
        DonorWeights(values=np.array([1.5, -0.5]), simplex=False)  # fine


class TestConfigValidation:
    def test_negative_zeta(self):
        with pytest.raises(ConfigError):
            ScmConfig(zeta=-1.0)

    def test_nonpositive_tol(self):
        with pytest.raises(ConfigError):
            ScmConfig(tol=0.0)

    def test_negative_importance(self):
        with pytest.raises(ConfigError):
            ScmConfig(importance=np.array([1.0, -1.0]))

    def test_importance_length_mismatch(self, rng):
        blocks = make_blocks(rng, 4, 3)
        with pytest.raises(ConfigError):
            solve_scm(blocks, ScmConfig(importance=np.ones(5)))


class TestConvergenceDiagnostic:
    def test_non_convergence_carries_residual(self, rng):
        blocks = make_blocks(rng, 10, 6)
        cfg = ScmConfig(max_iter=1, tol=1e-300, zeta=1e-4)
        with pytest.raises(ConvergenceError) as err:
            solve_scm(blocks, cfg)
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
