import math

import numpy as np
import pytest

from panelctrl.errors import ConfigError, SingularityError
from panelctrl.panel import PanelBlocks, split_and_center
from panelctrl.estimators import EstimatorSpec, estimate_on_blocks, weights_for_design
from panelctrl.ridge import (
    ControlSVD,
    _augment,
    _fold_adjustments,
    _svd_stack,
    augment_path,
    augment_weights,
    bound_sketch,
    demeaned_estimate,
    fit_ridge,
    svd_imbalance,
    verify_penalized_form,
    weight_norm_bound,
)
from panelctrl.scm import DonorWeights, imbalance, kkt_residual, solve_scm
from panelctrl.selection import loo_cv

from conftest import make_blocks, make_panel, raw_blocks
from oracles import affine_qp_descent, dense_ridge_solve, fold_adjustments_by_penalty


def ridge_weights(blocks, lam):
    """Ridge regression weights: the uniform anchor plus the ridge adjustment."""
    return weights_for_design(blocks, EstimatorSpec(method="ridge", lam=lam))


_PENALTY_CALLS = {
    "augment_path": (lambda w, b, lam: augment_path(w, b, [lam]), "nonnegative"),
    "augment_weights": (augment_weights, "nonnegative"),
    "fit_ridge": (lambda w, b, lam: fit_ridge(b, lam), "nonnegative"),
    "svd_imbalance": (svd_imbalance, "nonnegative"),
    "weight_norm_bound": (weight_norm_bound, "nonnegative"),
    "verify_penalized_form": (lambda w, b, lam: verify_penalized_form(w, w, b, lam), "positive"),
    "bound_sketch": (lambda w, b, lam: bound_sketch(w, b, [1.0, lam], [1.0]), "positive"),
    "loo_cv": (lambda w, b, lam: loo_cv(b, lambda_grid=[lam, 1.0]), "positive"),
}


@pytest.mark.parametrize("lam", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize("name", list(_PENALTY_CALLS))
def test_penalty_must_be_finite(rng, name, lam):
    """Every function taking a ridge penalty refuses a NaN, infinite or
    negative one, as EstimatorSpec does."""
    call, sign = _PENALTY_CALLS[name]
    blocks = make_blocks(rng, 6, 5)
    with pytest.raises(ConfigError, match=f"lambda must be finite and {sign}, got {lam}"):
        call(solve_scm(blocks), blocks, lam)


@pytest.mark.parametrize("sigma", [math.nan, math.inf, -1.0])
def test_noise_level_must_be_finite(rng, sigma):
    """bound_sketch refuses a NaN, infinite or negative noise level, in the
    words of the penalty checks."""
    blocks = make_blocks(rng, 6, 5)
    with pytest.raises(ConfigError, match=f"sigma must be finite and nonnegative, got {sigma}"):
        bound_sketch(solve_scm(blocks), blocks, [1.0], [1.0, sigma])


class TestControlSVD:
    def test_orthonormal_and_reconstruction(self, rng):
        for _ in range(10):
            n0 = int(rng.integers(3, 15))
            t0 = int(rng.integers(2, 10))
            blocks = make_blocks(rng, n0, t0)
            svd = ControlSVD.compute(blocks.x0)
            m = svd.rank
            assert np.abs(svd.u.T @ svd.u - np.eye(m)).max() < 1e-10
            assert np.abs(svd.v.T @ svd.v - np.eye(m)).max() < 1e-10
            assert np.all(np.diff(svd.d) <= 0)
            assert svd.d.min() > 0
            rebuilt = (svd.u * svd.d) @ svd.v.T
            assert np.abs(rebuilt - blocks.x0 / np.sqrt(n0)).max() < 1e-10

    def test_centered_rank_deficiency(self, rng):
        blocks = make_blocks(rng, 4, 9)  # centered: rank <= 3 < 9
        svd = ControlSVD.compute(blocks.x0)
        assert svd.rank <= 3 < blocks.t0


def _unequal_rank_designs(rng, n0=12, t0=6):
    """A full-rank design, one of rank 3 and a zero one, of one shape."""
    low, zero = (
        PanelBlocks(x1=rng.normal(size=t0), x0=x0, y0_post=rng.normal(size=(n0, 2)),
                    y1_post=rng.normal(size=2))
        for x0 in (rng.normal(size=(n0, 3)) @ rng.normal(size=(3, t0)), np.ones((n0, t0)))
    )
    return [make_blocks(rng, n0, t0, 2), low, zero]


class TestFoldAdjustments:
    @pytest.mark.parametrize(
        "n0, t0, n_post, stack",
        [(19, 25, 5, 1), (50, 89, 16, 1), (12, 6, 3, 1), (30, 5, 2, 1), (12, 6, 2, 3)],
        ids=["rank-deficient", "application-scale", "full-rank", "full-rank-wide",
             "unequal-rank-stack"],
    )
    def test_stacked_adjustments_match_the_penalty_loop(self, rng, n0, t0, n_post, stack):
        # one design at a time (R = 1), and a stack whose lower ranks are
        # padded with zero directions, which change nothing
        for _ in range(3 if stack == 1 else 1):
            designs = [make_blocks(rng, n0, t0, n_post)] if stack == 1 else \
                _unequal_rank_designs(rng, n0, t0)
            u, d, v, rank = _svd_stack(np.stack([b.x0 for b in designs]))
            for r, b in enumerate(designs):
                svd = b.control_svd
                m = svd.rank
                assert np.array_equal(u[r, :, :m], svd.u) and np.array_equal(d[r, :m], svd.d)
                assert np.array_equal(v[r, :, :m], svd.v)
                assert not (u[r, :, m:].any() or d[r, m:].any() or v[r, :, m:].any())
            residuals = rng.normal(size=(len(designs), t0, t0))
            residuals[:, range(t0), range(t0)] = 0.0
            if stack == 1:
                assert rank.tolist() == [min(n0 - 1, t0)]
                lambdas = np.logspace(3, -3, 12) * d[:, :1] ** 2
                if rank[0] == t0:
                    lambdas = np.append(lambdas, [[0.0]], axis=1)
            else:
                assert rank.tolist() == [6, 3, 0] and d.shape == (3, 6)
                lambdas = np.logspace(2, -2, 5) * np.array([[1.0], [2.0], [3.0]])
            got = _fold_adjustments(u, d, v, rank == t0, residuals,
                                    np.stack([b.y0_post for b in designs]),
                                    np.stack([b.x0 for b in designs]), lambdas)
            for r, b in enumerate(designs):
                want = fold_adjustments_by_penalty(b.control_svd, residuals[r], b.y0_post, b.x0,
                                                   lambdas[r])
                assert np.abs(got[r] - want).max() <= 1e-14 * np.abs(want).max()


class TestFitRidge:
    def test_infinite_shrinkage(self, rng):
        blocks = make_blocks(rng, 6, 4, n_post=2)
        fit = fit_ridge(blocks, 1e12, post_period=1)
        assert np.abs(fit.coefs).max() < 1e-6
        assert abs(fit.intercept - blocks.y0_post[:, 1].mean()) < 1e-6

    def test_ols_limit_interpolates(self, rng):
        x0 = rng.normal(size=(4, 4))
        while abs(np.linalg.det(x0)) < 1e-3:
            x0 = rng.normal(size=(4, 4))
        blocks = PanelBlocks(
            x1=rng.normal(size=4),
            x0=x0,
            y0_post=rng.normal(size=(4, 1)),
            y1_post=rng.normal(size=1),
        )
        fit = fit_ridge(blocks, 0.0)
        fitted = fit.predict(blocks.x0)
        assert np.abs(fitted - blocks.y0_post[:, 0]).max() < 1e-8

    def test_matches_normal_equations(self, rng):
        for _ in range(20):
            blocks = make_blocks(rng, 5, 3)
            fit = fit_ridge(blocks, 2.0)
            expected = dense_ridge_solve(blocks.x0, blocks.y0_post[:, 0], 2.0)
            assert np.abs(fit.coefs - expected).max() < 1e-10

    def test_singular_at_zero(self, rng):
        x0 = rng.normal(size=(6, 3))
        x0[:, 2] = x0[:, 0] + x0[:, 1]  # collinear beyond centering
        x0 = x0 - x0.mean(axis=0)
        blocks = PanelBlocks(
            x1=np.zeros(3), x0=x0, y0_post=rng.normal(size=(6, 1)), y1_post=np.zeros(1)
        )
        with pytest.raises(SingularityError):
            fit_ridge(blocks, 0.0)

    def test_negative_lambda_rejected(self, rng):
        blocks = make_blocks(rng, 5, 3)
        with pytest.raises(ConfigError):
            fit_ridge(blocks, -1.0)


class TestAugmentWeights:
    @pytest.mark.parametrize("n0, t0", [(19, 25), (30, 5), (12, 6)],
                             ids=["rank-deficient", "full-rank", "unequal-rank-stack"])
    def test_stack_matches_the_lone_path(self, rng, n0, t0):
        # R designs, two anchors each, three penalties each: every column is
        # augment_path's of that design, anchor and penalty, bit for bit when
        # the designs share their rank; a lower rank is padded with zero
        # directions, which move the sums by round-off only
        equal_rank = n0 != 12
        designs = ([make_blocks(rng, n0, t0) for _ in range(4)] if equal_rank
                   else _unequal_rank_designs(rng, n0, t0))
        anchors = rng.dirichlet(np.ones(n0), size=(len(designs), 2))
        lambdas = np.logspace(1, -1, 3) * rng.uniform(1, 2, size=(len(designs), 1))
        got = _augment(_svd_stack(np.stack([b.x0 for b in designs])),
                       np.stack([b.x1 for b in designs]), np.stack([b.x0 for b in designs]),
                       anchors, lambdas)
        for r, b in enumerate(designs):
            for a in range(2):
                want = augment_path(anchors[r, a], b, lambdas[r])
                assert np.array_equal(got[r, a], want) or (
                    not equal_rank and np.abs(got[r, a] - want).max() <= 1e-15)

    def test_zero_residual_no_op(self, rng):
        x0 = rng.normal(size=(5, 3))
        x0 = x0 - x0.mean(axis=0)
        g = rng.dirichlet(np.ones(5))
        blocks = PanelBlocks(
            x1=x0.T @ g, x0=x0, y0_post=rng.normal(size=(5, 1)), y1_post=np.zeros(1)
        )
        w = DonorWeights(values=g)
        aug = augment_weights(w, blocks, 1.0)
        assert np.abs(aug.values - g).max() < 1e-12

    def test_huge_lambda_no_op(self, rng):
        blocks = make_blocks(rng, 6, 4)
        w = solve_scm(blocks)
        aug = augment_weights(w, blocks, 1e12)
        assert np.abs(aug.values - w.values).max() < 1e-6

    def test_matches_affine_qp_oracle(self, rng):
        for _ in range(3):
            blocks = make_blocks(rng, 4, 2)
            w = solve_scm(blocks)
            lam = 0.7
            aug = augment_weights(w, blocks, lam)

            def objective(g):
                gap = blocks.x1 - blocks.x0.T @ g
                return float(gap @ gap / (2 * lam) + 0.5 * np.sum((g - w.values) ** 2))

            best, _ = affine_qp_descent(blocks.x1, blocks.x0, w.values, lam, rng=rng)
            assert objective(aug.values) <= best + 1e-6

    def test_sum_constrained_not_simplex(self, rng):
        blocks = make_blocks(rng, 6, 4)
        aug = augment_weights(solve_scm(blocks), blocks, 0.5)
        assert not aug.simplex
        assert abs(math.fsum(aug.values) - 1.0) < 1e-10

    def test_lambda_zero_rank_deficient_errors(self, rng):
        blocks = make_blocks(rng, 4, 6)  # centered rank <= 3 < 6
        w = solve_scm(blocks)
        with pytest.raises(SingularityError):
            augment_weights(w, blocks, 0.0)

    def test_uncentered_blocks_match_centred(self, rng):
        # blocks built from raw arrays centre themselves, so the solver, its
        # residual and the augmentation act on them as on split_and_center's
        p = make_panel(rng, 7, 9, 6)
        raw, blocks = raw_blocks(p), split_and_center(p)
        w_raw, w = solve_scm(raw), solve_scm(blocks)
        assert np.abs(w_raw.values - w.values).max() <= 1e-12
        assert abs(kkt_residual(raw, w_raw) - kkt_residual(blocks, w)) <= 1e-12
        aug_raw, aug = augment_weights(w_raw, raw, 1.0), augment_weights(w, blocks, 1.0)
        assert np.abs(aug_raw.values - aug.values).max() <= 1e-12


class TestRidgeWeights:
    def test_huge_lambda_uniform(self, rng):
        blocks = make_blocks(rng, 7, 4)
        w = ridge_weights(blocks, 1e12)
        assert np.abs(w.values - 1.0 / 7).max() < 1e-6

    def test_centered_treated_mean_gives_uniform(self, rng):
        x0 = rng.normal(size=(6, 3))
        x0 = x0 - x0.mean(axis=0)
        blocks = PanelBlocks(
            x1=np.zeros(3), x0=x0, y0_post=rng.normal(size=(6, 2)), y1_post=np.zeros(2)
        )
        w = ridge_weights(blocks, 3.0)
        assert np.abs(w.values - 1.0 / 6).max() < 1e-14

    def test_weighting_equals_regression(self, rng):
        for _ in range(20):
            n0 = int(rng.integers(4, 15))
            t0 = int(rng.integers(2, 8))
            blocks = make_blocks(rng, n0, t0, n_post=2)
            lam = float(10 ** rng.uniform(-2, 3))
            w = ridge_weights(blocks, lam)
            fit = fit_ridge(blocks, lam, post_period=1)
            weighted = float(w.values @ blocks.y0_post[:, 1])
            assert abs(weighted - fit.predict(blocks.x1)) < 1e-10


class TestVerifyPenalizedForm:
    def test_augmented_passes_scm_anchor(self, rng):
        for _ in range(20):
            blocks = make_blocks(rng, int(rng.integers(3, 12)), int(rng.integers(2, 8)))
            w = solve_scm(blocks)
            lam = float(10 ** rng.uniform(-2, 4))
            aug = augment_weights(w, blocks, lam)
            rep = verify_penalized_form(aug, w, blocks, lam)
            assert rep.passed and rep.residual <= 1e-8

    def test_ridge_passes_uniform_anchor(self, rng):
        for _ in range(20):
            blocks = make_blocks(rng, int(rng.integers(3, 12)), int(rng.integers(2, 8)))
            lam = float(10 ** rng.uniform(-2, 4))
            w = ridge_weights(blocks, lam)
            uniform = np.full(blocks.n_donors, 1.0 / blocks.n_donors)
            rep = verify_penalized_form(w, uniform, blocks, lam)
            assert rep.passed and rep.residual <= 1e-8

    def test_wrong_weights_fail(self, rng):
        blocks = make_blocks(rng, 6, 4)
        w = solve_scm(blocks)
        assert imbalance(blocks, w) > 1e-4  # generic instance: no exact fit
        uniform = DonorWeights(values=np.full(6, 1.0 / 6))
        rep = verify_penalized_form(uniform, w, blocks, 1.0)
        # direct projected-gradient evaluation: residual strictly positive
        assert not rep.passed and rep.residual > 1e-6


class TestSvdImbalance:
    def test_exact_fit_all_zero(self, rng):
        x0 = rng.normal(size=(5, 3))
        x0 = x0 - x0.mean(axis=0)
        g = rng.dirichlet(np.ones(5))
        blocks = PanelBlocks(
            x1=x0.T @ g, x0=x0, y0_post=np.zeros((5, 1)), y1_post=np.zeros(1)
        )
        rep = svd_imbalance(DonorWeights(values=g), blocks, 2.0)
        assert rep.direct < 1e-12 and rep.via_svd < 1e-12 and rep.upper_bound < 1e-12

    def test_huge_lambda_approaches_scm_imbalance(self, rng):
        blocks = make_blocks(rng, 6, 4)
        w = solve_scm(blocks)
        rep = svd_imbalance(w, blocks, 1e14)
        assert abs(rep.direct - imbalance(blocks, w)) < 1e-6

    def test_identity_and_bound_random(self, rng):
        for _ in range(30):
            n0 = int(rng.integers(3, 12))
            t0 = int(rng.integers(2, 10))
            blocks = make_blocks(rng, n0, t0)
            w = solve_scm(blocks)
            lam = float(10 ** rng.uniform(-2, 4))
            rep = svd_imbalance(w, blocks, lam)
            assert abs(rep.direct - rep.via_svd) <= 1e-8
            assert rep.direct <= rep.upper_bound + 1e-10
            assert rep.direct <= imbalance(blocks, w) + 1e-10

    def test_rank_deficient_design(self, rng):
        blocks = make_blocks(rng, 4, 8)  # T0 > N0 - 1
        w = solve_scm(blocks)
        rep = svd_imbalance(w, blocks, 0.5)
        assert abs(rep.direct - rep.via_svd) <= 1e-8
        assert rep.direct <= rep.upper_bound + 1e-10

    def test_lambda_conventions_reported(self, rng):
        blocks = make_blocks(rng, 8, 3)
        rep = svd_imbalance(solve_scm(blocks), blocks, 4.0)
        assert rep.lambda_ridge == 4.0
        assert rep.lambda_scaled == 0.5

    def test_prefit_monotone_in_lambda(self, rng):
        for _ in range(10):
            blocks = make_blocks(rng, 7, 5)
            w = solve_scm(blocks)
            lams = np.sort(10 ** rng.uniform(-2, 4, size=6))
            fits = [svd_imbalance(w, blocks, lam).direct for lam in lams]
            assert all(a <= b + 1e-10 for a, b in zip(fits, fits[1:]))


class TestWeightNormBound:
    def test_exact_fit_equality(self, rng):
        x0 = rng.normal(size=(5, 3))
        x0 = x0 - x0.mean(axis=0)
        g = rng.dirichlet(np.ones(5))
        blocks = PanelBlocks(
            x1=x0.T @ g, x0=x0, y0_post=np.zeros((5, 1)), y1_post=np.zeros(1)
        )
        rep = weight_norm_bound(DonorWeights(values=g), blocks, 1.0)
        assert abs(rep.norm - np.linalg.norm(g)) < 1e-12
        assert abs(rep.bound - np.linalg.norm(g)) < 1e-12

    def test_huge_lambda_bound_collapses(self, rng):
        blocks = make_blocks(rng, 6, 4)
        w = solve_scm(blocks)
        rep = weight_norm_bound(w, blocks, 1e14)
        assert abs(rep.bound - np.linalg.norm(w.values)) < 1e-6

    def test_inequality_random(self, rng):
        for _ in range(30):
            n0 = int(rng.integers(3, 12))
            t0 = int(rng.integers(2, 10))
            blocks = make_blocks(rng, n0, t0)
            w = solve_scm(blocks)
            lam = float(10 ** rng.uniform(-2, 4))
            rep = weight_norm_bound(w, blocks, lam)
            assert rep.norm <= rep.bound + 1e-10


class TestAugmentWithModel:
    """Bias correction by an outcome model, m(X1) + sum_i g_i (Y_i - m(X_i))."""

    def test_fixed_effects_identity(self, rng):
        spec = EstimatorSpec(method="demeaned")
        for _ in range(20):
            blocks = make_blocks(rng, int(rng.integers(3, 10)), int(rng.integers(2, 8)), n_post=2)
            est = estimate_on_blocks(blocks, spec)
            level, averaged = demeaned_estimate(est.weights, blocks)
            assert np.abs(level - averaged).max() < 1e-12
            assert np.abs(est.att - level).max() < 1e-12

    def test_ridge_model_matches_closed_form(self, rng):
        # correcting SCM by the ridge outcome model is re-weighting by the
        # closed-form augmented weights
        for _ in range(20):
            blocks = make_blocks(rng, int(rng.integers(4, 10)), int(rng.integers(2, 6)), n_post=2)
            w = solve_scm(blocks)
            lam = float(10 ** rng.uniform(-1, 3))
            aug = augment_weights(w, blocks, lam)
            for k in range(blocks.n_post):
                fit = fit_ridge(blocks, lam, k)
                corrected = fit.predict(blocks.x1) + w.values @ (
                    blocks.y0_post[:, k] - fit.predict(blocks.x0)
                )
                assert abs(corrected - aug.values @ blocks.y0_post[:, k]) < 1e-10

    def test_estimate_serialization(self, rng):
        blocks = make_blocks(rng, 5, 3, n_post=2)
        est = estimate_on_blocks(blocks, EstimatorSpec(method="scm"))
        observed = np.concatenate([blocks.x1, blocks.y1_post])
        rows = est.to_rows(observed=observed)
        assert len(rows) == 5
        # post rows carry the given observed series
        assert rows[-1][1] == blocks.y1_post[-1]


class TestBoundSketch:
    def _sketch(self, rng, sigma_grid, n0=12, t0=18):
        blocks = make_blocks(rng, n0, t0)
        w = solve_scm(blocks)
        lams = np.logspace(-4, 6, 30) * n0
        return bound_sketch(w, blocks, lams, sigma_grid), blocks, w

    def test_zero_noise_monotone(self, rng):
        sketch, _, _ = self._sketch(rng, np.array([0.0]))
        assert np.abs(sketch.excess[:, 0]).max() == 0.0
        totals = sketch.total[:, 0]
        assert np.all(np.diff(totals) >= -1e-12)

    def test_anchor_is_100(self, rng):
        sketch, _, _ = self._sketch(rng, np.array([0.0, 0.5, 1.0]))
        assert np.allclose(sketch.total_pct[-1, :], 100.0)

    def test_terms_nonnegative_and_total_sums(self, rng):
        sketch, _, _ = self._sketch(rng, np.array([0.3, 1.1]))
        assert sketch.imbalance.min() >= 0
        assert sketch.excess.min() >= 0
        assert sketch.scm_approx >= 0
        rebuilt = sketch.imbalance[:, None] + sketch.excess + sketch.scm_approx
        assert np.abs(rebuilt - sketch.total).max() < 1e-12

    def test_rows_schema(self, rng):
        sketch, _, _ = self._sketch(rng, np.array([0.5]))
        rows = sketch.rows()
        assert len(rows) == 30
        assert len(rows[0]) == 6

