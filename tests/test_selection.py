import numpy as np
import pytest

from panelctrl.covariates import CovariatePanel
from panelctrl.errors import ConfigError, TreatmentTimeError
from panelctrl.estimators import EstimatorSpec, estimate_on_blocks
from panelctrl.panel import PanelBlocks, PanelData, period_folds, split_and_center
from panelctrl.selection import (
    CvResult,
    default_lambda_grid,
    in_time_placebo,
    loo_cv,
    select_lambda,
)

from conftest import make_blocks, make_panel
from oracles import loo_cv_rebuild


class TestLooCv:
    def test_perfect_proxy_zero_cv(self, rng):
        # treated identical to one donor: every held-out fit is exact
        n0, t0 = 5, 6
        x0 = rng.normal(size=(n0, t0))
        blocks = PanelBlocks(
            x1=x0[2].copy(),
            x0=x0,
            y0_post=rng.normal(size=(n0, 1)),
            y1_post=rng.normal(size=1),
        )
        cv = loo_cv(blocks, lambda_grid=np.logspace(-2, 2, 5))
        assert cv.cv_mse.max() < 1e-12

    def test_single_lambda_grid(self, rng):
        blocks = make_blocks(rng, 5, 5)
        cv = loo_cv(blocks, lambda_grid=[3.0])
        assert cv.lambda_min == 3.0
        assert cv.lambda_1se == 3.0

    def test_matches_independent_rebuild(self, rng):
        blocks = make_blocks(rng, 5, 6)
        lam = 1.7
        cv = loo_cv(blocks, EstimatorSpec(zeta=1e-9), lambda_grid=[lam])
        expected = loo_cv_rebuild(blocks.x1, blocks.x0, lam, zeta=1e-9, tol=1e-11)
        assert abs(cv.cv_mse[0] - expected.mean()) < 1e-6

    def test_permutation_stable(self, rng):
        blocks = make_blocks(rng, 7, 6)
        grid = np.logspace(-1, 2, 4)
        cv1 = loo_cv(blocks, lambda_grid=grid)
        perm = rng.permutation(7)
        shuffled = PanelBlocks(
            x1=blocks.x1,
            x0=blocks.x0[perm],
            y0_post=blocks.y0_post[perm],
            y1_post=blocks.y1_post,
            centering=blocks.centering,
        )
        cv2 = loo_cv(shuffled, lambda_grid=grid)
        assert np.abs(cv1.cv_mse - cv2.cv_mse).max() < 1e-10

    def test_leave_future_skips_early_folds(self, rng):
        blocks = make_blocks(rng, 5, 6)
        cv = loo_cv(blocks, lambda_grid=[1.0], mode="leave-future")
        assert cv.skipped == (0, 1)

    def test_leave_future_last_fold_is_forecast(self, rng):
        blocks = make_blocks(rng, 6, 6)
        lam = 2.0
        cv = loo_cv(blocks, lambda_grid=[lam], mode="leave-future")
        # rebuild the t = T0-1 fold directly as a truncated fit
        t = blocks.t0 - 1
        x0r = blocks.x0[:, :t]
        shift = x0r.mean(axis=0)
        x0r = x0r - shift
        x1r = blocks.x1[:t] - shift
        fold = PanelBlocks(
            x1=x1r, x0=x0r, y0_post=blocks.y0_post, y1_post=blocks.y1_post,
            centering=np.zeros(t),
        )
        from panelctrl.ridge import augment_weights
        from panelctrl.scm import solve_scm

        w = solve_scm(fold)
        aug = augment_weights(w, fold, lam)
        resid = float(blocks.x1[t]) - float(aug.values @ blocks.x0[:, t])
        # the last fold residual appears in the mean over used folds
        fold_resids = loo_cv_rebuild_future(blocks, lam)
        assert np.isclose(fold_resids[-1], resid**2, atol=1e-10)
        assert np.isclose(cv.cv_mse[0], np.mean(fold_resids), atol=1e-8)

    @pytest.mark.parametrize("mode", ["leave-one", "leave-future"])
    @pytest.mark.parametrize("cov_mode", [None, "joint", "residualize"])
    @pytest.mark.parametrize("method", ["ridge", "ridge_ascm"])
    def test_scores_the_callers_estimator(self, rng, method, cov_mode, mode):
        # every grid value scores exactly what the full estimator, with the
        # same spec and covariates, predicts for each held-out period
        blocks = make_blocks(rng, 9, 8)
        spec = EstimatorSpec(method=method, covariate_mode=cov_mode or "joint", zeta=1e-6)
        cov = None
        if cov_mode is not None:
            cov = CovariatePanel.from_raw(rng.normal(size=2), rng.normal(size=(9, 2)))
        grid = np.logspace(3, -2, 6)
        cv = loo_cv(blocks, spec, cov, lambda_grid=grid, mode=mode)
        for i, lam in enumerate(grid):
            sq = []
            for t, fold in period_folds(blocks, mode):
                if t in cv.skipped:
                    continue
                est = estimate_on_blocks(fold, spec.with_lambda(lam), cov)
                sq.append((fold.y1_post[-1] - est.counterfactual[-1]) ** 2)
            assert abs(cv.cv_mse[i] - np.mean(sq)) <= 1e-10 * np.mean(sq)

    @pytest.mark.parametrize("method", ["scm", "demeaned", "fixed_effects"])
    def test_non_ridge_spec_rejected(self, rng, method):
        blocks = make_blocks(rng, 5, 6)
        with pytest.raises(ConfigError):
            loo_cv(blocks, EstimatorSpec(method=method), lambda_grid=[1.0])

    def test_too_few_periods_rejected(self, rng):
        blocks = make_blocks(rng, 4, 2)
        with pytest.raises(ConfigError):
            loo_cv(blocks, lambda_grid=[1.0])

    def test_default_grid_shape(self, rng):
        blocks = make_blocks(rng, 6, 5)
        grid = default_lambda_grid(blocks)
        assert grid.shape == (20,)
        assert grid[0] > grid[-1]
        assert np.isclose(grid[0] / grid[-1], 1e6)


def loo_cv_rebuild_future(blocks, lam):
    """Test-local leave-future rebuild using the library's own pieces."""
    from panelctrl.ridge import augment_weights
    from panelctrl.scm import solve_scm

    out = []
    for t in range(2, blocks.t0):
        x0r = blocks.x0[:, :t]
        shift = x0r.mean(axis=0)
        x0r = x0r - shift
        fold = PanelBlocks(
            x1=blocks.x1[:t] - shift, x0=x0r,
            y0_post=blocks.y0_post, y1_post=blocks.y1_post,
            centering=np.zeros(t),
        )
        w = solve_scm(fold)
        aug = augment_weights(w, fold, lam)
        out.append((float(blocks.x1[t]) - float(aug.values @ blocks.x0[:, t])) ** 2)
    return np.array(out)


class TestSelectLambda:
    def _cv(self, grid, mse, se):
        grid = np.asarray(grid, dtype=float)
        mse = np.asarray(mse, dtype=float)
        se = np.asarray(se, dtype=float)
        best = int(np.argmin(mse))
        within = np.nonzero(mse <= mse[best] + se[best])[0]
        return CvResult(
            lambda_grid=grid,
            cv_mse=mse,
            cv_se=se,
            lambda_min=float(grid[best]),
            lambda_1se=float(grid[within[0]]),
            mode="leave-one",
            skipped=(),
        )

    def test_monotone_decreasing_picks_smallest(self):
        cv = self._cv([100.0, 10.0, 1.0], [3.0, 2.0, 1.0], [0.1, 0.1, 0.1])
        assert select_lambda(cv, "min") == 1.0

    def test_flat_curve_one_se_picks_largest(self):
        cv = self._cv([100.0, 10.0, 1.0], [1.0, 1.0, 1.0], [0.2, 0.2, 0.2])
        assert select_lambda(cv, "one-se") == 100.0

    def test_one_se_never_below_min(self, rng):
        for _ in range(20):
            blocks = make_blocks(rng, 6, 5)
            cv = loo_cv(blocks, lambda_grid=np.logspace(-2, 3, 8))
            assert select_lambda(cv, "one-se") >= select_lambda(cv, "min")

    def test_unknown_rule(self):
        cv = self._cv([1.0], [1.0], [0.0])
        with pytest.raises(ConfigError):
            select_lambda(cv, "median")


class TestApplicationScaleOrdering:
    def test_one_se_exceeds_min_on_application_scale_fixture(self):
        # noisy application-scale panel: the CV curve is U-shaped, so the
        # conservative rule strictly exceeds the minimizer
        from panelctrl.sim import default_dgp, draw_panel

        p = draw_panel("factor", default_dgp("factor"), 51, 105, 89, 12)
        blocks = split_and_center(p, center=True)
        cv = loo_cv(blocks, lambda_grid=default_lambda_grid(blocks, size=12))
        assert select_lambda(cv, "one-se") > select_lambda(cv, "min")


class TestPlaceboNull:
    def test_mean_placebo_gap_near_zero(self):
        # factor draws carry no treatment effect, so placebo gaps average
        # to zero up to Monte Carlo error
        from panelctrl.sim import default_dgp, draw_panel

        params = default_dgp("factor")
        spec = EstimatorSpec(method="ridge_ascm", lam=10.0)
        reps = 200
        seeds = np.random.SeedSequence(2718).spawn(reps)
        gaps = []
        for r in range(reps):
            p = draw_panel("factor", params, 12, 20, 16, seeds[r])
            est = in_time_placebo(p, 13, spec)
            gaps.append(float(est.att[0]))
        gaps = np.asarray(gaps)
        se = gaps.std(ddof=1) / np.sqrt(reps)
        assert abs(gaps.mean()) <= 2 * se


class TestInTimePlacebo:
    def test_twin_donor_zero_gaps(self, rng):
        n, t, t0 = 6, 10, 8
        out = rng.normal(size=(n, t)).cumsum(axis=1)
        out[0] = out[3]  # treated equals a donor everywhere
        p = PanelData(out, tuple(f"u{i}" for i in range(n)), tuple(range(1, t + 1)), 0, t0)
        est = in_time_placebo(p, 6, EstimatorSpec(method="scm", zeta=1e-10))
        assert np.abs(est.att).max() < 1e-5

    def test_boundary_single_placebo_period(self, rng):
        p = make_panel(rng, 6, 10, 8)
        est = in_time_placebo(p, 8, EstimatorSpec(method="ridge_ascm", lam=1.0))
        assert est.att.shape == (1,)
        assert est.gap_pre.shape == (7,)

    def test_placebo_must_precede_treatment(self, rng):
        p = make_panel(rng, 5, 10, 7)
        with pytest.raises(TreatmentTimeError):
            in_time_placebo(p, 9, EstimatorSpec(method="scm"))

    def test_placebo_needs_three_pre_periods(self, rng):
        p = make_panel(rng, 5, 10, 7)
        with pytest.raises(TreatmentTimeError):
            in_time_placebo(p, 3, EstimatorSpec(method="scm"))

    def test_truncates_at_true_treatment(self, rng):
        # post-treatment data must not influence placebo estimates
        p = make_panel(rng, 5, 10, 7)
        spec = EstimatorSpec(method="ridge_ascm", lam=2.0)
        est1 = in_time_placebo(p, 6, spec)
        tampered = p.outcomes.copy()
        tampered[:, 7:] += 100.0
        p2 = PanelData(tampered, p.unit_ids, p.time_ids, p.treated_index, p.t0)
        est2 = in_time_placebo(p2, 6, spec)
        assert np.array_equal(est1.att, est2.att)
