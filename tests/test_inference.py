from dataclasses import replace
from fractions import Fraction

import logging

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from panelctrl.covariates import CovariatePanel
from panelctrl.errors import ConfigError, GridError, SingularityError
from panelctrl.estimators import (
    EstimatorSpec,
    design_and_anchor,
    estimate_on_blocks,
    fold_predictions,
)
from panelctrl.inference import (
    PredictionInterval,
    conformal_interval,
    conformal_p,
    convert_target,
    jackknife_intervals,
    jackknife_plus,
)
from panelctrl.panel import PanelBlocks, PanelData, period_folds, split_and_center
from panelctrl.ridge import augment_path
from panelctrl.scm import solve_leave_one, solve_scm
from panelctrl.sim import default_dgp, draw_panel

from conftest import folds_off_the_full_support, make_panel, record_scm_solves
from oracles import (
    conformal_p_rebuild,
    exact_ridge_adjustment,
    exact_weighted_sum,
    jackknife_plus_rebuild,
    scm_objective,
)

SPEC = EstimatorSpec(method="ridge_ascm", lam=1.0, zeta=1e-10)


class TestConformalP:
    def test_extreme_tau_gives_min_p(self, rng):
        p = make_panel(rng, 6, 10, 8)
        # a huge tau0 makes the adjusted residual dominate every pre residual
        val = conformal_p(p, 1e6, SPEC)
        assert np.isclose(val, 1.0 / (p.t0 + 1))

    def test_twin_donor_full_p(self, rng):
        n, t, t0 = 6, 9, 8
        out = rng.normal(size=(n, t)).cumsum(axis=1)
        out[0] = out[3]
        p = PanelData(out, tuple(f"u{i}" for i in range(n)), tuple(range(1, t + 1)), 0, t0)
        # under tau0 = 0 the augmented treated row equals the donor: adjusted
        # residual ~ 0 while pre residuals are ~0 too; every indicator fires
        val = conformal_p(p, 0.0, EstimatorSpec(method="ridge_ascm", lam=1e-4, zeta=1e-12))
        assert np.isclose(val, 1.0)

    def test_p_range_and_step_levels(self, rng):
        p = make_panel(rng, 7, 12, 9)
        taus = np.linspace(-5, 5, 41)
        vals = np.array([conformal_p(p, t0_, SPEC) for t0_ in taus])
        t_total = p.t0 + 1
        assert vals.min() >= 1.0 / t_total - 1e-12
        assert vals.max() <= 1.0 + 1e-12
        # p-values live on the grid k/T
        assert np.allclose(vals * t_total, np.round(vals * t_total))
        assert len(np.unique(vals)) <= p.t0 + 1

    def test_matches_independent_rebuild(self, rng):
        p = make_panel(rng, 6, 12, 8)
        spec = EstimatorSpec(method="ridge_ascm", lam=2.0, zeta=1e-10)
        for tau0 in (-1.0, 0.0, 0.5, 2.0):
            mine = conformal_p(p, tau0, spec)
            oracle = conformal_p_rebuild(p.outcomes, p.treated_index, p.t0, tau0, 2.0)
            assert np.isclose(mine, oracle)

    def test_supports_scm_and_ridge_methods(self, rng):
        p = make_panel(rng, 6, 10, 8)
        for method, lam in (("scm", None), ("ridge", 1.0)):
            val = conformal_p(p, 0.0, EstimatorSpec(method=method, lam=lam))
            assert 0 < val <= 1

    @pytest.mark.parametrize("method", ["demeaned", "fixed_effects"])
    def test_non_weighting_method_refused_before_any_fit(self, rng, monkeypatch, method):
        p = make_panel(rng, 6, 10, 8)
        solves = record_scm_solves(monkeypatch)
        with pytest.raises(ConfigError, match="weighting estimators"):
            conformal_p(p, 0.0, EstimatorSpec(method=method))
        with pytest.raises(ConfigError, match="weighting estimators"):
            conformal_interval(p, 0.1, EstimatorSpec(method=method))
        assert solves == []


def _default_grid(p):
    """The first tau grid of conformal_interval: 101 points around the point
    estimate, plus or minus five pre-period residual RMS."""
    point = estimate_on_blocks(split_and_center(p), SPEC)
    center = float(point.att[0])
    half = 5.0 * float(np.sqrt(np.mean(point.gap_pre**2)))
    return np.linspace(center - half, center + half, 101)


def _accept_on_grid(monkeypatch, accepted):
    """Make the conformal test accept exactly the tau values in ``accepted``
    in the first post period, and every value in the others."""
    import panelctrl.inference as inf_mod

    def fake_p(blocks, tau0, spec, post_period, cov=None):
        return 0.5 if post_period or float(tau0) in accepted else 0.0

    monkeypatch.setattr(inf_mod, "_conformal_p_blocks", fake_p)


class TestConformalInterval:
    def test_alpha_at_floor_accepts_everything(self, rng):
        # every p-value is at least 1/(T0+1), so the whole first grid is
        # accepted and not widened
        p = make_panel(rng, 6, 10, 8)
        grid = _default_grid(p)
        alpha = 1.0 / (p.t0 + 1)
        ci = conformal_interval(p, alpha, SPEC)[0]
        assert ci.lower == grid[0]
        assert ci.upper == grid[-1]
        assert ci.open_ended

    def test_contains_point_estimate(self, rng):
        from panelctrl.estimators import estimate

        p = make_panel(rng, 8, 14, 11)
        est = estimate(p, SPEC)
        cis = conformal_interval(p, 0.05, SPEC)
        assert len(cis) == p.n_periods - p.t0
        for ci, att in zip(cis, est.att):
            assert ci.lower <= att <= ci.upper

    def test_one_point_fit_for_every_post_period(self, rng, monkeypatch):
        # one call splits the panel and fits the point estimate once, and
        # centres each post period's grid on that period's effect
        import panelctrl.inference as inf_mod

        fits, fit = [], inf_mod.estimate_on_blocks

        def record(*args, **kwargs):
            fits.append(fit(*args, **kwargs))
            return fits[-1]

        monkeypatch.setattr(inf_mod, "estimate_on_blocks", record)
        p = make_panel(rng, 6, 11, 8)
        cis = conformal_interval(p, 1.0 / (p.t0 + 1), SPEC)  # the first grids, all accepted
        (point,) = fits
        half = 5.0 * float(np.sqrt(np.mean(point.gap_pre**2)))
        assert [(ci.lower, ci.upper) for ci in cis] == [(a - half, a + half) for a in point.att]

    def test_narrow_grid_raises(self, rng, monkeypatch):
        p = make_panel(rng, 6, 12, 10)
        _accept_on_grid(monkeypatch, set())
        with pytest.raises(GridError):
            conformal_interval(p, 0.5, SPEC)

    def test_target_conversion_exact(self, rng):
        p = make_panel(rng, 7, 12, 9)
        cis_tau = conformal_interval(p, 0.1, SPEC, target="effect")
        cis_y = conformal_interval(p, 0.1, SPEC, target="counterfactual")
        for ci_tau, ci_y, y_obs in zip(cis_tau, cis_y, p.outcomes[p.treated_index, p.t0 :]):
            assert abs(ci_y.lower - (y_obs - ci_tau.upper)) < 1e-12
            assert abs(ci_y.upper - (y_obs - ci_tau.lower)) < 1e-12

    def test_grid_step_documented(self, rng, monkeypatch):
        p = make_panel(rng, 6, 10, 8)
        grid = _default_grid(p)
        _accept_on_grid(monkeypatch, set(grid[40:61]))
        ci = conformal_interval(p, 0.2, SPEC)[0]
        assert (ci.lower, ci.upper) == (grid[40], grid[60])
        assert not ci.open_ended
        assert ci.grid_step == grid[1] - grid[0]

    def test_bad_target_refused_before_any_refit(self, rng, monkeypatch):
        import panelctrl.inference as inf_mod

        def no_refit(*args, **kw):
            raise AssertionError("refit before the inputs were checked")

        monkeypatch.setattr(inf_mod, "_conformal_p_blocks", no_refit)
        monkeypatch.setattr(inf_mod, "estimate_on_blocks", no_refit)
        p = make_panel(rng, 6, 10, 8)
        with pytest.raises(ConfigError):
            conformal_interval(p, 0.1, SPEC, target="bogus")

    def test_disconnected_acceptance_flagged(self, rng, monkeypatch):
        p = make_panel(rng, 6, 10, 8)
        grid = _default_grid(p)
        _accept_on_grid(monkeypatch, {grid[47], grid[48], grid[49], grid[51]})  # gap at 50
        ci = conformal_interval(p, 0.1, SPEC)[0]
        assert ci.disconnected
        assert ci.lower == grid[47] and ci.upper == grid[51]


class TestJackknifePlus:
    def test_degenerate_zero_residuals(self, rng):
        # treated equals one donor: every leave-one-out fit is exact and all
        # post predictions coincide
        n, t, t0 = 6, 9, 8
        out = rng.normal(size=(n, t)).cumsum(axis=1)
        out[0] = out[3]
        p = PanelData(out, tuple(f"u{i}" for i in range(n)), tuple(range(1, t + 1)), 0, t0)
        ci = jackknife_plus(p, 0.1, EstimatorSpec(method="ridge_ascm", lam=1e-6, zeta=1e-12))[0]
        c = out[3, t0]
        assert abs(ci.lower - c) < 1e-4
        assert abs(ci.upper - c) < 1e-4

    def test_order_statistics_against_sort(self, rng):
        # each bound is its post period's k-th smallest fold bound, k clamped
        for _ in range(50):
            folds, n_post = int(rng.integers(1, 30)), int(rng.integers(1, 4))
            truth, predictions = rng.normal(size=folds), rng.normal(size=(folds, n_post + 1))
            alpha = float(rng.uniform(0.01, 0.99))
            intervals = jackknife_intervals(truth, predictions, np.zeros(n_post), alpha)
            resids = np.abs(truth - predictions[:, -1])
            k_lo = min(max(int(np.floor(alpha / 2 * (folds + 1))), 1), folds)
            k_hi = min(max(int(np.ceil((1 - alpha / 2) * (folds + 1))), 1), folds)
            for k, ci in enumerate(intervals):
                assert ci.lower == np.sort(predictions[:, k] - resids)[k_lo - 1]
                assert ci.upper == np.sort(predictions[:, k] + resids)[k_hi - 1]

    def test_widens_as_alpha_falls(self, rng):
        p = make_panel(rng, 8, 16, 13)
        widths = []
        for alpha in (0.5, 0.2, 0.1, 0.05):
            ci = jackknife_plus(p, alpha, SPEC)[0]
            widths.append(ci.upper - ci.lower)
        assert all(a <= b + 1e-12 for a, b in zip(widths, widths[1:]))

    def test_target_conversion(self, rng):
        p = make_panel(rng, 6, 12, 9)
        ci_y = jackknife_plus(p, 0.1, SPEC, target="counterfactual")[0]
        ci_tau = jackknife_plus(p, 0.1, SPEC, target="effect")[0]
        y_obs = p.outcomes[p.treated_index, p.t0]
        assert abs(ci_tau.lower - (y_obs - ci_y.upper)) < 1e-12
        assert abs(ci_tau.upper - (y_obs - ci_y.lower)) < 1e-12

    def test_works_with_demeaned(self, rng):
        p = make_panel(rng, 6, 12, 9)
        ci = jackknife_plus(p, 0.1, EstimatorSpec(method="demeaned"))[0]
        assert ci.lower <= ci.upper

    def test_bounds_past_the_folds_are_flagged_open_ended(self):
        # with n = T0 = 10 folds, alpha = 0.05 and 0.1 ask for order
        # statistics 0 and 11, which jackknife+ takes as infinite: the bounds
        # stay those of the extreme folds, the interval of alpha = 0.2, which
        # reads order statistics 1 and 10, and the interval is open-ended
        p = draw_panel("factor", default_dgp("factor"), 8, 14, 10, 3)
        spec = EstimatorSpec(method="ridge_ascm", lam=1.0)
        for target in ("counterfactual", "effect"):
            closed = jackknife_plus(p, 0.2, spec, target=target)
            assert not any(ci.open_ended for ci in closed)
            for alpha in (0.05, 0.1):
                cis = jackknife_plus(p, alpha, spec, target=target)
                assert all(ci.open_ended for ci in cis)
                assert [(c.lower, c.upper) for c in cis] == [(c.lower, c.upper) for c in closed]


ONE_PASS_CASES = [
    ("scm", None),
    ("ridge", None),
    ("ridge_ascm", None),
    ("demeaned", None),
    ("fixed_effects", None),
    ("ridge_ascm", "joint"),
    ("ridge_ascm", "residualize"),
]


class TestJackknifePlusOnePass:
    @pytest.mark.parametrize("method, mode", ONE_PASS_CASES)
    def test_matches_per_period_rebuild(self, rng, method, mode):
        # one pass over the folds gives every post period the interval that
        # refitting all folds for that period alone gives
        p = make_panel(rng, 8, 14, 10)
        spec = EstimatorSpec(
            method=method,
            lam=0.5 if method in ("ridge", "ridge_ascm") else None,
            covariate_mode=mode or "joint",
        )
        cov = None
        if mode is not None:
            cov = CovariatePanel(rng.normal(size=2), rng.normal(size=(p.n_donors, 2)))
        cis = jackknife_plus(p, 0.2, spec, cov=cov)
        assert len(cis) == p.n_periods - p.t0 == 4
        for k, ci in enumerate(cis):
            lower, upper = jackknife_plus_rebuild(p, 0.2, spec, k, cov=cov)
            got = np.array([ci.lower, ci.upper])
            want = np.array([lower, upper])
            assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(np.abs(got), np.abs(want)))


# (units, periods, pre periods, fold mode, penalties); the leave-one inputs
# of the ridge methods without joint covariates take the one-SVD route of
# fold_predictions, the others fit fold by fold
FOLD_INPUTS = [
    (8, 14, 10, "leave-one", [1e3, 2.0, 0.5, 1e-2]),
    (16, 12, 8, "leave-one", [1e3, 2.0, 0.5, 1e-2]),  # wide: N0 > T0
    (8, 14, 10, "leave-future", [1e3, 2.0, 0.5, 1e-2]),
    (16, 12, 8, "leave-one", [2.0, 0.0]),  # full column rank at lambda 0
]


class TestFoldPredictions:
    @pytest.mark.parametrize("method, mode", ONE_PASS_CASES)
    def test_every_fold_matches_its_own_fit(self, rng, method, mode):
        # the fold pass predicts, at every penalty, what the full estimator
        # fitted cold on that fold predicts. The early leave-future folds
        # keep 2-3 periods for 7 donors, where the SCM solve is accurate only
        # to about 1e-9 cold or warm, so there the reference solve starts
        # where the pass starts it
        spec = EstimatorSpec(method=method, covariate_mode=mode or "joint")
        ridge = spec.needs_lambda()
        for n, t, t0, fold_mode, penalties in FOLD_INPUTS:
            p = make_panel(rng, n, t, t0)
            blocks = split_and_center(p)
            cov = None
            if mode is not None:
                cov = CovariatePanel(rng.normal(size=2), rng.normal(size=(n - 1, 2)))
            lambdas = penalties if ridge else None
            truth, predictions, skipped = fold_predictions(blocks, spec, cov, lambdas, fold_mode)
            scm = design_and_anchor(blocks, spec, cov).scm
            warm = fold_mode == "leave-future" and scm is not None
            folds = [(k, fold) for k, fold in period_folds(blocks, fold_mode) if k not in skipped]
            assert skipped == (() if fold_mode == "leave-one" else (0, 1))
            assert predictions.shape == (len(folds), len(lambdas) if ridge else 1, t - t0 + 1)
            for (k, fold), held_out, fold_preds in zip(folds, truth, predictions):
                assert held_out == blocks.x1[k]
                anchor = design_and_anchor(fold, spec, cov, scm.values) if warm else None
                for lam, got in zip(lambdas or [None], fold_preds):
                    lam_spec = spec.with_lambda(lam) if ridge else spec
                    want = estimate_on_blocks(fold, lam_spec, cov, anchor).counterfactual
                    bound = 1e-10 * np.maximum(np.abs(got), np.abs(want))
                    assert np.all(np.abs(got - want) <= bound)

    def test_lambda_zero_needs_a_full_rank_full_design(self, rng, monkeypatch):
        # with T0 = N0 every leave-one fold has full column rank but the
        # centred full design does not, and the one-SVD route refuses
        # lambda 0 as augment_weights does on the full sample, before any
        # fold's SCM anchor is solved
        blocks = split_and_center(make_panel(rng, 9, 12, 8))
        spec = EstimatorSpec(method="ridge", lam=0.0)
        fold = next(period_folds(blocks))[1]
        assert np.isfinite(estimate_on_blocks(fold, spec).counterfactual).all()
        with pytest.raises(SingularityError):
            fold_predictions(blocks, spec)
        with pytest.raises(SingularityError):
            estimate_on_blocks(blocks, spec)
        solves = record_scm_solves(monkeypatch)
        with pytest.raises(SingularityError):
            fold_predictions(blocks, EstimatorSpec(method="ridge_ascm", lam=0.0))
        assert [start for _, start, _ in solves] == [None]  # the full sample's cold solve only

    @pytest.mark.parametrize("method", ["ridge", "ridge_ascm"])
    def test_adjustments_match_the_exact_solve(self, rng, method):
        # augment_path and the fold pass against the ridge adjustment solved
        # in rational arithmetic, on a rank-deficient design at small lambda
        blocks = split_and_center(make_panel(rng, 8, 14, 10))
        spec = EstimatorSpec(method=method)
        lambdas = [2.0, 1e-2]
        _, predictions, _ = fold_predictions(blocks, spec, lambdas=lambdas)
        for (_, fold), fold_preds in zip(period_folds(blocks), predictions):
            design, anchor, _ = design_and_anchor(fold, spec)
            g = anchor.values
            paths = augment_path(anchor, design, lambdas)
            for lam, path, got in zip(lambdas, paths.T, fold_preds):
                exact = exact_ridge_adjustment(fold.x0, fold.x1 - fold.x0.T @ g, lam)
                weights = [Fraction(float(gi)) + ai for gi, ai in zip(g, exact)]
                want = np.array([float(w) for w in weights])
                assert np.all(np.abs(path - want) <= 1e-11 * np.abs(want))
                want = np.array([exact_weighted_sum(weights, col) for col in fold.y0_post.T])
                assert np.all(np.abs(got - want) <= 1e-11 * np.abs(want))


def _cold_fold_fits_agree(blocks, spec, cov, lambdas, predictions):
    """Every fold prediction equals the estimator fitted cold on that fold."""
    ridge = spec.needs_lambda()
    for (_, fold), fold_preds in zip(period_folds(blocks), predictions, strict=True):
        for lam, got in zip(lambdas or [None], fold_preds, strict=True):
            lam_spec = spec.with_lambda(lam) if ridge else spec
            want = estimate_on_blocks(fold, lam_spec, cov).counterfactual
            bound = 1e-10 * np.maximum(np.abs(got), np.abs(want))
            assert np.all(np.abs(got - want) <= bound)


def _support_change_blocks():
    """Blocks whose full-sample SCM solution uses donors 1 and 2 while fold 0
    adds donor 0 and drops donor 2, and fold 1 adds donor 0."""
    rng = np.random.default_rng(7)
    x0 = rng.normal(size=(4, 6))
    x0[2, 0] = 10.0
    x1 = 0.6 * x0[0] + 0.6 * x0[1] - 0.2 * x0[2]
    x1[0] = 4.0
    return PanelBlocks(x1=x1, x0=x0, y0_post=rng.normal(size=(4, 2)), y1_post=rng.normal(size=2))


class TestBatchedFoldAnchors:
    # leave-one folds of scm and ridge_ascm (no covariates or residualized)
    # take their SCM anchors from one lockstep active-set solve started at the
    # full sample's weights; a fold whose result fails the solver's gate is
    # solved alone

    # at least 5 periods per fold: with fewer periods than donors, cold and
    # warm solves of one fold already differ by up to about 2e-9
    @settings(max_examples=60)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n0=st.integers(2, 9),
        t0=st.integers(6, 12),
        n_post=st.integers(1, 2),
        zeta=st.sampled_from([None, 0.0, 1e-3, 0.5]),
        case=st.sampled_from([("scm", None), ("ridge_ascm", None), ("ridge_ascm", "residualize")]),
    )
    def test_every_fold_matches_its_cold_fit(self, seed, n0, t0, n_post, zeta, case):
        method, mode = case
        # an explicit zero penalty has a unique solution in every fold only
        # when the donors are affinely independent there
        assume(zeta != 0.0 or (mode is None and n0 + 2 <= t0))
        assume(mode is None or n0 >= 3)
        rng = np.random.default_rng(seed)
        p = make_panel(rng, n0 + 1, t0 + n_post, t0)
        blocks = split_and_center(p)
        cov = None
        if mode is not None:
            cov = CovariatePanel(rng.normal(size=1), rng.normal(size=(n0, 1)))
        spec = EstimatorSpec(method=method, zeta=zeta, covariate_mode=mode or "joint")
        lambdas = [2.0, 1e-2] if spec.needs_lambda() else None
        truth, predictions, skipped = fold_predictions(blocks, spec, cov, lambdas)
        assert skipped == ()
        assert np.array_equal(truth, blocks.x1)
        _cold_fold_fits_agree(blocks, spec, cov, lambdas, predictions)

    @pytest.mark.parametrize("zeta", [None, 0.0])
    def test_folds_off_the_full_support_stay_in_the_batch(self, zeta, monkeypatch):
        blocks = _support_change_blocks()
        spec = EstimatorSpec(method="scm", zeta=zeta)
        fit = design_and_anchor(blocks, spec)
        assert np.flatnonzero(fit.scm.values).tolist() == [1, 2]
        assert folds_off_the_full_support(blocks, spec) == [0, 1]
        solves = record_scm_solves(monkeypatch)
        solutions = solve_leave_one(fit.design, fit.scm, zeta)
        _, predictions, _ = fold_predictions(blocks, spec, fit=fit)
        assert solves == []
        monkeypatch.undo()
        # folds 0 and 1 add donor 0, and fold 0 drops donor 2, in the batch
        assert [np.flatnonzero(solutions[:, t]).tolist() for t in (0, 1)] == [[0, 1], [0, 1, 2]]
        for t, fold in period_folds(blocks):
            warm = solve_scm(fold, zeta, start=fit.scm.values).values
            assert np.abs(solutions[:, t] - warm).max() <= 1e-12
            assert np.abs(solutions[:, t] - solve_scm(fold, zeta).values).max() <= 1e-10
        _cold_fold_fits_agree(blocks, spec, None, None, predictions)

    def test_exactly_singular_fold_is_solved_alone(self, caplog, monkeypatch):
        # donors 0 and 1 differ only in period 2, so with zeta = 0 fold 2's
        # KKT matrix on the full support is singular. Scaled by 100 and shifted
        # by its column means before the blocks centre it once more, round-off
        # leaves fold 2 off stationary at the full solution, so it joins the
        # first stack, whose solve raises; the round's systems are then solved
        # one by one and only fold 2 goes to solve_scm. Fold 2's minimiser is
        # not unique: it reaches the cold fold's objective, every other fold
        # its cold solution
        rng = np.random.default_rng(13)
        x0 = rng.normal(size=(4, 5))
        x0[1] = x0[0]
        x0[1, 2] += 1.0
        x1 = 0.4 * x0[0] + 0.4 * x0[1] + 0.2 * x0[2] + 0.01 * rng.normal(size=5)
        x0, x1 = 100.0 * x0, 100.0 * x1
        shift = x0.mean(axis=0)
        blocks = PanelBlocks(
            x1=x1 - shift, x0=x0 - shift, y0_post=np.zeros((4, 1)), y1_post=np.zeros(1)
        )
        full = solve_scm(blocks, 0.0)
        solve, stacks = np.linalg.solve, []

        def spy(a, b):
            try:
                return solve(a, b)
            except np.linalg.LinAlgError:
                stacks.append(a.ndim)
                raise

        monkeypatch.setattr(np.linalg, "solve", spy)
        solves = record_scm_solves(monkeypatch)
        with caplog.at_level(logging.DEBUG, logger="panelctrl.scm"):
            solutions = solve_leave_one(blocks, full, 0.0)
        monkeypatch.undo()
        # the stack raised, and fold 2's system again in solve_scm's first
        # step, which takes a least-squares step instead
        assert stacks == [3, 2]
        passes = [r.getMessage() for r in caplog.records if "fold pass" in r.getMessage()]
        assert passes == [
            "leave-one fold pass: 5 folds of 1 design(s) in 3 batched rounds, 1 fitted one by one"
        ]
        [(fold, start, _)] = solves
        assert start is full.values and fold.y1_post[-1] == blocks.x1[2]
        for t, fold in period_folds(blocks):
            cold = solve_scm(fold, 0.0).values
            if t == 2:
                objective = scm_objective(fold, cold, 0.0)
                assert scm_objective(fold, solutions[:, t], 0.0) <= objective * (1 + 1e-12)
            else:
                assert np.abs(solutions[:, t] - cold).max() <= 1e-10

    @pytest.mark.parametrize("method, mode", [
        ("scm", None), ("ridge_ascm", None), ("ridge_ascm", "residualize"),
    ])
    def test_solves_the_full_sample_and_the_rejected_folds(self, rng, monkeypatch, method, mode):
        # some folds leave the full sample's support, and none is rejected:
        # the full sample's is the one solve_scm call of a pass
        p = make_panel(rng, 12, 30, 26)
        blocks = split_and_center(p)
        cov = None
        if mode is not None:
            cov = CovariatePanel(rng.normal(size=2), rng.normal(size=(11, 2)))
        spec = EstimatorSpec(method=method, lam=1.0, covariate_mode=mode or "joint")
        resolved = folds_off_the_full_support(blocks, spec, cov)
        assert 0 < len(resolved) < blocks.t0
        fit = design_and_anchor(blocks, spec, cov)
        solves = record_scm_solves(monkeypatch)
        fold_predictions(blocks, spec, cov)
        assert [start for _, start, _ in solves] == [None]
        fold_predictions(blocks, spec, cov, fit=fit)
        assert len(solves) == 1

    def test_one_debug_line_per_pass(self, caplog):
        blocks = _support_change_blocks()
        with caplog.at_level(logging.DEBUG, logger="panelctrl"):
            fold_predictions(blocks, EstimatorSpec(method="scm"))
            fold_predictions(blocks, EstimatorSpec(method="ridge", lam=1.0))
            fold_predictions(blocks, EstimatorSpec(method="demeaned"))
            fold_predictions(blocks, EstimatorSpec(method="scm"), mode="leave-future")
        passes = [r.getMessage() for r in caplog.records if "fold pass" in r.getMessage()]
        assert passes == [
            "leave-one fold pass: 6 folds of 1 design(s) in 3 batched rounds, 0 fitted one by one",
            "leave-one fold pass: 6 folds in 0 batched rounds, 0 fitted one by one",
            "leave-one fold pass: 6 folds in 0 batched rounds, 6 fitted one by one",
            "leave-future fold pass: 4 folds in 0 batched rounds, 4 fitted one by one",
        ]


class TestPredictionInterval:
    def test_validation(self):
        with pytest.raises(ConfigError):
            PredictionInterval(lower=1.0, upper=0.0, level=0.9,
                               method="jackknife-plus", target="effect")
        with pytest.raises(ConfigError):
            PredictionInterval(lower=0.0, upper=1.0, level=1.5,
                               method="jackknife-plus", target="effect")

    def test_convert_round_trip(self):
        ci = PredictionInterval(lower=-1.0, upper=2.0, level=0.9, method="full-conformal",
                                target="effect", grid_step=0.03, disconnected=True,
                                open_ended=True)
        there = convert_target(ci, 5.0)
        assert there == replace(ci, lower=3.0, upper=6.0, target="counterfactual")
        assert convert_target(there, 5.0) == ci
