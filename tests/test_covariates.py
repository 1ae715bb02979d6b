import io

import numpy as np
import pytest

from panelctrl.covariates import (
    CovariatePanel,
    balance_table,
    covariates_from_long,
    residualize,
    stacked_blocks,
    standardize_to_outcomes,
)
from panelctrl.errors import ConfigError, SingularityError
from panelctrl.estimators import EstimatorSpec, weights_for_design
from panelctrl.panel import load_panel
from panelctrl.ridge import ControlSVD, augment_weights, verify_penalized_form
from panelctrl.scm import DonorWeights, imbalance, solve_scm

from conftest import make_blocks


def make_cov(rng, n0, k, **kwargs):
    z0 = rng.normal(size=(n0, k))
    z1 = rng.normal(size=k)
    return CovariatePanel.from_raw(z1=z1, z0=z0, **kwargs)


def covariate_weights(blocks, cov, lam, mode):
    spec = EstimatorSpec(lam=lam, covariate_mode=mode)
    return weights_for_design(blocks, spec, cov)


class TestCovariatePanel:
    def test_from_raw_centers(self, rng):
        cov = make_cov(rng, 8, 3)
        assert np.abs(cov.z0.mean(axis=0)).max() < 1e-12

    def test_uncentered_rejected(self, rng):
        z0 = rng.normal(size=(6, 2)) + 5.0
        with pytest.raises(ConfigError):
            CovariatePanel(z1=np.zeros(2), z0=z0)

    def test_default_names(self, rng):
        cov = make_cov(rng, 5, 2)
        assert cov.names == ("z1", "z2")


class TestJointSolve:
    def test_theta_z_zero_matches_plain_scm(self, rng):
        # covariates scaled to zero add nothing to the stacked objective
        blocks = make_blocks(rng, 6, 4)
        cov = make_cov(rng, 6, 2)
        cov = CovariatePanel(z1=0.0 * cov.z1, z0=0.0 * cov.z0)
        w_joint = solve_scm(stacked_blocks(blocks, cov), zeta=1e-4)
        w_plain = solve_scm(blocks, zeta=1e-4)
        assert np.abs(w_joint.values - w_plain.values).max() < 1e-6

    def test_duplicated_x_equals_double_theta(self, rng):
        # stacking a copy of the outcome rows as covariates is the same as
        # doubling the outcome balance weight
        from panelctrl.panel import PanelBlocks

        blocks = make_blocks(rng, 5, 3)
        cov = CovariatePanel(z1=blocks.x1.copy(), z0=blocks.x0.copy())
        w_dup = solve_scm(stacked_blocks(blocks, cov), zeta=1e-5)
        doubled = PanelBlocks(
            x1=np.sqrt(2.0) * blocks.x1,
            x0=np.sqrt(2.0) * blocks.x0,
            y0_post=blocks.y0_post,
            y1_post=blocks.y1_post,
            centering=np.zeros(blocks.t0),
        )
        w_two = solve_scm(doubled, zeta=1e-5)
        assert np.abs(w_dup.values - w_two.values).max() < 1e-6

    def test_dominant_theta_z_balances_z(self, rng):
        # covariates scaled by 1e3 weigh 1e6 times the lagged outcomes
        n0 = 6
        x0 = rng.normal(size=(n0, 4))
        x0 = x0 - x0.mean(axis=0)
        g_true = rng.dirichlet(np.ones(n0))
        z0 = rng.normal(size=(n0, 1))
        z0 = z0 - z0.mean(axis=0)
        cov = CovariatePanel(z1=z0.T @ g_true, z0=z0)
        blocks = make_blocks(rng, n0, 4)
        scaled = CovariatePanel(z1=1e3 * cov.z1, z0=1e3 * cov.z0)
        w = solve_scm(stacked_blocks(blocks, scaled), zeta=0.0)
        z_gap = float(np.abs(cov.z1 - cov.z0.T @ w.values).max())
        assert z_gap < 1e-4


class TestJointAugment:
    def test_k_zero_matches_plain_augment(self, rng):
        blocks = make_blocks(rng, 6, 4)
        cov = CovariatePanel(z1=np.zeros(0), z0=np.zeros((6, 0)))
        aug = covariate_weights(blocks, cov, 1.5, "joint")
        plain = augment_weights(solve_scm(blocks), blocks, 1.5)
        assert np.abs(aug.values - plain.values).max() < 1e-12

    def test_exact_stacked_fit_no_op(self, rng):
        n0 = 6
        x0 = rng.normal(size=(n0, 3))
        x0 = x0 - x0.mean(axis=0)
        z0 = rng.normal(size=(n0, 2))
        z0 = z0 - z0.mean(axis=0)
        g = rng.dirichlet(np.ones(n0))
        blocks = make_blocks(rng, n0, 3)
        blocks = type(blocks)(
            x1=x0.T @ g, x0=x0, y0_post=blocks.y0_post, y1_post=blocks.y1_post,
            centering=np.zeros(3),
        )
        cov = CovariatePanel(z1=z0.T @ g, z0=z0)
        aug = augment_weights(DonorWeights(values=g), stacked_blocks(blocks, cov), 2.0)
        assert np.abs(aug.values - g).max() < 1e-10

    def test_stacked_penalized_form_check(self, rng):
        # the joint estimator is its anchor (SCM or uniform) on the stacked,
        # standardized design plus the ridge adjustment on that design
        for method in ("ridge_ascm", "ridge") * 5:
            n0 = int(rng.integers(5, 12))
            blocks = make_blocks(rng, n0, 4)
            cov = make_cov(rng, n0, 2)
            lam = float(10 ** rng.uniform(-1, 3))
            aug = weights_for_design(blocks, EstimatorSpec(method=method, lam=lam), cov)
            stacked = stacked_blocks(blocks, standardize_to_outcomes(cov, blocks)[0])
            anchor = solve_scm(stacked) if method == "ridge_ascm" else np.full(n0, 1.0 / n0)
            rep = verify_penalized_form(aug, anchor, stacked, lam)
            assert rep.passed

    def test_scale_consistency(self, rng):
        # covariates measured in other units give the same weights
        n0 = 7
        blocks = make_blocks(rng, n0, 4)
        cov = make_cov(rng, n0, 2)
        c = 3.7
        cov_scaled = CovariatePanel(z1=cov.z1 * c, z0=cov.z0 * c)
        for mode in ("joint", "residualize"):
            w1 = covariate_weights(blocks, cov, 2.0, mode)
            w2 = covariate_weights(blocks, cov_scaled, 2.0, mode)
            assert np.abs(w1.values - w2.values).max() < 1e-8


class TestResidualize:
    def test_orthogonal_z_leaves_x(self, rng):
        n0 = 8
        x0 = rng.normal(size=(n0, 3))
        x0 = x0 - x0.mean(axis=0)
        z0 = rng.normal(size=(n0, 2))
        z0 = z0 - z0.mean(axis=0)
        # orthogonalize z against every x column
        q, _ = np.linalg.qr(x0)
        z0 = z0 - q @ (q.T @ z0)
        z0 = z0 - z0.mean(axis=0)
        blocks = make_blocks(rng, n0, 3)
        blocks = type(blocks)(
            x1=blocks.x1, x0=x0, y0_post=blocks.y0_post, y1_post=blocks.y1_post,
            centering=np.zeros(3),
        )
        cov = CovariatePanel(z1=rng.normal(size=2), z0=z0)
        rp = residualize(blocks, cov)
        assert np.abs(rp.x0 - x0).max() < 1e-10

    def test_linear_x_gives_zero(self, rng):
        n0 = 8
        z0 = rng.normal(size=(n0, 2))
        z0 = z0 - z0.mean(axis=0)
        coef = rng.normal(size=(2, 4))
        x0 = z0 @ coef
        blocks = make_blocks(rng, n0, 4)
        blocks = type(blocks)(
            x1=blocks.x1, x0=x0, y0_post=blocks.y0_post, y1_post=blocks.y1_post,
            centering=np.zeros(4),
        )
        cov = CovariatePanel(z1=rng.normal(size=2), z0=z0)
        rp = residualize(blocks, cov)
        assert np.abs(rp.x0).max() < 1e-10

    def test_orthogonality_invariant(self, rng):
        for _ in range(10):
            blocks = make_blocks(rng, 8, 5)
            cov = make_cov(rng, 8, 2)
            rp = residualize(blocks, cov)
            assert np.abs(cov.z0.T @ rp.x0).max() < 1e-8

    def test_idempotent(self, rng):
        blocks = make_blocks(rng, 9, 4)
        cov = make_cov(rng, 9, 3)
        rp1 = residualize(blocks, cov)
        rp2 = residualize(rp1, cov)
        assert np.abs(rp2.x0 - rp1.x0).max() < 1e-10
        assert np.abs(rp2.x1 - rp1.x1).max() < 1e-10

    def test_rank_deficient_z_errors(self, rng):
        z0 = rng.normal(size=(8, 1))
        z0 = np.hstack([z0, z0])  # duplicated column
        z0 = z0 - z0.mean(axis=0)
        blocks = make_blocks(rng, 8, 4)
        cov = CovariatePanel(z1=np.zeros(2), z0=z0)
        with pytest.raises(SingularityError):
            residualize(blocks, cov)

    def test_k_too_large_rejected(self, rng):
        blocks = make_blocks(rng, 4, 3)
        cov = make_cov(rng, 4, 4)
        with pytest.raises(ConfigError):
            residualize(blocks, cov)


class TestTwoStepWeights:
    def test_k_zero_reduces_to_augment(self, rng):
        blocks = make_blocks(rng, 6, 4)
        cov = CovariatePanel(z1=np.zeros(0), z0=np.zeros((6, 0)))
        tw = covariate_weights(blocks, cov, 1.0, "residualize")
        plain = augment_weights(solve_scm(blocks), blocks, 1.0)
        assert np.abs(tw.values - plain.values).max() < 1e-12

    def test_exact_z_balance(self, rng):
        for method in ("ridge_ascm", "ridge") * 10:
            n0 = int(rng.integers(6, 14))
            k = int(rng.integers(1, 4))
            blocks = make_blocks(rng, n0, int(rng.integers(3, 7)))
            cov = make_cov(rng, n0, k)
            spec = EstimatorSpec(
                method=method, lam=float(10 ** rng.uniform(-1, 3)), covariate_mode="residualize"
            )
            tw = weights_for_design(blocks, spec, cov)
            assert np.abs(cov.z1 - cov.z0.T @ tw.values).max() <= 1e-8

    def test_imbalance_bound(self, rng):
        for _ in range(20):
            n0 = int(rng.integers(6, 14))
            k = int(rng.integers(1, 4))
            blocks = make_blocks(rng, n0, int(rng.integers(3, 7)))
            cov = make_cov(rng, n0, k)
            resid = residualize(blocks, cov)
            w = solve_scm(resid)
            lam = float(10 ** rng.uniform(-1, 3))
            tw = covariate_weights(blocks, cov, lam, "residualize")
            lhs = np.linalg.norm(blocks.x1 - blocks.x0.T @ tw.values)
            svd = ControlSVD.compute(resid.x0)
            resid_imb = imbalance(resid, w)
            if svd.full_column_rank:
                factor = lam / (lam + svd.n0 * float(svd.d[-1]) ** 2)
            else:
                factor = 1.0
            assert lhs <= factor * resid_imb + 1e-10


class TestBalanceTable:
    def test_standardized_gaps(self, rng):
        cov = make_cov(rng, 6, 2, names=("wage", "emp"))
        g = rng.dirichlet(np.ones(6))
        rows = balance_table(cov, g)
        assert [r[0] for r in rows] == ["wage", "emp"]
        for k, (_, raw, weighted) in enumerate(rows):
            sd = cov.z0[:, k].std()
            assert np.isclose(raw, abs(cov.z1[k]) / sd)
            assert np.isclose(weighted, abs(cov.z1[k] - cov.z0[:, k] @ g) / sd)


class TestCovariatesFromLong:
    def test_pre_period_means(self):
        rows = ["unit,time,outcome,gdp"]
        for unit, base in (("a", 1.0), ("b", 2.0), ("c", 3.0)):
            for t in range(1, 5):
                rows.append(f"{unit},{t},{base + 0.1 * t},{base * 10 + t}")
        src = io.StringIO("\n".join(rows) + "\n")
        p = load_panel(io.StringIO("\n".join(rows) + "\n"), "a", 3)
        cov = covariates_from_long(src, p, ["gdp"])
        # pre periods are t=1,2: unit means 10+1.5, 20+1.5, 30+1.5
        assert cov.k == 1
        donors_mean = np.array([21.5, 31.5]).mean()
        assert np.isclose(cov.z1[0], 11.5 - donors_mean)
        assert np.abs(cov.z0.mean(axis=0)).max() < 1e-12
