import csv
import math

import numpy as np
import pytest

from panelctrl.errors import ConfigError
from panelctrl.estimators import EstimatorSpec
from panelctrl.panel import split_and_center
from panelctrl.scm import imbalance, solve_scm
from panelctrl.sim import (
    Ar3Dgp,
    FactorDgp,
    FixedEffectsDgp,
    default_dgp,
    draw_panel,
    load_factor_fixture,
    run_monte_carlo,
)

from conftest import folds_off_the_full_support, record_scm_solves


class TestFixture:
    def test_loads_with_expected_shape(self):
        nu, mu = load_factor_fixture()
        assert nu.shape == (105,)
        assert mu.shape == (105, 3)
        assert np.all(np.isfinite(mu)) and np.all(np.isfinite(nu))

    def test_default_dgp_families(self):
        assert isinstance(default_dgp("factor"), FactorDgp)
        assert isinstance(default_dgp("fixed-effects"), FixedEffectsDgp)
        assert isinstance(default_dgp("ar3"), Ar3Dgp)
        with pytest.raises(ConfigError):
            default_dgp("bogus")


class TestDrawPanel:
    def test_degenerate_dgp_exact_fit(self):
        nu, mu = load_factor_fixture()
        params = FactorDgp(
            mu=mu, nu=nu, alpha_sd=0.0, phi_cov=np.zeros((3, 3)), sigma_eps=0.0
        )
        p = draw_panel("factor", params, 8, 20, 15, 3)
        blocks = split_and_center(p)
        w = solve_scm(blocks)
        assert imbalance(blocks, w) < 1e-10

    def test_theta_zero_selection_uniform(self):
        params = default_dgp("factor")
        from dataclasses import replace

        params = replace(params, theta=0.0)
        n, draws = 10, 5000
        seeds = np.random.SeedSequence(42).spawn(draws)
        counts = np.zeros(n)
        for s in seeds:
            p = draw_panel("factor", params, n, 8, 5, s)
            counts[p.treated_index] += 1
        freq = counts / draws
        se = np.sqrt((1 / n) * (1 - 1 / n) / draws)
        assert np.abs(freq - 1.0 / n).max() <= 3 * se

    def test_fixed_seed_byte_identical(self):
        params = default_dgp("factor")
        p1 = draw_panel("factor", params, 12, 20, 16, 99)
        p2 = draw_panel("factor", params, 12, 20, 16, 99)
        assert np.array_equal(p1.outcomes, p2.outcomes)
        assert p1.treated_index == p2.treated_index

    def test_families_produce_valid_panels(self):
        for family in ("factor", "fixed-effects", "ar3"):
            p = draw_panel(family, default_dgp(family), 10, 20, 15, 1)
            assert p.n_units == 10
            assert p.n_periods == 20
            assert p.t0 == 15

    def test_nonstationary_ar_rejected(self):
        with pytest.raises(ConfigError):
            Ar3Dgp(betas=(0.9, 0.2, 0.1))

    def test_invalid_covariance_rejected(self):
        nu, mu = load_factor_fixture()
        bad = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(ConfigError):
            FactorDgp(mu=mu, nu=nu, phi_cov=bad)
        asym = np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(ConfigError):
            FactorDgp(mu=mu, nu=nu, phi_cov=asym)

    def test_fixture_length_guard(self):
        params = default_dgp("factor")
        with pytest.raises(ConfigError):
            draw_panel("factor", params, 5, 200, 150, 0)

    def test_sigma_multiplier(self):
        from dataclasses import replace

        params = default_dgp("factor")
        loud = replace(params, sigma_multiplier=4.0)
        assert np.isclose(loud.noise_sd, 4 * params.sigma_eps)


class TestRunMonteCarlo:
    def test_degenerate_dgp_all_unbiased(self):
        nu, mu = load_factor_fixture()
        params = FactorDgp(
            mu=mu, nu=nu, alpha_sd=0.0, phi_cov=np.zeros((3, 3)), sigma_eps=0.0
        )
        rep = run_monte_carlo(
            "factor", params, replications=10, seed=1, n=8, t=20, t0=16, lam=1.0
        )
        assert [row.name for row in rep.rows] == [
            "scm", "ridge", "ridge_ascm", "fixed_effects", "demeaned_scm"
        ]
        for row in rep.rows:
            assert abs(row.bias) < 1e-8
            assert row.rmse < 1e-8

    def test_reproducible(self):
        params = default_dgp("factor")
        r1 = run_monte_carlo("factor", params, replications=12,
                             seed=7, n=10, t=20, t0=16, lam=10.0)
        r2 = run_monte_carlo("factor", params, replications=12,
                             seed=7, n=10, t=20, t0=16, lam=10.0)
        assert r1.rows == r2.rows

    @pytest.mark.parametrize(
        "bad, cause",
        [
            ({"lam": "bogus"}, "cv-1se"),
            ({"lam": math.inf}, "finite"),
            ({"replications": 0}, "at least 1 replication"),
            ({"replications": -1}, "at least 1 replication"),
            ({"replications": 2.5}, "at least 1 replication"),
            ({"n": 2}, "at least 3 units"),
            ({"t": 200, "t0": 190}, "fixture provides 105 periods"),
            ({"t0": 1}, "got t0=1, t=16"),
            ({"t0": 16}, "got t0=16, t=16"),
            ({"params": default_dgp("ar3")}, "factor family expects FactorDgp params"),
            ({"family": "bogus"}, "unknown DGP family"),
        ],
    )
    def test_refuses_bad_input_before_any_replication(self, monkeypatch, bad, cause):
        import panelctrl.sim as sim_mod

        started = []
        monkeypatch.setattr(sim_mod, "_one_replication", started.append)
        kwargs = {"family": "factor", "params": default_dgp("factor"), "replications": 2,
                  "seed": 0, "n": 8, "t": 16, "t0": 12, "lam": 1.0, **bad}
        with pytest.raises(ConfigError, match=cause):
            run_monte_carlo(**kwargs)
        assert started == []

    @pytest.mark.parametrize("family", ["factor", "fixed-effects", "ar3"])
    @pytest.mark.parametrize("field", ["sigma_eps", "sigma_multiplier"])
    @pytest.mark.parametrize("value", [math.nan, -0.5, math.inf])
    def test_noise_scale_must_be_finite_and_nonnegative(self, family, field, value):
        from dataclasses import replace

        with pytest.raises(ConfigError, match=f"{field} must be finite and nonnegative"):
            replace(default_dgp(family), **{field: value})

    def test_scm_row_normalizes_to_100(self):
        params = default_dgp("factor")
        rep = run_monte_carlo("factor", params, replications=20, seed=3,
                              n=10, t=20, t0=16, lam=10.0)
        scm = rep.row("scm")
        assert np.isclose(scm.abs_bias_pct_of_scm, 100.0)
        assert np.isclose(scm.rmse_pct_of_scm, 100.0)

    def test_estimand_period_conventions(self):
        params = default_dgp("factor")
        rep = run_monte_carlo("factor", params, replications=2, seed=0,
                              n=8, t=20, t0=16, lam=5.0)
        assert rep.estimand_period == 3  # final period
        rep_ar = run_monte_carlo("ar3", default_dgp("ar3"), replications=2, seed=0,
                                 n=8, t=20, t0=16, lam=5.0)
        assert rep_ar.estimand_period == 0  # first post period

    def test_dropped_replications_counted(self, monkeypatch):
        import panelctrl.sim as sim_mod

        params = default_dgp("factor")
        original = sim_mod._one_replication
        calls = {"n": 0}

        def flaky(args):
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("synthetic failure")
            return original(args)

        monkeypatch.setattr(sim_mod, "_one_replication", flaky)
        rep = run_monte_carlo("factor", params, replications=6, seed=5,
                              n=8, t=20, t0=16, lam=5.0)
        assert rep.rows[0].n_dropped == 1
        assert rep.rows[0].n_used == 5

    def test_one_replication_shares_its_scm_solve(self, monkeypatch):
        # one cold SCM solve is the scm entry, the ridge_ascm anchor, the
        # support of the batched CV fold anchors and the start of every CV
        # fold that leaves that support; only demeaned_scm solves on its own
        # design besides
        import panelctrl.estimators as estimators_mod
        import panelctrl.sim as sim_mod

        anchors, estimates = [], {}
        augment = estimators_mod.augment_weights
        estimate = sim_mod.estimate_on_blocks

        def record_anchor(anchor, *args):
            anchors.append(anchor)
            return augment(anchor, *args)

        def record_estimate(blocks, spec, **kwargs):
            estimates["blocks"] = blocks
            estimates[spec.method] = estimate(blocks, spec, **kwargs)
            return estimates[spec.method]

        solves = record_scm_solves(monkeypatch)
        monkeypatch.setattr(estimators_mod, "augment_weights", record_anchor)
        monkeypatch.setattr(sim_mod, "estimate_on_blocks", record_estimate)
        run_monte_carlo("factor", default_dgp("factor"), replications=1, seed=3,
                        n=10, t=20, t0=16, lam="cv-min")
        run = [(start, w) for _, start, w in solves]  # the reference solves below record too
        resolved = folds_off_the_full_support(estimates["blocks"], EstimatorSpec())
        assert 0 < len(resolved) < 16
        assert len(run) == 1 + len(resolved) + 1
        shared = run[0][1]
        assert run[0][0] is None
        assert all(np.array_equal(start, shared.values) for start, _ in run[1:-1])
        assert run[-1][0] is None  # demeaned_scm, cold on its own design
        assert estimates["scm"].weights is shared
        assert [a for a in anchors if a is shared] == [shared]  # the ridge_ascm entry's

    def test_stratification_partitions(self):
        params = default_dgp("factor")
        rep = run_monte_carlo("factor", params, replications=24, seed=9,
                              n=10, t=20, t0=16, lam=10.0, stratify_by_fit=True)
        total = sum(row[-1] for row in rep.fit_quartiles if row[1] == "scm")
        assert total == 24
        quartiles = {row[0] for row in rep.fit_quartiles}
        assert quartiles == {1, 2, 3, 4}

    def test_rep_log_written(self, tmp_path):
        params = default_dgp("factor")
        log = tmp_path / "reps.csv"
        run_monte_carlo("factor", params, replications=4, seed=0,
                        n=8, t=16, t0=12, lam=5.0, rep_log=str(log))
        lines = log.read_text().strip().split("\n")
        assert len(lines) == 5
        assert lines[0].startswith("replication,status,")

    def test_rep_log_records_why_a_replication_was_dropped(self, tmp_path, monkeypatch):
        import panelctrl.sim as sim_mod

        original = sim_mod._one_replication

        def fail_third(args):
            if args[5].spawn_key[-1] == 2:
                raise RuntimeError("synthetic failure, for the log")
            return original(args)

        monkeypatch.setattr(sim_mod, "_one_replication", fail_third)
        log = tmp_path / "reps.csv"
        run_monte_carlo("factor", default_dgp("factor"), replications=4, seed=0,
                        n=8, t=16, t0=12, lam=5.0, rep_log=str(log))
        with open(log, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["status"] for r in rows] == ["ok", "ok", "dropped", "ok"]
        assert rows[2]["error"] == "RuntimeError: synthetic failure, for the log"
        assert [r["error"] for r in rows if r["status"] == "ok"] == ["", "", ""]
