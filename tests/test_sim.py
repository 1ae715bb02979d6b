import csv
import math
from dataclasses import replace

import numpy as np
import pytest

from panelctrl.errors import ConfigError, ConvergenceError, PanelCtrlError
from panelctrl.estimators import EstimatorSpec, estimate_on_blocks, fold_predictions
from panelctrl.panel import demean_rows, split_and_center
from panelctrl.scm import DonorWeights, imbalance, solve_leave_one, solve_scm
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
from oracles import MC_BANK, one_replication


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
            ({"t0": 2, "lam": "cv-min"}, "folds need at least 3 pre periods"),
        ],
    )
    def test_refuses_bad_input_before_any_replication(self, monkeypatch, bad, cause):
        import panelctrl.sim as sim_mod

        started = []
        monkeypatch.setattr(sim_mod, "draw_panel", lambda *args: started.append(args))
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
        # the second and the twenty-second draws fail, one in each stack
        import panelctrl.sim as sim_mod

        params = default_dgp("factor")
        draw, calls = sim_mod.draw_panel, []

        def flaky(*args):
            calls.append(args)
            if len(calls) in (2, sim_mod._STACK + 2):
                raise RuntimeError("synthetic failure")
            return draw(*args)

        monkeypatch.setattr(sim_mod, "draw_panel", flaky)
        rep = run_monte_carlo("factor", params, replications=sim_mod._STACK + 5, seed=5,
                              n=8, t=20, t0=16, lam=5.0)
        assert len(calls) == sim_mod._STACK + 5
        assert rep.rows[0].n_dropped == 2
        assert rep.rows[0].n_used == sim_mod._STACK + 3

    def test_one_replication_shares_its_scm_solve(self, monkeypatch, tmp_path):
        # one cold SCM solve, in the stack of cold solves, is the scm entry,
        # the ridge_ascm anchor and the start of the stacked CV fold anchors,
        # which finish in the stack even where they leave its support;
        # demeaned_scm's design is solved in the same cold stack. No SCM
        # problem is solved alone, and the replication finishes in arrays
        import panelctrl.sim as sim_mod

        stacks, finished = [], []
        cold, folds, finish = sim_mod._cold_stack, sim_mod._leave_one_stack, sim_mod._finish_stack

        def record_cold(designs):
            stacks.append(designs)
            return cold(designs)

        def record_folds(designs, fulls):
            stacks.append(fulls)
            return folds(designs, fulls)

        def record_finish(drawn, solutions, *args):
            finished.append(solutions)
            return finish(drawn, solutions, *args)

        def alone(*args):
            raise AssertionError("a replication finished alone")

        monkeypatch.setattr(sim_mod, "_cold_stack", record_cold)
        monkeypatch.setattr(sim_mod, "_leave_one_stack", record_folds)
        monkeypatch.setattr(sim_mod, "_finish_stack", record_finish)
        monkeypatch.setattr(sim_mod, "_finish_alone", alone)
        solves = record_scm_solves(monkeypatch)
        log = tmp_path / "reps.csv"
        run_monte_carlo("factor", default_dgp("factor"), replications=1, seed=3,
                        n=10, t=20, t0=16, lam="cv-min", rep_log=str(log))
        assert solves == [] and len(stacks) == 2 and len(finished) == 1
        (blocks, demeaned), (full,) = stacks
        resolved = folds_off_the_full_support(blocks, EstimatorSpec())
        assert 0 < len(resolved) < 16
        assert np.array_equal(finished[0][0], [full, finished[0][0, 1]])  # the fold start
        assert np.abs(full - solve_scm(blocks).values).max() <= 1e-12
        dm = solve_scm(demean_rows(blocks)).values
        assert np.array_equal(demeaned.x0, demean_rows(blocks).x0)
        assert np.abs(finished[0][0, 1] - dm).max() <= 1e-12
        with open(log, newline="") as fh:
            (row,) = csv.DictReader(fh)
        scm = estimate_on_blocks(blocks, EstimatorSpec(method="scm"),
                                 fit=sim_mod._anchor_fit(blocks, full))
        assert float(row["scm"]) == scm.att[-1]
        assert float(row["scm_fit"]) == imbalance(blocks, full)

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
        # replication 2's draw fails, and the cold stack hands replication
        # 1's de-meaned design back to be solved alone, which fails too
        import panelctrl.estimators as estimators_mod
        import panelctrl.sim as sim_mod

        draw, cold, alone = sim_mod.draw_panel, sim_mod._cold_stack, []

        def fail_third(family, params, n, t, t0, seed):
            if seed.spawn_key[-1] == 2:
                raise RuntimeError("synthetic failure, for the log")
            return draw(family, params, n, t, t0, seed)

        def hand_back(designs):
            g, rejected = cold(designs)
            rejected[3] = True  # the full and de-meaned designs of replications 0, 1 and 3
            return g, rejected

        def not_converging(blocks, *args, **kwargs):
            alone.append(blocks)
            raise ConvergenceError("SCM solver stopped, for the log", residual=1.0)

        monkeypatch.setattr(sim_mod, "draw_panel", fail_third)
        monkeypatch.setattr(sim_mod, "_cold_stack", hand_back)
        monkeypatch.setattr(estimators_mod, "solve_scm", not_converging)
        log = tmp_path / "reps.csv"
        run_monte_carlo("factor", default_dgp("factor"), replications=4, seed=0,
                        n=8, t=16, t0=12, lam=5.0, rep_log=str(log))
        with open(log, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["status"] for r in rows] == ["ok", "dropped", "dropped", "ok"]
        assert rows[1]["error"] == "ConvergenceError: SCM solver stopped, for the log"
        assert rows[2]["error"] == "RuntimeError: synthetic failure, for the log"
        assert [r["error"] for r in rows if r["status"] == "ok"] == ["", ""]
        # the lone solve was demeaned_scm's, on replication 1's de-meaned design
        seed = np.random.SeedSequence(0).spawn(4)[1]
        blocks = split_and_center(draw("factor", default_dgp("factor"), 8, 16, 12, seed))
        (design,) = alone
        assert np.array_equal(design.x0, demean_rows(blocks).x0)


# 29 donors over 5 pre periods: full column rank, where the fold adjustments
# take their full-rank branch. There the SCM problem's curvature off the
# 5-dimensional row space is its 1e-8-scaled dispersion penalty, and the
# lockstep and lone solvers stop 1e-10 apart (both within the KKT gate), so
# the entries built on an SCM solution agree only to 1e-8
FULL_RANK_RTOL = 1e-8


@pytest.mark.parametrize(
    "family, lam, n, t, t0, seed",
    [
        ("factor", "cv-min", 10, 20, 16, 1),
        ("factor", "cv-1se", 10, 20, 16, 2),
        ("factor", 5.0, 8, 16, 12, 3),
        ("fixed-effects", "cv-min", 10, 20, 16, 4),
        ("ar3", "cv-min", 10, 20, 15, 5),
        ("factor", "cv-min", 30, 8, 5, 6),
        ("factor", 0.0, 30, 8, 5, 7),
    ],
)
def test_stacked_replications_match_lone_ones(tmp_path, family, lam, n, t, t0, seed):
    """Every replication of a run over several stacks reports what it
    reports solved on its own (``oracles.one_replication``)."""
    rtol = FULL_RANK_RTOL if n - 2 >= t0 else 1e-12
    import panelctrl.sim as sim_mod

    params, reps, log = default_dgp(family), 2 * sim_mod._STACK + 5, tmp_path / "reps.csv"
    report = run_monte_carlo(family, params, replications=reps, seed=seed, n=n, t=t, t0=t0,
                             lam=lam, rep_log=str(log))
    seeds = np.random.SeedSequence(seed).spawn(reps)
    alone = [one_replication(family, params, n, t, t0, s, lam, report.estimand_period)
             for s in seeds]
    with open(log, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["status"] for r in rows] == ["dropped" if e is None else "ok" for e, _, _ in alone]
    assert [r["error"] for r in rows] == [error for _, _, error in alone]
    for row, (estimates, fit, _) in zip(rows, alone):
        if estimates is not None:
            got = [float(row[name]) for name in MC_BANK] + [float(row["scm_fit"])]
            assert np.allclose(got, [*estimates.values(), fit], rtol=rtol, atol=0.0)
    kept = sum(e is not None for e, _, _ in alone)
    assert [(r.n_used, r.n_dropped) for r in report.rows] == [(kept, reps - kept)] * 5


def _zero_design_panel(n, t, t0, seed):
    """A factor draw whose units share one integer pre-period path (the
    treated unit shifted by 0.5): its centred control block is exactly zero."""
    p = draw_panel("factor", default_dgp("factor"), n, t, t0, seed)
    outcomes = np.array(p.outcomes)
    outcomes[:, :t0] = np.arange(float(t0))
    outcomes[p.treated_index, :t0] += 0.5
    return replace(p, outcomes=outcomes)


@pytest.mark.parametrize("lam", ["cv-min", "cv-1se", 0.0, 5.0])
@pytest.mark.parametrize("n, t, t0", [(30, 8, 5), (10, 20, 16)])
def test_stacked_finish_matches_lone_finish(n, t, t0, lam):
    """Given the same SCM solutions, the array finish of a stack reports
    what each replication's lone calls report, to 1e-12, on both rank
    branches and with a zero design (rank 0) among the others; where a lone
    call raises (the zero design's penalty grid, lam = 0 without full column
    rank) the finish leaves the replication alone."""
    import panelctrl.sim as sim_mod

    panels = [draw_panel("factor", default_dgp("factor"), n, t, t0, s) for s in range(5)]
    blocks = [split_and_center(p) for p in [*panels, _zero_design_panel(n, t, t0, 5)]]
    drawn = [(b, demean_rows(b)) for b in blocks]
    cold = np.array([[solve_scm(b).values, solve_scm(d).values] for b, d in drawn])
    folds = None
    if isinstance(lam, str):
        folds = np.array(
            [solve_leave_one(b, DonorWeights(g), None) for b, g in zip(blocks, cold[:, 0])]
        )
    estimand_period = t - t0 - 1
    rows = sim_mod._finish_stack(drawn, cold, folds, lam, estimand_period)
    raised = []
    for r, ((b, d), (g, h), row) in enumerate(zip(drawn, cold, rows)):
        stacked = None if folds is None else (folds[r].copy(), np.zeros(t0, dtype=bool))
        try:
            estimates, fit = sim_mod._finish_alone(b, d, g, h, stacked, lam, estimand_period)
        except PanelCtrlError:
            raised.append(r)
            assert row is None
            continue
        assert np.allclose(row, [*estimates.values(), fit], rtol=1e-12, atol=0.0)
    if lam == 0.0:  # the zero design is never of full column rank
        assert raised == ([5] if n - 2 >= t0 else list(range(6)))
    else:
        assert raised == ([5] if isinstance(lam, str) else [])


def test_a_handed_back_fold_finishes_its_replication_alone(monkeypatch):
    # the fold stack hands back fold 5 of the third replication: it alone
    # finishes by the lone calls, solving that fold by solve_scm
    import panelctrl.sim as sim_mod

    family, params, n, t, t0, lam = "factor", default_dgp("factor"), 10, 20, 16, "cv-min"
    folds, finish_alone, alone = sim_mod._leave_one_stack, sim_mod._finish_alone, []

    def hand_back(designs, fulls):
        g, rejected = folds(designs, fulls)
        rejected[2, 5] = True
        return g, rejected

    def record(*args):
        alone.append(args)
        return finish_alone(*args)

    monkeypatch.setattr(sim_mod, "_leave_one_stack", hand_back)
    monkeypatch.setattr(sim_mod, "_finish_alone", record)
    solves = record_scm_solves(monkeypatch)
    seeds = np.random.SeedSequence(11).spawn(6)
    results = sim_mod._replication_stack(family, params, n, t, t0, seeds, lam, t - t0 - 1)
    ((blocks, _, full, _, (_, mask), _, _),) = alone
    third = split_and_center(draw_panel(family, params, n, t, t0, seeds[2]))
    assert np.array_equal(blocks.x0, third.x0) and np.flatnonzero(mask).tolist() == [5]
    ((fold, start, _),) = solves
    assert fold.t0 == t0 - 1 and np.array_equal(start, full)
    lone = [one_replication(family, params, n, t, t0, s, lam, t - t0 - 1) for s in seeds]
    assert [error for _, _, error in results] == [""] * 6
    for (estimates, fit, _), (want, want_fit, _) in zip(results, lone):
        got = [*estimates.values(), fit]
        assert np.allclose(got, [*want.values(), want_fit], rtol=1e-12, atol=0.0)


def test_lambda_zero_without_full_rank_drops_every_replication_alone():
    import panelctrl.sim as sim_mod

    family, params, n, t, t0 = "factor", default_dgp("factor"), 10, 20, 16
    seeds = np.random.SeedSequence(12).spawn(4)
    results = sim_mod._replication_stack(family, params, n, t, t0, seeds, 0.0, 3)
    lone = [one_replication(family, params, n, t, t0, s, 0.0, 3) for s in seeds]
    assert results == lone
    assert [error for _, _, error in results] == [
        "SingularityError: x0'x0 is singular (rank 8 < 16); lambda=0 not allowed"
    ] * 4
    with pytest.raises(ConfigError, match="every replication failed"):
        run_monte_carlo(family, params, replications=4, seed=12, n=n, t=t, t0=t0, lam=0.0)


def test_demeans_once_per_fit(monkeypatch):
    """A de-meaned fit's blocks are its design: a leave-one fold pass of the
    demeaned method de-means the full sample and each fold once, a stacked
    replication once, and a replication finished alone twice (its
    demeaned_scm design, then fixed_effects')."""
    import panelctrl.estimators as estimators_mod
    import panelctrl.sim as sim_mod

    demean, calls = estimators_mod.demean_rows, []

    def count(blocks):
        calls.append(blocks)
        return demean(blocks)

    for module in (estimators_mod, sim_mod):
        monkeypatch.setattr(module, "demean_rows", count)
    blocks = split_and_center(draw_panel("factor", default_dgp("factor"), 20, 30, 25, 0))
    fold_predictions(blocks, EstimatorSpec(method="demeaned"))
    assert len(calls) == 26
    mc = {"replications": 3, "seed": 1, "n": 20, "t": 30, "t0": 25, "lam": "cv-min"}
    calls.clear()
    run_monte_carlo("factor", default_dgp("factor"), **mc)
    assert len(calls) == 3
    calls.clear()
    monkeypatch.setattr(sim_mod, "_finish_stack", lambda drawn, *args: [None] * len(drawn))
    run_monte_carlo("factor", default_dgp("factor"), **mc)
    assert len(calls) == 6
