import math
from dataclasses import replace

import numpy as np
import pytest

from panelctrl.errors import ConfigError, ConvergenceError, PanelCtrlError
from panelctrl.estimators import (
    AnchorFit,
    EstimatorSpec,
    _counterfactual,
    estimate_on_blocks,
    fold_predictions,
)
from panelctrl.panel import PanelBlocks, demean_rows, split_and_center
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
from oracles import MC_BANK, draw_by_multivariate_normal, one_replication


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

    @pytest.mark.parametrize("t, t0", [(20, 15.0), (20.0, 15)])
    def test_period_counts_must_be_integers(self, t, t0):
        with pytest.raises(ConfigError, match="must be an integer"):
            draw_panel("factor", default_dgp("factor"), 8, t, t0, 0)

    def test_sigma_multiplier(self):
        from dataclasses import replace

        params = default_dgp("factor")
        loud = replace(params, sigma_multiplier=4.0)
        assert np.isclose(loud.noise_sd, 4 * params.sigma_eps)


# a rank-one loading covariance over two factors, on the fixture's first two paths
_NU, _MU = load_factor_fixture()
_TWO_FACTORS = FactorDgp(mu=_MU[:, :2], nu=_NU, phi_cov=np.array([[0.2, 0.1], [0.1, 0.05]]))


@pytest.mark.parametrize(
    "family, params, n, t, t0",
    [
        ("factor", default_dgp("factor"), 10, 20, 16),
        ("factor", replace(default_dgp("factor"), theta=0.0), 8, 12, 9),
        ("factor", replace(default_dgp("factor"), sigma_multiplier=3.0), 20, 30, 25),
        ("factor", _TWO_FACTORS, 30, 8, 5),
        ("fixed-effects", default_dgp("fixed-effects"), 10, 20, 16),
        ("fixed-effects", replace(default_dgp("fixed-effects"), theta=0.0,
                                  sigma_multiplier=0.5), 6, 9, 4),
        ("ar3", default_dgp("ar3"), 10, 20, 15),
        ("ar3", replace(default_dgp("ar3"), theta=0.0, sigma_multiplier=2.0), 6, 9, 4),
    ],
)
def test_draw_matches_the_multivariate_normal_draw(family, params, n, t, t0):
    """draw_panel's loadings from one SVD of the covariance are those of
    ``Generator.multivariate_normal(method="svd")``, bit for bit, and every
    later draw of the seed's generator is unchanged with them."""
    for seed in np.random.SeedSequence(21).spawn(50):
        p = draw_panel(family, params, n, t, t0, seed)
        outcomes, treated = draw_by_multivariate_normal(family, params, n, t, t0, seed)
        assert np.array_equal(p.outcomes, outcomes) and p.treated_index == treated


@pytest.mark.parametrize(
    "family, n, t, t0",
    [("factor", 10, 20, 16), ("fixed-effects", 10, 20, 16), ("ar3", 10, 20, 15),
     ("factor", 30, 8, 5)],
)
def test_stacked_blocks_are_the_lone_blocks(monkeypatch, family, n, t, t0):
    """The blocks and de-meaned blocks a stack builds in arrays are, row by
    row, split_and_center(draw_panel(...)) and demean_rows of it, bit for bit."""
    import panelctrl.sim as sim_mod

    built, build = [], sim_mod._stack_blocks

    def record(*args):
        built.append(build(*args))
        return built[-1]

    monkeypatch.setattr(sim_mod, "_stack_blocks", record)
    params, seeds = default_dgp(family), np.random.SeedSequence(13).spawn(12)
    sim_mod._replication_stack(family, params, n, t, t0, seeds, 5.0, 0)
    ((blocks, demeaned),) = built
    assert blocks.x0.shape == (12, n - 1, t0)
    for r, seed in enumerate(seeds):
        lone = split_and_center(draw_panel(family, params, n, t, t0, seed))
        for stacked, want in ((blocks, lone), (demeaned, demean_rows(lone))):
            for name in sim_mod._Blocks._fields:
                assert np.array_equal(getattr(stacked, name)[r], getattr(want, name)), name


@pytest.mark.parametrize(
    "scale, overflowed",
    [
        # the finite draws drop too, in the SCM solve, whose squares overflow
        pytest.param(5e307, 2, marks=pytest.mark.filterwarnings("ignore::RuntimeWarning")),
        (1e308, 20),  # no warning: no block that is not finite reaches a solve
    ],
)
def test_overflowing_draws_drop_alone(scale, overflowed):
    """With factor paths near the float limit, the draws whose outcomes
    overflow drop with draw_panel's error, and every replication of the
    stack reports what it reports alone."""
    import panelctrl.sim as sim_mod

    nu, mu = load_factor_fixture()
    with np.errstate(over="ignore"):
        params = FactorDgp(mu=mu * scale, nu=nu)
    seeds = np.random.SeedSequence(4).spawn(20)
    results = sim_mod._replication_stack("factor", params, 10, 20, 16, seeds, "cv-min", 3)
    lone = [one_replication("factor", params, 10, 20, 16, s, "cv-min", 3) for s in seeds]
    assert results == lone
    # a draw overflows in its product of loadings and paths (a warning, an
    # error where warnings are) or is refused as a panel
    draw_errors = ("RuntimeWarning: overflow encountered in matmul",
                   "PanelFormatError: non-finite outcome")
    assert sum(error.startswith(draw_errors) for _, _, error in results) == overflowed


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
            ({"seed": -1}, "seed must be a nonnegative integer"),
            ({"seed": 1.5}, "seed must be a nonnegative integer"),
            ({"seed": [3, -2]}, "seed must be a nonnegative integer"),
            ({"lam": None}, "got None"),
            ({"t0": 12.0}, "t0 must be an integer, got t0=12.0"),
            ({"t": 16.0}, "t must be an integer, got t=16.0"),
        ],
    )
    def test_refuses_bad_input_before_any_replication(self, monkeypatch, bad, cause):
        import panelctrl.sim as sim_mod

        started = []
        monkeypatch.setattr(sim_mod, "_draw", lambda *args: started.append(args))
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
        draw, calls = sim_mod._draw, []

        def flaky(*args):
            calls.append(args)
            if len(calls) in (2, sim_mod._STACK + 2):
                raise RuntimeError("synthetic failure")
            return draw(*args)

        monkeypatch.setattr(sim_mod, "_draw", flaky)
        rep = run_monte_carlo("factor", params, replications=sim_mod._STACK + 5, seed=5,
                              n=8, t=20, t0=16, lam=5.0)
        assert len(calls) == sim_mod._STACK + 5
        assert rep.rows[0].n_dropped == 2
        assert rep.rows[0].n_used == sim_mod._STACK + 3

    def test_one_replication_shares_its_scm_solve(self, monkeypatch):
        # one cold SCM solve, in the stack of cold solves, is the scm entry,
        # the ridge_ascm anchor and the start of the stacked CV fold anchors,
        # which finish in the stack even where they leave its support;
        # demeaned_scm's design is solved in the same cold stack. No SCM
        # problem is solved alone, and the replication finishes in arrays
        import panelctrl.sim as sim_mod

        stacks, solved = [], []
        cold, folds = sim_mod._cold_stack, sim_mod._leave_one_stack

        def record_cold(x0, x1):
            stacks.append((x0, x1))
            g, back = cold(x0, x1)
            solved.append(g)
            return g, back

        def record_folds(x0, x1, fulls):
            stacks.append(fulls)
            return folds(x0, x1, fulls)

        def alone(*args):
            raise AssertionError("a replication finished alone")

        monkeypatch.setattr(sim_mod, "_cold_stack", record_cold)
        monkeypatch.setattr(sim_mod, "_leave_one_stack", record_folds)
        monkeypatch.setattr(sim_mod, "_finish_alone", alone)
        solves = record_scm_solves(monkeypatch)
        report = run_monte_carlo("factor", default_dgp("factor"), replications=1, seed=3,
                                 n=10, t=20, t0=16, lam="cv-min")
        assert solves == [] and len(stacks) == 2
        (x0, x1), (full,) = stacks
        ((scm, dm),) = [g.T for g in solved]  # the full-sample and de-meaned solutions
        seed = np.random.SeedSequence(3).spawn(1)[0]
        blocks = split_and_center(draw_panel("factor", default_dgp("factor"), 10, 20, 16, seed))
        assert np.array_equal(x0[0], blocks.x0) and np.array_equal(x1[0], blocks.x1)
        resolved = folds_off_the_full_support(blocks, EstimatorSpec())
        assert 0 < len(resolved) < 16
        assert np.array_equal(full, scm)  # the fold start
        assert np.abs(full - solve_scm(blocks).values).max() <= 1e-12
        assert np.array_equal(x0[1], demean_rows(blocks).x0)
        assert np.abs(dm - solve_scm(demean_rows(blocks)).values).max() <= 1e-12
        ((estimate, *_, fit),) = report.rep_log
        weights = DonorWeights(full)
        scm = estimate_on_blocks(blocks, EstimatorSpec(method="scm"),
                                 fit=AnchorFit(blocks, weights, weights))
        assert estimate == scm.att[-1]
        assert fit == imbalance(blocks, full)

    def test_stratification_partitions(self):
        params = default_dgp("factor")
        rep = run_monte_carlo("factor", params, replications=24, seed=9,
                              n=10, t=20, t0=16, lam=10.0, stratify_by_fit=True)
        total = sum(row[-1] for row in rep.fit_quartiles if row[1] == "scm")
        assert total == 24
        quartiles = {row[0] for row in rep.fit_quartiles}
        assert quartiles == {1, 2, 3, 4}

    def test_rep_log_written(self):
        params = default_dgp("factor")
        report = run_monte_carlo("factor", params, replications=4, seed=0,
                                 n=8, t=16, t0=12, lam=5.0)
        assert [len(entry) for entry in report.rep_log] == [6] * 4
        # the entries are what the report aggregates: the estimates in report order
        for i, row in enumerate(report.rows):
            assert row.bias == math.fsum(entry[i] for entry in report.rep_log) / 4

    def test_rep_log_records_why_a_replication_was_dropped(self, monkeypatch):
        # replication 2's draw fails, and the cold stack hands replication
        # 1's de-meaned design back: replication 1 finishes alone from the
        # start, and its full-sample solve fails
        import panelctrl.estimators as estimators_mod
        import panelctrl.sim as sim_mod

        draw, cold, alone = sim_mod._draw, sim_mod._cold_stack, []

        def fail_third(family, params, n, t, t0, seed, loadings):
            if seed.spawn_key[-1] == 2:
                raise RuntimeError("synthetic failure, for the log")
            return draw(family, params, n, t, t0, seed, loadings)

        def hand_back(x0, x1):
            g, rejected = cold(x0, x1)
            rejected[3] = True  # the full and de-meaned designs of replications 0, 1 and 3
            return g, rejected

        def not_converging(blocks, *args, **kwargs):
            alone.append(blocks)
            raise ConvergenceError("SCM solver stopped, for the log", residual=1.0)

        monkeypatch.setattr(sim_mod, "_draw", fail_third)
        monkeypatch.setattr(sim_mod, "_cold_stack", hand_back)
        monkeypatch.setattr(estimators_mod, "solve_scm", not_converging)
        report = run_monte_carlo("factor", default_dgp("factor"), replications=4, seed=0,
                                 n=8, t=16, t0=12, lam=5.0)
        ok, not_converged, not_drawn, ok_too = report.rep_log
        assert len(ok) == len(ok_too) == 6
        assert not_converged == "ConvergenceError: SCM solver stopped, for the log"
        assert not_drawn == "RuntimeError: synthetic failure, for the log"
        # the lone solve was replication 1's full-sample design
        seed = np.random.SeedSequence(0).spawn(4)[1]
        blocks = split_and_center(draw_panel("factor", default_dgp("factor"), 8, 16, 12, seed))
        (design,) = alone
        assert np.array_equal(design.x0, blocks.x0) and np.array_equal(design.x1, blocks.x1)


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
def test_stacked_replications_match_lone_ones(family, lam, n, t, t0, seed):
    """Every replication of a run over several stacks reports what it
    reports solved on its own (``oracles.one_replication``)."""
    rtol = FULL_RANK_RTOL if n - 2 >= t0 else 1e-12
    import panelctrl.sim as sim_mod

    params, reps = default_dgp(family), 2 * sim_mod._STACK + 5
    report = run_monte_carlo(family, params, replications=reps, seed=seed, n=n, t=t, t0=t0,
                             lam=lam)
    seeds = np.random.SeedSequence(seed).spawn(reps)
    alone = [one_replication(family, params, n, t, t0, s, lam, report.estimand_period)
             for s in seeds]
    assert [row.name for row in report.rows] == list(MC_BANK)  # the entries' order
    for entry, (estimates, fit, error) in zip(report.rep_log, alone, strict=True):
        if estimates is None:
            assert entry == error
        else:
            assert not isinstance(entry, str)
            assert np.allclose(entry, [*estimates.values(), fit], rtol=rtol, atol=0.0)
    kept = sum(e is not None for e, _, _ in alone)
    assert [(r.n_used, r.n_dropped) for r in report.rows] == [(kept, reps - kept)] * 5


def _stacked(blocks):
    """The :class:`sim._Blocks` of a list of lone blocks, each field stacked."""
    import panelctrl.sim as sim_mod

    return sim_mod._Blocks(*(np.stack([getattr(b, f) for b in blocks])
                             for f in sim_mod._Blocks._fields))


def _mixed_rank_blocks(rng, n0=7, t0=5, n_post=3):
    """Blocks of one shape whose centred control blocks have ranks 5, 2 and 0."""
    return [
        PanelBlocks(
            x1=rng.normal(size=t0),
            x0=rng.normal(size=(n0, rank)) @ rng.normal(size=(rank, t0)),
            y0_post=rng.normal(size=(n0, n_post)),
            y1_post=rng.normal(size=n_post),
        )
        for rank in (t0, 2, 0)
    ]


def test_stacked_counterfactuals_are_the_lone_ones(rng):
    """_counterfactual of a stack of mixed rank is each design's lone call,
    bit for bit, on the blocks and on the de-meaned blocks: with L fits per
    design (a fold's product) and with one fit per product along a leading
    axis of the weights (a Monte Carlo stack's, and the estimate's)."""
    lone = _mixed_rank_blocks(rng)
    assert [np.linalg.matrix_rank(b.x0) for b in lone] == [5, 2, 0]
    for fitted in (lone, [demean_rows(b) for b in lone]):
        blocks, fits = _stacked(lone), _stacked(fitted)
        columns = rng.normal(size=(3, 7, 4))
        stacked = _counterfactual(blocks, fits, columns)
        vectors = rng.normal(size=(2, 3, 7))
        each = _counterfactual(blocks, fits, vectors[..., None])[..., 0, :]
        for r, (b, f) in enumerate(zip(lone, fitted)):
            assert np.array_equal(stacked[r], _counterfactual(b, f, columns[r]))
            for a in range(2):
                assert np.array_equal(each[a, r], _counterfactual(b, f, vectors[a, r, :, None])[0])


def test_stacked_imbalances_are_the_lone_ones(rng):
    """imbalance of a stack of mixed rank is each design's lone call, bit
    for bit, and the lone call's value is np.linalg.norm's."""
    lone = _mixed_rank_blocks(rng)
    weights = rng.dirichlet(np.ones(7), size=3)
    stacked = imbalance(_stacked(lone), weights)
    assert stacked.shape == (3,)
    for b, g, value in zip(lone, weights, stacked):
        assert isinstance(imbalance(b, g), float)
        assert value == imbalance(b, DonorWeights(g)) == np.linalg.norm(b.x1 - b.x0.T @ g)


def _zero_design_panel(n, t, t0, seed):
    """A factor draw whose units share one integer pre-period path (the
    treated unit shifted by 0.5): its centred control block is exactly zero."""
    p = draw_panel("factor", default_dgp("factor"), n, t, t0, seed)
    outcomes = np.array(p.outcomes)
    outcomes[:, :t0] = np.arange(float(t0))
    outcomes[p.treated_index, :t0] += 0.5
    return replace(p, outcomes=outcomes)


def test_stacked_scm_entries_are_the_lone_calls_on_the_stacked_solutions(monkeypatch):
    """In criterion 9's factor design, each replication of a stack reports
    as its scm entry and scm_fit what the lone calls report on its SCM
    solution from the lockstep pass, bit for bit: the finish's products
    round as the lone ones do, whatever layout the pass returns."""
    import panelctrl.sim as sim_mod

    cold, solutions = sim_mod._cold_stack, []

    def record(x0, x1):
        g, back = cold(x0, x1)
        solutions.append(g[:, ::2].T)  # the full-sample designs'
        return g, back

    monkeypatch.setattr(sim_mod, "_cold_stack", record)
    monkeypatch.setattr(sim_mod, "_finish_alone", None)  # none leaves the stack
    params, seeds = replace(default_dgp("factor"), theta=1.5), np.random.SeedSequence(5).spawn(20)
    results = sim_mod._replication_stack("factor", params, 20, 30, 25, seeds, "cv-min", 4)
    for (estimates, fit, _), seed, g in zip(results, seeds, solutions[0]):
        blocks = split_and_center(draw_panel("factor", params, 20, 30, 25, seed))
        w = DonorWeights(g)
        scm = estimate_on_blocks(blocks, EstimatorSpec(method="scm"), fit=AnchorFit(blocks, w, w))
        assert (estimates["scm"], fit) == (scm.att[4], imbalance(blocks, w))


@pytest.mark.parametrize("lam", ["cv-min", "cv-1se", 0.0, 5.0])
@pytest.mark.parametrize("n, t, t0", [(30, 8, 5), (10, 20, 16)])
def test_stacked_finish_matches_lone_finish(monkeypatch, n, t, t0, lam):
    """Given the SCM solutions that the lone calls solve, in place of its
    lockstep passes, the one-pass finish of a stack reports what each
    replication's lone calls report, bit for bit, on both rank branches and
    with a zero design (rank 0) among the others; where a lone call raises
    (the zero design's penalty grid, lam = 0 without full column rank) the
    finish leaves the replication alone."""
    import panelctrl.sim as sim_mod

    panels = [draw_panel("factor", default_dgp("factor"), n, t, t0, s) for s in range(5)]
    blocks = [split_and_center(p) for p in [*panels, _zero_design_panel(n, t, t0, 5)]]
    drawn = [(b, demean_rows(b)) for b in blocks]
    cold = np.array([[solve_scm(b).values, solve_scm(d).values] for b, d in drawn])
    stack = [_stacked(b) for b in zip(*drawn)]
    folds = np.array(
        [solve_leave_one(b, DonorWeights(g), None) for b, g in zip(blocks, cold[:, 0])]
    )

    def lone_cold(x0, x1):  # problem 2r is replication r's full design, 2r + 1 its de-meaned
        assert np.array_equal(x0, np.stack([stack[0].x0, stack[1].x0], axis=1).reshape(x0.shape))
        # laid out as the lockstep pass returns them: a C-ordered N0 x 2R array
        return np.ascontiguousarray(cold.reshape(-1, n - 1).T), np.zeros(len(x0), dtype=bool)

    def lone_folds(x0, x1, fulls):
        assert np.array_equal(fulls, cold[:, 0])
        return folds, np.zeros((len(x0), t0), dtype=bool)

    monkeypatch.setattr(sim_mod, "_cold_stack", lone_cold)
    monkeypatch.setattr(sim_mod, "_leave_one_stack", lone_folds)
    estimand_period = t - t0 - 1
    rows = sim_mod._finish_stack(*stack, lam, estimand_period)
    raised = []
    for r, (b, row) in enumerate(zip(blocks, rows)):
        try:
            estimates, fit = sim_mod._finish_alone(b, lam, estimand_period)
        except PanelCtrlError:
            raised.append(r)
            assert row is None
            continue
        assert row == [*estimates.values(), fit]
    if lam == 0.0:  # the zero design is never of full column rank
        assert raised == ([5] if n - 2 >= t0 else list(range(6)))
    else:
        assert raised == ([5] if isinstance(lam, str) else [])


def test_a_handed_back_fold_finishes_its_replication_alone(monkeypatch):
    # the fold stack hands back fold 5 of the third replication: it alone
    # finishes by the lone calls from the start, exactly as on its own
    import panelctrl.sim as sim_mod

    family, params, n, t, t0, lam = "factor", default_dgp("factor"), 10, 20, 16, "cv-min"
    folds, finish_alone, alone = sim_mod._leave_one_stack, sim_mod._finish_alone, []

    def hand_back(x0, x1, fulls):
        g, rejected = folds(x0, x1, fulls)
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
    ((blocks, _, _),) = alone
    third = split_and_center(draw_panel(family, params, n, t, t0, seeds[2]))
    assert np.array_equal(blocks.x0, third.x0)
    (full, start, _) = solves[0]  # its full-sample solve, cold
    assert np.array_equal(full.x0, third.x0) and start is None
    lone = [one_replication(family, params, n, t, t0, s, lam, t - t0 - 1) for s in seeds]
    assert [error for _, _, error in results] == [""] * 6
    assert results[2] == lone[2]
    for (estimates, fit, _), (want, want_fit, _) in zip(results, lone):
        got = [*estimates.values(), fit]
        assert np.allclose(got, [*want.values(), want_fit], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("lam", ["cv-min", 5.0])
def test_a_handed_back_cold_problem_finishes_its_replication_alone(monkeypatch, lam):
    # the cold stack hands back the fourth replication's full-sample design,
    # whose solve worked: that replication alone finishes by the lone calls
    # from the start, exactly as on its own
    import panelctrl.sim as sim_mod

    family, params, n, t, t0 = "factor", default_dgp("factor"), 10, 20, 16
    cold, finish_alone, alone = sim_mod._cold_stack, sim_mod._finish_alone, []

    def hand_back(x0, x1):
        g, rejected = cold(x0, x1)
        rejected[2 * 3] = True  # problem 2r is replication r's full design, 2r + 1 its de-meaned
        return g, rejected

    def record(blocks, *args):
        alone.append(blocks)
        return finish_alone(blocks, *args)

    monkeypatch.setattr(sim_mod, "_cold_stack", hand_back)
    monkeypatch.setattr(sim_mod, "_finish_alone", record)
    seeds = np.random.SeedSequence(14).spawn(6)
    results = sim_mod._replication_stack(family, params, n, t, t0, seeds, lam, t - t0 - 1)
    (blocks,) = alone
    fourth = split_and_center(draw_panel(family, params, n, t, t0, seeds[3]))
    assert np.array_equal(blocks.x0, fourth.x0) and np.array_equal(blocks.x1, fourth.x1)
    lone = [one_replication(family, params, n, t, t0, s, lam, t - t0 - 1) for s in seeds]
    assert [error for _, _, error in results] == [""] * 6
    assert results[3] == lone[3]
    for (estimates, fit, _), (want, want_fit, _) in zip(results, lone):
        got = [*estimates.values(), fit]
        assert np.allclose(got, [*want.values(), want_fit], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("lam", ["cv-min", 0.0])
def test_each_replication_is_drawn_once(monkeypatch, lam):
    """Replications leave one stack for every cause, and each seed is drawn
    once: replication 0's fold is handed back (under CV), 1's cold problem
    is handed back, 3's draw is not finite and 5's design is zero, which a
    lone call refuses (its penalty grid under CV, lam = 0 otherwise). Each
    leaving replication is checked as the panel of its own row of the
    stack, and reports what it reports alone, bit for bit."""
    import panelctrl.sim as sim_mod

    family, params, n, t, t0 = "factor", default_dgp("factor"), 30, 8, 5
    draw, cold, folds, drawn = sim_mod._draw, sim_mod._cold_stack, sim_mod._leave_one_stack, []

    def draw_once(family, params, n, t, t0, seed, loadings):
        drawn.append(seed.spawn_key[-1])
        outcomes, treated = draw(family, params, n, t, t0, seed, loadings)
        if drawn[-1] == 3:
            outcomes[0, 0] = np.inf
        if drawn[-1] == 5:  # every unit on one pre-period path, the treated unit shifted
            outcomes[:, :t0] = np.arange(float(t0))
            outcomes[treated, :t0] += 0.5
        return outcomes, treated

    def hand_back_cold(x0, x1):
        g, rejected = cold(x0, x1)
        rejected[2] = True  # replication 1's full-sample design
        return g, rejected

    def hand_back_fold(x0, x1, fulls):
        g, rejected = folds(x0, x1, fulls)
        rejected[0, 2] = True  # replication 0's fold 2
        return g, rejected

    monkeypatch.setattr(sim_mod, "_draw", draw_once)
    monkeypatch.setattr(sim_mod, "_cold_stack", hand_back_cold)
    monkeypatch.setattr(sim_mod, "_leave_one_stack", hand_back_fold)
    seeds = np.random.SeedSequence(21).spawn(8)
    results = sim_mod._replication_stack(family, params, n, t, t0, seeds, lam, t - t0 - 1)
    assert drawn == list(range(8))
    lone = [one_replication(family, params, n, t, t0, s, lam, t - t0 - 1) for s in seeds]
    leaving = [0, 1, 3, 5] if isinstance(lam, str) else [1, 3, 5]
    assert [results[r] for r in leaving] == [lone[r] for r in leaving]
    assert results[3][2].startswith("PanelFormatError: non-finite outcome inf")
    assert results[5][2] == ("ConfigError: control block is identically zero; no sensible grid"
                             if isinstance(lam, str) else "SingularityError: x0'x0 is singular "
                             "(rank 0 < 5); lambda=0 not allowed")
    assert [error for _, _, error in results] == [error for _, _, error in lone]
    for (estimates, fit, _), (want, want_fit, _) in zip(results, lone):
        if estimates is not None:
            got = [*estimates.values(), fit]
            assert np.allclose(got, [*want.values(), want_fit], rtol=FULL_RANK_RTOL, atol=0.0)


def _hand_back_every_problem(monkeypatch, stage):
    """Make ``sim``'s lockstep pass ``stage`` hand every problem back."""
    import panelctrl.sim as sim_mod

    solve = getattr(sim_mod, stage)

    def hand_back(*args):
        g, rejected = solve(*args)
        return g, np.ones(rejected.shape, dtype=bool)

    monkeypatch.setattr(sim_mod, stage, hand_back)


@pytest.mark.parametrize(
    "stage, lam",
    [("_cold_stack", "cv-min"), ("_cold_stack", 5.0), ("_leave_one_stack", "cv-min")],
)
def test_a_pass_that_hands_every_problem_back(monkeypatch, stage, lam):
    """A lockstep pass that hands every problem back leaves the stack's
    later steps no replication, and each finishes alone, exactly as on its
    own."""
    import panelctrl.sim as sim_mod

    _hand_back_every_problem(monkeypatch, stage)
    family, params, n, t, t0 = "factor", default_dgp("factor"), 10, 20, 16
    seeds = np.random.SeedSequence(2).spawn(3)
    results = sim_mod._replication_stack(family, params, n, t, t0, seeds, lam, 3)
    assert results == [one_replication(family, params, n, t, t0, s, lam, 3) for s in seeds]


def test_an_overflowing_replication_drops_alone(monkeypatch):
    """Under the suite's own filter, which makes a RuntimeWarning an error,
    a replication whose draw is finite but so large that the lockstep
    passes overflow is handed back and drops with its lone error, and the
    other replications of its stack report what they report alone."""
    import panelctrl.sim as sim_mod

    draw = sim_mod._draw

    def huge_seventh(family, params, n, t, t0, seed, loadings):
        outcomes, treated = draw(family, params, n, t, t0, seed, loadings)
        return outcomes * (1e152 if seed.spawn_key[-1] == 6 else 1.0), treated

    monkeypatch.setattr(sim_mod, "_draw", huge_seventh)
    params, seeds = default_dgp("factor"), np.random.SeedSequence(4).spawn(20)
    results = sim_mod._replication_stack("factor", params, 10, 20, 16, seeds, "cv-min", 3)
    lone = [one_replication("factor", params, 10, 20, 16, s, "cv-min", 3) for s in seeds]
    assert results[6] == lone[6]
    assert results[6][2].startswith("RuntimeWarning: overflow encountered")
    assert [error for r, (_, _, error) in enumerate(results) if r != 6] == [""] * 19
    for r, ((estimates, fit, _), (want, want_fit, _)) in enumerate(zip(results, lone)):
        if r != 6:
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
    replication never (its stack de-means in arrays), and a replication
    that leaves its stack (here, every cold problem handed back) twice: its
    demeaned_scm design, then fixed_effects'."""
    import panelctrl.estimators as estimators_mod

    demean, calls = estimators_mod.demean_rows, []

    def count(blocks):
        calls.append(blocks)
        return demean(blocks)

    monkeypatch.setattr(estimators_mod, "demean_rows", count)
    blocks = split_and_center(draw_panel("factor", default_dgp("factor"), 20, 30, 25, 0))
    fold_predictions(blocks, EstimatorSpec(method="demeaned"))
    assert len(calls) == 26
    mc = {"replications": 3, "seed": 1, "n": 20, "t": 30, "t0": 25, "lam": "cv-min"}
    calls.clear()
    run_monte_carlo("factor", default_dgp("factor"), **mc)
    assert len(calls) == 0
    calls.clear()
    _hand_back_every_problem(monkeypatch, "_cold_stack")
    run_monte_carlo("factor", default_dgp("factor"), **mc)
    assert len(calls) == 6
