import csv
import json
import os
from dataclasses import replace

import numpy as np
import pytest

from panelctrl.cli import main
from panelctrl.covariates import pre_period_covariates
from panelctrl.estimators import EstimatorSpec
from panelctrl.inference import jackknife_plus
from panelctrl.panel import load_panel, split_and_center
from panelctrl.ridge import augment_weights
from panelctrl.selection import loo_cv, placebo_panel, select_lambda

from conftest import folds_off_the_full_support, record_scm_solves


@pytest.fixture
def panel_csv(tmp_path, rng):
    """Long-format CSV: 8 units x 14 periods, covariate columns included."""
    path = tmp_path / "panel.csv"
    n, t = 8, 14
    base = rng.normal(size=(n, 1))
    out = base + rng.normal(size=(n, t)).cumsum(axis=1) * 0.15 + rng.normal(size=(n, t)) * 0.05
    gdp = base * 2 + rng.normal(size=(n, t)) * 0.1
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["unit", "time", "outcome", "gdp"])
        for i in range(n):
            for j in range(t):
                writer.writerow(
                    [f"u{i}", j + 1, format(out[i, j], ".17g"), format(gdp[i, j], ".17g")]
                )
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def write_rows(path, rows):
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    return str(path)


class TestEstimate:
    def test_writes_expected_artifacts(self, panel_csv, tmp_path):
        out = tmp_path / "est"
        rc = main([
            "estimate", "--input", panel_csv, "--treated", "u0",
            "--treatment-time", "11", "--method", "ridge_ascm", "--lambda", "1.0",
            "--out", str(out),
        ])
        assert rc == 0
        assert sorted(os.listdir(out)) == ["gap.csv", "manifest.json", "weights.csv"]
        gap = read_rows(out / "gap.csv")
        assert gap[0] == ["time", "observed", "counterfactual", "gap"]
        assert len(gap) == 15  # header + T rows
        weights = read_rows(out / "weights.csv")
        assert len(weights) == 8  # header + 7 donors
        total = sum(float(r[1]) for r in weights[1:])
        assert abs(total - 1.0) < 1e-9

    def test_gap_pre_rows_match_gap_pre(self, panel_csv, tmp_path):
        from panelctrl.estimators import EstimatorSpec, estimate
        from panelctrl.panel import load_panel

        out = tmp_path / "est"
        main([
            "estimate", "--input", panel_csv, "--treated", "u0",
            "--treatment-time", "11", "--method", "scm", "--out", str(out),
        ])
        p = load_panel(panel_csv, "u0", "11")
        est = estimate(p, EstimatorSpec(method="scm"))
        gap = read_rows(out / "gap.csv")
        pre_gaps = [float(r[3]) for r in gap[1 : p.t0 + 1]]
        assert np.allclose(pre_gaps, est.gap_pre, atol=1e-12)

    def test_covariates_and_balance(self, panel_csv, tmp_path):
        out = tmp_path / "est"
        rc = main([
            "estimate", "--input", panel_csv, "--treated", "u0",
            "--treatment-time", "11", "--lambda", "1.0",
            "--covariates", "gdp", "--covariate-mode", "residualize",
            "--out", str(out),
        ])
        assert rc == 0
        balance = read_rows(out / "balance.csv")
        assert balance[0] == ["covariate", "raw_gap", "weighted_gap"]
        assert balance[1][0] == "gdp"
        # two-step residualization balances the covariate exactly
        assert abs(float(balance[1][2])) < 1e-8

    def test_joint_covariate_mode(self, panel_csv, tmp_path):
        out = tmp_path / "est"
        rc = main([
            "estimate", "--input", panel_csv, "--treated", "u0",
            "--treatment-time", "11", "--lambda", "1.0",
            "--covariates", "gdp", "--covariate-mode", "joint", "--out", str(out),
        ])
        assert rc == 0
        balance = read_rows(out / "balance.csv")
        assert float(balance[1][2]) <= float(balance[1][1]) + 1e-9

    def test_inference_columns(self, panel_csv, tmp_path):
        out = tmp_path / "est"
        rc = main([
            "estimate", "--input", panel_csv, "--treated", "u0",
            "--treatment-time", "11", "--lambda", "1.0",
            "--inference", "jackknife+", "--alpha", "0.1", "--out", str(out),
        ])
        assert rc == 0
        gap = read_rows(out / "gap.csv")
        assert gap[0][4:] == ["ci_lower", "ci_upper", "method", "open_ended", "disconnected"]
        post = gap[-1]
        assert post[6:] == ["jackknife-plus", "false", "false"]
        assert float(post[4]) <= float(post[5])

    def test_jackknife_rows_are_the_per_period_intervals(self, panel_csv, tmp_path):
        out = tmp_path / "est"
        rc = main([
            "estimate", "--input", panel_csv, "--treated", "u0",
            "--treatment-time", "11", "--lambda", "1.0",
            "--inference", "jackknife+", "--alpha", "0.1", "--out", str(out),
        ])
        assert rc == 0
        p = load_panel(panel_csv, "u0", "11")
        cis = jackknife_plus(
            p, 0.1, EstimatorSpec(method="ridge_ascm", lam=1.0), target="effect"
        )
        post = read_rows(out / "gap.csv")[1 + p.t0 :]
        assert len(post) == len(cis) == 4
        for row, ci in zip(post, cis):
            assert (float(row[4]), float(row[5]), row[6]) == (ci.lower, ci.upper, ci.method)

    def test_auto_lambda_folds_fitted_once(self, panel_csv, tmp_path, monkeypatch):
        # CV and jackknife+ share one fold pass, whose fold anchors all come
        # from the batch started at the full fit, the folds that leave its
        # support included: the full fit is the one SCM solve
        blocks = split_and_center(load_panel(panel_csv, "u0", "11"))
        resolved = folds_off_the_full_support(blocks, EstimatorSpec())
        assert 0 < len(resolved) < blocks.t0
        solves = record_scm_solves(monkeypatch)
        rc = main([
            "estimate", "--input", panel_csv, "--treated", "u0",
            "--treatment-time", "11", "--inference", "jackknife+", "--out", str(tmp_path / "est"),
        ])
        assert rc == 0
        assert len(solves) == 1

    @pytest.mark.parametrize("mode", [None, "joint", "residualize"])
    def test_every_fold_starts_from_the_full_sample_solve(
        self, panel_csv, tmp_path, monkeypatch, mode
    ):
        # the first solve is the full sample's, cold; each fold solved on its
        # own starts from its weights (under residualize, the weights before
        # the covariate shift). Joint covariates solve every fold; the other
        # designs finish every fold in the batch, which starts there too
        p = load_panel(panel_csv, "u0", "11", ["gdp"])
        resolved = range(p.t0) if mode == "joint" else ()
        solves = record_scm_solves(monkeypatch)
        covariates = [] if mode is None else ["--covariates", "gdp", "--covariate-mode", mode]
        rc = main([
            "estimate", "--input", panel_csv, "--treated", "u0", "--treatment-time", "11",
            "--inference", "jackknife+", *covariates, "--out", str(tmp_path / "est"),
        ])
        assert rc == 0
        assert len(solves) == 1 + len(resolved)
        (_, first, full), *folds = solves
        assert first is None
        for _, start, _ in folds:
            assert start is not None and np.array_equal(start, full.values)
        if mode is None:
            # the estimate's anchor is that same solve, not a second one
            rows = read_rows(tmp_path / "est" / "weights.csv")[1:]
            lam = json.loads(open(tmp_path / "est" / "manifest.json").read())["config"]["lambda"]
            blocks = split_and_center(load_panel(panel_csv, "u0", "11"))
            expected = augment_weights(full, blocks, lam).values
            assert np.array_equal([float(r[1]) for r in rows], expected)

    @pytest.mark.parametrize("command", ["estimate", "placebo"])
    @pytest.mark.parametrize("args", [
        ["--lambda", "1.0", "--select", "min"],
        ["--method", "scm", "--select", "one-se"],
        ["--method", "demeaned", "--select", "min"],
        ["--method", "fixed_effects", "--select", "min"],
    ], ids=["lambda", "scm", "demeaned", "fixed_effects"])
    def test_select_without_cv_exit_code(self, panel_csv, tmp_path, command, args):
        # --select only picks a cross-validated lambda; anywhere else it is refused
        extra = ["--placebo-times", "8"] if command == "placebo" else []
        rc = main([
            command, "--input", panel_csv, "--treated", "u0", "--treatment-time", "11",
            *args, *extra, "--out", str(tmp_path / "x"),
        ])
        assert rc == 3
        assert not os.path.exists(tmp_path / "x" / "manifest.json")

    @pytest.mark.parametrize("method", ["ridge", "ridge_ascm"])
    def test_auto_lambda_jackknife_rows_match_the_library(self, panel_csv, tmp_path, method):
        out = tmp_path / "est"
        rc = main([
            "estimate", "--input", panel_csv, "--treated", "u0", "--treatment-time", "11",
            "--method", method, "--inference", "jackknife+", "--alpha", "0.2", "--out", str(out),
        ])
        assert rc == 0
        lam = json.loads(open(out / "manifest.json").read())["config"]["lambda"]
        p = load_panel(panel_csv, "u0", "11")
        cis = jackknife_plus(p, 0.2, EstimatorSpec(method=method, lam=lam), target="effect")
        post = read_rows(out / "gap.csv")[1 + p.t0 :]
        got = np.array([[float(row[4]), float(row[5])] for row in post])
        want = np.array([[ci.lower, ci.upper] for ci in cis])
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(np.abs(got), np.abs(want)))

    def test_manifest_records_the_cv_facts(self, panel_csv, tmp_path):
        out = tmp_path / "est"
        rc = main([
            "estimate", "--input", panel_csv, "--treated", "u0",
            "--treatment-time", "11", "--select", "min", "--out", str(out),
        ])
        assert rc == 0
        config = json.loads(open(out / "manifest.json").read())["config"]
        cv = loo_cv(split_and_center(load_panel(panel_csv, "u0", "11")), EstimatorSpec())
        assert config["lambda_rule"] == "min"
        assert (config["lambda_min"], config["lambda_1se"]) == (cv.lambda_min, cv.lambda_1se)
        assert config["lambda"] == cv.lambda_min

    def test_fixed_lambda_manifest_has_no_cv_facts(self, panel_csv, tmp_path):
        out = tmp_path / "est"
        rc = main([
            "estimate", "--input", panel_csv, "--treated", "u0",
            "--treatment-time", "11", "--lambda", "1.0", "--out", str(out),
        ])
        assert rc == 0
        config = json.loads(open(out / "manifest.json").read())["config"]
        assert not {"lambda_rule", "lambda_min", "lambda_1se"} & set(config)

    def test_conformal_inference_columns(self, panel_csv, tmp_path):
        out = tmp_path / "est"
        rc = main([
            "estimate", "--input", panel_csv, "--treated", "u0",
            "--treatment-time", "11", "--lambda", "1.0",
            "--inference", "conformal", "--alpha", "0.1", "--out", str(out),
        ])
        assert rc == 0
        gap = read_rows(out / "gap.csv")
        post = gap[-1]
        assert post[6] == "full-conformal"
        assert float(post[4]) <= float(post[3]) <= float(post[5])

    def test_interval_flag_columns(self, panel_csv, tmp_path, monkeypatch):
        # each post row carries its interval's open_ended and disconnected
        # flags; pre rows leave them empty and jackknife+ writes false
        import panelctrl.cli as cli_mod

        conformal = cli_mod.conformal_interval
        flagged = []

        def flag_some(*args, post_period, **kwargs):
            ci = conformal(*args, post_period=post_period, **kwargs)
            ci = replace(ci, open_ended=post_period == 0, disconnected=post_period == 2)
            flagged.append(ci)
            return ci

        monkeypatch.setattr(cli_mod, "conformal_interval", flag_some)
        rc = main([
            "estimate", "--input", panel_csv, "--treated", "u0", "--treatment-time", "11",
            "--lambda", "1.0", "--inference", "conformal", "--out", str(tmp_path / "cf"),
        ])
        assert rc == 0
        gap = read_rows(tmp_path / "cf" / "gap.csv")
        assert gap[0][7:] == ["open_ended", "disconnected"]
        assert all(row[4:] == [""] * 5 for row in gap[1:11])
        assert [row[7:] for row in gap[11:]] == [
            ["true", "false"], ["false", "false"], ["false", "true"], ["false", "false"]
        ]
        assert [float(row[4]) for row in gap[11:]] == [ci.lower for ci in flagged]
        rc = main([
            "estimate", "--input", panel_csv, "--treated", "u0", "--treatment-time", "11",
            "--lambda", "1.0", "--inference", "jackknife+", "--out", str(tmp_path / "jk"),
        ])
        assert rc == 0
        gap = read_rows(tmp_path / "jk" / "gap.csv")
        assert [row[7:] for row in gap[11:]] == [["false", "false"]] * 4

    def test_lambda_selected_by_cv_when_missing(self, panel_csv, tmp_path):
        out = tmp_path / "est"
        rc = main([
            "estimate", "--input", panel_csv, "--treated", "u0",
            "--treatment-time", "11", "--select", "min", "--out", str(out),
        ])
        assert rc == 0
        manifest = json.loads(open(out / "manifest.json").read())
        assert manifest["config"]["lambda"] > 0

    def test_validation_error_exit_code(self, panel_csv, tmp_path):
        rc = main([
            "estimate", "--input", panel_csv, "--treated", "nope",
            "--treatment-time", "11", "--lambda", "1.0", "--out", str(tmp_path / "x"),
        ])
        assert rc == 2

    def test_config_error_exit_code(self, panel_csv, tmp_path):
        rc = main([
            "estimate", "--input", panel_csv, "--treated", "u0",
            "--treatment-time", "11", "--method", "scm",
            "--covariates", "gdp", "--out", str(tmp_path / "x"),
        ])
        assert rc == 3

    @pytest.mark.parametrize(
        "args",
        [
            ["--method", "ridge", "--lambda", "1", "--zeta", "-5"],
            ["--method", "scm", "--zeta", "nan"],
        ],
    )
    def test_bad_zeta_exit_code(self, panel_csv, tmp_path, args):
        out = tmp_path / "x"
        rc = main([
            "estimate", "--input", panel_csv, "--treated", "u0",
            "--treatment-time", "11", *args, "--out", str(out),
        ])
        assert rc == 3
        assert not out.exists()

    @pytest.mark.parametrize(
        "args",
        [
            ["--lambda", "inf"],
            ["--alpha", "nan"],
            ["--alpha", "7"],
            ["--alpha", "0", "--inference", "jackknife+"],
        ],
    )
    def test_non_finite_or_out_of_range_option_exit_code(self, panel_csv, tmp_path, args):
        # refused before any artifact, so no manifest records Infinity or NaN
        out = tmp_path / "x"
        rc = main([
            "estimate", "--input", panel_csv, "--treated", "u0",
            "--treatment-time", "11", *args, "--out", str(out),
        ])
        assert rc == 3
        assert not out.exists()

    def test_ragged_row_exit_code(self, panel_csv, tmp_path, capsys):
        rows = read_rows(panel_csv)
        rows[5] = rows[5][:2]
        rc = main([
            "estimate", "--input", write_rows(tmp_path / "ragged.csv", rows), "--treated", "u0",
            "--treatment-time", "11", "--lambda", "1.0", "--out", str(tmp_path / "x"),
        ])
        assert rc == 2
        assert "line 6 has 2 field(s)" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["joint", "residualize"])
    @pytest.mark.parametrize("cell", ["nan", ""])
    def test_missing_covariate_cell_exit_code(self, panel_csv, tmp_path, capsys, mode, cell):
        rows = read_rows(panel_csv)
        assert rows[47][:2] == ["u3", "5"]
        rows[47][3] = cell
        rc = main([
            "estimate", "--input", write_rows(tmp_path / "gap.csv", rows), "--treated", "u0",
            "--treatment-time", "11", "--lambda", "1.0", "--covariates", "gdp",
            "--covariate-mode", mode, "--out", str(tmp_path / "x"),
        ])
        assert rc == 2
        assert "missing gdp for unit 'u3' at time '5'" in capsys.readouterr().err

    @pytest.mark.parametrize("cell", ["inf", "-inf"])
    def test_infinite_outcome_cell_exit_code(self, panel_csv, tmp_path, capsys, cell):
        rows = read_rows(panel_csv)
        assert rows[47][:2] == ["u3", "5"]
        rows[47][2] = cell
        rc = main([
            "estimate", "--input", write_rows(tmp_path / "inf.csv", rows), "--treated", "u0",
            "--treatment-time", "11", "--lambda", "1.0", "--out", str(tmp_path / "x"),
        ])
        assert rc == 2
        assert f"non-finite outcome {cell} for unit 'u3' at time '5'" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("mode", ["joint", "residualize"])
    @pytest.mark.parametrize("cell", ["inf", "-inf"])
    def test_infinite_covariate_cell_exit_code(self, panel_csv, tmp_path, capsys, mode, cell):
        rows = read_rows(panel_csv)
        rows[47][3] = cell
        rc = main([
            "estimate", "--input", write_rows(tmp_path / "inf.csv", rows), "--treated", "u0",
            "--treatment-time", "11", "--lambda", "1.0", "--covariates", "gdp",
            "--covariate-mode", mode, "--out", str(tmp_path / "x"),
        ])
        assert rc == 2
        assert f"non-finite gdp {cell} for unit 'u3' at time '5'" in capsys.readouterr().err

    def test_non_numeric_post_period_covariate_exit_code(self, panel_csv, tmp_path, capsys):
        rows = read_rows(panel_csv)
        assert rows[12][:2] == ["u0", "12"]
        rows[12][3] = "n/a"
        rc = main([
            "estimate", "--input", write_rows(tmp_path / "bad.csv", rows), "--treated", "u0",
            "--treatment-time", "11", "--lambda", "1.0", "--covariates", "gdp",
            "--out", str(tmp_path / "x"),
        ])
        assert rc == 2
        assert "non-numeric gdp 'n/a' for unit 'u0' at time '12'" in capsys.readouterr().err

    def test_non_numeric_treatment_time_exit_code(self, panel_csv, tmp_path):
        rc = main([
            "estimate", "--input", panel_csv, "--treated", "u0",
            "--treatment-time", "q1", "--lambda", "1.0", "--out", str(tmp_path / "x"),
        ])
        assert rc == 2

    def test_covariates_without_lambda_exit_code(self, panel_csv, tmp_path):
        # lambda comes from cross-validating the covariate-adjusted estimator
        p = load_panel(panel_csv, "u0", "11", ["gdp"])
        cov = pre_period_covariates(p)
        for mode in ("joint", "residualize"):
            out = tmp_path / mode
            rc = main([
                "estimate", "--input", panel_csv, "--treated", "u0", "--treatment-time", "11",
                "--covariates", "gdp", "--covariate-mode", mode, "--out", str(out),
            ])
            assert rc == 0
            spec = EstimatorSpec(covariate_mode=mode)
            expected = select_lambda(loo_cv(split_and_center(p), spec, cov), "one-se")
            assert expected != select_lambda(loo_cv(split_and_center(p), spec), "one-se")
            manifest = json.loads(open(out / "manifest.json").read())
            assert manifest["config"]["lambda"] == expected

    def test_ridge_lambda_chosen_by_ridge_cv(self, panel_csv, tmp_path):
        out = tmp_path / "est"
        rc = main([
            "estimate", "--input", panel_csv, "--treated", "u0",
            "--treatment-time", "11", "--method", "ridge", "--select", "min", "--out", str(out),
        ])
        assert rc == 0
        blocks = split_and_center(load_panel(panel_csv, "u0", "11"))
        expected = select_lambda(loo_cv(blocks, EstimatorSpec(method="ridge")), "min")
        assert expected != select_lambda(loo_cv(blocks), "min")
        manifest = json.loads(open(out / "manifest.json").read())
        assert manifest["config"]["lambda"] == expected

    def test_cv_lambda_uses_zeta(self, panel_csv, tmp_path):
        out = tmp_path / "est"
        rc = main([
            "estimate", "--input", panel_csv, "--treated", "u0",
            "--treatment-time", "11", "--select", "min", "--zeta", "1.0", "--out", str(out),
        ])
        assert rc == 0
        blocks = split_and_center(load_panel(panel_csv, "u0", "11"))
        expected = select_lambda(loo_cv(blocks, EstimatorSpec(zeta=1.0)), "min")
        assert expected != select_lambda(loo_cv(blocks), "min")
        manifest = json.loads(open(out / "manifest.json").read())
        assert manifest["config"]["lambda"] == expected

    def test_ridge_alone_method(self, panel_csv, tmp_path):
        out = tmp_path / "est"
        rc = main([
            "estimate", "--input", panel_csv, "--treated", "u0",
            "--treatment-time", "11", "--method", "ridge", "--lambda", "2.0",
            "--out", str(out),
        ])
        assert rc == 0
        weights = read_rows(out / "weights.csv")
        vals = [float(r[1]) for r in weights[1:]]
        assert abs(sum(vals) - 1.0) < 1e-9
        assert min(vals) < 0 or max(vals) > 0  # off-simplex values allowed

    def test_input_never_mutated(self, panel_csv, tmp_path):
        before = open(panel_csv, "rb").read()
        main([
            "estimate", "--input", panel_csv, "--treated", "u0",
            "--treatment-time", "11", "--lambda", "1.0", "--out", str(tmp_path / "e"),
        ])
        assert open(panel_csv, "rb").read() == before


class TestCv:
    def test_leave_future_mode(self, panel_csv, tmp_path):
        out = tmp_path / "cvf"
        rc = main([
            "cv", "--input", panel_csv, "--treated", "u0",
            "--treatment-time", "11", "--mode", "leave-future", "--out", str(out),
        ])
        assert rc == 0
        manifest = json.loads(open(out / "manifest.json").read())
        assert manifest["config"]["mode"] == "leave-future"
        assert manifest["config"]["skipped_folds"] == [0, 1]

    def test_writes_cv_and_selected_lambda(self, panel_csv, tmp_path):
        out = tmp_path / "cv"
        rc = main([
            "cv", "--input", panel_csv, "--treated", "u0",
            "--treatment-time", "11", "--select", "one-se", "--out", str(out),
        ])
        assert rc == 0
        rows = read_rows(out / "cv.csv")
        assert rows[0] == ["lambda", "cv_mse", "cv_se"]
        assert len(rows) == 21
        manifest = json.loads(open(out / "manifest.json").read())
        assert manifest["config"]["selected_lambda"] == manifest["config"]["lambda_1se"]
        assert manifest["config"]["lambda_1se"] >= manifest["config"]["lambda_min"]

    @pytest.mark.parametrize("args", [
        ["--method", "ridge"],
        ["--covariates", "gdp"],
        ["--covariates", "gdp", "--covariate-mode", "residualize"],
    ], ids=["ridge", "joint", "residualize"])
    def test_scores_the_estimator_estimate_runs(self, panel_csv, tmp_path, args):
        # cv.csv explains the lambda that estimate picks with the same arguments
        rc = main([
            "cv", "--input", panel_csv, "--treated", "u0", "--treatment-time", "11",
            "--select", "one-se", *args, "--out", str(tmp_path / "cv"),
        ])
        assert rc == 0
        rc = main([
            "estimate", "--input", panel_csv, "--treated", "u0", "--treatment-time", "11",
            *args, "--out", str(tmp_path / "est"),
        ])
        assert rc == 0
        cv = json.loads(open(tmp_path / "cv" / "manifest.json").read())["config"]
        est = json.loads(open(tmp_path / "est" / "manifest.json").read())["config"]
        assert cv["selected_lambda"] == est["lambda"] == est["lambda_1se"]
        assert (cv["lambda_min"], cv["lambda_1se"]) == (est["lambda_min"], est["lambda_1se"])
        blocks = split_and_center(load_panel(panel_csv, "u0", "11"))
        assert cv["selected_lambda"] != select_lambda(loo_cv(blocks), "one-se")

    @pytest.mark.parametrize("method", ["scm", "demeaned", "fixed_effects"])
    def test_method_without_penalty_exit_code(self, panel_csv, tmp_path, method):
        rc = main([
            "cv", "--input", panel_csv, "--treated", "u0", "--treatment-time", "11",
            "--method", method, "--out", str(tmp_path / "cv"),
        ])
        assert rc == 3


class TestPlacebo:
    def test_placebo_files_per_time(self, panel_csv, tmp_path):
        out = tmp_path / "pl"
        rc = main([
            "placebo", "--input", panel_csv, "--treated", "u0",
            "--treatment-time", "11", "--lambda", "1.0",
            "--placebo-times", "8,9", "--out", str(out),
        ])
        assert rc == 0
        assert (out / "placebo_gap_8.csv").exists()
        assert (out / "placebo_gap_9.csv").exists()
        rows = read_rows(out / "placebo_gap_8.csv")
        assert rows[0] == ["time", "observed", "counterfactual", "gap", "placebo_time"]
        assert len(rows) == 11  # header + true-pre periods only
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["lambda"] == [1.0, 1.0]  # one per placebo time


    @pytest.mark.parametrize("period, changes", [(10, False), (13, False), (5, True)])
    def test_covariates_averaged_before_placebo_time(self, panel_csv, tmp_path, period, changes):
        def run(source, out):
            rc = main([
                "placebo", "--input", source, "--treated", "u0",
                "--treatment-time", "11", "--lambda", "1.0", "--covariates", "gdp",
                "--placebo-times", "8", "--out", str(out),
            ])
            assert rc == 0
            with open(out / "placebo_gap_8.csv", "rb") as fh:
                return fh.read()

        rows = read_rows(panel_csv)
        for row in rows[1:]:
            if row[0] == "u0" and row[1] == str(period):
                row[3] = format(float(row[3]) + 5.0, ".17g")
        edited = tmp_path / "edited.csv"
        with open(edited, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        before = run(panel_csv, tmp_path / "orig")
        after = run(str(edited), tmp_path / "edited")
        assert (before != after) == changes

    def test_auto_lambda_selected_before_placebo_time(self, panel_csv, tmp_path):
        # the period-10 row is a placebo effect computed from donor outcomes
        # at period 10, so only the rows before it must stay byte-identical
        def run(source, out):
            rc = main([
                "placebo", "--input", source, "--treated", "u0",
                "--treatment-time", "11", "--placebo-times", "8", "--out", str(out),
            ])
            assert rc == 0
            with open(out / "manifest.json") as fh:
                lambdas = json.load(fh)["config"]["lambda"]
            with open(out / "placebo_gap_8.csv", "rb") as fh:
                lines = fh.read().splitlines()
            assert lines[-1].startswith(b"10,")
            return lines[:-1], lambdas

        rows = read_rows(panel_csv)
        for row in rows[1:]:
            if row[0] == "u3" and row[1] == "10":
                row[2] = format(float(row[2]) + 3.0, ".17g")
        edited = tmp_path / "edited.csv"
        with open(edited, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        before, lam_before = run(panel_csv, tmp_path / "orig")
        after, lam_after = run(str(edited), tmp_path / "edited")
        assert before == after
        assert len(lam_before) == 1 and lam_before == lam_after

    @pytest.mark.parametrize("select", [None, "min"])
    def test_manifest_records_the_estimator(self, panel_csv, tmp_path, select):
        out = tmp_path / "pl"
        rc = main([
            "placebo", "--input", panel_csv, "--treated", "u0",
            "--treatment-time", "11", "--zeta", "0.05", "--covariates", "gdp",
            "--covariate-mode", "residualize", "--placebo-times", "8",
            *(["--select", select] if select else ["--lambda", "1.0"]),
            "--out", str(out),
        ])
        assert rc == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert config["zeta"] == 0.05
        assert config["covariates"] == "gdp"
        assert config["covariate_mode"] == "residualize"
        if select:
            assert config["lambda_rule"] == select
        else:
            assert "lambda_rule" not in config

    def test_non_numeric_placebo_time_exit_code(self, panel_csv, tmp_path):
        rc = main([
            "placebo", "--input", panel_csv, "--treated", "u0",
            "--treatment-time", "11", "--lambda", "1.0",
            "--placebo-times", "q1", "--out", str(tmp_path / "pl"),
        ])
        assert rc == 2

    def test_covariates_read_with_the_panel_in_one_open(self, panel_csv, tmp_path, monkeypatch):
        import builtins

        opened, real_open = [], builtins.open

        def counting_open(file, *args, **kwargs):
            if str(file) == panel_csv:
                opened.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        rc = main([
            "placebo", "--input", panel_csv, "--treated", "u0", "--treatment-time", "11",
            "--method", "ridge", "--lambda", "1", "--covariates", "gdp",
            "--covariate-mode", "residualize", "--placebo-times", "8,9",
            "--out", str(tmp_path / "pl"),
        ])
        assert rc == 0
        assert len(opened) == 1

    def test_covariates_without_lambda_exit_code(self, panel_csv, tmp_path):
        # each placebo lambda cross-validates the covariate-adjusted estimator
        # on the periods before its placebo time
        out = tmp_path / "pl"
        rc = main([
            "placebo", "--input", panel_csv, "--treated", "u0",
            "--treatment-time", "11", "--covariates", "gdp",
            "--placebo-times", "8", "--out", str(out),
        ])
        assert rc == 0
        placebo_p = placebo_panel(load_panel(panel_csv, "u0", "11", ["gdp"]), "8")
        cov = pre_period_covariates(placebo_p)
        cv = loo_cv(split_and_center(placebo_p), EstimatorSpec(), cov)
        manifest = json.loads(open(out / "manifest.json").read())
        assert manifest["config"]["lambda"] == [select_lambda(cv, "one-se")]


class TestSimulate:
    def test_mc_report_schema(self, tmp_path):
        out = tmp_path / "mc"
        rc = main([
            "simulate", "--dgp", "factor", "--reps", "8", "--seed", "7",
            "--n", "8", "--t", "16", "--t0", "12", "--lambda", "5.0",
            "--out", str(out),
        ])
        assert rc == 0
        rows = read_rows(out / "mc_report.csv")
        assert rows[0][0] == "estimator"
        assert {r[0] for r in rows[1:]} == {
            "scm", "ridge", "ridge_ascm", "fixed_effects", "demeaned_scm"
        }

    def test_byte_identical_reruns(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            main([
                "simulate", "--dgp", "factor", "--reps", "8", "--seed", "7",
                "--n", "8", "--t", "16", "--t0", "12", "--lambda", "5.0",
                "--out", str(out),
            ])
            outs.append(open(out / "mc_report.csv", "rb").read())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize(
        "args", [["--reps", "0"], ["--reps", "-1"], ["--lambda", "inf"]]
    )
    def test_bad_option_exit_code(self, tmp_path, args):
        out = tmp_path / "mc"
        rc = main([
            "simulate", "--n", "8", "--t", "14", "--t0", "10", "--lambda", "1", *args,
            "--out", str(out),
        ])
        assert rc == 3
        assert not out.exists()

    @pytest.mark.parametrize(
        "args, cause",
        [
            (["--n", "2"], "need at least 3 units, got n=2"),
            (["--t", "200", "--t0", "190"], "fixture provides 105 periods, requested 200"),
            (["--sigma-scale", "nan"], "sigma_multiplier must be finite and nonnegative"),
            (["--t0", "14", "--t", "14"], "need 2 <= t0 < t, got t0=14, t=14"),
        ],
    )
    def test_undrawable_design_exit_code(self, tmp_path, capsys, caplog, args, cause):
        out = tmp_path / "mc"
        rc = main([
            "simulate", "--n", "8", "--t", "14", "--t0", "10", "--reps", "2", "--lambda", "1",
            *args, "--out", str(out),
        ])
        assert rc == 3
        assert cause in capsys.readouterr().err
        assert "replication dropped" not in caplog.text
        assert not out.exists()


class TestDiagnose:
    def test_identity_checks_all_pass(self, panel_csv, tmp_path):
        out = tmp_path / "diag"
        rc = main([
            "diagnose", "--input", panel_csv, "--treated", "u0",
            "--treatment-time", "11", "--out", str(out),
        ])
        assert rc == 0
        rows = read_rows(out / "identity_checks.csv")
        assert rows[0] == ["check", "value", "threshold", "pass"]
        assert all(r[3] == "true" for r in rows[1:])
        sketch = read_rows(out / "bound_sketch.csv")
        assert sketch[0] == ["lambda", "sigma", "imbalance", "excess", "scm_approx", "total_pct"]

    def test_manifest_records_zeta(self, panel_csv, tmp_path):
        out = tmp_path / "diag"
        rc = main([
            "diagnose", "--input", panel_csv, "--treated", "u0",
            "--treatment-time", "11", "--zeta", "0.05", "--out", str(out),
        ])
        assert rc == 0
        assert json.loads((out / "manifest.json").read_text())["config"]["zeta"] == 0.05


    @pytest.mark.filterwarnings("error")
    def test_infinite_lambda_exit_code(self, panel_csv, tmp_path):
        out = tmp_path / "diag"
        rc = main([
            "diagnose", "--input", panel_csv, "--treated", "u0",
            "--treatment-time", "11", "--lambda", "inf", "--out", str(out),
        ])
        assert rc == 3
        assert not out.exists()


class TestManifest:
    def test_manifest_records_config_version_seed(self, panel_csv, tmp_path):
        out = tmp_path / "est"
        main([
            "estimate", "--input", panel_csv, "--treated", "u0",
            "--treatment-time", "11", "--lambda", "2.5", "--out", str(out),
        ])
        manifest = json.loads(open(out / "manifest.json").read())
        assert manifest["command"] == "estimate"
        assert manifest["seed"] is None  # deterministic: no seed to record
        assert manifest["config"]["lambda"] == 2.5
        from panelctrl import __version__

        assert manifest["version"] == __version__
        sim = tmp_path / "sim"
        main(["simulate", "--reps", "2", "--seed", "3", "--n", "8", "--t", "14", "--t0", "10",
              "--lambda", "1", "--out", str(sim)])
        assert json.loads(open(sim / "manifest.json").read())["seed"] == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ["estimate"],
            ["cv"],
            ["placebo", "--placebo-times", "8"],
            ["diagnose"],
        ],
    )
    def test_deterministic_commands_take_no_seed(self, panel_csv, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([
                *argv, "--input", panel_csv, "--treated", "u0", "--treatment-time", "11",
                "--seed", "1", "--out", str(tmp_path / "x"),
            ])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
