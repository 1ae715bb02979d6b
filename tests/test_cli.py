import csv
import json
import os

import numpy as np
import pytest

from panelctrl.cli import main
from panelctrl.covariates import covariates_from_long
from panelctrl.estimators import EstimatorSpec
from panelctrl.inference import jackknife_plus
from panelctrl.panel import load_panel, split_and_center
from panelctrl.selection import loo_cv, placebo_panel, select_lambda


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
        assert gap[0][-3:] == ["ci_lower", "ci_upper", "method"]
        post = gap[-1]
        assert post[-1] == "jackknife-plus"
        assert float(post[-3]) <= float(post[-2])

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
            assert (float(row[-3]), float(row[-2]), row[-1]) == (ci.lower, ci.upper, ci.method)

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
        assert post[-1] == "full-conformal"
        assert float(post[-3]) <= float(post[3]) <= float(post[-2])

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

    def test_non_numeric_treatment_time_exit_code(self, panel_csv, tmp_path):
        rc = main([
            "estimate", "--input", panel_csv, "--treated", "u0",
            "--treatment-time", "q1", "--lambda", "1.0", "--out", str(tmp_path / "x"),
        ])
        assert rc == 2

    def test_covariates_without_lambda_exit_code(self, panel_csv, tmp_path):
        # lambda comes from cross-validating the covariate-adjusted estimator
        p = load_panel(panel_csv, "u0", "11")
        cov = covariates_from_long(panel_csv, p, ["gdp"])
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

    def test_non_numeric_placebo_time_exit_code(self, panel_csv, tmp_path):
        rc = main([
            "placebo", "--input", panel_csv, "--treated", "u0",
            "--treatment-time", "11", "--lambda", "1.0",
            "--placebo-times", "q1", "--out", str(tmp_path / "pl"),
        ])
        assert rc == 2

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
        placebo_p = placebo_panel(load_panel(panel_csv, "u0", "11"), "8")
        cov = covariates_from_long(panel_csv, placebo_p, ["gdp"])
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


class TestManifest:
    def test_manifest_records_config_version_seed(self, panel_csv, tmp_path):
        out = tmp_path / "est"
        main([
            "estimate", "--input", panel_csv, "--treated", "u0",
            "--treatment-time", "11", "--lambda", "2.5", "--seed", "3",
            "--out", str(out),
        ])
        manifest = json.loads(open(out / "manifest.json").read())
        assert manifest["command"] == "estimate"
        assert manifest["seed"] == 3
        assert manifest["config"]["lambda"] == 2.5
        from panelctrl import __version__

        assert manifest["version"] == __version__
