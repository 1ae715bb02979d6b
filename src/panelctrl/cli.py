"""Command-line front end.

Sub-commands: ``estimate``, ``cv``, ``placebo``, ``simulate``, and
``diagnose``. Every run writes plot-ready CSV artifacts plus a
``manifest.json`` recording the configuration, library version, and seed
(``simulate`` only; the other commands are deterministic), so each
artifact is reproducible from its manifest. A command computes every
artifact before its first write, so a refused run writes nothing (but
``diagnose``, whose report is written when a check fails). Floats are
serialized with 17 significant digits for bit-faithful round trips; column
orders are documented in docs/schemas.md. The ``PANELCTRL_LOG``
environment variable sets the log level.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import logging
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .covariates import balance_table, pre_period_covariates
from .errors import ConfigError, PanelCtrlError
from .estimators import (
    EstimatorSpec,
    design_and_anchor,
    estimate_on_blocks,
    fold_predictions,
    weights_for_design,
)
from .inference import conformal_interval, jackknife_intervals
from .panel import load_panel, split_and_center
from .ridge import (
    augment_weights,
    bound_sketch,
    demeaned_estimate,
    fit_ridge,
    svd_imbalance,
    verify_penalized_form,
    weight_norm_bound,
)
from .selection import cv_from_folds, default_lambda_grid, loo_cv, placebo_panel, select_lambda

logger = logging.getLogger(__name__)


@functools.cache  # chosen once per cell type
def _formatter(kind):
    """How a ``kind`` cell is written: a boolean as true or false, a float (or
    NumPy floating) to 17 significant digits, an integer in decimal, else str."""
    if issubclass(kind, (bool, np.bool_)):
        return {False: "false", True: "true"}.__getitem__
    if issubclass(kind, (float, np.floating)):
        return "%.17g".__mod__
    if issubclass(kind, (int, np.integer)):
        return "%d".__mod__
    return str


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([_formatter(type(v))(v) for v in row] for row in [header, *rows])


def _write_run(out_dir, tables, command, config, seed=None):
    """Write a run's CSV ``tables`` ({file name: (header, rows)}) and its
    ``manifest.json`` into ``out_dir``, the run's one write: every artifact
    is computed first, so a refused run writes nothing. The manifest is
    strict JSON, and a NaN or infinite value in it raises before any write."""
    payload = {"command": command, "config": config, "version": __version__, "seed": seed}
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    os.makedirs(out_dir, exist_ok=True)
    for name, (header, rows) in tables.items():
        _write_csv(os.path.join(out_dir, name), header, rows)
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        fh.write(text + "\n")


def _run_config(args, entries):
    """A manifest's ``config``: the panel arguments, ``zeta``, the method and
    covariate arguments of a command that takes ``--method``, then the
    command's own ``entries``."""
    config = {
        "input": os.path.basename(args.input),
        "treated": args.treated,
        "treatment_time": str(args.treatment_time),
        "zeta": args.zeta,
    }
    if "method" in args:
        config.update(
            method=args.method, covariates=args.covariates, covariate_mode=args.covariate_mode
        )
    return {**config, **entries}


@functools.cache  # built on the first call, then shared by every call in the process
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="panelctrl",
        description="Synthetic control and ridge-augmented synthetic control estimation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_panel_args(sp):
        sp.add_argument("--input", required=True, help="long-format CSV (unit,time,outcome)")
        sp.add_argument("--treated", required=True, help="label of the treated unit")
        sp.add_argument("--treatment-time", required=True, help="first treated period")

    def add_method_args(sp):
        sp.add_argument(
            "--method",
            default="ridge_ascm",
            choices=["scm", "ridge", "ridge_ascm", "demeaned", "fixed_effects"],
        )
        sp.add_argument("--zeta", type=float, default=None)
        sp.add_argument("--covariates", default=None, help="comma-separated column names")
        sp.add_argument(
            "--covariate-mode", choices=["joint", "residualize"], default="joint"
        )

    def add_estimator_args(sp):
        add_method_args(sp)
        sp.add_argument("--lambda", dest="lam", type=float, default=None)
        sp.add_argument("--select", choices=["min", "one-se"], default=None)

    sp = sub.add_parser("estimate", help="fit the estimator and write weight/gap files")
    add_panel_args(sp)
    add_estimator_args(sp)
    sp.add_argument(
        "--inference", choices=["conformal", "jackknife+", "none"], default="none"
    )
    sp.add_argument("--alpha", type=float, default=0.05)
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("cv", help="cross-validate the ridge penalty")
    add_panel_args(sp)
    add_method_args(sp)
    sp.add_argument("--select", choices=["min", "one-se"], default="min")
    sp.add_argument("--mode", choices=["leave-one", "leave-future"], default="leave-one")
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("placebo", help="in-time placebo estimates")
    add_panel_args(sp)
    add_estimator_args(sp)
    sp.add_argument(
        "--placebo-times", required=True, help="comma-separated placebo treatment times"
    )
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("simulate", help="run the Monte Carlo study")
    sp.add_argument("--dgp", choices=["factor", "fixed-effects", "ar3"], default="factor")
    sp.add_argument("--reps", type=int, default=200)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--n", type=int, default=20)
    sp.add_argument("--t", type=int, default=30)
    sp.add_argument("--t0", type=int, default=25)
    sp.add_argument("--lambda", dest="lam", type=float, default=None)
    sp.add_argument("--select", choices=["min", "one-se"], default=None)
    sp.add_argument("--sigma-scale", type=float, default=1.0)
    sp.add_argument("--stratify", action="store_true")
    sp.add_argument("--rep-log", default=None, help="per-replication estimate CSV")
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("diagnose", help="identity checks and the error-bound sketch")
    add_panel_args(sp)
    sp.add_argument("--lambda", dest="lam", type=float, default=None)
    sp.add_argument("--zeta", type=float, default=None)
    sp.add_argument("--out", required=True)
    return parser


def _load_inputs(args):
    columns = [c.strip() for c in (getattr(args, "covariates", None) or "").split(",")]
    columns = [c for c in columns if c]
    p = load_panel(args.input, args.treated, args.treatment_time, columns)
    return p, (pre_period_covariates(p) if columns else None)


def _method_spec(args, lam=None):
    return EstimatorSpec(
        method=args.method,
        lam=lam,
        zeta=args.zeta,
        covariate_mode=args.covariate_mode,
    )


def _resolve_spec(args, blocks, cov, jackknife=False):
    """``(spec, fit, cv_facts, folds)`` of the command line.

    ``fit`` is the full-sample :class:`estimators.AnchorFit`, solved once
    for the estimate and as the start of every fold. A ridge method without
    ``--lambda`` gets the penalty chosen by cross-validating that same
    method and covariates. ``folds`` is that fold pass, also run for
    ``jackknife``, as ``(truth, predictions)`` at the spec's penalty, or
    None.
    """
    spec = _method_spec(args, args.lam)
    select = spec.lam is None and spec.needs_lambda()
    if args.select is not None and not select:
        raise ConfigError(
            "--select chooses a cross-validated lambda; it needs a ridge method "
            "and no --lambda"
        )
    fit = design_and_anchor(blocks, spec, cov)
    if not (select or jackknife):
        return spec, fit, {}, None
    grid = default_lambda_grid(blocks) if select else None
    truth, predictions, skipped = fold_predictions(blocks, spec, cov, grid, fit=fit)
    at, cv_facts = 0, {}
    if select:
        rule = args.select or "one-se"
        cv = cv_from_folds(grid, (truth, predictions, skipped))
        spec = spec.with_lambda(select_lambda(cv, rule))
        at = int(np.flatnonzero(grid == spec.lam)[0])
        cv_facts = {"lambda_rule": rule, "lambda_min": cv.lambda_min, "lambda_1se": cv.lambda_1se}
        logger.info("selected lambda %.6g by rule %s", spec.lam, rule)
    return spec, fit, cv_facts, (truth, predictions[:, at])


def _cmd_estimate(args):
    if not 0 < args.alpha < 1:
        raise ConfigError(f"--alpha must lie in (0, 1), got {args.alpha}")
    p, cov = _load_inputs(args)
    blocks = split_and_center(p)
    spec, fit, cv_facts, folds = _resolve_spec(
        args, blocks, cov, args.inference == "jackknife+"
    )
    est = estimate_on_blocks(blocks, spec, cov=cov, fit=fit)
    header = ["time", "observed", "counterfactual", "gap"]
    rows = est.to_rows(p.time_ids, p.outcomes[p.treated_index])
    if args.inference != "none":
        if args.inference == "jackknife+":
            cis = jackknife_intervals(*folds, blocks.y1_post, args.alpha, target="effect")
        else:
            cis = conformal_interval(p, args.alpha, spec, target="effect", cov=cov)
        header += ["ci_lower", "ci_upper", "method", "open_ended", "disconnected"]
        cells = [("",) * 5] * p.t0 + [
            (ci.lower, ci.upper, ci.method, ci.open_ended, ci.disconnected) for ci in cis
        ]
        rows = [row + cell for row, cell in zip(rows, cells)]
    tables = {
        "weights.csv": (["unit", "weight"], list(zip(p.donor_ids, est.weights.values))),
        "gap.csv": (header, rows),
    }
    if cov is not None:
        tables["balance.csv"] = (
            ["covariate", "raw_gap", "weighted_gap"], balance_table(cov, est.weights)
        )
    config = {"lambda": spec.lam, "inference": args.inference, "alpha": args.alpha, **cv_facts}
    _write_run(args.out, tables, "estimate", _run_config(args, config))
    return 0


def _cmd_cv(args):
    p, cov = _load_inputs(args)
    blocks = split_and_center(p)
    cv = loo_cv(blocks, _method_spec(args), cov, mode=args.mode)
    selected = select_lambda(cv, args.select)
    _write_run(
        args.out,
        {"cv.csv": (["lambda", "cv_mse", "cv_se"], cv.rows())},
        "cv",
        _run_config(
            args,
            {
                "mode": args.mode,
                "rule": args.select,
                "selected_lambda": selected,
                "lambda_min": cv.lambda_min,
                "lambda_1se": cv.lambda_1se,
                "skipped_folds": list(cv.skipped),
            },
        ),
    )
    return 0


def _cmd_placebo(args):
    p, cov = _load_inputs(args)
    times = [s.strip() for s in args.placebo_times.split(",") if s.strip()]
    if not times:
        raise ConfigError("no placebo times given")
    names = [f"placebo_gap_{time_label.replace(os.sep, '_')}.csv" for time_label in times]
    if len(set(names)) < len(names):  # a later time's file would replace an earlier one's
        raise ConfigError(f"placebo times {times} name one output file more than once")
    lambdas, tables = [], {}
    header = ["time", "observed", "counterfactual", "gap", "placebo_time"]
    for time_label, name in zip(times, names):
        placebo_p = placebo_panel(p, time_label)
        # covariates and an auto-selected lambda see only the periods before
        # the placebo time
        placebo_cov = None if cov is None else pre_period_covariates(placebo_p)
        placebo_blocks = split_and_center(placebo_p)
        spec, fit, facts, _ = _resolve_spec(args, placebo_blocks, placebo_cov)
        lambdas.append(spec.lam)
        est = estimate_on_blocks(placebo_blocks, spec, cov=placebo_cov, fit=fit)
        observed = placebo_p.outcomes[placebo_p.treated_index]
        rows = [row + (time_label,) for row in est.to_rows(placebo_p.time_ids, observed)]
        tables[name] = (header, rows)
    # every placebo time selects lambda by the same rule, or none does
    rule = {"lambda_rule": facts["lambda_rule"]} if facts else {}
    config = _run_config(args, {"lambda": lambdas, "placebo_times": times, **rule})
    _write_run(args.out, tables, "placebo", config)
    return 0


def _cmd_simulate(args):
    from .sim import default_dgp, run_monte_carlo  # only simulate imports the harness

    if args.lam is not None and args.select is not None:
        raise ConfigError("--select chooses a cross-validated lambda; it needs no --lambda")
    select = args.select or "min"
    params = default_dgp(args.dgp)
    if args.sigma_scale != 1.0:
        params = replace(params, sigma_multiplier=args.sigma_scale)
    lam = args.lam if args.lam is not None else ("cv-min" if select == "min" else "cv-1se")
    report = run_monte_carlo(
        args.dgp,
        params,
        replications=args.reps,
        seed=args.seed,
        n=args.n,
        t=args.t,
        t0=args.t0,
        lam=lam,
        stratify_by_fit=args.stratify,
    )
    if args.rep_log is not None:  # before --out: a rep log that cannot be written stops the run
        names = [row.name for row in report.rows]
        dropped = ["dropped", *[""] * (len(names) + 1)]
        rows = [(r, *dropped, entry) if isinstance(entry, str) else (r, "ok", *entry, "")
                for r, entry in enumerate(report.rep_log)]
        _write_csv(args.rep_log, ["replication", "status", *names, "scm_fit", "error"], rows)
    columns = ["estimator", "bias", "bias_se", "abs_bias_pct_of_scm", "rmse", "rmse_se",
               "rmse_pct_of_scm", "n_used", "n_dropped"]
    tables = {"mc_report.csv": (columns, report.csv_rows())}
    if report.fit_quartiles:
        tables["mc_by_fit_quartile.csv"] = (
            ["quartile", "estimator", "bias", "bias_se", "rmse", "rmse_se", "n"],
            report.fit_quartiles,
        )
    config = {
        "dgp": args.dgp,
        "reps": args.reps,
        "n": args.n,
        "t": args.t,
        "t0": args.t0,
        "lambda": args.lam,
        "select": select,
        "sigma_scale": args.sigma_scale,
        "estimand_period": report.estimand_period,
    }
    try:
        _write_run(args.out, tables, "simulate", config, seed=args.seed)
    except BaseException:  # a run that writes no --out leaves no rep log either
        if args.rep_log is not None:
            os.remove(args.rep_log)
        raise
    return 0


def _cmd_diagnose(args):
    p, _ = _load_inputs(args)
    blocks = split_and_center(p)
    w = weights_for_design(blocks, EstimatorSpec(method="scm", zeta=args.zeta))
    grid = default_lambda_grid(blocks)
    lam = args.lam if args.lam is not None else float(np.median(grid))
    ridge = EstimatorSpec(method="ridge", lam=lam)  # refuses a bad lambda before any check

    # checks in outcome units: thresholds grow with the largest entry, as round-off does
    arrays = blocks.x1, blocks.x0, blocks.y0_post, blocks.y1_post
    scale = max(1.0, *(float(np.abs(a).max()) for a in arrays))
    checks = []
    aug = augment_weights(w, blocks, lam)
    rep = verify_penalized_form(aug, w, blocks, lam)
    checks.append(("augmented_weights_stationarity", rep.residual, rep.threshold))
    rw = weights_for_design(blocks, ridge)
    fr = fit_ridge(blocks, lam, 0)
    gap2 = abs(float(rw.values @ blocks.y0_post[:, 0]) - fr.predict(blocks.x1))
    checks.append(("ridge_weighting_equals_regression", gap2, 1e-10 * scale))
    si = svd_imbalance(w, blocks, lam)
    checks.append(("imbalance_direct_vs_svd", abs(si.direct - si.via_svd), 1e-8 * scale))
    slack = max(si.direct - si.upper_bound, 0.0)
    checks.append(("imbalance_upper_bound_slack", slack, 1e-10 * scale))
    wn = weight_norm_bound(w, blocks, lam)
    checks.append(("weight_norm_bound_slack", max(wn.norm - wn.bound, 0.0), 1e-10))
    level, averaged = demeaned_estimate(w, blocks)
    checks.append(("demeaned_two_forms_gap", float(np.abs(level - averaged).max()), 1e-12 * scale))
    sd1 = float(np.std(p.outcomes[p.treated_index, : p.t0]))
    sketch = bound_sketch(
        w,
        blocks,
        lambda_grid=np.logspace(np.log10(grid.min()), np.log10(grid.max() * 1e3), 40),
        sigma_grid=np.array([0.5, 1.0, 2.0, 4.0]) * sd1,
    )

    tables = {
        "identity_checks.csv": (
            ["check", "value", "threshold", "pass"],
            [(name, val, thr, val <= thr) for name, val, thr in checks],
        ),
        "bound_sketch.csv": (
            ["lambda", "sigma", "imbalance", "excess", "scm_approx", "total_pct"],
            sketch.rows(),
        ),
    }
    all_pass = all(val <= thr for _, val, thr in checks)
    config = _run_config(args, {"lambda": lam, "all_pass": all_pass})
    _write_run(args.out, tables, "diagnose", config)
    if not all_pass:  # a failed check is this command's finding: its report is written
        raise ConfigError("one or more identity checks failed; see identity_checks.csv")
    return 0


def main(argv=None):
    logging.basicConfig(
        level=os.environ.get("PANELCTRL_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "estimate": _cmd_estimate,
        "cv": _cmd_cv,
        "placebo": _cmd_placebo,
        "simulate": _cmd_simulate,
        "diagnose": _cmd_diagnose,
    }
    try:
        return handlers[args.command](args)
    except (PanelCtrlError, OSError) as exc:  # OSError: a path that cannot be opened
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 1)


if __name__ == "__main__":
    sys.exit(main())
