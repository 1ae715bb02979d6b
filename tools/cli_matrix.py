"""CLI equivalence matrix: write every command's artifacts, or compare two runs.

Run mode writes the artifacts of a fixed matrix of ``panelctrl`` commands on
generated panels into OUT, one directory per case, plus ``exit_codes.json``
(case -> process exit code) and the input CSVs under ``inputs/``::

    PYTHONPATH=src python tools/cli_matrix.py OUT

The matrix covers every ``estimate`` method with each inference mode, the
covariate modes, ``cv`` in both fold modes, ``placebo``, ``diagnose`` and
``simulate --rep-log``, plus cells that must fail (an infinite penalty, a NaN
``--alpha``, zero replications) so their exit codes are compared too. Run
mode then parses every ``manifest.json`` as strict JSON and exits 1 if any
holds ``NaN`` or ``Infinity``. Compare mode reads two such directories,
made for instance from two checkouts, and prints for every file whether it
is byte-identical and otherwise its largest relative numeric difference::

    python tools/cli_matrix.py --compare A B

It exits 0 when every file and exit code is identical, 1 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import traceback

# (name, n_units, n_periods, treatment_time, seed) of each generated panel
PANELS = [("small", 8, 14, 11, 11), ("wide", 24, 18, 15, 12)]
METHODS = ("scm", "ridge", "ridge_ascm", "demeaned", "fixed_effects")
RIDGE_METHODS = ("ridge", "ridge_ascm")


def write_panel(path, n_units, n_periods, seed):
    """Long CSV (unit,time,outcome,gdp): random-walk outcomes on a unit level,
    and a covariate that tracks the level."""
    import numpy as np

    rng = np.random.default_rng(seed)
    base = rng.normal(size=(n_units, 1))
    walk = rng.normal(size=(n_units, n_periods)).cumsum(axis=1)
    outcome = base + 0.15 * walk + 0.05 * rng.normal(size=(n_units, n_periods))
    gdp = 2.0 * base + 0.3 * rng.normal(size=(n_units, n_periods))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["unit", "time", "outcome", "gdp"])
        for i in range(n_units):
            for j in range(n_periods):
                writer.writerow([f"u{i}", j + 1, repr(outcome[i, j].item()), repr(gdp[i, j].item())])


def cases(inputs):
    """Yield (case name, argv without --out) for every cell of the matrix."""
    for panel, _, _, treated_at, _ in PANELS:
        data = ["--input", inputs[panel], "--treated", "u0", "--treatment-time", str(treated_at)]
        for method in METHODS:
            penalties = [("", [])]
            if method in RIDGE_METHODS:
                penalties = [("cv", []), ("lam1", ["--lambda", "1"])]
            for tag, penalty in penalties:
                for inference in ("none", "jackknife+", "conformal"):
                    name = "-".join(filter(None, [panel, "estimate", method, tag, inference]))
                    yield name, ["estimate", *data, "--method", method, *penalty,
                                 "--inference", inference]
        yield f"{panel}-estimate-scm-zeta0", ["estimate", *data, "--method", "scm", "--zeta", "0"]
        yield f"{panel}-estimate-ridge_ascm-min-zeta", [
            "estimate", *data, "--select", "min", "--zeta", "0.05", "--inference", "jackknife+"]
        for method in RIDGE_METHODS:
            for mode in ("joint", "residualize"):
                cov = ["--method", method, "--covariates", "gdp", "--covariate-mode", mode]
                yield f"{panel}-estimate-{method}-{mode}", [
                    "estimate", *data, *cov, "--inference", "jackknife+"]
                yield f"{panel}-estimate-{method}-{mode}-lam1-conformal", [
                    "estimate", *data, *cov, "--lambda", "1", "--inference", "conformal"]
                yield f"{panel}-cv-{method}-{mode}", ["cv", *data, *cov]
            for fold_mode in ("leave-one", "leave-future"):
                yield f"{panel}-cv-{method}-{fold_mode}", [
                    "cv", *data, "--method", method, "--mode", fold_mode]
        placebo = ["--placebo-times", f"{treated_at - 3},{treated_at - 2}"]
        yield f"{panel}-placebo-scm-zeta", [
            "placebo", *data, "--method", "scm", "--zeta", "0.05", *placebo]
        yield f"{panel}-placebo-ridge_ascm-cv", ["placebo", *data, *placebo]
        yield f"{panel}-placebo-ridge-residualize", [
            "placebo", *data, "--method", "ridge", "--lambda", "1", "--covariates", "gdp",
            "--covariate-mode", "residualize", *placebo]
        yield f"{panel}-diagnose", ["diagnose", *data]
        yield f"{panel}-diagnose-lam-zeta", ["diagnose", *data, "--lambda", "2", "--zeta", "0.01"]
        yield f"{panel}-estimate-lam-inf", ["estimate", *data, "--lambda", "inf"]
        yield f"{panel}-estimate-alpha-nan", ["estimate", *data, "--lambda", "1", "--alpha", "nan"]
    for tag, penalty in (("lam5", ["--lambda", "5"]), ("cv", ["--select", "min"])):
        yield f"simulate-{tag}", [
            "simulate", "--reps", "6", "--seed", "7", "--n", "10", "--t", "16", "--t0", "12",
            "--stratify", *penalty]
    small = ["simulate", "--n", "8", "--t", "14", "--t0", "10"]
    yield "simulate-reps0", [*small, "--reps", "0", "--lambda", "1"]
    yield "simulate-lam-inf", [*small, "--reps", "2", "--lambda", "inf"]


def run_matrix(out):
    from panelctrl.cli import main

    os.makedirs(os.path.join(out, "inputs"), exist_ok=True)
    inputs = {}
    for name, n_units, n_periods, _, seed in PANELS:
        inputs[name] = os.path.join(out, "inputs", f"{name}.csv")
        write_panel(inputs[name], n_units, n_periods, seed)
    codes = {}
    for name, argv in cases(inputs):
        case_dir = os.path.join(out, name)
        argv = [*argv, "--out", case_dir]
        if argv[0] == "simulate":
            os.makedirs(case_dir, exist_ok=True)
            argv += ["--rep-log", os.path.join(case_dir, "rep_log.csv")]
        try:
            codes[name] = main(argv)
        except Exception:  # an uncaught error exits the real CLI with 1
            print(f"{name}:", file=sys.stderr)
            traceback.print_exc()
            codes[name] = 1
    with open(os.path.join(out, "exit_codes.json"), "w") as fh:
        json.dump(codes, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return check_manifests(out)


def _refuse(constant):
    raise ValueError(f"{constant} is not JSON")


def check_manifests(root):
    """Parse every ``manifest.json`` under root as strict JSON (RFC 8259, so
    no ``NaN`` or ``Infinity``); print each that fails, and return 1 if any."""
    bad = 0
    for rel in sorted(_files(root)):
        if os.path.basename(rel) != "manifest.json":
            continue
        try:
            with open(os.path.join(root, rel)) as fh:
                json.load(fh, parse_constant=_refuse)
        except ValueError as exc:
            bad += 1
            print(f"BAD JSON {rel}: {exc}")
    return 1 if bad else 0


def _files(root):
    for dirpath, _, names in os.walk(root):
        for name in names:
            yield os.path.relpath(os.path.join(dirpath, name), root)


def _number(text):
    try:
        return float(text)
    except (TypeError, ValueError):
        return None


def _relative(a, b):
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if math.isfinite(scale) else math.inf


def _flatten(value, prefix=""):
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _flatten(item, f"{prefix}.{key}" if prefix else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _flatten(item, f"{prefix}[{i}]")
    else:
        yield prefix, value


def _cells(path):
    """The values of a file as (key, text) pairs: CSV cells or JSON leaves."""
    if path.endswith(".json"):
        with open(path) as fh:
            return {key: value for key, value in _flatten(json.load(fh))}
    with open(path, newline="") as fh:
        return {(r, c): v for r, row in enumerate(csv.reader(fh)) for c, v in enumerate(row)}


def compare_files(a, b):
    """(largest relative numeric difference, notes) of two differing files."""
    cells_a, cells_b = _cells(a), _cells(b)
    worst, notes = 0.0, []
    only_a, only_b = cells_a.keys() - cells_b.keys(), cells_b.keys() - cells_a.keys()
    if only_a or only_b:
        notes.append(
            f"cells only in A: {sorted(map(str, only_a))}, only in B: {sorted(map(str, only_b))}"
        )
    for key in cells_a.keys() & cells_b.keys():
        va, vb = cells_a[key], cells_b[key]
        if va == vb:
            continue
        na, nb = _number(va), _number(vb)
        if na is None or nb is None or isinstance(va, bool) or isinstance(vb, bool):
            notes.append(f"{key}: {va!r} != {vb!r}")
        else:
            worst = max(worst, _relative(na, nb))
    return worst, notes


def compare(a, b):
    """Print the per-file comparison of two matrix runs; 0 when all identical."""
    codes_a, codes_b = (_cells(os.path.join(root, "exit_codes.json")) for root in (a, b))
    same = True
    for case in sorted(codes_a.keys() | codes_b.keys()):
        if codes_a.get(case) != codes_b.get(case):
            same = False
            print(f"EXIT    {case}: {codes_a.get(case)} != {codes_b.get(case)}")
    files = sorted(set(_files(a)) | set(_files(b)))
    identical = 0
    for rel in files:
        pa, pb = os.path.join(a, rel), os.path.join(b, rel)
        if not (os.path.exists(pa) and os.path.exists(pb)):
            same = False
            print(f"MISSING {rel} (only in {'A' if os.path.exists(pa) else 'B'})")
            continue
        with open(pa, "rb") as fa, open(pb, "rb") as fb:
            if fa.read() == fb.read():
                identical += 1
                print(f"same    {rel}")
                continue
        same = False
        worst, notes = compare_files(pa, pb)
        print(f"DIFFERS {rel} max_rel={worst:.3g}" + "".join(f"\n          {n}" for n in notes))
    print(f"{identical} of {len(files)} files byte-identical; "
          f"{len(codes_a)} cases, exit codes {'equal' if codes_a == codes_b else 'differ'}")
    return 0 if same else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", nargs="?", help="directory to write the matrix into")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two matrix runs")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.out:
        parser.error("give OUT or --compare A B")
    return run_matrix(args.out)


if __name__ == "__main__":
    sys.exit(main())
