"""CLI equivalence matrix: write every command's artifacts, or compare two runs.

Run mode writes the artifacts of a fixed matrix of ``panelctrl`` commands on
generated panels into OUT, one directory per case, plus ``exit_codes.json``
(case -> process exit code) and the input CSVs under ``inputs/``::

    PYTHONPATH=src python tools/cli_matrix.py OUT

The matrix covers every ``estimate`` method with each inference mode (and
``ridge_ascm``'s jackknife+ at an ``--alpha`` of 0.3 too, where no bound is
clamped to the extreme fold), the covariate modes, ``cv`` in both fold
modes, ``placebo``, ``diagnose`` (also on the small panel with its
outcomes multiplied by SCALE, where checks in outcome units meet
round-off that grows with the scale) and
``simulate --rep-log`` (the factor, fixed-effects and AR(3) families over
more replications than one stack of lockstep solves holds, and
``simulate-wide-cv`` and ``simulate-wide-lam0``, a design of full column
rank with a cross-validated penalty and with lambda 0), plus cells that
must fail (an infinite penalty, a NaN ``--alpha``, a covariate requested
twice, a placebo time after the treatment time behind a valid one,
``small-placebo-repeated-time``, a placebo time given twice, whose files
would share a name, ``small-estimate-missing-input``, an input path (relative,
so its message is the same in every run) that does not exist, zero
replications, a negative seed,
``simulate`` designs no replication can draw or cross-validate, ``simulate``
with both ``--select`` and ``--lambda``, and a CSV
for every input error of docs/schemas.md) so their exit codes are compared
too, and two CSVs that must read like the original
(blank rows, a quoted unit label with a comma). An 800-row panel repeats the
ragged, duplicate and blank-row CSVs with the changed row past the reader's
first blocks of rows, so line numbers are compared there too. A case's
``error: ...`` lines go to its ``stderr.txt``, so compare mode compares the
messages as well. A case that dies with an uncaught exception is recorded as
``"uncaught <class>"`` rather than the exit code 1 that a clean refusal
shares with it. Run mode then parses every ``manifest.json`` as strict JSON
and exits 1 if any holds ``NaN`` or ``Infinity``, or if a case that failed
left any file but its ``stderr.txt`` (``diagnose`` aside, whose report is
written when a check fails). Compare mode reads two such
directories, made for instance from two checkouts, and prints for every file
whether it is byte-identical and otherwise its largest absolute numeric
difference, its largest relative one among values of magnitude at least
1e-13 (smaller values are round-off, such as a check's zero residual, whose
relative differences mean nothing) and its largest relative one overall::

    python tools/cli_matrix.py --compare A B

It exits 0 when every file and exit code is identical, 1 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import sys
import traceback

# (name, n_units, n_periods, treatment_time, seed) of each generated panel
PANELS = [("small", 8, 14, 11, 11), ("wide", 24, 18, 15, 12)]
# an 800-row panel read only through its late variants, whose broken row
# LATE_ROW lies past the reader's first blocks of a few hundred rows
LONG_PANEL = ("long", 40, 20, 15, 13)
LATE_ROW = 600
SCALE = 1e6  # of the small panel's outcomes in the scaled diagnose cell
METHODS = ("scm", "ridge", "ridge_ascm", "demeaned", "fixed_effects")
RIDGE_METHODS = ("ridge", "ridge_ascm")


def write_panel(path, n_units, n_periods, seed, scale=1.0):
    """Long CSV (unit,time,outcome,gdp): random-walk outcomes on a unit level,
    times ``scale``, and a covariate that tracks the level."""
    import numpy as np

    rng = np.random.default_rng(seed)
    base = rng.normal(size=(n_units, 1))
    walk = rng.normal(size=(n_units, n_periods)).cumsum(axis=1)
    outcome = (base + 0.15 * walk + 0.05 * rng.normal(size=(n_units, n_periods))) * scale
    gdp = 2.0 * base + 0.3 * rng.normal(size=(n_units, n_periods))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["unit", "time", "outcome", "gdp"])
        for i in range(n_units):
            for j in range(n_periods):
                writer.writerow([f"u{i}", j + 1, repr(outcome[i, j].item()), repr(gdp[i, j].item())])


def write_bad_panels(path):
    """Variants of the panel CSV at ``path``. Most break its fifth row, a
    pre-period row of the treated unit: cut short after the time cell
    ("ragged"), with a ``nan`` or an ``inf`` gdp cell ("nan-gdp", "inf-gdp"),
    a ``-inf`` or blank outcome cell ("inf-outcome", "blank-outcome"), written
    twice ("duplicate") or left out ("missing"). "text-gdp-post" has an
    ``n/a`` gdp cell in a post-period row of the treated unit and "no-outcome"
    a header without ``outcome``. Two must read like the original: "blank-rows"
    adds a blank, a whitespace-only and a comma-only row around the fifth, and
    "comma-unit" renames donor u3 to the quoted label "u3, x".
    Returns {name: path}."""
    header, rows = _read_rows(path)
    row, post = rows[4], rows[11]  # u0 at times 5 and 12

    def replacing(i, *new):
        return [header, *rows[:i], *new, *rows[i + 1 :]]

    return _write_variants(path, {
        "ragged": replacing(4, row[:2]),
        "nan-gdp": replacing(4, [*row[:3], "nan"]),
        "inf-gdp": replacing(4, [*row[:3], "inf"]),
        "inf-outcome": replacing(4, [*row[:2], "-inf", row[3]]),
        "blank-outcome": replacing(4, [*row[:2], "", row[3]]),
        "duplicate": replacing(4, row, row),
        "missing": replacing(4),
        "text-gdp-post": replacing(11, [*post[:3], "n/a"]),
        "no-outcome": [["unit", "time", "value", "gdp"], *rows],
        "blank-rows": replacing(4, [], row, ["  ", " "], ["", "", "", ""]),
        "comma-unit": [header, *([("u3, x" if r[0] == "u3" else r[0]), *r[1:]] for r in rows)],
    })


def write_late_panels(path):
    """Variants of the long panel CSV at ``path`` that change its row
    LATE_ROW as "ragged", "duplicate" and "blank-rows" change the fifth, so
    their errors and line numbers come from a row past the reader's first
    blocks: "long-ragged", "long-duplicate" and "long-blank-rows", which must
    read like the original. Returns {name: path}."""
    header, rows = _read_rows(path)
    row = rows[LATE_ROW]

    def replacing(*new):
        return [header, *rows[:LATE_ROW], *new, *rows[LATE_ROW + 1 :]]

    return _write_variants(path, {
        "long-ragged": replacing(row[:2]),
        "long-duplicate": replacing(row, row),
        "long-blank-rows": replacing([], row, ["  ", " "], ["", "", "", ""]),
    })


def _read_rows(path):
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    return header, rows


def _write_variants(path, variants):
    """Write each {name: rows} beside ``path`` as name.csv; {name: path}."""
    paths = {}
    for name, lines in variants.items():
        paths[name] = os.path.join(os.path.dirname(path), f"{name}.csv")
        with open(paths[name], "w", newline="") as fh:
            csv.writer(fh).writerows(lines)
    return paths


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
        yield f"{panel}-estimate-scm-zeta0-jackknife+", [
            "estimate", *data, "--method", "scm", "--zeta", "0", "--inference", "jackknife+"]
        yield f"{panel}-estimate-ridge_ascm-min-zeta", [
            "estimate", *data, "--select", "min", "--zeta", "0.05", "--inference", "jackknife+"]
        # enough folds for alpha = 0.3, so no jackknife+ bound is clamped
        yield f"{panel}-estimate-ridge_ascm-lam1-jackknife+-alpha0.3", [
            "estimate", *data, "--method", "ridge_ascm", "--lambda", "1",
            "--inference", "jackknife+", "--alpha", "0.3"]
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
        # a valid placebo time, then one after the treatment time: refused, no files
        yield f"{panel}-placebo-late-time", [
            "placebo", *data, "--lambda", "1", "--placebo-times",
            f"{treated_at - 3},{treated_at + 1}"]
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
    # more replications than one stack of simulate's lockstep solves holds
    for dgp, select in (("factor", "one-se"), ("fixed-effects", "min"), ("ar3", "one-se")):
        yield f"simulate-{dgp}-{select}-stacks", [
            "simulate", "--dgp", dgp, "--reps", "45", "--seed", "19", "--n", "10", "--t", "20",
            "--t0", "15", "--select", select]
    # 29 donors over 5 pre periods: full column rank, where the stacked and
    # lone SCM solves stop about 1e-10 apart
    wide = ["simulate", "--n", "30", "--t", "8", "--t0", "5", "--reps", "45"]
    yield "simulate-wide-cv", [*wide, "--select", "min"]
    yield "simulate-wide-lam0", [*wide, "--lambda", "0"]
    small = ["simulate", "--n", "8", "--t", "14", "--t0", "10"]
    yield "simulate-reps0", [*small, "--reps", "0", "--lambda", "1"]
    yield "simulate-lam-inf", [*small, "--reps", "2", "--lambda", "inf"]
    yield "simulate-seed-negative", [*small, "--reps", "2", "--lambda", "1", "--seed", "-1"]
    for tag, design in (("n2", ["--n", "2"]), ("t200", ["--t", "200", "--t0", "190"]),
                        ("sigma-nan", ["--sigma-scale", "nan"]), ("t-eq-t0", ["--t0", "14"])):
        yield f"simulate-{tag}", [*small, "--reps", "2", "--lambda", "1", *design]
    # a cross-validated penalty needs 3 pre periods: refused before any draw
    yield "simulate-t0-2-cv", [*small, "--reps", "2", "--t0", "2", "--select", "min"]
    # a rule to choose the penalty by, beside a given penalty: refused
    yield "simulate-lam-select", [*small, "--reps", "2", "--lambda", "1", "--select", "one-se"]
    yield "small-scaled-diagnose", [
        "diagnose", "--input", inputs["small-scaled"], "--treated", "u0", "--treatment-time", "11"]
    data = ["--treated", "u0", "--treatment-time", "11", "--lambda", "1"]
    for variant in ("ragged", "inf-outcome", "blank-outcome", "duplicate", "missing",
                    "no-outcome", "blank-rows", "comma-unit"):
        yield f"{variant}-estimate", ["estimate", "--input", inputs[variant], *data]
    # one header column named twice, in two cases: refused before the CSV is read
    yield "small-estimate-covariates-repeated", [
        "estimate", "--input", inputs["small"], *data, "--covariates", "gdp,GDP"]
    yield "small-placebo-repeated-time", [
        "placebo", "--input", inputs["small"], *data, "--placebo-times", "8,8"]
    yield "small-estimate-missing-input", [
        "estimate", "--input", os.path.join("no-such-dir", "small.csv"), *data]
    yield "text-gdp-post-estimate", ["estimate", "--input", inputs["text-gdp-post"], *data,
                                     "--covariates", "gdp"]
    for bad in ("nan-gdp", "inf-gdp"):
        for mode in ("joint", "residualize"):
            yield f"{bad}-estimate-{mode}", ["estimate", "--input", inputs[bad], *data,
                                             "--covariates", "gdp", "--covariate-mode", mode]
    late = ["--treated", "u0", "--treatment-time", str(LONG_PANEL[3]), "--lambda", "1"]
    for variant in ("long-ragged", "long-duplicate", "long-blank-rows"):
        yield f"{variant}-estimate", ["estimate", "--input", inputs[variant], *late]


def run_matrix(out):
    from panelctrl.cli import main

    os.makedirs(os.path.join(out, "inputs"), exist_ok=True)
    inputs = {}
    for name, n_units, n_periods, _, seed in [*PANELS, LONG_PANEL]:
        inputs[name] = os.path.join(out, "inputs", f"{name}.csv")
        write_panel(inputs[name], n_units, n_periods, seed)
    inputs["small-scaled"] = os.path.join(out, "inputs", "small-scaled.csv")
    _, n_units, n_periods, _, seed = PANELS[0]
    write_panel(inputs["small-scaled"], n_units, n_periods, seed, SCALE)
    inputs.update(write_bad_panels(inputs["small"]))
    inputs.update(write_late_panels(inputs["long"]))
    codes, checked = {}, {}
    for name, argv in cases(inputs):
        case_dir = os.path.join(out, name)
        argv = [*argv, "--out", case_dir]
        if argv[0] == "simulate":
            os.makedirs(case_dir, exist_ok=True)
            argv += ["--rep-log", os.path.join(case_dir, "rep_log.csv")]
        codes[name], errors = run_case(main, name, argv)
        if argv[0] != "diagnose":  # a diagnose whose checks fail writes its report
            checked[name] = codes[name]
        if errors:
            os.makedirs(case_dir, exist_ok=True)
            with open(os.path.join(case_dir, "stderr.txt"), "w") as fh:
                fh.write("\n".join(errors) + "\n")
    with open(os.path.join(out, "exit_codes.json"), "w") as fh:
        json.dump(codes, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return max(check_manifests(out), check_refusals(out, checked))


def run_case(main, name, argv):
    """(exit code, ``error: ...`` lines) of ``main(argv)``. A case that dies
    with an uncaught exception, which the real CLI would also exit with 1,
    gets the code ``"uncaught <class>"`` instead, so compare mode tells a
    traceback from a clean refusal; the traceback is printed."""
    stderr = io.StringIO()
    try:
        with contextlib.redirect_stderr(stderr):
            code = main(argv)
    except Exception as exc:
        print(f"{name}:", file=sys.stderr)
        traceback.print_exc()
        code = f"uncaught {type(exc).__name__}"
    return code, [line for line in stderr.getvalue().splitlines() if line.startswith("error: ")]


def check_refusals(root, codes):
    """Print each case of ``codes`` (case -> exit code) that exited non-zero
    yet left a file under root/case other than ``stderr.txt``, with those
    files, and return 1 if any: a refused run writes nothing."""
    bad = 0
    for case, code in sorted(codes.items()):
        left = sorted(set(_files(os.path.join(root, case))) - {"stderr.txt"})
        if code and left:
            bad += 1
            print(f"REFUSED WITH FILES {case} (exit {code}): {', '.join(left)}")
    return 1 if bad else 0


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


# values below this magnitude are round-off, left out of a file's max_rel(|v|>=...)
SMALLEST_COMPARED = 1e-13


def compare_files(a, b):
    """(largest absolute, largest relative among values of magnitude at least
    SMALLEST_COMPARED, largest relative numeric difference, notes) of two
    differing files."""
    cells_a, cells_b = _cells(a), _cells(b)
    worst_abs = worst_big = worst = 0.0
    notes = []
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
            relative = _relative(na, nb)
            worst = max(worst, relative)
            if max(abs(na), abs(nb)) >= SMALLEST_COMPARED:
                worst_big = max(worst_big, relative)
            if relative:
                worst_abs = max(worst_abs, abs(na - nb))
    return worst_abs, worst_big, worst, notes


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
        worst_abs, worst_big, worst, notes = compare_files(pa, pb)
        print(f"DIFFERS {rel} max_abs={worst_abs:.3g} "
              f"max_rel(|v|>={SMALLEST_COMPARED:g})={worst_big:.3g} "
              f"max_rel={worst:.3g}" + "".join(f"\n          {n}" for n in notes))
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
