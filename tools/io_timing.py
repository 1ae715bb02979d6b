"""Time the CLI's input and output layers on application-scale panels.

    PYTHONPATH=src python tools/io_timing.py
    python tools/io_timing.py A/src B/src --runs 10

Two layers, over the first PANELS panels of the benchmark's app-jackknife
workload at seed 0 (``bench/workloads.py``: factor DGP, N=51, T=91, T0=89,
each written as a 4,641-row long ``unit,time,outcome`` CSV):

- ``load_panel``: ``panel.load_panel`` on the CSV path, as ``estimate``
  reads it;
- ``write_run``: ``cli._write_run`` with the tables and manifest of the
  workload's operation on the panel (``estimate --inference jackknife+``:
  ``weights.csv``, ``gap.csv`` and ``manifest.json``).

Each layer is called REPEATS times per panel, after one untimed call, and
the median and quartiles of the calls are printed in milliseconds.

Without arguments the tree on ``PYTHONPATH`` is timed in this process. With
one or two ``src`` directories every run is a fresh process with that
directory on ``PYTHONPATH``; with two, the runs alternate between them
(A, B, A, B, ...) ``--runs`` times each, because a shared host's speed can
drift between processes minutes apart by more than two trees differ. The
median and quartiles of each tree's run medians are printed, with the
number of paired runs in which the second tree was faster.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

# one BLAS thread, as in the benchmark: set before NumPy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "bench")
PANELS = 6
REPEATS = 30
LAYERS = ("load_panel", "write_run")


def inputs(workdir):
    """(load_panel arguments, _write_run arguments) of each panel."""
    sys.path.insert(0, BENCH)
    from workloads import TREATMENT_TIME, WORKLOADS, CliWorkload

    from panelctrl import cli

    app = WORKLOADS["app-jackknife"]
    workload = CliWorkload(app.n_units, PANELS, app.args)
    loads, writes = [], []
    for inp in workload.setup(0, workdir):
        loads.append((inp.path, inp.treated, TREATMENT_TIME))
        write_run, calls = cli._write_run, []
        cli._write_run = lambda *args, **kwargs: calls.append((args, kwargs))
        try:
            workload.run(inp)
        finally:
            cli._write_run = write_run
        writes.extend(calls)
    return loads, writes


def measure():
    """{layer: [median, lower quartile, upper quartile]} in ms per call."""
    from panelctrl import cli
    from panelctrl.panel import load_panel

    with tempfile.TemporaryDirectory() as workdir:
        loads, writes = inputs(workdir)
        calls = {
            "load_panel": [(load_panel, args, {}) for args in loads],
            "write_run": [(cli._write_run, args, kwargs) for args, kwargs in writes],
        }
        summary = {}
        for layer in LAYERS:
            for fn, args, kwargs in calls[layer]:  # untimed: warms the caches
                fn(*args, **kwargs)
            times = []
            for _ in range(REPEATS):
                for fn, args, kwargs in calls[layer]:
                    start = time.perf_counter()
                    fn(*args, **kwargs)
                    times.append(1e3 * (time.perf_counter() - start))
            q1, _, q3 = statistics.quantiles(times, n=4)
            summary[layer] = [statistics.median(times), q1, q3]
    return summary


def run_tree(src):
    """:func:`measure` in a fresh process that imports the library from ``src``."""
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    done = subprocess.run([sys.executable, __file__, "--child"], env=env, check=True,
                          capture_output=True, text=True)
    return json.loads(done.stdout.splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="*", help="at most two library source directories")
    parser.add_argument("--runs", type=int, default=6, help="processes per tree")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(measure()))
        return 0
    if len(args.src) > 2 or args.runs < 2:
        parser.error("give at most two src directories and at least 2 --runs")
    print(f"{'tree':<32} {'layer':<11} {'median ms':>9} {'q1':>7} {'q3':>7}")
    if not args.src:
        for layer, (median, q1, q3) in measure().items():
            print(f"{'(PYTHONPATH)':<32} {layer:<11} {median:9.3f} {q1:7.3f} {q3:7.3f}")
        return 0
    runs = {src: [] for src in args.src}
    for _ in range(args.runs):
        for src in args.src:
            runs[src].append(run_tree(src))
    for src, summaries in runs.items():  # the quartiles of the runs' medians
        for layer in LAYERS:
            medians = [summary[layer][0] for summary in summaries]
            q1, _, q3 = statistics.quantiles(medians, n=4)
            median = statistics.median(medians)
            print(f"{src[-32:]:<32} {layer:<11} {median:9.3f} {q1:7.3f} {q3:7.3f}")
    if len(args.src) == 2:
        a, b = runs.values()
        for layer in LAYERS:
            wins = sum(sb[layer][0] < sa[layer][0] for sa, sb in zip(a, b))
            print(f"{layer}: the second tree was faster in {wins} of {args.runs} pairs")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
