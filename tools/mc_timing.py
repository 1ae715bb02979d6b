"""Time one ``run_monte_carlo`` call stage by stage, on fixed seeds.

    PYTHONPATH=src python tools/mc_timing.py
    python tools/mc_timing.py A/src B/src --runs 6

Three settings (lambda by CV-min, n=20, t=30, t0=25 in each):

- ``mc-desk``: the benchmark's mc-desk operation, 10 replications of the
  factor DGP with theta=1.5, at seeds 0 to MC_SEEDS - 1, each called
  MC_REPEATS times;
- ``crit-9``: the factor call of acceptance criterion 9, 200 replications
  at seed 5, called LONG_REPEATS times;
- ``ar3-200``: 200 replications of the AR(3) family at its defaults, seed
  0, called LONG_REPEATS times.

Each call is split into stages by timing the ``sim`` module's steps in
place: ``draw`` (``_draw_stack``), ``blocks`` (``_stack_blocks``), ``cold``
and ``folds`` (the lockstep passes ``_cold_stack`` and
``_leave_one_stack``), ``svd`` (``_svd_stack``), ``finish`` (the rest of
``_finish_stack``), ``alone`` (the rest of ``_replication_stack``: the
replications that finish alone, and the bookkeeping) and ``aggregate``
(the rest of the call: the checks, the seeds and the aggregation). For each
stage the median over the calls is printed in milliseconds, with its share
of the summed call times. A stage a tree does not have reads zero.

Without arguments the tree on ``PYTHONPATH`` is timed in this process. With
one or two ``src`` directories every run is a fresh process with that
directory on ``PYTHONPATH``; with two, the runs alternate between them
(A, B, A, B, ...) ``--runs`` times each, because a shared host's speed can
drift between processes minutes apart by more than two trees differ. For
each tree the median and quartiles of its runs' stage medians are printed,
and for each setting the number of paired runs whose call total was lower
in the second tree.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import statistics
import subprocess
import sys
import time
from dataclasses import replace

# one BLAS thread, as in the benchmark: set before NumPy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

MC_SEEDS = 8
MC_REPEATS = 10
LONG_REPEATS = 3
SETTINGS = ("mc-desk", "crit-9", "ar3-200")
# the sim steps timed in place, by the stage they are charged to
STEPS = {
    "_draw_stack": "draw",
    "_stack_blocks": "blocks",
    "_cold_stack": "cold",
    "_leave_one_stack": "folds",
    "_svd_stack": "svd",
    "_finish_stack": "finish",
    "_replication_stack": "alone",
}
STAGES = (*STEPS.values(), "aggregate", "total")


def calls():
    """{setting: [keyword arguments of run_monte_carlo, one per timed call]}."""
    from panelctrl import default_dgp

    factor = replace(default_dgp("factor"), theta=1.5)
    design = {"n": 20, "t": 30, "t0": 25, "lam": "cv-min"}
    return {
        "mc-desk": [
            {"family": "factor", "params": factor, "replications": 10, "seed": seed, **design}
            for _ in range(MC_REPEATS) for seed in range(MC_SEEDS)
        ],
        "crit-9": [
            {"family": "factor", "params": factor, "replications": 200, "seed": 5, **design}
        ] * LONG_REPEATS,
        "ar3-200": [
            {"family": "ar3", "params": default_dgp("ar3"), "replications": 200, "seed": 0,
             **design}
        ] * LONG_REPEATS,
    }


class _Clock:
    """Seconds spent in each wrapped step, less the wrapped steps it calls."""

    def __init__(self, sim):
        self.spent = dict.fromkeys(STEPS.values(), 0.0)
        self.open = []  # the inner time of each step running
        for name, stage in STEPS.items():
            if hasattr(sim, name):
                setattr(sim, name, self.wrap(getattr(sim, name), stage))

    def wrap(self, fn, stage):
        def timed(*args, **kwargs):
            self.open.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.spent[stage] += elapsed - self.open.pop()
                if self.open:
                    self.open[-1] += elapsed

        return timed


def measure():
    """{setting: {stage: [median ms, share of the summed call times]}}."""
    from panelctrl import sim

    logging.getLogger("panelctrl").setLevel(logging.ERROR)  # dropped replications
    clock = _Clock(sim)
    summary = {}
    for setting, arguments in calls().items():
        sim.run_monte_carlo(**arguments[0])  # untimed: warms the caches
        rows = []
        for kwargs in arguments:
            clock.spent = dict.fromkeys(clock.spent, 0.0)
            start = time.perf_counter()
            sim.run_monte_carlo(**kwargs)
            total = time.perf_counter() - start
            rows.append({**clock.spent, "aggregate": total - sum(clock.spent.values()),
                         "total": total})
        grand = sum(row["total"] for row in rows)
        summary[setting] = {
            stage: [1e3 * statistics.median(row[stage] for row in rows),
                    sum(row[stage] for row in rows) / grand]
            for stage in STAGES
        }
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
    if not args.src:
        print(f"{'setting':<8} {'stage':<9} {'median ms':>9} {'share':>6}")
        for setting, stages in measure().items():
            for stage, (median, share) in stages.items():
                print(f"{setting:<8} {stage:<9} {median:9.3f} {share:6.1%}")
        return 0
    runs = {src: [] for src in args.src}
    for _ in range(args.runs):
        for src in args.src:
            runs[src].append(run_tree(src))
    print(f"{'tree':<28} {'setting':<8} {'stage':<9} {'median ms':>9} {'q1':>8} {'q3':>8}"
          f" {'share':>6}")
    for src, summaries in runs.items():  # the quartiles of the runs' medians
        for setting in SETTINGS:
            for stage in STAGES:
                medians = [summary[setting][stage][0] for summary in summaries]
                share = statistics.median(summary[setting][stage][1] for summary in summaries)
                q1, _, q3 = statistics.quantiles(medians, n=4)
                print(f"{src[-28:]:<28} {setting:<8} {stage:<9} {statistics.median(medians):9.3f}"
                      f" {q1:8.3f} {q3:8.3f} {share:6.1%}")
    if len(args.src) == 2:
        a, b = runs.values()
        for setting in SETTINGS:
            wins = sum(sb[setting]["total"][0] < sa[setting]["total"][0] for sa, sb in zip(a, b))
            print(f"{setting}: the second tree's call was faster in {wins} of {args.runs} pairs")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
