"""Time the lockstep SCM kernel (``scm._lockstep``) on fixed-seed shapes.

    PYTHONPATH=src python tools/kernel_timing.py

Three shapes, each over a few fixed-seed inputs:

- ``mc-desk cold``: the blocks and de-meaned blocks of 10 replications of
  the Monte Carlo's criterion-9 design (factor DGP, theta=1.5, n=20, t=30,
  t0=25), 20 designs solved cold in one pass, as ``sim._finish_stack``
  solves them;
- ``mc-desk folds``: the 250 leave-one folds of those 10 replications in
  one pass, each warm from its design's full solution;
- ``app folds``: the 89 leave-one folds of one application-scale design
  (N0=50, T0=89), the pass of ``scm.solve_leave_one``.

For each shape it prints the median milliseconds per pass over every input
and its REPEATS timed passes, and the mean and largest number of lockstep
rounds per pass. Rounds are read from the kernel's debug log in one untimed
pass per input; the timed passes run with that log off. To compare two
trees, run this file alternately with each tree's ``src`` on
``PYTHONPATH``: one tree's runs minutes apart can differ by more than the
trees do.
"""

from __future__ import annotations

import logging
import os
import re
import statistics
import time
from dataclasses import replace

# one BLAS thread, as in the benchmark: set before NumPy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from panelctrl import default_dgp, draw_panel, scm, sim  # noqa: E402
from panelctrl.panel import split_and_center  # noqa: E402

MC_STACKS = 6  # inputs of each mc-desk shape: stacks of 10 replications
APP_PANELS = 3  # inputs of the application shape
REPEATS = 20  # timed passes per input


def mc_inputs():
    """(cold, folds) pass arguments of each fixed-seed mc-desk stack."""
    params = replace(default_dgp("factor"), theta=1.5)
    cold, folds = [], []
    for seed in range(MC_STACKS):
        seeds = np.random.SeedSequence(seed).spawn(10)
        outcomes, treated, _ = sim._draw_stack("factor", params, 20, 30, 25, seeds)
        blocks, demeaned = sim._stack_blocks(outcomes, treated, 25)
        n0, t0 = blocks.x0.shape[1:]
        x0 = np.stack([blocks.x0, demeaned.x0], axis=1).reshape(-1, n0, t0)
        x1 = np.stack([blocks.x1, demeaned.x1], axis=1).reshape(-1, t0)
        g, _ = scm._cold_stack(x0, x1)
        fulls = np.ascontiguousarray(g.T.reshape(-1, 2, n0)[:, 0])
        cold.append((scm._cold_stack, (x0, x1)))
        folds.append((scm._leave_one_stack, (blocks.x0, blocks.x1, fulls)))
    return cold, folds


def app_inputs():
    """Fold pass arguments of each fixed-seed application-scale design."""
    inputs = []
    for seed in range(APP_PANELS):
        blocks = split_and_center(draw_panel("factor", default_dgp("factor"), 51, 105, 89, seed))
        full = scm.solve_scm(blocks)
        inputs.append((scm._leave_one_stack, (blocks.x0[None], blocks.x1[None], full.values[None])))
    return inputs


class _Rounds(logging.Handler):
    """Collects the round count of every kernel pass logged."""

    def __init__(self):
        super().__init__(logging.DEBUG)
        self.counts = []

    def emit(self, record):
        found = re.search(r"in (\d+) batched rounds", record.getMessage())
        if found:
            self.counts.append(int(found.group(1)))


def measure(inputs, repeats):
    """(median ms per pass, mean rounds, max rounds) of ``inputs``."""
    log = logging.getLogger("panelctrl.scm")
    rounds = _Rounds()
    log.addHandler(rounds)
    log.setLevel(logging.DEBUG)
    try:
        for fn, args in inputs:  # untimed: counts the rounds, warms the caches
            fn(*args)
    finally:
        log.removeHandler(rounds)
        log.setLevel(logging.WARNING)
    times = []
    for _ in range(repeats):
        for fn, args in inputs:
            start = time.perf_counter()
            fn(*args)
            times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times), statistics.fmean(rounds.counts), max(rounds.counts)


def main():
    cold, folds = mc_inputs()
    shapes = ("mc-desk cold", cold), ("mc-desk folds", folds), ("app folds", app_inputs())
    print(f"{'shape':<14} {'ms/pass':>8} {'rounds':>7} {'max':>4}")
    for name, inputs in shapes:
        ms, mean_rounds, max_rounds = measure(inputs, REPEATS)
        print(f"{name:<14} {ms:8.3f} {mean_rounds:7.1f} {max_rounds:4d}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
