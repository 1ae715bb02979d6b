"""The benchmark's workloads: inputs, the timed operation, and checks.

Every workload draws its panels from the linear factor DGP with
``draw_panel("factor", ...)``, seeded from the run's ``--seed``. The CLI
workload writes them as long CSV during set-up, so ``panelctrl.cli.main``
receives only generated files. Each workload isolates a different layer:

- ``app-jackknife``: the application's donors and pre-period (N=51, T0=89)
  with 2 post periods instead of its 16 (T=91), lambda chosen by CV (one-se
  rule), ``--inference jackknife+``. The only workload where ``selection``
  and the jackknife+ fold loop work; the fold loop refits the same 89 folds
  for each post period. Panel cost varies by a fifth either way, so a run
  times 30-45 distinct panels (48 per seed) rather than seven at the full
  16 periods.
- ``mc-desk``: ``run_monte_carlo`` in the setting of acceptance criterion 9
  (factor DGP, theta=1.5, n=20, t=30, t0=25, lambda by CV-min, default
  threads). Many tiny problems, so per-call overhead dominates.

Checks run after each operation, outside its timed section. A failed check
counts the operation's panels as failed.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, replace

import numpy as np

import panelctrl
from panelctrl import EstimatorSpec, default_dgp, draw_panel
import panelctrl.cli

T, T0 = 91, 89
TREATMENT_TIME = str(T0 + 1)
SUM_TOL = 1e-10
MATCH_TOL = 1e-8


@dataclass(frozen=True)
class PanelInput:
    panel: object
    path: str
    out: str

    @property
    def treated(self):
        return self.panel.unit_ids[self.panel.treated_index]


def write_long_csv(panel, path):
    """Long-format (unit,time,outcome) CSV; ``repr`` round-trips every float."""
    lines = ["unit,time,outcome"]
    for unit, row in zip(panel.unit_ids, panel.outcomes.tolist()):
        lines.extend(f"{unit},{t},{v!r}" for t, v in zip(panel.time_ids, row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class CliWorkload:
    """``panelctrl estimate`` with ``args`` on one generated panel per operation.

    The checks assume the default method and an ``--inference`` that writes
    intervals.
    """

    panels_per_op = 1
    method = "ridge_ascm"

    def __init__(self, n_units, n_panels, args):
        self.n_units = n_units
        self.n_panels = n_panels
        self.args = args
        self.rows_per_panel = n_units * T

    def setup(self, seed, workdir):
        params = default_dgp("factor")
        inputs = []
        for i, ss in enumerate(np.random.SeedSequence(seed).spawn(self.n_panels)):
            panel = draw_panel("factor", params, self.n_units, T, T0, ss)
            path = os.path.join(workdir, f"panel{i:03d}.csv")
            write_long_csv(panel, path)
            inputs.append(PanelInput(panel, path, os.path.join(workdir, "out")))
        return inputs

    def run(self, inp):
        argv = [
            "estimate",
            "--input", inp.path,
            "--treated", inp.treated,
            "--treatment-time", TREATMENT_TIME,
            "--out", inp.out,
            *self.args,
        ]  # fmt: skip
        return panelctrl.cli.main(argv)

    def check(self, inp, rc):
        """Problems found in the operation's outputs; empty when correct."""
        if isinstance(rc, BaseException):
            return [f"raised {rc!r}"]
        if rc != 0:
            return [f"exit code {rc}"]
        p = inp.panel
        problems = []
        weights = _read_csv(os.path.join(inp.out, "weights.csv"))
        if [r["unit"] for r in weights] != list(p.donor_ids):
            problems.append("weights.csv units differ from the donors")
        w = np.array([float(r["weight"]) for r in weights])
        if abs(math.fsum(w) - 1.0) > SUM_TOL:
            problems.append(f"weights sum to {math.fsum(w)!r}")

        gap = _read_csv(os.path.join(inp.out, "gap.csv"))
        counterfactual = np.array([float(r["counterfactual"]) for r in gap])
        err = np.abs(counterfactual - self._expected_counterfactual(inp, w)).max()
        if not err <= MATCH_TOL:
            problems.append(f"counterfactual differs by {err:.3e}")

        for r in gap[T0:]:
            lo, hi = float(r["ci_lower"]), float(r["ci_upper"])
            if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
                problems.append(f"bad interval [{lo}, {hi}] at time {r['time']}")
        return problems

    @staticmethod
    def dropped(rc):
        return 0

    def _expected_counterfactual(self, inp, w):
        p = inp.panel
        observed = p.outcomes[p.treated_index]
        with open(os.path.join(inp.out, "manifest.json")) as fh:
            lam = json.load(fh)["config"]["lambda"]
        est = panelctrl.estimate(p, EstimatorSpec(method=self.method, lam=lam))
        return np.concatenate([observed[:T0] - est.gap_pre, est.counterfactual])


class McWorkload:
    """One ``run_monte_carlo`` call of ``replications`` draws per operation.

    An input is the call's seed.
    """

    rows_per_panel = 0

    def __init__(self, replications, n_inputs):
        self.panels_per_op = replications
        self.n_inputs = n_inputs
        self.params = None

    def setup(self, seed, workdir):
        self.params = replace(default_dgp("factor"), theta=1.5)
        children = np.random.SeedSequence(seed).spawn(self.n_inputs)
        return [int(ss.generate_state(1)[0]) for ss in children]

    def run(self, inp):
        return panelctrl.run_monte_carlo(
            "factor",
            self.params,
            replications=self.panels_per_op,
            seed=inp,
            n=20,
            t=30,
            t0=25,
            lam="cv-min",
        )

    def check(self, inp, report):
        if isinstance(report, BaseException):
            return [f"raised {report!r}"]
        problems = []
        for r in report.rows:
            values = (r.bias, r.bias_se, r.rmse, r.rmse_se)
            if not all(math.isfinite(v) for v in values):
                problems.append(f"{r.name}: non-finite aggregate {values}")
            if r.n_used + r.n_dropped != self.panels_per_op:
                problems.append(f"{r.name}: {r.n_used} used + {r.n_dropped} dropped")
            if r.rmse < abs(r.bias) * (1.0 - 1e-12):
                problems.append(f"{r.name}: rmse {r.rmse!r} below |bias| {abs(r.bias)!r}")
        if abs(report.row("scm").rmse_pct_of_scm - 100.0) > 1e-9:
            problems.append("scm row is not its own 100% baseline")
        return problems

    @staticmethod
    def dropped(report):
        return report.rows[0].n_dropped


WORKLOADS = {
    "app-jackknife": CliWorkload(51, 48, ["--inference", "jackknife+"]),
    "mc-desk": McWorkload(replications=10, n_inputs=256),
}
