import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from panelctrl.estimators import design_and_anchor
from panelctrl.panel import PanelBlocks, PanelData, period_folds, split_and_center

# every run draws the same examples, so a property failure reproduces
settings.register_profile("reproducible", derandomize=True, deadline=None)
settings.load_profile("reproducible")


def make_blocks(rng, n0, t0, n_post=1, center=True, scale=1.0):
    """Random centered blocks with donors drawn iid normal."""
    x0 = rng.normal(size=(n0, t0)) * scale
    x1 = rng.normal(size=t0) * scale
    y0 = rng.normal(size=(n0, n_post)) * scale
    y1 = rng.normal(size=n_post) * scale
    if center:
        shift = x0.mean(axis=0)
        x0 = x0 - shift
        x0 = x0 - x0.mean(axis=0)
        x1 = x1 - shift
    else:
        shift = np.zeros(t0)
    return PanelBlocks(x1=x1, x0=x0, y0_post=y0, y1_post=y1, centering=shift)


def raw_blocks(p):
    """The panel's treated/control pre/post blocks, not centred."""
    treated, donors, t0 = p.outcomes[p.treated_index], p.outcomes[p.donor_indices], p.t0
    return PanelBlocks(
        x1=treated[:t0], x0=donors[:, :t0], y0_post=donors[:, t0:], y1_post=treated[t0:]
    )


def make_panel(rng, n, t, t0, treated_index=0):
    """Random panel with mildly persistent outcome paths."""
    base = rng.normal(size=(n, 1))
    noise = rng.normal(size=(n, t)).cumsum(axis=1) * 0.2
    outcomes = base + noise + rng.normal(size=(n, t)) * 0.1
    return PanelData(
        outcomes=outcomes,
        unit_ids=tuple(f"u{i}" for i in range(n)),
        time_ids=tuple(range(1, t + 1)),
        treated_index=treated_index,
        t0=t0,
    )


def folds_off_the_full_support(blocks, spec, cov=None):
    """The leave-one folds whose own SCM solution, started at the full
    sample's, has another support than it."""
    full = design_and_anchor(blocks, spec, cov).scm.values
    return [
        t
        for t, fold in period_folds(blocks)
        if not np.array_equal(design_and_anchor(fold, spec, cov, full).scm.values > 0, full > 0)
    ]


def record_scm_solves(monkeypatch):
    """Record every SCM solve at both places that call it: ``estimators``
    (full samples and the per-fold loops) and ``scm`` (the leave-one folds
    that the batch leaves to it). Returns the list that each call appends
    ``(blocks, start, weights)`` to, in call order."""
    import panelctrl.estimators as estimators_mod
    import panelctrl.scm as scm_mod

    solves = []
    solve = scm_mod.solve_scm

    def record(blocks, *args, start=None, **kwargs):
        solves.append((blocks, start, solve(blocks, *args, start=start, **kwargs)))
        return solves[-1][2]

    for module in (estimators_mod, scm_mod):
        monkeypatch.setattr(module, "solve_scm", record)
    return solves


@pytest.fixture
def rng():
    return np.random.default_rng(20240612)


__all__ = [
    "folds_off_the_full_support",
    "make_blocks",
    "make_panel",
    "raw_blocks",
    "record_scm_solves",
    "split_and_center",
]
