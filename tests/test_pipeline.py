"""One weights pipeline: every entry point honours covariates or refuses them.

Each cell of method x covariate mode x entry point either changes its result
when covariates are supplied or raises ConfigError; none may silently drop
them. The CLI cells also check that ``gap.csv`` carries the intervals of the
covariate-adjusted estimator.
"""

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panelctrl.cli import main
from panelctrl.covariates import CovariatePanel, covariates_from_long
from panelctrl.errors import ConfigError
from panelctrl.estimators import (
    EstimatorSpec,
    estimate,
    estimate_on_blocks,
    weights_for_design,
)
from panelctrl.inference import conformal_interval, conformal_p, jackknife_plus
from panelctrl.panel import PanelBlocks, PanelData, load_panel, split_and_center

from conftest import make_blocks

METHODS = ("scm", "ridge", "ridge_ascm", "demeaned", "fixed_effects")
RIDGE_METHODS = ("ridge", "ridge_ascm")
MODES = ("joint", "residualize")
ALPHA = 0.2
TAUS = np.linspace(-2.0, 2.0, 41)


@pytest.fixture(scope="module")
def panel_path(tmp_path_factory):
    """Long CSV, 8 units x 13 periods (2 post), with a covariate column."""
    rng = np.random.default_rng(11)
    n, t = 8, 13
    base = rng.normal(size=(n, 1))
    out = base + rng.normal(size=(n, t)).cumsum(axis=1) * 0.15 + rng.normal(size=(n, t)) * 0.05
    gdp = base * 2 + rng.normal(size=(n, t)) * 0.3
    path = tmp_path_factory.mktemp("pipeline") / "panel.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["unit", "time", "outcome", "gdp"])
        for i in range(n):
            for j in range(t):
                writer.writerow([f"u{i}", j + 1, format(out[i, j], ".17g"), format(gdp[i, j], ".17g")])
    return str(path)


@pytest.fixture(scope="module")
def data(panel_path):
    p = load_panel(panel_path, "u0", "12")
    return p, covariates_from_long(panel_path, p, ["gdp"])


def _spec(method, mode, lam=1.0):
    return EstimatorSpec(
        method=method,
        lam=lam if method in ("ridge", "ridge_ascm") else None,
        covariate_mode=mode,
    )


def _interval(ci):
    return np.array([ci.lower, ci.upper])


ENTRY_POINTS = {
    "estimate": lambda p, spec, cov: estimate(p, spec, cov=cov).att,
    "conformal_p": lambda p, spec, cov: np.array(
        [conformal_p(p, tau, spec, cov=cov) for tau in TAUS]
    ),
    "conformal_interval": lambda p, spec, cov: _interval(
        conformal_interval(p, ALPHA, spec, cov=cov)
    ),
    "jackknife_plus": lambda p, spec, cov: _interval(
        jackknife_plus(p, ALPHA, spec, cov=cov)[0]
    ),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("method", METHODS)
def test_library_cell_uses_covariates_or_refuses(data, method, mode, entry):
    p, cov = data
    run = ENTRY_POINTS[entry]
    spec = _spec(method, mode)
    if method not in RIDGE_METHODS:
        with pytest.raises(ConfigError):
            run(p, spec, cov)
        return
    with_cov = run(p, spec, cov)
    without = run(p, spec, None)
    assert np.all(np.isfinite(with_cov))
    assert not np.array_equal(with_cov, without)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("mode", MODES)
def test_covariates_without_lambda_refused(data, mode, entry):
    p, cov = data
    with pytest.raises(ConfigError):
        ENTRY_POINTS[entry](p, _spec("ridge_ascm", mode, lam=None), cov)


@pytest.mark.parametrize(
    "bad",
    [{"zeta": -5.0}, {"zeta": math.nan}, {"zeta": math.inf}, {"lam": math.nan}, {"lam": math.inf}],
)
@pytest.mark.parametrize("method", METHODS)
def test_spec_refuses_a_bad_penalty_for_every_method(method, bad):
    with pytest.raises(ConfigError):
        EstimatorSpec(method=method, **bad)


CLI_INFERENCE = {
    "jackknife+": lambda p, spec, k, cov: jackknife_plus(
        p, ALPHA, spec, target="effect", cov=cov
    )[k],
    "conformal": lambda p, spec, k, cov: conformal_interval(
        p, ALPHA, spec, post_period=k, target="effect", cov=cov
    ),
}


@pytest.mark.parametrize("inference", sorted(CLI_INFERENCE))
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("method", METHODS)
def test_cli_cell_uses_covariates_or_refuses(
    panel_path, data, tmp_path, method, mode, inference
):
    out = tmp_path / "est"
    rc = main([
        "estimate", "--input", panel_path, "--treated", "u0", "--treatment-time", "12",
        "--method", method, "--lambda", "1", "--covariates", "gdp",
        "--covariate-mode", mode, "--inference", inference, "--alpha", str(ALPHA),
        "--out", str(out),
    ])  # fmt: skip
    if method not in RIDGE_METHODS:
        assert rc == 3
        return
    assert rc == 0
    with open(out / "gap.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    p, cov = data
    spec = _spec(method, mode)
    interval = CLI_INFERENCE[inference]
    for k, row in enumerate(rows[p.t0 :]):
        written = np.array([float(row["ci_lower"]), float(row["ci_upper"])])
        direct = interval(p, spec, k, cov)
        plain = interval(p, spec, k, None)
        assert np.abs(written - _interval(direct)).max() <= 1e-12
        assert not np.array_equal(written, _interval(plain))


def _permuted(blocks, perm):
    return PanelBlocks(
        x1=blocks.x1,
        x0=blocks.x0[perm],
        y0_post=blocks.y0_post[perm],
        y1_post=blocks.y1_post,
        centering=blocks.centering,
    )


@settings(max_examples=40)
@given(
    seed=st.integers(0, 2**32 - 1),
    method=st.sampled_from(METHODS),
    mode=st.sampled_from((None, *MODES)),
)
def test_weights_for_design_donor_permutation_equivariant(seed, method, mode):
    """Reordering the donors reorders their weights and changes nothing else."""
    rng = np.random.default_rng(seed)
    n0, t0 = int(rng.integers(4, 9)), int(rng.integers(3, 7))
    blocks = make_blocks(rng, n0, t0, n_post=2)
    perm = rng.permutation(n0)
    spec = EstimatorSpec(
        method=method,
        lam=float(10 ** rng.uniform(-1, 2)) if method in ("ridge", "ridge_ascm") else None,
        covariate_mode=mode or "joint",
    )
    cov = cov_perm = None
    if mode is not None and method in RIDGE_METHODS:
        cov = CovariatePanel.from_raw(rng.normal(size=2), rng.normal(size=(n0, 2)))
        cov_perm = CovariatePanel(z1=cov.z1, z0=cov.z0[perm])
    w = weights_for_design(blocks, spec, cov)
    w_perm = weights_for_design(_permuted(blocks, perm), spec, cov_perm)
    assert np.abs(w_perm.values - w.values[perm]).max() < 1e-7


# Aim-3 invariants as properties of weights_for_design, for every method and
# both covariate modes.
CASES = [(method, None) for method in METHODS] + [
    (method, mode) for method in RIDGE_METHODS for mode in MODES
]
N_POST = 2


def _draw(seed, method, mode):
    """Random-walk outcomes (treated unit first), a spec and optional covariates."""
    rng = np.random.default_rng(seed)
    n0, t0 = int(rng.integers(4, 9)), int(rng.integers(3, 7))
    outcomes = rng.normal(size=(n0 + 1, t0 + N_POST)).cumsum(axis=1)
    spec = EstimatorSpec(
        method=method,
        lam=float(10 ** rng.uniform(-1, 2)) if method in ("ridge", "ridge_ascm") else None,
        covariate_mode=mode or "joint",
    )
    cov = None
    if mode is not None:
        cov = CovariatePanel.from_raw(rng.normal(size=2), rng.normal(size=(n0, 2)))
    return rng, outcomes, spec, cov


def _fit(outcomes, spec, cov):
    n, t = outcomes.shape
    p = PanelData(outcomes, tuple(f"u{i}" for i in range(n)), tuple(range(t)), 0, t - N_POST)
    blocks = split_and_center(p, center=True)
    return weights_for_design(blocks, spec, cov).values, estimate_on_blocks(blocks, spec, cov).att


@settings(max_examples=40)
@given(seed=st.integers(0, 2**32 - 1))
@pytest.mark.parametrize("method, mode", CASES)
def test_weights_sum_to_one_exactly(seed, method, mode):
    _, outcomes, spec, cov = _draw(seed, method, mode)
    w, _ = _fit(outcomes, spec, cov)
    assert abs(math.fsum(w) - 1.0) <= 1e-12


@settings(max_examples=40)
@given(seed=st.integers(0, 2**32 - 1))
@pytest.mark.parametrize("method, mode", CASES)
def test_per_period_shift_leaves_weights_and_att_unchanged(seed, method, mode):
    rng, outcomes, spec, cov = _draw(seed, method, mode)
    shift = rng.normal(scale=10.0, size=outcomes.shape[1])
    w, att = _fit(outcomes, spec, cov)
    w_shift, att_shift = _fit(outcomes + shift, spec, cov)
    assert np.abs(w_shift - w).max() <= 1e-7
    assert np.abs(att_shift - att).max() <= 1e-7 * np.abs(outcomes).max()


@settings(max_examples=40)
@given(seed=st.integers(0, 2**32 - 1))
@pytest.mark.parametrize("method, mode", CASES)
def test_scaled_outcomes_and_lambda_scale_att(seed, method, mode):
    """c * Y with c**2 * lambda gives the same weights and c times the ATT."""
    rng, outcomes, spec, cov = _draw(seed, method, mode)
    c = float(10 ** rng.uniform(-1, 1))
    scaled_spec = spec if spec.lam is None else spec.with_lambda(spec.lam * c**2)
    w, att = _fit(outcomes, spec, cov)
    w_scaled, att_scaled = _fit(c * outcomes, scaled_spec, cov)
    assert np.abs(w_scaled - w).max() <= 1e-7
    assert np.abs(att_scaled - c * att).max() <= 1e-7 * c * np.abs(outcomes).max()
