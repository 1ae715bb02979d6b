"""Synthetic control and ridge-augmented synthetic control for panel data.

The package covers the full workflow: panel ingestion and validation,
simplex-constrained weight solving, ridge augmentation with verifiable
closed forms, auxiliary-covariate handling, penalty selection by
cross-validation, conformal prediction intervals, and a seeded Monte
Carlo harness for calibrated evaluation.
"""

from .covariates import (
    CovariatePanel,
    balance_covariates,
    balance_table,
    pre_period_covariates,
    residualize,
    stacked_blocks,
    standardize_to_outcomes,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    DuplicateCellError,
    GridError,
    MissingCellError,
    PanelCtrlError,
    PanelFormatError,
    SingularityError,
    TreatmentTimeError,
    UnknownUnitError,
)
from .estimators import EstimatorSpec, estimate
from .inference import (
    PredictionInterval,
    conformal_interval,
    conformal_p,
    convert_target,
    jackknife_plus,
)
from .panel import PanelBlocks, PanelData, load_panel, split_and_center
from .ridge import (
    AugEstimate,
    BoundSketch,
    ControlSVD,
    RidgeFit,
    augment_path,
    augment_weights,
    bound_sketch,
    fit_ridge,
    svd_imbalance,
    verify_penalized_form,
    weight_norm_bound,
)
from .scm import DonorWeights, imbalance, kkt_residual, solve_scm
from .selection import CvResult, default_lambda_grid, loo_cv, select_lambda
from .sim import (
    Ar3Dgp,
    FactorDgp,
    FixedEffectsDgp,
    McReport,
    default_dgp,
    draw_panel,
    run_monte_carlo,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "PanelData",
    "PanelBlocks",
    "load_panel",
    "split_and_center",
    "DonorWeights",
    "solve_scm",
    "imbalance",
    "kkt_residual",
    "RidgeFit",
    "ControlSVD",
    "AugEstimate",
    "BoundSketch",
    "fit_ridge",
    "augment_weights",
    "augment_path",
    "verify_penalized_form",
    "svd_imbalance",
    "weight_norm_bound",
    "bound_sketch",
    "CovariatePanel",
    "stacked_blocks",
    "residualize",
    "balance_covariates",
    "standardize_to_outcomes",
    "balance_table",
    "pre_period_covariates",
    "CvResult",
    "loo_cv",
    "select_lambda",
    "default_lambda_grid",
    "PredictionInterval",
    "conformal_p",
    "conformal_interval",
    "jackknife_plus",
    "convert_target",
    "EstimatorSpec",
    "estimate",
    "FactorDgp",
    "FixedEffectsDgp",
    "Ar3Dgp",
    "McReport",
    "draw_panel",
    "run_monte_carlo",
    "default_dgp",
    "PanelCtrlError",
    "PanelFormatError",
    "DuplicateCellError",
    "MissingCellError",
    "UnknownUnitError",
    "TreatmentTimeError",
    "ConfigError",
    "SingularityError",
    "ConvergenceError",
    "GridError",
]
