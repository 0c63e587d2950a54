"""Minimax risk classification under generalized maximum entropy.

Learns classifiers that minimize worst-case expected loss over a box of
feature-expectation constraints, for 0-1, log, and alpha losses, and reports
upper and lower risk bounds computed at training time.
"""

from .bounds import (
    bound_report,
    generalization_slack,
    lower_bound,
    upper_bound,
    worst_case_risk,
)
from .core import (
    AlphaLoss,
    BoundReport,
    ConstraintAtoms,
    Dataset,
    ExpectationBox,
    FeatureMap,
    LogLoss,
    Loss,
    MrcModel,
    ZeroOneLoss,
    beta_of_alpha,
)
from .features import (
    StumpSpec,
    constraint_atoms,
    estimate_expectations,
    fit_thresholds,
    hoeffding_widths,
)
from .marginals import train_adversarial01, train_logreg
from .oracle import entropy_by_minimization
from .predictors import empirical_risk, predict_labels, predict_probs, sample_labels
from .solver import (
    SolverConfig,
    train_mrc,
    train_zero_one_exact,
)

__version__ = "0.1.0"

__all__ = [
    "AlphaLoss",
    "BoundReport",
    "ConstraintAtoms",
    "Dataset",
    "ExpectationBox",
    "FeatureMap",
    "LogLoss",
    "Loss",
    "MrcModel",
    "SolverConfig",
    "StumpSpec",
    "ZeroOneLoss",
    "beta_of_alpha",
    "bound_report",
    "constraint_atoms",
    "empirical_risk",
    "entropy_by_minimization",
    "estimate_expectations",
    "fit_thresholds",
    "generalization_slack",
    "hoeffding_widths",
    "lower_bound",
    "predict_labels",
    "predict_probs",
    "sample_labels",
    "train_adversarial01",
    "train_logreg",
    "train_mrc",
    "train_zero_one_exact",
    "upper_bound",
    "worst_case_risk",
]
