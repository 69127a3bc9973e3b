"""F_b-score-optimal binary classification.

Exact threshold characterization on discrete laws, a semi-supervised plug-in
procedure (nonparametric regression + empirical threshold calibration),
synthetic distribution families with known optima, and a Monte Carlo harness
for convergence-rate experiments.
"""

from .core import (bayes_classifier, bayes_threshold, excess_fbeta,
                   population_fbeta, solve_threshold, threshold_equation)
from .discrete import (DiscreteDistribution, FBetaParams, as_bits,
                       random_distribution, uniform_eta_grid)
from .estimators import (KernelEstimate, KNNEstimate, LabeledDataset,
                         LocalPolyEstimate, SmoothnessSpec, default_bandwidth,
                         fit_from_config)
from .harness import (ExperimentConfig, RateFitResult, build_family,
                      emit_report, run_dkw_check, run_rate_experiment,
                      run_threshold_experiment)
from .oracle import (OracleSizeError, OracleSuiteFailure, brute_force_optimum,
                     randomized_identity_suite, scan_threshold,
                     solve_threshold_bisect)
from .plugin import (PluginClassifier, TrainingDegenerate, UnlabeledDataset,
                     train_plugin)
from .synthetic import (AnalyticDistribution, ConstructionError,
                        HardFamilyParams, MarginSpec, build_hard_family,
                        hard_family_mean_eta, hard_family_rate_params,
                        make_constant_family, make_smooth_1d_family,
                        make_two_point_family, sample, verify_margin,
                        verify_strong_density)
from .threshold import (DegenerateScoreSample, ScoreSample, cdf_gap_bound,
                        empirical_cdf, empirical_threshold)

__version__ = "0.1.0"

__all__ = [
    "AnalyticDistribution", "ConstructionError", "DegenerateScoreSample",
    "DiscreteDistribution", "ExperimentConfig", "FBetaParams",
    "HardFamilyParams", "KNNEstimate", "KernelEstimate", "LabeledDataset",
    "LocalPolyEstimate", "MarginSpec", "OracleSizeError", "OracleSuiteFailure",
    "PluginClassifier", "RateFitResult", "ScoreSample", "SmoothnessSpec",
    "TrainingDegenerate", "UnlabeledDataset", "as_bits", "bayes_classifier",
    "bayes_threshold", "brute_force_optimum", "build_family",
    "build_hard_family", "cdf_gap_bound", "default_bandwidth", "emit_report",
    "empirical_cdf", "empirical_threshold", "excess_fbeta", "fit_from_config",
    "hard_family_mean_eta", "hard_family_rate_params", "make_constant_family",
    "make_smooth_1d_family", "make_two_point_family", "population_fbeta",
    "randomized_identity_suite", "random_distribution", "run_dkw_check",
    "run_rate_experiment", "run_threshold_experiment", "sample",
    "scan_threshold", "solve_threshold", "solve_threshold_bisect",
    "threshold_equation", "train_plugin", "uniform_eta_grid", "verify_margin",
    "verify_strong_density",
]
