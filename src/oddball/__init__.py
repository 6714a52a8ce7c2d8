"""Odd Poisson process detection: optimal sampling weights, a sequential
detection policy with an error guarantee, Monte Carlo verification, and a
firing-rate dissimilarity index for visual-search data."""

from .numerics import (
    DomainError,
    binary_relative_entropy,
    poisson_kl,
    poisson_kl_series,
)
from .solver import (
    DegenerateRatesError,
    LambdaSolution,
    OddConfig,
    brute_force_d_star,
    curve_rows,
    d_star,
    lower_bound_expected_tau,
    mixed_rate,
    objective,
    solve_lambda_star,
)
from .glr import (
    GlrState,
    SufficientStats,
    averaged_log_likelihood,
    ml_log_likelihood,
    modified_glr,
)
from .policy import (
    PolicyConfig,
    PolicyDecision,
    TrialOutcome,
    empirical_action_frequencies,
    next_decision,
    run_trial,
)
from .experiments import (
    DriftResult,
    ExperimentReport,
    ExperimentSpec,
    drift_experiment,
    run_experiment,
)
from .dissimilarity import (
    DissimilarityMatrix,
    FiringRateTable,
    analyze_search_delays,
    anova_f,
    correlation,
    log_am_gm,
    pairwise_dstar,
    synthesize_search_dataset,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "DomainError",
    "poisson_kl",
    "poisson_kl_series",
    "binary_relative_entropy",
    "OddConfig",
    "LambdaSolution",
    "DegenerateRatesError",
    "solve_lambda_star",
    "d_star",
    "mixed_rate",
    "objective",
    "brute_force_d_star",
    "lower_bound_expected_tau",
    "curve_rows",
    "SufficientStats",
    "GlrState",
    "averaged_log_likelihood",
    "ml_log_likelihood",
    "modified_glr",
    "PolicyConfig",
    "PolicyDecision",
    "TrialOutcome",
    "next_decision",
    "run_trial",
    "empirical_action_frequencies",
    "ExperimentSpec",
    "ExperimentReport",
    "DriftResult",
    "run_experiment",
    "drift_experiment",
    "FiringRateTable",
    "DissimilarityMatrix",
    "pairwise_dstar",
    "log_am_gm",
    "anova_f",
    "correlation",
    "synthesize_search_dataset",
    "analyze_search_delays",
]
