"""Odd Poisson process detection: optimal sampling weights, a sequential
detection policy with an error guarantee, Monte Carlo verification, and a
firing-rate dissimilarity index for visual-search data.

The names that live in `oddball.reference` (the oracles, the array and
single-step API) resolve on first access (PEP 562), so importing the
package, or `oddball.cli`, does not compile them."""

from .numerics import (
    DomainError,
    _moved,
    binary_relative_entropy,
    poisson_kl,
)
from .solver import (
    DegenerateRatesError,
    LambdaSolution,
    OddConfig,
    curve_rows,
    d_star,
    lower_bound_expected_tau,
    objective,
    solve_lambda_star,
)
from .glr import SufficientStats
from .policy import (
    PolicyConfig,
    TrialOutcome,
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
)

__version__ = "0.1.0"

__getattr__, __dir__ = _moved(
    __name__,
    (
        "poisson_kl_series", "mixed_rate", "brute_force_d_star", "GlrState",
        "averaged_log_likelihood", "ml_log_likelihood", "modified_glr", "PolicyDecision",
        "next_decision", "empirical_action_frequencies", "synthesize_search_dataset",
    ),
)

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
