"""Solver and simulation laboratory for dynamic information revelation.

A sender commits to a signaling strategy about a Markov state that is also
disclosed publicly at random stages. The package discretizes the belief
simplex, iterates the concavification Bellman operator to the discounted
value, extracts optimal splits, and cross-checks the structural claims by
Monte Carlo simulation of the stage game.
"""

__version__ = "0.1.0"

from .belief import (
    BeliefGrid,
    GridFn,
    Split,
    bayes_posterior,
    interpolate,
    kernel_from_split,
    make_grid,
    split_from_kernel,
    validate_belief,
    validate_split,
)
from .chain import Chain, ergodic_frequency_se, sample_path, stationary, validate_chain
from .envelope import cav_grid, cav_split_at, cav_splits, cav_values
from .errors import PersuasionError
from .payoff import PayoffDiscontinuityWarning, ReceiverPayoff, TablePayoff, build_u
from .sim import (
    EstimateResult,
    RenewalStats,
    SimTrace,
    Strategy,
    clt_quantile_bound,
    estimate_discounted,
    estimate_renewal_average,
    nb_truncated_mean,
    random_duration_value_mc,
    renewal_stats,
    run_policy,
    strategy_couple_down,
    strategy_full,
    strategy_null,
    strategy_optimal,
    strategy_policy,
    strategy_renewal_optimal,
)
from .solver import (
    Scenario,
    SolverResult,
    asymptotic_value,
    bellman_no_reveal,
    bellman_reveal,
    check_no_info_at_concave_point,
    full_reveal_closed_form,
    row_average_value,
    solve,
    solve_cesaro,
)

__all__ = [
    "BeliefGrid",
    "Chain",
    "EstimateResult",
    "GridFn",
    "PayoffDiscontinuityWarning",
    "PersuasionError",
    "ReceiverPayoff",
    "RenewalStats",
    "Scenario",
    "SimTrace",
    "SolverResult",
    "Split",
    "Strategy",
    "TablePayoff",
    "asymptotic_value",
    "bayes_posterior",
    "bellman_no_reveal",
    "bellman_reveal",
    "build_u",
    "cav_grid",
    "cav_split_at",
    "cav_splits",
    "cav_values",
    "check_no_info_at_concave_point",
    "clt_quantile_bound",
    "ergodic_frequency_se",
    "estimate_discounted",
    "estimate_renewal_average",
    "full_reveal_closed_form",
    "interpolate",
    "kernel_from_split",
    "make_grid",
    "nb_truncated_mean",
    "random_duration_value_mc",
    "renewal_stats",
    "row_average_value",
    "run_policy",
    "sample_path",
    "solve",
    "solve_cesaro",
    "split_from_kernel",
    "stationary",
    "strategy_couple_down",
    "strategy_full",
    "strategy_null",
    "strategy_optimal",
    "strategy_policy",
    "strategy_renewal_optimal",
    "validate_belief",
    "validate_chain",
    "validate_split",
]
