"""Discounted two-armed Bernoulli bandit with a hidden binary state.

The package solves the belief-state control problem exactly on a grid,
implements information-directed action selection with a tunable
regret/information trade-off, checks both against closed-form solutions
on the symmetric and one-informative-arm subclasses, and runs the
parameter sweeps behind the headline comparisons.

Modules:

- ``bandit``: model primitives (beliefs, updates, entropy, information).
- ``solver``: grid discretization, value iteration, policy evaluation.
- ``ids``: information-directed policies and their regret guarantees.
- ``analytic``: closed-form values, exponents, and expansion fits.
- ``experiments``: deterministic sweeps driven by JSON manifests.
- ``cli``: the ``artifact`` command.
"""

from .bandit import (
    ActionDistribution,
    BanditSpec,
    Belief,
    Observation,
    belief_update,
    entropy,
    expected_reward,
    mutual_information,
    obs_prob,
    one_step_regret,
    posterior,
    regret_gap,
    win_prob,
)
from .errors import (
    BanditError,
    DegenerateRatio,
    DegenerateTheta,
    InsufficientSamples,
    InvalidManifest,
    IterationLimit,
    MultipleBoundaries,
    NoBoundary,
    ZeroLikelihood,
)
from .solver import (
    BeliefGrid,
    DiscountedProblem,
    PolicyTable,
    ValueFunction,
    bellman_apply,
    bellman_backup,
    certify_optimal,
    decision_boundary,
    default_tolerance,
    evaluate_cost,
    extract_greedy_policy,
    mdp_value,
    policy_evaluation,
    policy_iteration,
    policy_transition,
    reachable_beliefs,
    regret_curve,
    value_iteration,
)
from .ids import (
    IdsConfig,
    RatioEvaluation,
    entropy_reduction_cost,
    ids_action_dist,
    ids_policy_on_grid,
    info_ratio,
    information_function,
    regret_bound,
    sup_info_ratio,
)
from .analytic import (
    FairCoinSolution,
    FitResult,
    SymmetricSolution,
    fair_coin_solution,
    fair_coin_value,
    fit_log_regret_expansion,
    symmetric_regret_at_uniform,
    symmetric_regret_limit,
    symmetric_regret_linear_coeff,
    symmetric_solution,
    symmetric_value,
    zeta_exponents,
)
from .experiments import (
    SweepManifest,
    SweepResult,
    delta_R_heatmap,
    max_regret_vs_theta,
    optimal_alpha_search,
    regret_scaling_gamma,
    resolve_workers,
    run_manifest,
)

__version__ = "0.1.0"

__all__ = [
    "ActionDistribution",
    "BanditError",
    "BanditSpec",
    "Belief",
    "BeliefGrid",
    "DegenerateRatio",
    "DegenerateTheta",
    "DiscountedProblem",
    "FairCoinSolution",
    "FitResult",
    "IdsConfig",
    "InsufficientSamples",
    "InvalidManifest",
    "IterationLimit",
    "MultipleBoundaries",
    "NoBoundary",
    "Observation",
    "PolicyTable",
    "RatioEvaluation",
    "SweepManifest",
    "SweepResult",
    "SymmetricSolution",
    "ValueFunction",
    "ZeroLikelihood",
    "belief_update",
    "bellman_apply",
    "bellman_backup",
    "certify_optimal",
    "decision_boundary",
    "default_tolerance",
    "delta_R_heatmap",
    "entropy",
    "entropy_reduction_cost",
    "evaluate_cost",
    "expected_reward",
    "extract_greedy_policy",
    "fair_coin_solution",
    "fair_coin_value",
    "fit_log_regret_expansion",
    "ids_action_dist",
    "ids_policy_on_grid",
    "info_ratio",
    "information_function",
    "max_regret_vs_theta",
    "mdp_value",
    "mutual_information",
    "obs_prob",
    "one_step_regret",
    "optimal_alpha_search",
    "policy_evaluation",
    "policy_iteration",
    "policy_transition",
    "posterior",
    "reachable_beliefs",
    "regret_bound",
    "regret_curve",
    "regret_scaling_gamma",
    "resolve_workers",
    "run_manifest",
    "sup_info_ratio",
    "symmetric_regret_at_uniform",
    "symmetric_regret_limit",
    "symmetric_regret_linear_coeff",
    "symmetric_solution",
    "symmetric_value",
    "value_iteration",
    "win_prob",
    "zeta_exponents",
]
