"""Information-directed action selection for the two-armed belief problem.

At each belief the policy trades the one-step regret Delta against a
discounted information gain I, both affine in the mixing weight q placed
on arm +1.  For alpha in (0, 1] it minimizes Delta(q)^p / I(q)^(p-1),
p = 1/alpha, which is convex on [0, 1] (a perspective-type composition of
affine maps).  Its logarithm p log Delta(q) - (p-1) log I(q) has at most
one stationary point, q* = ((p-1) I' Delta_- - p Delta' I_-) / (Delta' I')
with Delta' = Delta_+ - Delta_- and I' = I_+ - I_-, so the minimizer is
q* clipped to [0, 1] or one of the two arms (the IDS minimizer mixes at
most two actions: Russo & Van Roy, Operations Research 2018).  The three
candidates are compared in log space, which neither under- nor overflows
at small alpha.  At alpha = 0 the objective Delta/I is linear-fractional
and minimized at an arm, so only the two arms are compared.  Beliefs
where no action carries information fall back to the greedy action.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bandit import (
    ActionDistribution,
    BanditSpec,
    _check_beta,
    _check_q,
    entropy,
    posterior,
    regret_gap,
)
from .errors import DegenerateRatio
from .solver import (
    BeliefGrid,
    DiscountedProblem,
    PolicyTable,
    ValueFunction,
    _myopic_q,
    _stencil,
    policy_evaluation,
    regret_curve,
)

__all__ = [
    "IdsConfig",
    "RatioEvaluation",
    "information_function",
    "info_ratio",
    "ratio",
    "ids_endpoints",
    "ids_action_dist",
    "ids_policy_on_grid",
    "ratio_table",
    "sup_info_ratio",
    "scaled_log_sup_ratio",
    "regret_bound",
    "entropy_reduction_cost",
]

# Information below this counts as none, for the selection's greedy guard
# and for the nodes the sup ratio skips alike; read at call time.
DEFAULT_INFO_FLOOR = 1e-12


@dataclass(frozen=True)
class IdsConfig:
    """The two parameters of IDS(alpha): the exponent alpha in [0, 1] and
    the discount gamma in [0, 1) of the information measure.  Beliefs
    whose two arms both carry less than DEFAULT_INFO_FLOOR of
    information play greedily."""

    alpha: float
    gamma: float

    def __post_init__(self):
        _check_alpha(self.alpha)
        _check_gamma(self.gamma)


def _check_alpha(alpha):
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    return alpha


def _check_gamma(gamma):
    if not 0.0 <= gamma < 1.0:
        raise ValueError(f"gamma must lie in [0, 1), got {gamma}")


@dataclass(frozen=True)
class RatioEvaluation:
    """Outcome of one pointwise ratio minimization."""

    delta: float
    info: float
    ratio: float
    q_star: ActionDistribution


def ids_endpoints(spec: BanditSpec, gamma: float, beliefs):
    """One-step regrets and discounted informations of the two arms.

    Returns arrays (Delta_-, Delta_+, I_-, I_+) with one entry per belief;
    a mixture placing q on arm +1 has (1-q)*x_- + q*x_+ of each.
    I_a = H(beta) - gamma * E[H(beta')] after one pull of arm a.  A gamma
    outside IdsConfig's range, or NaN, raises ValueError.
    """
    _check_gamma(gamma)
    b = np.asarray(beliefs, dtype=float)
    h = entropy(b)
    ends = {}
    for a in (-1, 1):
        acc = np.zeros_like(b)
        for y in (0, 1):
            p, bpost = posterior(spec, b, a, y)
            acc += np.where(p > 0.0, p * entropy(bpost), 0.0)
        ends[a] = regret_gap(spec, b, a), h - gamma * acc
    return ends[-1][0], ends[1][0], ends[-1][1], ends[1][1]


@lru_cache(maxsize=1)
def _grid_endpoints(spec, gamma, grid):
    """ids_endpoints at the nodes of `grid`, read-only.  The selection, the
    sup ratio and the regret bound of one policy read the same arrays, so
    the last (spec, gamma, grid) is kept."""
    ends = ids_endpoints(spec, gamma, grid.nodes)
    for e in ends:
        e.flags.writeable = False
    return ends


def information_function(spec: BanditSpec, beta: float, dist, gamma: float) -> float:
    """Discounted information measure of a mixed action.

    `dist` is an ActionDistribution or the bare probability of arm +1.
    I(q) = H(beta) - gamma * sum_{a,y} pi(a) p_b(y|a) H(beta'), affine in
    q and never below (1-gamma)*H(beta) because one observation cannot
    raise the expected posterior entropy.
    """
    q = _check_q(dist)
    _, _, i0, i1 = ids_endpoints(spec, gamma, [_check_beta(beta)])
    return float((1.0 - q) * i0[0] + q * i1[0])


def _scaled_log_ratio(d, i, alpha):
    """alpha * log ratio(d, i, alpha), and log(d/i) at alpha = 0: both are
    log d - (1-alpha) log i, elementwise, with -inf where d <= 0 and +inf
    where d > 0 >= i.  The factor alpha keeps the order of the ratios and
    keeps the value in float range however small alpha is."""
    with np.errstate(divide="ignore", invalid="ignore"):
        val = np.log(d) - (1.0 - alpha) * np.log(i)
    val = np.where(np.asarray(i) > 0.0, val, np.inf)
    return np.where(np.asarray(d) > 0.0, val, -np.inf)


def ratio(d, i, alpha: float):
    """IDS objective Delta^(1/alpha) / I^(1/alpha - 1), and Delta/I at
    alpha = 0, elementwise.

    Zero regret gives 0 whatever the information; positive regret
    without information gives inf, as does a value beyond the float range.
    An alpha outside [0, 1], or NaN, raises ValueError.
    """
    _check_alpha(alpha)
    with np.errstate(over="ignore"):
        return np.exp(_scaled_log_ratio(d, i, alpha) / (alpha if alpha > 0.0 else 1.0))


def info_ratio(delta: float, info: float, alpha: float) -> float:
    """Generalized ratio Delta^(1/alpha) / I^(1/alpha - 1) for alpha in (0, 1].

    Zero regret gives ratio zero regardless of the information.  Zero
    information with positive regret raises DegenerateRatio: the value is
    infinite and callers are expected to take the guarded greedy path.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if not (delta >= 0.0 and info >= 0.0):
        raise ValueError("delta and info must be nonnegative")
    if delta > 0.0 and info == 0.0:
        raise DegenerateRatio(f"ratio {delta}/0 is undefined; use the guard path")
    if alpha == 1.0:
        return delta
    return float(ratio(delta, info, alpha))


def _ids_q(d0, d1, i0, i1, alpha, greedy):
    """Mixture on arm +1 that minimizes the IDS(alpha) objective, per node.

    The candidates are the greedy arm, the other arm and, for alpha > 0,
    the stationary point q* = ((1-alpha) I' D_- - D' I_-) / (alpha D' I')
    of the log objective, clipped to [0, 1] (greedy where it does not
    exist).  A candidate whose log objective is within 1e-12 of the
    smallest counts as tied (1e-12 * alpha after scaling by alpha, so the
    two arms compare exactly at alpha = 0), and ties go to the earliest
    candidate, which keeps the gamma -> 0 limit exactly greedy.
    """
    cands = [greedy, 1.0 - greedy]
    if alpha > 0.0:
        dd, di = d1 - d0, i1 - i0
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            stat = np.clip(((1.0 - alpha) * di * d0 - dd * i0) / (alpha * dd * di), 0.0, 1.0)
        cands.append(np.where(np.isfinite(stat), stat, greedy))
    vals = np.stack(
        [_scaled_log_ratio((1.0 - c) * d0 + c * d1, (1.0 - c) * i0 + c * i1, alpha)
         for c in cands]
    )
    near = vals <= np.min(vals, axis=0) + 1e-12 * alpha
    return np.choose(np.argmax(near, axis=0), cands)


def _ids_policy_q(spec, config, beliefs, ends):
    """IDS mixture at each belief, chosen from the arm endpoints `ends`."""
    greedy = _myopic_q({a: posterior(spec, beliefs, a, 1)[0] for a in (-1, 1)})
    guard = np.maximum(ends[2], ends[3]) < DEFAULT_INFO_FLOOR
    return np.where(guard, greedy, _ids_q(*ends, config.alpha, greedy))


def ids_action_dist(spec: BanditSpec, beta: float, config: IdsConfig) -> RatioEvaluation:
    """Minimize the information ratio over mixed actions at one belief.

    Runs the grid kernel of ids_policy_on_grid on this one belief, so both
    return the same q at a grid node.  Ties and near-ties resolve toward
    the greedy arm, which keeps the gamma -> 0 limit exact.
    """
    b = np.array([_check_beta(beta)])
    d0, d1, i0, i1 = ends = ids_endpoints(spec, config.gamma, b)
    q = float(_ids_policy_q(spec, config, b, ends)[0])
    d = float((1.0 - q) * d0[0] + q * d1[0])
    i = float((1.0 - q) * i0[0] + q * i1[0])
    return RatioEvaluation(d, i, float(ratio(d, i, config.alpha)), ActionDistribution(q))


def ids_policy_on_grid(
    prob: DiscountedProblem, grid: BeliefGrid, config: IdsConfig
) -> PolicyTable:
    """Pointwise ratio minimization at every grid node.

    config.gamma must agree with prob.gamma.
    """
    if config.gamma != prob.gamma:
        raise ValueError(
            f"config.gamma={config.gamma} disagrees with prob.gamma={prob.gamma}"
        )
    ends = _grid_endpoints(prob.spec, prob.gamma, grid)
    return PolicyTable(grid, _ids_policy_q(prob.spec, config, grid.nodes, ends))


def _policy_mixture(prob, policy):
    """Arm endpoints at the policy's nodes, and the policy's mixed regret
    and information there."""
    ends = d0, d1, i0, i1 = _grid_endpoints(prob.spec, prob.gamma, policy.grid)
    q = policy.q
    return ends, (1.0 - q) * d0 + q * d1, (1.0 - q) * i0 + q * i1


def ratio_table(prob: DiscountedProblem, policy: PolicyTable, alpha: float):
    """Columns (beta, Delta_-, Delta_+, I_-, I_+, q, ratio) at the policy's
    grid nodes: the arm endpoints, the policy's mixture and its IDS(alpha)
    objective."""
    ends, d, i = _policy_mixture(prob, policy)
    return (policy.grid.nodes, *ends, policy.q, ratio(d, i, alpha))


def scaled_log_sup_ratio(prob: DiscountedProblem, policy: PolicyTable, alpha: float) -> float:
    """alpha * log sup_info_ratio, and log sup_info_ratio at alpha = 0;
    finite where the sup ratio overflows, and -inf where it is 0."""
    _check_alpha(alpha)
    _, d, i = _policy_mixture(prob, policy)
    skip = (i < DEFAULT_INFO_FLOOR) & (d < DEFAULT_INFO_FLOOR)
    return float(np.max(np.where(skip, -np.inf, _scaled_log_ratio(d, i, alpha))))


def sup_info_ratio(prob: DiscountedProblem, policy: PolicyTable, alpha: float) -> float:
    """Largest pointwise ratio of the policy across the grid.

    Nodes where both the regret and the information sit below
    DEFAULT_INFO_FLOOR are guard territory and are skipped; a node with
    real regret but no information legitimately pushes the supremum to
    infinity.  The maximum is taken in log space, so the result is inf
    only when the supremum lies beyond the float range.
    """
    s = scaled_log_sup_ratio(prob, policy, alpha)
    with np.errstate(over="ignore"):
        return float(np.exp(s / (alpha if alpha > 0.0 else 1.0)))


def regret_bound(
    prob: DiscountedProblem,
    policy: PolicyTable,
    alpha: float,
    beta0: float,
    value: ValueFunction | None = None,
):
    """Worst-case discounted regret bound at beta0 and whether it holds.

    The bound is (sup_ratio / (1-gamma))^alpha * H(beta0)^(1-alpha) for
    alpha in (0, 1], which tends to sup(Delta/I) * H(beta0), the bound at
    alpha = 0.  It is computed as exp(alpha*(log psi - log(1-gamma)) +
    (1-alpha)*log H(beta0)) from alpha * log psi, which stays in float
    range as alpha -> 0 although psi itself overflows.  The policy value
    is recomputed by a direct solve unless `value` is supplied.  `holds`
    compares the measured regret against the bound plus a slack of 1e-6
    times max(1, bound).  A beta0 outside [-1, 1], or NaN, raises
    ValueError, as does a `value` on another grid than the policy's.
    """
    beta0 = _check_beta(beta0)
    if value is not None and value.grid != policy.grid:
        raise ValueError("value must lie on the policy's grid")
    s = scaled_log_sup_ratio(prob, policy, alpha)
    h0 = entropy(beta0)
    if alpha < 1.0 and h0 == 0.0:
        # certainty start: the regret is zero whatever the sup ratio is
        bound = 0.0
    else:
        log_h = (1.0 - alpha) * math.log(h0) if alpha < 1.0 else 0.0
        with np.errstate(over="ignore"):
            bound = np.exp(s - alpha * math.log(1.0 - prob.gamma) + log_h)
    if value is None:
        value = policy_evaluation(prob, policy)
    measured = regret_curve(prob, value)(beta0)
    holds = measured <= bound + 1e-6 * max(1.0, bound)
    return float(bound), bool(holds)


def entropy_reduction_cost(prob: DiscountedProblem, policy: PolicyTable) -> np.ndarray:
    """Per-node cost g = H - gamma * M_pi H on the discretized chain.

    M_pi is the same interpolated transition that the cost evaluator uses,
    so accumulating g discounts back to H(beta) exactly; substituting the
    entropy of the exact posterior instead leaves an O(h log h) residue
    near the endpoints, where interpolating the entropy is worst.
    """
    h = entropy(policy.grid.nodes)
    return _stencil(prob, policy.grid).policy_system(policy.q) @ h
