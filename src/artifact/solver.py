"""Discounted dynamic programming on a discretized belief line.

The belief beta lives on a uniform grid over [-1, 1].  Bayes updates land
between nodes, so continuation values are read off by piecewise-linear
interpolation; that keeps the Bellman operator monotone and a
gamma-contraction in the max norm.  The module provides the operator
itself, value iteration, Howard policy iteration with a Bellman-residual
certificate, policy evaluation (iterative, or by a direct solve with a
residual certificate: certified BiCGSTAB on grids of 4001 nodes or more,
sparse LU on smaller grids and as the fallback), a generic
discounted-cost evaluator, the full-information reference value, regret
curves, greedy policy extraction with boundary reporting, and
enumeration of reachable beliefs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .bandit import BanditSpec, _check_beta, posterior, win_prob
from .errors import IterationLimit, MultipleBoundaries, NoBoundary

__all__ = [
    "DiscountedProblem",
    "BeliefGrid",
    "ValueFunction",
    "PolicyTable",
    "bellman_backup",
    "bellman_apply",
    "value_iteration",
    "policy_evaluation",
    "policy_iteration",
    "certify_optimal",
    "evaluate_cost",
    "policy_transition",
    "mdp_value",
    "regret_curve",
    "extract_greedy_policy",
    "decision_boundary",
    "reachable_beliefs",
    "default_tolerance",
]


@dataclass(frozen=True)
class DiscountedProblem:
    """A bandit spec together with a discount factor gamma in [0, 1)."""

    spec: BanditSpec
    gamma: float

    def __post_init__(self):
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError(f"gamma must lie in [0, 1), got {self.gamma}")


@dataclass(frozen=True)
class BeliefGrid:
    """Uniform odd grid on [-1, 1]; oddness pins a node at beta = 0."""

    n_points: int

    def __post_init__(self):
        if self.n_points < 3 or self.n_points % 2 == 0:
            raise ValueError(
                f"n_points must be an odd integer >= 3, got {self.n_points}"
            )

    @cached_property
    def nodes(self) -> np.ndarray:
        return np.linspace(-1.0, 1.0, self.n_points)

    @property
    def spacing(self) -> float:
        return 2.0 / (self.n_points - 1)

    def locate(self, beta):
        """Lower cell index and fractional weight for interpolation."""
        b = np.asarray(beta, dtype=float)
        j = np.clip(
            np.searchsorted(self.nodes, b, side="right") - 1, 0, self.n_points - 2
        )
        t = np.clip((b - self.nodes[j]) / self.spacing, 0.0, 1.0)
        return j, t

    def interp(self, values, beta):
        j, t = self.locate(beta)
        out = values[j] * (1.0 - t) + values[j + 1] * t
        if np.ndim(beta) == 0:
            return float(out)
        return out


@dataclass(frozen=True)
class ValueFunction:
    """Node values on a belief grid, evaluated off-node by linear interpolation."""

    grid: BeliefGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n_points,):
            raise ValueError("values must have one entry per grid node")
        if not np.all(np.isfinite(v)):
            raise ValueError("values must be finite")
        object.__setattr__(self, "values", v)

    def __call__(self, beta):
        return self.grid.interp(self.values, beta)


@dataclass(frozen=True)
class PolicyTable:
    """Per-node probability of playing arm +1, plus the decision boundary
    when the preferred action flips exactly once along the grid."""

    grid: BeliefGrid
    q: np.ndarray
    boundary: float | None = None

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        if q.shape != (self.grid.n_points,):
            raise ValueError("q must have one entry per grid node")
        if np.any((q < 0.0) | (q > 1.0)):
            raise ValueError("q entries must lie in [0, 1]")
        object.__setattr__(self, "q", q)
        if self.boundary is not None and not -1.0 <= self.boundary <= 1.0:
            raise ValueError("boundary must lie in [-1, 1]")


class _Stencil:
    """Precomputed per-(action, outcome) transition data for one problem/grid.

    For each (a, y) we store the predictive probability at every node, the
    lower interpolation index of the updated belief, and the fractional
    weight toward the upper neighbor.  Nodes with zero predictive
    probability keep a self-map; the zero weight makes the entry inert.
    """

    def __init__(self, prob: DiscountedProblem, grid: BeliefGrid):
        self.prob = prob
        self.grid = grid
        self.p, self.j, self.t = {}, {}, {}
        for a in (-1, 1):
            for y in (0, 1):
                self.p[(a, y)], bp = posterior(prob.spec, grid.nodes, a, y)
                self.j[(a, y)], self.t[(a, y)] = grid.locate(bp)
        # the expected reward of arm a is its predictive probability of y = 1
        self.r = {a: self.p[(a, 1)] for a in (-1, 1)}

    def interp(self, v, a, y):
        j, t = self.j[(a, y)], self.t[(a, y)]
        return v[j] * (1.0 - t) + v[j + 1] * t

    def continuations(self, v):
        return {
            a: sum(self.p[(a, y)] * self.interp(v, a, y) for y in (0, 1))
            for a in (-1, 1)
        }

    def q_values(self, v):
        cont = self.continuations(v)
        g = self.prob.gamma
        return {a: self.r[a] + g * cont[a] for a in (-1, 1)}

    def backup(self, v):
        q = self.q_values(v)
        return np.maximum(q[-1], q[1])

    def greedy(self, v):
        """Per-node indicator of arm +1; ties go to the larger immediate
        reward and then to +1."""
        q = self.q_values(v)
        prefer = q[1] > q[-1]
        tie = q[1] == q[-1]
        prefer = prefer | (tie & (self.r[1] >= self.r[-1]))
        return prefer.astype(float)

    def policy_backup(self, v, qdist, per_node):
        """One sweep of v = per_node + gamma * (mixed continuation); the
        per-node term carries the mixed reward or an external cost."""
        cont = self.continuations(v)
        g = self.prob.gamma
        return per_node + g * ((1.0 - qdist) * cont[-1] + qdist * cont[1])

    def policy_reward(self, qdist):
        return (1.0 - qdist) * self.r[-1] + qdist * self.r[1]

    def policy_system(self, qdist):
        """Sparse CSR A = I - gamma*M and the policy transition M."""
        n = self.grid.n_points
        cols, data = [], []
        for a, w in ((-1, 1.0 - qdist), (1, qdist)):
            for y in (0, 1):
                wp, j, t = w * self.p[(a, y)], self.j[(a, y)], self.t[(a, y)]
                cols += [j, j + 1]
                data += [wp * (1.0 - t), wp * t]
        rows = np.tile(np.arange(n), len(cols))
        M = sp.csr_matrix(
            (np.concatenate(data), (rows, np.concatenate(cols))), shape=(n, n)
        )
        return sp.identity(n, format="csr") - self.prob.gamma * M, M


def default_tolerance(gamma: float) -> float:
    """Default error tolerance: 1e-9 of the value magnitude 1/(1-gamma),
    but never below 8*eps/(1-gamma)^2, the float floor of a certificate.

    One backup rounds values of size 1/(1-gamma) by about eps/(1-gamma),
    and a certificate divides that residual by 1-gamma once more.  On
    (0.55, 0.7), (0.5, 0.51) and (0.7, 0.7) at N 2001 the certificate of
    policy iteration measured 4.66e-4, 3.49e-4 and 4.66e-4 at gamma
    0.999999 and 0.0373, 0.0373 and 0.0466 at gamma 0.9999999, that is
    1.6 to 2.1 times eps/(1-gamma)^2.  The floor takes over above
    gamma = 1 - 1.8e-6 and leaves 1e-9/(1-gamma) in place below it.
    """
    return max(1e-9 / (1.0 - gamma), 8.0 * np.finfo(float).eps / (1.0 - gamma) ** 2)


def _resolve_tol(gamma, tol):
    if tol is None:
        return default_tolerance(gamma)
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    return tol


def _sweep(step, n, gamma, tol, max_sweeps, what):
    """Iterate v <- step(v) from v = 0 until the max-norm change drops
    below tol; returns (v, sweeps)."""
    v = np.zeros(n)
    if gamma == 0.0:
        # the operator ignores its argument, so one sweep is exact
        return step(v), 1
    if max_sweeps is None:
        max_sweeps = max(50, int(10.0 * math.log(1.0 / min(tol, 1.0)) / (1.0 - gamma)) + 10)
    diff = math.inf
    for k in range(1, max_sweeps + 1):
        v2 = step(v)
        diff = float(np.max(np.abs(v2 - v)))
        v = v2
        if diff < tol:
            return v, k
    raise IterationLimit(
        f"{what} did not reach tol={tol:g} in {max_sweeps} sweeps",
        iterations=max_sweeps,
        residual=diff,
    )


# LU fill outgrows the grid: on the IDS(0.5) policy of (0.55, 0.7), gamma
# 0.99, one CPU, LU takes 52 ms at N 4001 and 1.07 s at N 20001, BiCGSTAB
# 12 and 28 ms.  Its stopping rule never reads the caller's tol.  The cap
# sits above the 60-160 iterations of informative specs and bounds an
# attempt near a fair coin, where BiCGSTAB needs 500 or more.
_KRYLOV_MIN_NODES = 4001
_KRYLOV_RTOL = 1e-13
_KRYLOV_MAXITER = 200


def _solve_policy(st, q, per_node, tol, x0=None, krylov=True):
    """Solve the policy equation (I - gamma*M_q) v = per_node.

    Returns (v, certificate, iterations, method); the certificate
    ||per_node - A v|| / (1-gamma) bounds ||v - v_q|| (Puterman 1994,
    ch. 6).  A BiCGSTAB iterate (from x0; krylov=False skips it) is kept
    only when it converged and its certificate meets min(tol,
    default_tolerance(gamma)); otherwise LU solves the system, counted as
    one iteration.
    """
    A, _ = st.policy_system(q)
    gamma = st.prob.gamma

    def certificate(v):
        return float(np.max(np.abs(per_node - A @ v))) / (1.0 - gamma)

    method = "LU"
    if krylov and st.grid.n_points >= _KRYLOV_MIN_NODES:
        steps = []
        v, info = spla.bicgstab(A, per_node, x0=x0, rtol=_KRYLOV_RTOL, atol=0.0,
                                maxiter=_KRYLOV_MAXITER, callback=steps.append)
        if info == 0:
            cert = certificate(v)
            if cert <= min(tol, default_tolerance(gamma)):
                return v, cert, len(steps), "BiCGSTAB"
        method = "LU after BiCGSTAB"
    # spsolve factors a CSR matrix as its transpose, which rounds
    # differently from the CSC factorisation small-grid outputs rest on
    v = spla.spsolve(A.tocsc(), per_node)
    return v, certificate(v), 1, method


def bellman_backup(v: ValueFunction, prob: DiscountedProblem) -> ValueFunction:
    """One application of the Bellman operator to v on its own grid."""
    st = _Stencil(prob, v.grid)
    return ValueFunction(v.grid, st.backup(v.values))


def bellman_apply(prob: DiscountedProblem, value, beta: float) -> float:
    """Bellman operator applied pointwise to an arbitrary value callable.

    Unlike bellman_backup this evaluates `value` at the exact updated
    beliefs, with no grid in between, which is what closed-form
    fixed-point checks need.
    """
    beta = _check_beta(beta)
    best = -math.inf
    for a in (-1, 1):
        cont = 0.0
        for y in (0, 1):
            p, bp = (float(x) for x in posterior(prob.spec, beta, a, y))
            if p > 0.0:
                cont += p * float(value(bp))
        # p is now p_b(1|a), the expected reward of arm a
        best = max(best, p + prob.gamma * cont)
    return best


def value_iteration(
    prob: DiscountedProblem,
    grid: BeliefGrid,
    tol: float | None = None,
    max_sweeps: int | None = None,
):
    """Iterate the Bellman operator from V0 = 0 until the sweep-to-sweep
    max-norm change drops below tol.

    Returns (ValueFunction, sweep_count).  The contraction argument gives
    the a-posteriori bound ||V - V*||_inf <= tol*gamma/(1-gamma).  Raises
    IterationLimit when max_sweeps is exhausted.
    """
    tol = _resolve_tol(prob.gamma, tol)
    st = _Stencil(prob, grid)
    v, k = _sweep(st.backup, grid.n_points, prob.gamma, tol, max_sweeps, "value iteration")
    return ValueFunction(grid, v), k


def _resolve_costs(cost, grid):
    if callable(cost):
        c = np.asarray(cost(grid.nodes), dtype=float)
    else:
        c = np.asarray(cost, dtype=float)
    if c.shape != (grid.n_points,):
        raise ValueError("cost must provide one value per grid node")
    if not np.all(np.isfinite(c)):
        raise ValueError("cost must be finite")
    return c


def _fixed_point(st, qdist, per_node, tol, max_sweeps, method, what):
    """Solve v = per_node + gamma * M_pi v either by sweeping or directly."""
    if method not in ("direct", "sweep"):
        raise ValueError(f"unknown method {method!r}")
    gamma = st.prob.gamma
    tol = _resolve_tol(gamma, tol)
    if method == "sweep":
        v, _ = _sweep(
            lambda v: st.policy_backup(v, qdist, per_node),
            st.grid.n_points, gamma, tol, max_sweeps, what,
        )
        return ValueFunction(st.grid, v)
    v, cert, iterations, how = _solve_policy(st, qdist, per_node, tol)
    if cert > tol:
        raise IterationLimit(
            f"{what}: certified error {cert:.3g} of the {how} solve exceeds tol={tol:g}",
            iterations=iterations,
            residual=cert,
        )
    return ValueFunction(st.grid, v)


def policy_evaluation(
    prob: DiscountedProblem,
    policy: PolicyTable,
    tol: float | None = None,
    max_sweeps: int | None = None,
    method: str = "sweep",
) -> ValueFunction:
    """Discounted value of a fixed (possibly stochastic) policy.

    method="sweep" iterates the policy backup with the same contraction
    guarantee as value_iteration; method="direct" solves the sparse linear
    system (I - gamma*M)v = r, by certified BiCGSTAB on grids of 4001
    nodes or more and by LU on smaller grids and as the fallback, and
    certifies it by the residual bound ||v - v_pi|| <= ||r - (I -
    gamma*M)v|| / (1-gamma).  Either method raises IterationLimit when its
    bound misses tol (default default_tolerance(gamma)).
    """
    st = _Stencil(prob, policy.grid)
    rpi = st.policy_reward(policy.q)
    return _fixed_point(st, policy.q, rpi, tol, max_sweeps, method, "policy evaluation")


def evaluate_cost(
    prob: DiscountedProblem,
    policy: PolicyTable,
    cost,
    tol: float | None = None,
    max_sweeps: int | None = None,
    method: str = "sweep",
) -> ValueFunction:
    """Cumulative discounted cost of an arbitrary per-belief one-step cost.

    `cost` is either an array with one entry per node or a callable
    applied to the node vector; costs that depend on the policy should be
    supplied already mixed.  The result is the fixed point of
    C = cost + gamma * M_pi C and is linear in the cost argument.
    """
    st = _Stencil(prob, policy.grid)
    c = _resolve_costs(cost, policy.grid)
    return _fixed_point(st, policy.q, c, tol, max_sweeps, method, "cost evaluation")


def policy_iteration(
    prob: DiscountedProblem,
    grid: BeliefGrid,
    max_rounds: int | None = None,
):
    """Howard policy iteration with direct-solve evaluations.

    Starts from the myopic greedy policy and alternates exact evaluation
    with greedy improvement until the policy stops changing.  Settles in a
    handful of rounds on informative arms and is far cheaper than value
    iteration when gamma is close to 1.  Near a fair coin the boundary
    ends far from the myopic start and moves one or two nodes per round,
    so the default budget is one round per grid node.  Evaluations solve
    as policy_evaluation(method="direct"), BiCGSTAB warm-started, and
    stay on LU after the first round that falls back to it.

    Returns (ValueFunction, PolicyTable, rounds).  The value is the grid
    optimum up to the error of the linear solves; certify_optimal bounds
    that error by one more Bellman backup.
    """
    if max_rounds is None:
        max_rounds = grid.n_points
    st = _Stencil(prob, grid)
    tol = default_tolerance(prob.gamma)
    qd = st.greedy(np.zeros(grid.n_points))
    v, krylov = None, True
    for k in range(1, max_rounds + 1):
        v, _, _, how = _solve_policy(st, qd, st.policy_reward(qd), tol, v, krylov)
        # the next policy differs in a few nodes, so a miss predicts a miss
        krylov = how == "BiCGSTAB"
        qd2 = st.greedy(v)
        if np.array_equal(qd2, qd):
            return ValueFunction(grid, v), _policy_from_q(grid, qd), k
        qd = qd2
    raise IterationLimit(
        f"policy iteration did not settle in {max_rounds} rounds",
        iterations=max_rounds,
    )


def certify_optimal(
    prob: DiscountedProblem, v: ValueFunction, tol: float | None = None
) -> float:
    """Certified distance to the grid optimum, from one Bellman backup.

    Returns the bound ||v - V*||_inf <= ||Tv - v||_inf / (1-gamma)
    (Puterman 1994, ch. 6) and raises IterationLimit when it exceeds tol
    (default default_tolerance(gamma)).
    """
    tol = _resolve_tol(prob.gamma, tol)
    st = _Stencil(prob, v.grid)
    bound = float(np.max(np.abs(st.backup(v.values) - v.values))) / (1.0 - prob.gamma)
    if bound > tol:
        raise IterationLimit(
            f"certified error {bound:.3g} of the optimal value exceeds tol={tol:g}",
            residual=bound,
        )
    return bound


def policy_transition(prob: DiscountedProblem, policy: PolicyTable):
    """Row-stochastic sparse transition matrix of the belief chain under
    the policy, with interpolation weights as sub-transitions."""
    st = _Stencil(prob, policy.grid)
    _, M = st.policy_system(policy.q)
    return M


def mdp_value(prob: DiscountedProblem, beta):
    """Value of a fully informed player, averaged over the belief.

    Linear in beta: [(1-beta)*max_a r(-1,a) + (1+beta)*max_a r(+1,a)] / (2*(1-gamma)).
    """
    best_m = max(win_prob(prob.spec, -1, -1), win_prob(prob.spec, -1, 1))
    best_p = max(win_prob(prob.spec, 1, -1), win_prob(prob.spec, 1, 1))
    b = np.asarray(beta, dtype=float)
    out = ((1.0 - b) / 2.0 * best_m + (1.0 + b) / 2.0 * best_p) / (1.0 - prob.gamma)
    if np.ndim(beta) == 0:
        return float(out)
    return out


def regret_curve(prob: DiscountedProblem, v: ValueFunction) -> ValueFunction:
    """Shortfall of v against the fully informed reference, node by node."""
    return ValueFunction(v.grid, mdp_value(prob, v.grid.nodes) - v.values)


def _boundary_from_q(grid, qdist):
    pref = qdist >= 0.5
    flips = np.nonzero(pref[1:] != pref[:-1])[0]
    if len(flips) == 0:
        raise NoBoundary("policy never switches preferred action")
    if len(flips) > 1:
        raise MultipleBoundaries(
            f"policy switches preferred action {len(flips)} times"
        )
    i = int(flips[0])
    return float((grid.nodes[i] + grid.nodes[i + 1]) / 2.0)


def _policy_from_q(grid, qdist):
    try:
        boundary = _boundary_from_q(grid, qdist)
    except (NoBoundary, MultipleBoundaries):
        boundary = None
    return PolicyTable(grid, qdist, boundary)


def extract_greedy_policy(prob: DiscountedProblem, v: ValueFunction) -> PolicyTable:
    """Greedy policy of v, with ties broken toward the larger immediate
    reward and then toward arm +1.  The boundary field is filled when the
    preference flips exactly once."""
    st = _Stencil(prob, v.grid)
    return _policy_from_q(v.grid, st.greedy(v.values))


def decision_boundary(policy: PolicyTable) -> float:
    """Midpoint between the two nodes where the preferred action flips.

    Raises NoBoundary or MultipleBoundaries when the flip count is not
    exactly one; nodes with q = 0.5 count as preferring +1.
    """
    return _boundary_from_q(policy.grid, policy.q)


def reachable_beliefs(spec: BanditSpec, beta0: float, depth: int) -> np.ndarray:
    """All beliefs reachable from beta0 by at most `depth` Bayes updates.

    Breadth-first enumeration over action/outcome pairs with positive
    predictive probability; duplicates are merged at 1e-12 resolution.
    Returns a sorted array.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    vals = [_check_beta(beta0)]
    frontier = vals[:]
    for _ in range(depth):
        ups = [posterior(spec, frontier, a, y) for a in (-1, 1) for y in (0, 1)]
        nxt = []
        for i in range(len(frontier)):
            for p, bp in ups:
                b = float(bp[i])
                if p[i] > 0.0 and all(abs(b - v) > 1e-12 for v in vals):
                    vals.append(b)
                    nxt.append(b)
        frontier = nxt
    return np.array(sorted(vals))
