"""Discounted dynamic programming on a discretized belief line.

The belief beta lives on a uniform grid over [-1, 1].  Bayes updates land
between nodes, so continuation values are read off by piecewise-linear
interpolation; that keeps the Bellman operator monotone and a
gamma-contraction in the max norm.  The module provides the operator
itself, value iteration, Howard policy iteration with a Bellman-residual
certificate (the certified optimum of the CLI and the sweeps, owned by
_optimal_solve), policy evaluation and a generic discounted-cost evaluator
(both by one direct solve with a residual certificate: certified
BiCGSTAB, with sparse LU as the fallback), the full-information
reference value, regret curves, greedy policy extraction with boundary
reporting, and enumeration of reachable beliefs.

BiCGSTAB, the certificates and the Bellman backup apply one numpy
stencil product, the policy system's M v, over a stencil built once for
the last (problem, grid) and shared by every call on it; the backup
applies it to the two pure policies.  The product reads only the arm
each node plays: four entries at a pure node, eight at a mixed one,
added in the order of the full stencil, so it equals the eight-entry
product bit for bit.  One BiCGSTAB kernel solves a stack of policy
systems of one grid size in lockstep, each row with its own scalars, so
a row's iterates do not depend on the rows beside it; a single solve is
a stack of one.  BiCGSTAB starts exact on the linear functions of beta,
the two slowest modes of every policy system.  scipy.sparse is imported
only where a sparse matrix is assembled, for an LU fallback or by
policy_transition, so a run whose solves all converge under BiCGSTAB
never loads scipy.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

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
    """Uniform odd grid on [-1, 1]; oddness gives a middle node, pinned
    at beta = +0.0 exactly."""

    n_points: int

    def __post_init__(self):
        n, top = self.n_points, np.iinfo(np.intp).max
        # 801.0 would pass the parity test, and NaN every comparison
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 3 or n % 2 == 0:
            raise ValueError(f"n_points must be an odd integer >= 3, got {n}")
        if n > top:
            raise ValueError(f"n_points must be at most {top}, got {n}")

    @cached_property
    def nodes(self) -> np.ndarray:
        nodes = np.linspace(-1.0, 1.0, self.n_points)
        # linspace leaves -1.1e-16 there on some grids, e.g. 99 and 197
        nodes[self.n_points // 2] = 0.0
        return nodes

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
        """The interpolated value at a scalar belief, checked by
        _check_beta, or at each entry of an array, unchecked."""
        if np.ndim(beta) == 0:
            beta = _check_beta(beta)
        return self.grid.interp(self.values, beta)


@dataclass(frozen=True)
class PolicyTable:
    """Per-node probability of playing arm +1 on a belief grid."""

    grid: BeliefGrid
    q: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        if q.shape != (self.grid.n_points,):
            raise ValueError("q must have one entry per grid node")
        if not np.all((q >= 0.0) & (q <= 1.0)):
            raise ValueError("q entries must lie in [0, 1]")
        object.__setattr__(self, "q", q)

    @property
    def boundary(self) -> float | None:
        """decision_boundary of the current q, or None when the preferred
        action does not flip exactly once."""
        try:
            return decision_boundary(self)
        except (NoBoundary, MultipleBoundaries):
            return None


def _myopic_q(r):
    """The myopic arm per belief as a weight on arm +1, from each arm's
    expected reward r[a] = p_b(1|a): +1 where p_b(1|+1) >= p_b(1|-1)."""
    return np.where(r[1] >= r[-1], 1.0, 0.0)


class _Stencil:
    """Per-(action, outcome) transition data for one problem/grid, and
    the Bellman backup, which applies it by the played-arm product.

    Row 2*(a == +1) + y of the (4, n) arrays p, j and t holds, for arm a
    and outcome y, the predictive probability at every node, the lower
    interpolation index of the updated belief and the fractional weight
    toward the upper neighbor; a node of zero p keeps an inert self-map.
    """

    def __init__(self, prob: DiscountedProblem, grid: BeliefGrid):
        self.prob = prob
        self.grid = grid
        self.p, self.j, self.t = (np.empty((4, grid.n_points), d) for d in (float, np.intp, float))
        for row, (a, y) in enumerate([(-1, 0), (-1, 1), (1, 0), (1, 1)]):
            self.p[row], bp = posterior(prob.spec, grid.nodes, a, y)
            self.j[row], self.t[row] = grid.locate(bp)
        # the expected reward of arm a is its predictive probability of y = 1
        self.r = {-1: self.p[1], 1: self.p[3]}

    @cached_property
    def arm_systems(self):
        """Per arm a, the policy system of the pure policy on a, built on
        first use, so ids, which never backs up, builds none.  Its weights
        (a pure system has no mixed rows) are read-only like the stencil;
        its column indices are not, since numpy's take copies a read-only
        index array on every call."""
        systems = {a: self.policy_system(np.full(self.grid.n_points, (1.0 + a) / 2.0))
                   for a in (-1, 1)}
        for s in systems.values():
            s.data.flags.writeable = False
        return systems

    def q_values(self, v):
        """Per arm a, r_a + gamma * M_a v, by the played-arm product of
        the pure policy on a that every policy equation applies."""
        return {a: self.r[a] + self.prob.gamma * s.transition_product(v)
                for a, s in self.arm_systems.items()}

    def backup(self, v):
        q = self.q_values(v)
        return np.maximum(q[-1], q[1])

    def greedy(self, v):
        """Per-node indicator of arm +1: the arm whose q leads by more
        than 8*eps/(1-gamma), above the rounding of a backup
        (default_tolerance), and elsewhere the myopic arm of _myopic_q,
        which every node takes at v = 0."""
        q = self.q_values(v)
        clear = np.abs(q[1] - q[-1]) > 8.0 * np.finfo(float).eps / (1.0 - self.prob.gamma)
        return np.where(clear, q[1] > q[-1], _myopic_q(self.r))

    def policy_reward(self, qdist):
        return (1.0 - qdist) * self.r[-1] + qdist * self.r[1]

    def policy_system(self, qdist):
        """The policy system I - gamma*M of a per-node mixing weight,
        holding only the entries of the arms a node plays.

        Every row leads with the four entries of one arm: +1 where
        q = 1, -1 elsewhere.  Mixed rows (0 < q < 1) add the four arm +1
        entries after them, so each row sums arm -1 before arm +1,
        outcome 0 before 1 and the lower neighbour before the upper; an
        entry left out carries an exact zero weight."""
        def entries(w, p, j, t):
            cols, data = np.repeat(j, 2, axis=0), np.repeat(w * p, 2, axis=0)
            cols[1::2] += 1
            data[::2] *= 1.0 - t
            data[1::2] *= t
            return cols, data

        plus = qdist == 1.0
        mixed = np.flatnonzero((qdist > 0.0) & (qdist < 1.0))
        tables = (self.p, self.j, self.t)
        cols, data = entries(np.where(plus, qdist, 1.0 - qdist),
                             *(np.where(plus, x[2:], x[:2]) for x in tables))
        extra_cols, extra = entries(qdist[mixed], *(x[2:].take(mixed, axis=1) for x in tables))
        return _PolicySystem(cols, data, mixed, extra_cols, extra, [self.prob.gamma])


@lru_cache(maxsize=1)
def _stencil(prob, grid):
    """The _Stencil of (prob, grid), read-only.  A command or a sweep row
    solves, evaluates and certifies on one problem and grid, so the last
    (prob, grid) is kept."""
    st = _Stencil(prob, grid)
    for arr in (st.p, st.j, st.t, *st.r.values()):
        arr.flags.writeable = False
    return st


class _PolicySystem:
    """I - gamma*M for a stack of k policies on one grid of n nodes, held
    as the stencil entries of the arms each plays.  Node u = i*n + j is
    node j of system i, so the stack acts on the k*n entries of a (k, n)
    array: node u of M has weight data[c, u] in column cols[c, u] (c < 4,
    the leading arm), and mixed node rows[m] adds extra_data[c, m] in
    column extra_cols[c, m] (arm +1); gammas holds each system's gamma.
    Every entry stays in its own system, so each row of a stacked product
    equals that system's own product bit for bit, and a single system is
    a stack of one.  Products need numpy alone; scipy is imported only to
    assemble M as a sparse matrix."""

    def __init__(self, cols, data, rows, extra_cols, extra_data, gammas):
        self.cols, self.data = cols, data
        self.rows, self.extra_cols, self.extra_data = rows, extra_cols, extra_data
        self.gammas, self.n = gammas, cols.shape[1] // len(gammas)
        self.gamma = _column(gammas)

    @classmethod
    def stack(cls, parts):
        """The stack of the single systems `parts`, in that order."""
        if len(parts) == 1:
            return parts[0]
        n = parts[0].n
        shift = np.arange(0, n * len(parts), n)
        mixed_shift = np.repeat(shift, [len(p.rows) for p in parts])
        cols = np.concatenate([p.cols for p in parts], axis=1)
        cols += np.repeat(shift, n)
        extra_cols = np.concatenate([p.extra_cols for p in parts], axis=1)
        extra_cols += mixed_shift
        return cls(cols, np.concatenate([p.data for p in parts], axis=1),
                   np.concatenate([p.rows for p in parts]) + mixed_shift, extra_cols,
                   np.concatenate([p.extra_data for p in parts], axis=1),
                   [g for p in parts for g in p.gammas])

    def __getitem__(self, keep):
        """The stack of the systems numbered in `keep`, in that order."""
        n = self.n
        bounds = np.searchsorted(self.rows, np.arange(len(self.gammas) + 1) * n)
        return _PolicySystem.stack([
            _PolicySystem(self.cols[:, i * n:(i + 1) * n] - i * n, self.data[:, i * n:(i + 1) * n],
                          self.rows[bounds[i]:bounds[i + 1]] - i * n,
                          self.extra_cols[:, bounds[i]:bounds[i + 1]] - i * n,
                          self.extra_data[:, bounds[i]:bounds[i + 1]], [self.gammas[i]])
            for i in keep
        ])

    def transition_product(self, v):
        # M v: a reduction over axis 0 adds the four leading terms in order;
        # mixed rows then add their arm +1 terms one at a time after them
        terms = v.take(self.cols)
        terms *= self.data
        mv = np.add.reduce(terms, axis=0)
        if len(self.rows):
            extra = v.take(self.extra_cols)
            extra *= self.extra_data
            part = mv.take(self.rows)
            for term in extra:
                part += term
            mv[self.rows] = part
        return mv.reshape(v.shape)

    def __matmul__(self, v):
        mv = self.transition_product(v)
        mv *= self.gamma
        return v - mv

    def transition(self):
        """M as a CSR matrix, assembled from (row, col, weight) triplets
        in the order the product sums them."""
        import scipy.sparse as sp

        n = self.cols.shape[1]
        rows = np.concatenate([np.tile(np.arange(n), len(self.cols)),
                               np.tile(self.rows, len(self.extra_cols))])
        cols = np.concatenate([self.cols.ravel(), self.extra_cols.ravel()])
        data = np.concatenate([self.data.ravel(), self.extra_data.ravel()])
        return sp.csr_matrix((data, (rows, cols)), shape=(n, n))

    def lu_solve(self, b):
        """Direct solve of a stack of one by sparse LU."""
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla

        M = self.transition()
        A = sp.identity(M.shape[0], format="csr") - self.gamma * M
        return spla.spsolve(A.tocsc(), b)


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
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    return tol


# LU fill outgrows the grid (1.59 s at N 20001 on the IDS(0.5) policy of
# (0.55, 0.7), gamma 0.99, against 116 ms for BiCGSTAB on the numpy
# stencil product), and its first call costs about 0.2 s to load
# scipy.sparse.linalg.  The stopping rule never reads the caller's tol.
# Started on the slow modes, informative specs take 40-120 iterations at
# N 2001 up to gamma 0.9999; the cap bounds an attempt near a fair coin,
# where BiCGSTAB can still miss (IDS(0.5) of (0.5, 0.7) at gamma 0.999
# needs 287).
_KRYLOV_RTOL = 1e-13
_KRYLOV_MAXITER = 200


def _column(values):
    """Per-row scalars as a (k, 1) column that scales the rows of a
    stack; for a stack of one, the float itself, which numpy applies
    faster and alike."""
    return values[0] if len(values) == 1 else np.array(values)[:, None]


def _dots(a, b):
    """The dot product of each row of a with the same row of b, by
    np.vecdot, which equals np.dot bit for bit."""
    return np.vecdot(a, b).tolist()


def _bicgstab(A, b, x0=None, *, rtol, maxiter):
    """Unpreconditioned BiCGSTAB for a stack of systems A x = b, row i of
    b and x belonging to system i.  Every row runs step for step as
    scipy.sparse.linalg.bicgstab runs it with atol=0 (van der Vorst
    1992), with its own rho, alpha and omega, and its dots (_dots) equal
    np.dot's bit for bit, so a row's iterates do not depend on the rows
    beside it.  A row retires when it converges, takes its half
    step or breaks down, and the others go on with the stack of their
    own systems.  A needs only `A @ x` on a (k, n) stack and `A[rows]`,
    the stack of the systems numbered in rows.

    Row i stops when ||b_i - A_i x_i||_2 < rtol*||b_i||_2; a zero b_i,
    as in scipy, returns the zero solution at iteration 0 whatever x0.
    Returns (x, info, iterations), one entry per row: info is 0 on
    convergence, maxiter when the iterations ran out, and -10 or -11 on a
    rho or omega breakdown; iterations counts the completed iterations,
    not a last half step.
    """
    out = np.zeros_like(b) if x0 is None else np.array(x0, dtype=float)
    info, iterations = np.full(len(b), maxiter), np.full(len(b), maxiter)
    bnrm2 = np.sqrt(_dots(b, b))
    # the zero solution meets any tolerance: a zero b retires at once
    out[bnrm2 == 0.0] = 0.0
    live = np.arange(len(b))
    # x is the iterate of the running rows: `out` itself until a row
    # retires, a compacted copy after that
    x = out
    # per-row scalars are lists of floats, which cost less than arrays of
    # a few entries and round alike; they scale the rows as _column
    atol = [rtol * n if n else math.inf for n in bnrm2.tolist()]
    # eps**2 for both breakdown tests, as in scipy and its Fortran source
    breakdown = np.finfo(float).eps ** 2
    r = b - A @ x if x.any() else b.copy()
    rtilde = r.copy()
    p = v = None
    # no omega can break a row down in its first iteration
    rho_prev = alpha = omega = [1.0] * len(b)

    def retire(codes, k, vectors, scalars):
        """Write each row with a code to the result, its info that code,
        and return the systems, indices, vectors and scalars of the
        others."""
        done = np.array([c is not None for c in codes])
        # row by row: a row of `out` assigned to itself copies nothing
        for i in np.flatnonzero(done):
            out[live[i]] = x[i]
        info[live[done]] = [c for c in codes if c is not None]
        iterations[live[done]] = k
        keep = np.flatnonzero(~done)
        if not len(keep):
            return None, keep, vectors, scalars
        return (A[keep], live[keep], [None if a is None else a[keep] for a in vectors],
                [[a[i] for i in keep] for a in scalars])

    for k in range(maxiter):
        rho = _dots(rtilde, r)
        codes = [0 if math.sqrt(e) < a else -10 if abs(h) < breakdown
                 else -11 if abs(w) < breakdown else None
                 for e, a, h, w in zip(_dots(r, r), atol, rho, omega)]
        if codes.count(None) < len(codes):
            A, live, (x, r, rtilde, p, v), (atol, rho, rho_prev, alpha, omega) = retire(
                codes, k, (x, r, rtilde, p, v), (atol, rho, rho_prev, alpha, omega))
            if not len(live):
                break
        if k > 0:
            beta = [(h / hp) * (a / w) for h, hp, a, w in zip(rho, rho_prev, alpha, omega)]
            p -= _column(omega) * v
            p *= _column(beta)
            p += r
        else:
            p = r.copy()
        v = A @ p
        rv = _dots(rtilde, v)
        # a zero rv breaks its row down before anything divides by it
        alpha = [h / d if d else 0.0 for h, d in zip(rho, rv)]
        alpha_col = _column(alpha)
        r -= alpha_col * v
        codes = [-11 if not d else 0 if math.sqrt(e) < a else None
                 for d, e, a in zip(rv, _dots(r, r), atol)]
        if codes.count(None) < len(codes):
            for i, c in enumerate(codes):
                if c == 0:
                    x[i] += alpha[i] * p[i]
            A, live, (x, r, rtilde, p, v), (atol, rho, alpha) = retire(
                codes, k, (x, r, rtilde, p, v), (atol, rho, alpha))
            if not len(live):
                break
            alpha_col = _column(alpha)
        # r is scipy's s here: the residual after the half step
        t = A @ r
        # t = 0 makes 0/0, NaN as numpy makes it
        omega = [a / b if b else math.nan for a, b in zip(_dots(t, r), _dots(t, t))]
        omega_col = _column(omega)
        x += alpha_col * p
        x += omega_col * r
        r -= omega_col * t
        rho_prev = rho
    else:
        retire([maxiter] * len(live), maxiter, (), ())
    return out, info, iterations


def _linear_part(f, nodes):
    """The linear function of beta through f[..., 0] at -1 and f[..., -1]
    at +1, per row of a stack."""
    return f[..., :1] * (1.0 - nodes) / 2.0 + f[..., -1:] * (1.0 + nodes) / 2.0


def _solve_policy(equations, tol):
    """Solve the policy equations (I - gamma*M_q) v = per_node of a list
    of (stencil, q, per_node, x0) of one grid size in lockstep, against
    tol, one bound per equation.

    Returns, per equation, (v, certificate, iterations, method); the
    certificate ||per_node - A v|| / (1-gamma) bounds ||v - v_q||
    (Puterman 1994, ch. 6).  Every equation tries BiCGSTAB, whose iterate
    is kept only when it converged and its certificate meets min(tol,
    default_tolerance(gamma)); otherwise LU re-solves that system alone
    into the same stack, counted as one iteration.  Rows of either method
    are certified in the stack, whose product is each system's own.

    BiCGSTAB starts exact on the two slowest modes.  Linear functions of beta
    are eigenvectors of A with eigenvalue 1 - gamma: rows of M sum to 1,
    interpolation keeps linear functions and the belief is a martingale.  Row
    0 of M is a unit row (certainty absorbs), row n-1 one up to locate(1.0)'s
    rounding (2e-14 at N 801), so the vectors that vanish at both ends form a
    complement invariant up to it.  The start linear(per_node)/(1-gamma), plus
    x0 - linear(x0) given x0, leaves a residual in it, which deflates both
    modes (Saad, Iterative Methods for Sparse Linear Systems, 2003).
    """
    if not equations:
        return []
    A = _PolicySystem.stack([st.policy_system(q) for st, q, _, _ in equations])
    gamma = np.array(A.gammas)
    # a stack of one is a view, so a single solve copies nothing
    b = np.stack([per_node for _, _, per_node, _ in equations]) if len(equations) > 1 \
        else equations[0][2][None]
    nodes = equations[0][0].grid.nodes
    start = _linear_part(b, nodes) / (1.0 - gamma)[:, None]
    for i, (_, _, _, x0) in enumerate(equations):
        if x0 is not None:
            start[i] += x0 - _linear_part(x0, nodes)
    v, info, iterations = _bicgstab(A, b, x0=start, rtol=_KRYLOV_RTOL, maxiter=_KRYLOV_MAXITER)

    def certificate():
        return np.max(np.abs(b - A @ v), axis=1) / (1.0 - gamma)

    cert = certificate()
    missed = (info != 0) | ~(cert <= np.minimum(tol, [default_tolerance(g) for g in gamma]))
    if missed.any():
        for i in np.flatnonzero(missed):
            v[i] = A[[i]].lu_solve(b[i])
        iterations[missed] = 1
        cert = certificate()
    return [(v[i], float(cert[i]), int(iterations[i]),
             "LU after BiCGSTAB" if missed[i] else "BiCGSTAB") for i in range(len(b))]


def bellman_backup(v: ValueFunction, prob: DiscountedProblem) -> ValueFunction:
    """One application of the Bellman operator to v on its own grid."""
    st = _stencil(prob, v.grid)
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
    gamma = prob.gamma
    tol = _resolve_tol(gamma, tol)
    st = _stencil(prob, grid)
    v = np.zeros(grid.n_points)
    if gamma == 0.0:
        # the operator ignores its argument, so one sweep is exact
        return ValueFunction(grid, st.backup(v)), 1
    if max_sweeps is None:
        max_sweeps = max(50, int(10.0 * math.log(1.0 / min(tol, 1.0)) / (1.0 - gamma)) + 10)
    diff = math.inf
    for k in range(1, max_sweeps + 1):
        v2 = st.backup(v)
        diff = float(np.max(np.abs(v2 - v)))
        v = v2
        if diff < tol:
            return ValueFunction(grid, v), k
    raise IterationLimit(
        f"value iteration did not reach tol={tol:g} in {max_sweeps} sweeps",
        iterations=max_sweeps,
        residual=diff,
    )


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


def _check_certificate(cert, tol, subject, context="", iterations=None):
    """Raise IterationLimit when the certified error of `subject` exceeds tol."""
    if cert > tol:
        msg = f"{context}certified error {cert:.3g} of {subject} exceeds tol={tol:g}"
        raise IterationLimit(msg, iterations=iterations, residual=cert)


def _policy_equation(prob, policy, x0=None):
    """The equation policy_evaluation solves for `policy`, warm-started
    from the value x0 on its grid, as _solve_policy takes it."""
    if x0 is not None and x0.grid != policy.grid:
        raise ValueError("x0 must lie on the policy's grid")
    st = _stencil(prob, policy.grid)
    return st, policy.q, st.policy_reward(policy.q), None if x0 is None else x0.values


def _certified_solves(equations, tol, what):
    """Solve v = per_node + gamma * M_pi v for each (stencil, q, per_node,
    x0) equation of one grid size, in lockstep by _solve_policy, and
    certify each against tol: per equation its ValueFunction, or the
    IterationLimit it raises when its certificate misses tol."""
    tols = [_resolve_tol(st.prob.gamma, tol) for st, _, _, _ in equations]
    values = []
    for (st, _, _, _), t, (v, cert, iterations, how) in zip(
        equations, tols, _solve_policy(equations, tols)
    ):
        try:
            _check_certificate(cert, t, f"the {how} solve", f"{what}: ", iterations)
            values.append(ValueFunction(st.grid, v))
        except IterationLimit as exc:
            values.append(exc)
    return values


def _certified_solve(equation, tol, what):
    """The value of one equation by _certified_solves; raises its
    IterationLimit."""
    (value,) = _certified_solves([equation], tol, what)
    if isinstance(value, IterationLimit):
        raise value
    return value


def policy_evaluation(
    prob: DiscountedProblem,
    policy: PolicyTable,
    tol: float | None = None,
    method: str = "direct",
    *,
    x0: ValueFunction | None = None,
) -> ValueFunction:
    """Discounted value of a fixed (possibly stochastic) policy.

    Solves the sparse linear system (I - gamma*M)v = r by BiCGSTAB, with
    sparse LU as the fallback, and certifies the result by the residual bound
    ||v - v_pi|| <= ||r - (I - gamma*M)v|| / (1-gamma).  Raises
    IterationLimit when that bound misses tol (default
    default_tolerance(gamma)).

    `x0`, a value on the policy's grid such as the optimal value, is a
    warm start for BiCGSTAB; the result is certified the same way.
    There is one method.  `method` accepts only "direct", its name,
    because callers such as benchmarks/selftest.py pass it; any other
    value raises ValueError.
    """
    if method != "direct":
        raise ValueError(f"unknown method {method!r}")
    return _certified_solve(_policy_equation(prob, policy, x0), tol, "policy evaluation")


def evaluate_cost(
    prob: DiscountedProblem,
    policy: PolicyTable,
    cost,
    tol: float | None = None,
) -> ValueFunction:
    """Cumulative discounted cost of an arbitrary per-belief one-step cost.

    `cost` is either an array with one entry per node or a callable
    applied to the node vector; costs that depend on the policy should be
    supplied already mixed.  The result is the fixed point of
    C = cost + gamma * M_pi C and is linear in the cost argument.  It is
    solved and certified against tol by the one direct solve of
    policy_evaluation.
    """
    st = _stencil(prob, policy.grid)
    c = _resolve_costs(cost, policy.grid)
    return _certified_solve((st, policy.q, c, None), tol, "cost evaluation")


def policy_iteration(
    prob: DiscountedProblem,
    grid: BeliefGrid,
    max_rounds: int | None = None,
):
    """Howard policy iteration with direct-solve evaluations.

    Starts from the myopic policy and alternates exact evaluation with
    the greedy step of extract_greedy_policy, the clear-lead rule with
    the myopic fallback, until the policy stops changing.  That step
    reads only the value, so the result does not depend on the start,
    and arms with the same law up to rounding, theta_minus = 1 -
    theta_plus, settle instead of flipping on float noise.  Settles in a
    handful of rounds on informative arms and is far cheaper than value
    iteration when gamma is close to 1.  Near a fair coin the boundary
    ends far from the myopic start and moves one or two nodes per round,
    so the default budget is one round per grid node.  Evaluations use
    the one solve of policy_evaluation, BiCGSTAB warm-started from the
    previous round, until a round falls back to LU; every later round
    solves its system by LU directly.

    Returns (ValueFunction, PolicyTable, rounds).  The value is the grid
    optimum up to the error of the linear solves; certify_optimal bounds
    that error by one more Bellman backup.
    """
    if max_rounds is None:
        max_rounds = grid.n_points
    st = _stencil(prob, grid)
    tol = default_tolerance(prob.gamma)
    qd = st.greedy(np.zeros(grid.n_points))
    v, how = None, "BiCGSTAB"
    for k in range(1, max_rounds + 1):
        # the next policy differs in a few nodes, so a miss predicts a miss
        if how == "BiCGSTAB":
            ((v, _, _, how),) = _solve_policy([(st, qd, st.policy_reward(qd), v)], [tol])
        else:
            v = st.policy_system(qd).lu_solve(st.policy_reward(qd))
        qd2 = st.greedy(v)
        if np.array_equal(qd2, qd):
            return ValueFunction(grid, v), PolicyTable(grid, qd), k
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
    st = _stencil(prob, v.grid)
    bound = float(np.max(np.abs(st.backup(v.values) - v.values))) / (1.0 - prob.gamma)
    _check_certificate(bound, tol, "the optimal value")
    return bound


def _optimal_solve(prob, grid, tol):
    """The certified grid optimum (value, policy, rounds, bound):
    policy_iteration, then certify_optimal against tol; raises
    IterationLimit when either fails.  The last (prob, grid, resolved
    tol) is kept read-only, so the rows of an alpha sweep and a tol of
    None or its default share one solve; a failure is not kept."""
    return _certified_optimum(prob, grid, _resolve_tol(prob.gamma, tol))


@lru_cache(maxsize=1)
def _certified_optimum(prob, grid, tol):
    v, policy, rounds = policy_iteration(prob, grid)
    bound = certify_optimal(prob, v, tol)
    v.values.flags.writeable = False
    policy.q.flags.writeable = False
    return v, policy, rounds, bound


def policy_transition(prob: DiscountedProblem, policy: PolicyTable):
    """Row-stochastic sparse transition matrix of the belief chain under
    the policy, with interpolation weights as sub-transitions.

    The CSR stores only the entries of the arms the policy plays, so the
    idle arm of a pure node leaves no explicit zero; an entry whose
    interpolation weight or predictive probability is zero may still be
    stored."""
    return _stencil(prob, policy.grid).policy_system(policy.q).transition()


def mdp_value(prob: DiscountedProblem, beta):
    """Value of a fully informed player, averaged over the belief.

    Linear in beta: [(1-beta)*max_a r(-1,a) + (1+beta)*max_a r(+1,a)] / (2*(1-gamma)).
    """
    best_m = max(win_prob(prob.spec, -1, -1), win_prob(prob.spec, -1, 1))
    best_p = max(win_prob(prob.spec, 1, -1), win_prob(prob.spec, 1, 1))
    b = _check_beta(beta) if np.ndim(beta) == 0 else np.asarray(beta, dtype=float)
    return ((1.0 - b) / 2.0 * best_m + (1.0 + b) / 2.0 * best_p) / (1.0 - prob.gamma)


def regret_curve(prob: DiscountedProblem, v: ValueFunction) -> ValueFunction:
    """Shortfall of v against the fully informed reference, node by node."""
    return ValueFunction(v.grid, mdp_value(prob, v.grid.nodes) - v.values)


def extract_greedy_policy(prob: DiscountedProblem, v: ValueFunction) -> PolicyTable:
    """Greedy policy of v by the step policy_iteration improves with: the
    clear-lead rule with the myopic fallback of _Stencil.greedy."""
    st = _stencil(prob, v.grid)
    return PolicyTable(v.grid, st.greedy(v.values))


def decision_boundary(policy: PolicyTable) -> float:
    """Midpoint between the two nodes where the preferred action flips.

    Raises NoBoundary or MultipleBoundaries when the flip count is not
    exactly one; nodes with q = 0.5 count as preferring +1.
    PolicyTable.boundary reads this, with None in place of either error.
    """
    pref = policy.q >= 0.5
    flips = np.nonzero(pref[1:] != pref[:-1])[0]
    if len(flips) == 0:
        raise NoBoundary("policy never switches preferred action")
    if len(flips) > 1:
        raise MultipleBoundaries(
            f"policy switches preferred action {len(flips)} times"
        )
    i = int(flips[0])
    return float((policy.grid.nodes[i] + policy.grid.nodes[i + 1]) / 2.0)


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
