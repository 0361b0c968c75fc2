"""Two-state two-armed Bernoulli bandit: problem data and belief arithmetic.

The environment hides a static state s in {-1, +1}.  Pulling arm a in
{-1, +1} returns a Bernoulli reward that pays 1 with probability theta_a
when s = a and with probability 1 - theta_a otherwise, so each arm is the
better one exactly in its namesake state.  Beliefs over the hidden state
are a single number beta in [-1, 1] through b(s) = (1 + s*beta) / 2.

The belief arithmetic lives here, for arrays: `posterior` is the one Bayes
update (predictive probability and posterior belief) that the solver and
the IDS modules run over whole grids, and `regret_gap`, `entropy` and
`mutual_information` also accept arrays.  The remaining helpers are
checked scalar functions; `obs_prob`, `expected_reward` and
`belief_update` wrap `posterior`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ZeroLikelihood

__all__ = [
    "BanditSpec",
    "Belief",
    "ActionDistribution",
    "Observation",
    "win_prob",
    "posterior",
    "obs_prob",
    "expected_reward",
    "belief_update",
    "entropy",
    "mutual_information",
    "regret_gap",
    "one_step_regret",
]


@dataclass(frozen=True)
class BanditSpec:
    """Win probabilities of the two arms in their namesake states."""

    theta_minus: float
    theta_plus: float

    def __post_init__(self):
        for name in ("theta_minus", "theta_plus"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")

    def theta(self, a: int) -> float:
        return self.theta_plus if a == 1 else self.theta_minus

    def bias(self, a: int) -> float:
        """2*theta_a - 1, the edge of arm a over a fair coin."""
        return 2.0 * self.theta(a) - 1.0

    @property
    def bias_minus(self) -> float:
        return 2.0 * self.theta_minus - 1.0

    @property
    def bias_plus(self) -> float:
        return 2.0 * self.theta_plus - 1.0

    @property
    def symmetric(self) -> bool:
        return self.theta_minus == self.theta_plus


@dataclass(frozen=True)
class Belief:
    """Belief over the hidden state, parametrized by beta in [-1, 1]."""

    beta: float

    def __post_init__(self):
        if not -1.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must lie in [-1, 1], got {self.beta}")

    def prob(self, s: int) -> float:
        """b(s) = (1 + s*beta) / 2."""
        return (1.0 + s * self.beta) / 2.0


@dataclass(frozen=True)
class ActionDistribution:
    """Stochastic action choice; q is the probability of playing +1."""

    q: float

    def __post_init__(self):
        if not 0.0 <= self.q <= 1.0:
            raise ValueError(f"q must lie in [0, 1], got {self.q}")

    def prob(self, a: int) -> float:
        return self.q if a == 1 else 1.0 - self.q


@dataclass(frozen=True)
class Observation:
    """Binary outcome of one pull; the reward equals the outcome."""

    y: int

    def __post_init__(self):
        if self.y not in (0, 1):
            raise ValueError(f"y must be 0 or 1, got {self.y}")

    @property
    def reward(self) -> float:
        return float(self.y)


def _check_sign(name, v):
    if v not in (-1, 1):
        raise ValueError(f"{name} must be -1 or +1, got {v}")


def _check_outcome(y):
    if isinstance(y, Observation):
        return y.y
    if y not in (0, 1):
        raise ValueError(f"y must be 0 or 1, got {y}")
    return y


def _check_beta(b):
    """Belief values may arrive as Belief objects or bare floats."""
    if isinstance(b, Belief):
        return b.beta
    b = float(b)
    if not -1.0 <= b <= 1.0:
        raise ValueError(f"beta must lie in [-1, 1], got {b}")
    return b


def win_prob(spec: BanditSpec, s: int, a: int) -> float:
    """Probability of a unit reward from arm a in state s."""
    _check_sign("s", s)
    _check_sign("a", a)
    th = spec.theta(a)
    return th if s == a else 1.0 - th


def posterior(spec: BanditSpec, beliefs, a: int, y: int):
    """Predictive probability and Bayes posterior of outcome y from arm a,
    elementwise over an array of beliefs; returns (p, beta').

    p = [1 + a*(2y-1)*beta*(2*theta_a-1)] / 2 and beta' = (beta +
    a*(2y-1)*(2*theta_a-1)) / (2p), clamped to [-1, 1] to absorb last-bit
    rounding.  Where p <= 0 the outcome is impossible and beta' = beta.
    The beliefs are not range-checked.
    """
    b = np.asarray(beliefs, dtype=float)
    c, d = a * (2 * y - 1), spec.bias(a)
    p = (1.0 + c * b * d) / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        bp = np.where(p > 0.0, (b + c * d) / np.maximum(2.0 * p, 1e-300), b)
    return p, np.clip(bp, -1.0, 1.0)


def obs_prob(spec: BanditSpec, beta: float, a: int, y: int) -> float:
    """Predictive probability of outcome y under belief beta when playing a."""
    _check_sign("a", a)
    y = _check_outcome(y)
    return float(posterior(spec, _check_beta(beta), a, y)[0])


def expected_reward(spec: BanditSpec, beta: float, a: int) -> float:
    """Expected immediate reward of arm a under belief beta: p_b(1|a)."""
    return obs_prob(spec, beta, a, 1)


def belief_update(spec: BanditSpec, beta: float, a: int, y: int) -> float:
    """Bayes posterior belief after observing outcome y from arm a.

    Raises ZeroLikelihood when the observation has probability zero, which
    can only happen for deterministic arms (theta_a in {0, 1}) combined
    with a contradicting certain belief.
    """
    _check_sign("a", a)
    y = _check_outcome(y)
    beta = _check_beta(beta)
    p, bp = posterior(spec, beta, a, y)
    if p <= 0.0:
        raise ZeroLikelihood(
            f"observation y={y} from arm a={a} has probability zero at beta={beta}"
        )
    return float(bp)


def _xlogx(x):
    """x*log(x) elementwise, 0 at x = 0 and NaN below 0 or at NaN.

    The log is libm's, through math.log, as in scipy's xlogy: numpy's own
    log differs from it in the last bit on a few inputs per thousand.
    Only the positive entries reach math.log, so nothing warns.
    """
    out = np.where(x == 0.0, 0.0, np.nan)
    pos = x > 0.0
    xp = x[pos]
    out[pos] = xp * np.fromiter(map(math.log, xp.tolist()), float, count=xp.size)
    return out


def entropy(beta):
    """Shannon entropy of the belief in nats, with 0*log(0) taken as 0.

    Accepts a scalar, a Belief, or an ndarray of beta values; lies in
    [0, log 2].  Beta outside [-1, 1] gives NaN.
    """
    if isinstance(beta, Belief):
        beta = beta.beta
    b = np.asarray(beta, dtype=float)
    bm = (1.0 - b) / 2.0
    bp = (1.0 + b) / 2.0
    h = -_xlogx(bm) - _xlogx(bp) + 0.0
    if np.ndim(beta) == 0:
        return float(h)
    return h


def mutual_information(spec: BanditSpec, beta, a: int):
    """Mutual information (nats) between the state and one outcome of arm
    a, at a scalar belief or elementwise over an array of beliefs.

    Computed as the exact four-term sum
    sum_{s,y} b(s) p(y|s,a) log[p(y|s,a) / p_b(y|a)], skipping zero terms.
    A ratio near 1 is logged as log1p(u / p_b(y|a)) of the exact difference
    u = p(y|s,a) - p_b(y|a) = c*d*(s - beta)/2, with c = a*(2y-1) and
    d = 2*theta_a - 1.  The terms are summed in the order of (c, s), so
    matched arms give the two arms bit-identical information.
    """
    _check_sign("a", a)
    # a scalar goes through a 0-d array too: a zero or subnormal p_b then
    # divides under errstate rather than raising ZeroDivisionError
    b = np.asarray(_check_beta(beta) if np.ndim(beta) == 0 else beta, dtype=float)
    th, d = spec.theta(a), spec.bias(a)
    bs = {-1: (1.0 - b) / 2.0, 1: (1.0 + b) / 2.0}
    out = 0.0
    with np.errstate(all="ignore"):
        for c in (-1, 1):
            pys = {s: th if c * s == 1 else 1.0 - th for s in (-1, 1)}
            # a sum of positive terms: (1 + c*beta*d)/2 cancels near |beta| = 1
            pb = bs[-1] * pys[-1] + bs[1] * pys[1]
            for s in (-1, 1):
                x = c * d * (s - b) / 2.0 / pb
                # far from 1 the plain ratio keeps a tiny p(y|s) that x rounds away
                log_ratio = np.where(x > -0.5, np.log1p(x), np.log(pys[s] / pb))
                keep = (pb > 0.0) & (bs[s] > 0.0) & (pys[s] > 0.0)
                out = out + np.where(keep, bs[s] * pys[s] * log_ratio, 0.0)
    # information is nonnegative; rounding can leave a tiny negative residue
    out = np.maximum(out, 0.0)
    return float(out) if np.ndim(beta) == 0 else out


def regret_gap(spec: BanditSpec, beta, a: int):
    """Expected shortfall of arm a against the state-wise best arm, at a
    scalar belief or elementwise over an array of beliefs."""
    _check_sign("a", a)
    b = _check_beta(beta) if np.ndim(beta) == 0 else np.asarray(beta, dtype=float)
    gap = 0.0
    for s in (-1, 1):
        best = max(win_prob(spec, s, -1), win_prob(spec, s, 1))
        gap = gap + (1.0 + s * b) / 2.0 * (best - win_prob(spec, s, a))
    return gap


def _check_q(dist):
    """Probability of arm +1 from an ActionDistribution or a bare float."""
    q = dist.q if isinstance(dist, ActionDistribution) else float(dist)
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0, 1], got {q}")
    return q


def one_step_regret(spec: BanditSpec, beta: float, dist) -> float:
    """One-step regret of a mixed action under belief beta.

    `dist` is an ActionDistribution or the bare probability of arm +1.
    Affine in q by construction: (1-q)*gap(-1) + q*gap(+1).
    """
    q = _check_q(dist)
    beta = _check_beta(beta)
    return (1.0 - q) * regret_gap(spec, beta, -1) + q * regret_gap(spec, beta, 1)
