"""Closed forms for two solvable subclasses of the belief problem.

Symmetric arms (theta_minus = theta_plus = theta > 1/2): the optimal
value is the greedy branch value plus a power-law correction whose
exponents zeta solve

    (1-theta)^zeta * theta^(1-zeta) + theta^zeta * (1-theta)^(1-zeta) = 1/gamma,

a pair summing to one.  One arm fair (theta_minus = 1/2): below a
negative boundary beta_c the fair arm is played forever and the value is
constant; above it the biased arm's branch carries the same kind of
power-law correction, matched continuously at beta_c.

These formulas act as oracles for the grid solver.  Everything here is
a plain function of (theta, gamma); the two singular endpoints
theta = 1/2 and theta = 1 raise DegenerateTheta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bandit import _check_beta
from .errors import DegenerateTheta, InsufficientSamples

__all__ = [
    "SymmetricSolution",
    "FairCoinSolution",
    "FitResult",
    "zeta_exponents",
    "symmetric_solution",
    "symmetric_value",
    "symmetric_regret_at_uniform",
    "symmetric_regret_limit",
    "symmetric_regret_linear_coeff",
    "fair_coin_solution",
    "fair_coin_value",
    "fit_log_regret_expansion",
]


def _check_theta(theta):
    """The closed forms' rule: theta strictly between 1/2 and 1."""
    if not 0.5 < theta < 1.0:
        raise DegenerateTheta(f"theta must lie strictly between 1/2 and 1, got {theta}")


def _check_theta_gamma(theta, gamma):
    _check_theta(theta)
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")


@dataclass(frozen=True)
class SymmetricSolution:
    """Exponents and amplitude of the symmetric closed form."""

    theta: float
    gamma: float
    zeta_plus: float
    zeta_minus: float
    C: float


@dataclass(frozen=True)
class FairCoinSolution:
    """Boundary and right-branch amplitude when the minus arm is fair."""

    theta_plus: float
    gamma: float
    zeta_minus: float
    beta_c: float
    C: float


def zeta_exponents(theta: float, gamma: float):
    """The two exponents solving the defining transcendental equation.

    zeta_pm = log[(1 +- sqrt(1 - 4 gamma^2 theta(1-theta))) / (2 gamma theta)]
              / log[(1-theta)/theta].

    For theta > 1/2 the log ratio is negative, which makes zeta_plus < 0
    and zeta_minus > 1; the pair always sums to one.
    """
    _check_theta_gamma(theta, gamma)
    disc = 1.0 - 4.0 * gamma**2 * theta * (1.0 - theta)
    sq = math.sqrt(disc)
    lr = math.log((1.0 - theta) / theta)
    zp = math.log((1.0 + sq) / (2.0 * gamma * theta)) / lr
    zm = math.log((1.0 - sq) / (2.0 * gamma * theta)) / lr
    return zp, zm


def symmetric_solution(theta: float, gamma: float) -> SymmetricSolution:
    zp, zm = zeta_exponents(theta, gamma)
    disc = 1.0 - 4.0 * gamma**2 * theta * (1.0 - theta)
    c = gamma * (1.0 - 2.0 * theta) ** 2 / ((1.0 - gamma) * math.sqrt(disc))
    return SymmetricSolution(theta, gamma, zp, zm, c)


def symmetric_value(theta: float, gamma: float, beta: float) -> float:
    """Optimal value of the symmetric problem at belief beta.

    v(beta) = (1 + |beta| (2 theta - 1)) / (2 (1 - gamma))
              + (C/2) (1 - |beta|)^zeta_minus (1 + |beta|)^(1 - zeta_minus),

    even in beta.  The correction vanishes at |beta| = 1 (zeta_minus > 1),
    so the certainty value theta/(1-gamma) is met exactly.
    """
    sol = symmetric_solution(theta, gamma)
    u = abs(_check_beta(beta))
    main = (1.0 + u * (2.0 * theta - 1.0)) / (2.0 * (1.0 - gamma))
    corr = (sol.C / 2.0) * (1.0 - u) ** sol.zeta_minus * (1.0 + u) ** (1.0 - sol.zeta_minus)
    return main + corr


def symmetric_regret_at_uniform(theta: float, gamma: float) -> float:
    """Optimal regret at beta = 0 in closed form.

    Subtracting the closed-form value from theta/(1-gamma) gives
    delta/(2(1-gamma)) * [1 - gamma*delta/sqrt(1 - 4 gamma^2 theta(1-theta))]
    with delta = 2 theta - 1.
    """
    _check_theta_gamma(theta, gamma)
    d = 2.0 * theta - 1.0
    disc = 1.0 - 4.0 * gamma**2 * theta * (1.0 - theta)
    return d / (2.0 * (1.0 - gamma)) * (1.0 - gamma * d / math.sqrt(disc))


def symmetric_regret_limit(theta: float) -> float:
    """gamma -> 1 limit of the optimal regret at beta = 0: 1/(2 delta)."""
    if not 0.5 < theta <= 1.0:
        raise DegenerateTheta(f"theta must lie in (1/2, 1], got {theta}")
    return 1.0 / (2.0 * (2.0 * theta - 1.0))


def symmetric_regret_linear_coeff(theta: float) -> float:
    """Coefficient c(theta) of the linear term in the expansion
    R(0) = 1/(2 delta) - c(theta) * (1 - gamma) + O((1-gamma)^2).

    Expanding the closed-form regret around gamma = 1 gives
    c(theta) = 3 theta (1 - theta) / (2 theta - 1)^3, positive and
    diverging as theta -> 1/2.
    """
    _check_theta(theta)
    return 3.0 * theta * (1.0 - theta) / (2.0 * theta - 1.0) ** 3


def fair_coin_solution(theta_plus: float, gamma: float) -> FairCoinSolution:
    """Approximate boundary and matched amplitude when the minus arm is fair.

    beta_c = -1/(2 zeta_minus - 1), always in (-1, 0) for theta_plus > 1/2.
    The amplitude is fixed by continuity of the two branches at beta_c:
    C = -2 beta_c (2 theta_plus - 1)
        / [(1-gamma) (1-beta_c)^zeta_minus (1+beta_c)^(1-zeta_minus)].
    """
    _, zm = zeta_exponents(theta_plus, gamma)
    bc = -1.0 / (2.0 * zm - 1.0)
    d = 2.0 * theta_plus - 1.0
    c = -2.0 * bc * d / ((1.0 - gamma) * (1.0 - bc) ** zm * (1.0 + bc) ** (1.0 - zm))
    return FairCoinSolution(theta_plus, gamma, zm, bc, c)


def fair_coin_value(sol: FairCoinSolution, beta: float) -> float:
    """Piecewise value: constant 1/(2(1-gamma)) at and below beta_c, the
    biased arm's corrected branch above it; continuous at beta_c."""
    beta = _check_beta(beta)
    g = sol.gamma
    if beta <= sol.beta_c:
        return 1.0 / (2.0 * (1.0 - g))
    d = 2.0 * sol.theta_plus - 1.0
    main = (1.0 + beta * d) / (2.0 * (1.0 - g))
    if beta == 1.0:
        return main
    corr = sol.C * (1.0 - beta) ** sol.zeta_minus * (1.0 + beta) ** (1.0 - sol.zeta_minus) / 4.0
    return main + corr


@dataclass(frozen=True)
class FitResult:
    """Least-squares fit of R = c1 + c2 * log(1-gamma), optionally extended."""

    c1: float
    c2: float
    rss: float
    r_squared: float
    higher: tuple | None = None


def fit_log_regret_expansion(samples) -> FitResult:
    """Fit regret samples against [1, log(1-gamma)] by least squares.

    `samples` is an iterable of (gamma, regret) pairs; at least three
    distinct gammas are required.  With six or more samples the
    higher-order design [1, L, x, x L, x^2] (x = 1-gamma, L = log x) is
    also fitted and its coefficients reported in `higher`.
    """
    pts = [(float(g), float(r)) for g, r in samples]
    if len({g for g, _ in pts}) < 3:
        raise InsufficientSamples("need at least 3 samples with distinct gamma")
    x = np.array([1.0 - g for g, _ in pts])
    if np.any(x <= 0.0):
        raise ValueError("samples require gamma < 1")
    y = np.array([r for _, r in pts])
    ell = np.log(x)
    design = np.column_stack([np.ones_like(x), ell])
    coef, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    rss = float(resid @ resid)
    tss = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if tss < 1e-30 else 1.0 - rss / tss
    higher = None
    if len(pts) >= 6:
        big = np.column_stack([np.ones_like(x), ell, x, x * ell, x**2])
        hc, _, _, _ = np.linalg.lstsq(big, y, rcond=None)
        higher = tuple(float(c) for c in hc)
    return FitResult(float(coef[0]), float(coef[1]), rss, r2, higher)
