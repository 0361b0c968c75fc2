"""Closed-form solutions and asymptotics for the two tractable subclasses."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from artifact.analytic import (
    FitResult,
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
from artifact.bandit import BanditSpec
from artifact.errors import DegenerateTheta, InsufficientSamples
from artifact.solver import (
    BeliefGrid,
    DiscountedProblem,
    bellman_apply,
    reachable_beliefs,
    value_iteration,
)


class TestExponents:
    def test_known_pair(self):
        zp, zm = zeta_exponents(0.7, 0.9)
        assert zp == pytest.approx(-0.256092, abs=1e-6)
        assert zm == pytest.approx(1.256092, abs=1e-6)

    def test_characteristic_equation_on_grid(self):
        """Both exponents satisfy (1-t)^z t^(1-z) + t^z (1-t)^(1-z) = 1/gamma."""
        for theta in np.linspace(0.52, 0.98, 20):
            for gamma in np.linspace(0.05, 0.99, 20):
                for z in zeta_exponents(theta, gamma):
                    lhs = (1 - theta) ** z * theta ** (1 - z) + theta**z * (
                        1 - theta
                    ) ** (1 - z)
                    assert lhs == pytest.approx(1.0 / gamma, rel=1e-10)

    def test_exponents_sum_to_one(self):
        for theta in (0.55, 0.7, 0.9):
            for gamma in (0.3, 0.9, 0.999):
                zp, zm = zeta_exponents(theta, gamma)
                assert zp + zm == pytest.approx(1.0, abs=1e-12)
                assert zp < 0.0 < 1.0 < zm

    def test_agrees_with_root_finder(self):
        def eq(z, theta, gamma):
            return (
                (1 - theta) ** z * theta ** (1 - z)
                + theta**z * (1 - theta) ** (1 - z)
                - 1.0 / gamma
            )

        for theta, gamma in [(0.55, 0.9), (0.7, 0.99), (0.85, 0.6)]:
            zp, zm = zeta_exponents(theta, gamma)
            assert zp == pytest.approx(brentq(eq, -50.0, 0.0, args=(theta, gamma)), abs=1e-9)
            assert zm == pytest.approx(brentq(eq, 1.0, 50.0, args=(theta, gamma)), abs=1e-9)

    def test_degenerate_parameters_rejected(self):
        with pytest.raises(DegenerateTheta):
            zeta_exponents(0.5, 0.9)
        with pytest.raises(DegenerateTheta):
            zeta_exponents(1.0, 0.9)
        with pytest.raises(ValueError):
            zeta_exponents(0.7, 1.0)
        with pytest.raises(ValueError):
            zeta_exponents(0.7, 0.0)


class TestSymmetricValue:
    def test_beta_outside_range_rejected(self):
        # NaN compares False, so a check written as `|beta| > 1` would pass it
        sol = fair_coin_solution(0.7, 0.99)
        for beta in (1.5, -1.5, math.nan):
            with pytest.raises(ValueError):
                symmetric_value(0.7, 0.9, beta)
            with pytest.raises(ValueError):
                fair_coin_value(sol, beta)

    def test_certainty_boundary_condition(self):
        for theta, gamma in [(0.55, 0.9), (0.7, 0.99), (0.9, 0.5)]:
            want = theta / (1.0 - gamma)
            assert symmetric_value(theta, gamma, 1.0) == pytest.approx(want, abs=1e-10)
            assert symmetric_value(theta, gamma, -1.0) == pytest.approx(want, abs=1e-10)

    def test_even_in_beta(self):
        for beta in np.linspace(0.0, 1.0, 21):
            lhs = symmetric_value(0.7, 0.9, beta)
            rhs = symmetric_value(0.7, 0.9, -beta)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_finite_and_continuous(self):
        betas = np.linspace(-1.0, 1.0, 50)
        vals = np.array([symmetric_value(0.7, 0.99, b) for b in betas])
        assert np.all(np.isfinite(vals))
        assert np.max(np.abs(np.diff(vals))) < 1.0

    def test_branches_join_at_origin(self):
        eps = 1e-9
        left = symmetric_value(0.7, 0.9, -eps)
        right = symmetric_value(0.7, 0.9, eps)
        assert left == pytest.approx(right, abs=1e-8)

    def test_fixed_point_of_exact_backup(self):
        """The closed form must reproduce itself under one exact backup at
        beliefs the dynamics can actually visit."""
        for theta in (0.55, 0.7):
            for gamma in (0.9, 0.99):
                spec = BanditSpec(theta, theta)
                prob = DiscountedProblem(spec, gamma)
                pts = reachable_beliefs(spec, 0.0, 6)
                worst = max(
                    abs(
                        bellman_apply(prob, lambda b: symmetric_value(theta, gamma, b), b0)
                        - symmetric_value(theta, gamma, b0)
                    )
                    for b0 in pts
                )
                assert worst < 1e-6

    def test_matches_grid_solver_at_reachable_beliefs(self):
        prob = DiscountedProblem(BanditSpec(0.7, 0.7), 0.99)
        grid = BeliefGrid(2001)
        v, _ = value_iteration(prob, grid)
        for b in reachable_beliefs(prob.spec, 0.0, 6):
            ana = symmetric_value(0.7, 0.99, b)
            assert abs(v(b) - ana) / abs(ana) <= 1e-3


class TestSymmetricRegret:
    def test_limit_values(self):
        assert symmetric_regret_limit(0.55) == pytest.approx(5.0)
        assert symmetric_regret_limit(0.75) == pytest.approx(1.0)
        assert symmetric_regret_limit(0.999) == pytest.approx(0.5, abs=1e-2)
        with pytest.raises(DegenerateTheta):
            symmetric_regret_limit(0.5)

    def test_uniform_regret_approaches_limit(self):
        got = symmetric_regret_at_uniform(0.55, 0.9999)
        assert abs(got - 5.0) / 5.0 <= 0.02

    def test_uniform_regret_matches_grid_solver(self):
        prob = DiscountedProblem(BanditSpec(0.7, 0.7), 0.99)
        grid = BeliefGrid(2001)
        v, _ = value_iteration(prob, grid)
        from artifact.solver import mdp_value

        dp = mdp_value(prob, 0.0) - v(0.0)
        ana = symmetric_regret_at_uniform(0.7, 0.99)
        assert dp == pytest.approx(ana, rel=2e-3)

    def test_linear_coefficient_values(self):
        """c(theta) = 3 theta (1-theta) / (2 theta - 1)^3."""
        assert symmetric_regret_linear_coeff(0.55) == pytest.approx(742.5, rel=1e-10)
        assert symmetric_regret_linear_coeff(0.7) == pytest.approx(9.84375, rel=1e-10)
        assert symmetric_regret_linear_coeff(0.8) == pytest.approx(2.2222222222, rel=1e-9)

    def test_linear_coefficient_matches_exact_slope(self):
        """Finite differences of the exact closed form recover the
        first-order coefficient in (1-gamma)."""
        for theta in (0.55, 0.7, 0.8):
            c = symmetric_regret_linear_coeff(theta)
            r0 = symmetric_regret_limit(theta)
            eps = 1e-6
            slope = (symmetric_regret_at_uniform(theta, 1.0 - eps) - r0) / eps
            assert slope == pytest.approx(-c, rel=1e-3)

    def test_no_logarithmic_term(self):
        """Samples from the exact curve fit with a vanishing log coefficient."""
        theta = 0.55
        samples = [
            (1.0 - eps, symmetric_regret_at_uniform(theta, 1.0 - eps))
            for eps in (1e-4, 1e-5, 1e-6)
        ]
        fit = fit_log_regret_expansion(samples)
        assert abs(fit.c2) <= 0.01 * abs(fit.c1)


class TestFairCoin:
    def test_boundary_values(self):
        assert fair_coin_solution(0.55, 0.99).beta_c == pytest.approx(-0.576385, abs=1e-6)
        assert fair_coin_solution(0.7, 0.99).beta_c == pytest.approx(-0.945331, abs=1e-6)

    def test_boundary_always_negative(self):
        for tp in (0.55, 0.6, 0.7, 0.8, 0.9):
            for gamma in (0.5, 0.9, 0.99):
                sol = fair_coin_solution(tp, gamma)
                assert -1.0 < sol.beta_c < 0.0

    def test_left_branch_is_fair_coin_annuity(self):
        sol = fair_coin_solution(0.7, 0.99)
        want = 0.5 / (1.0 - 0.99)
        for beta in (-1.0, -0.99, sol.beta_c - 1e-6):
            assert fair_coin_value(sol, beta) == pytest.approx(want, abs=1e-9)

    def test_branches_join_at_boundary(self):
        for tp, gamma in [(0.55, 0.99), (0.7, 0.99), (0.8, 0.9)]:
            sol = fair_coin_solution(tp, gamma)
            left = fair_coin_value(sol, sol.beta_c - 1e-12)
            right = fair_coin_value(sol, sol.beta_c + 1e-12)
            assert left == pytest.approx(right, abs=1e-6)

    def test_certainty_value(self):
        sol = fair_coin_solution(0.7, 0.99)
        assert fair_coin_value(sol, 1.0) == pytest.approx(0.7 / 0.01, abs=1e-8)

    def test_right_branch_dominates_annuity(self):
        sol = fair_coin_solution(0.7, 0.99)
        fair = 0.5 / 0.01
        for beta in np.linspace(sol.beta_c + 0.01, 1.0, 25):
            assert fair_coin_value(sol, beta) >= fair - 1e-9

    def test_degenerate_parameters_rejected(self):
        with pytest.raises(DegenerateTheta):
            fair_coin_solution(0.5, 0.9)
        with pytest.raises(DegenerateTheta):
            fair_coin_solution(1.0, 0.9)


class TestExpansionFit:
    def test_constant_samples(self):
        samples = [(1e-2, 3.0), (1e-3, 3.0), (1e-4, 3.0)]
        fit = fit_log_regret_expansion(samples)
        assert fit.c1 == pytest.approx(3.0, abs=1e-9)
        assert fit.c2 == pytest.approx(0.0, abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0)

    def test_recovers_synthetic_coefficients(self):
        c1, c2 = 2.5, -0.7
        samples = [
            (1.0 - x, c1 + c2 * math.log(x)) for x in (1e-1, 1e-2, 1e-3, 1e-4)
        ]
        fit = fit_log_regret_expansion(samples)
        assert fit.c1 == pytest.approx(c1, abs=1e-9)
        assert fit.c2 == pytest.approx(c2, abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_requires_three_distinct_samples(self):
        with pytest.raises(InsufficientSamples):
            fit_log_regret_expansion([(1e-2, 1.0), (1e-3, 2.0)])
        with pytest.raises(InsufficientSamples):
            fit_log_regret_expansion([(1e-2, 1.0), (1e-2, 1.0), (1e-2, 1.0)])

    def test_higher_order_fit_with_six_samples(self):
        xs = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3, 3e-4)
        samples = [(1.0 - x, 1.0 - 0.5 * math.log(x) + 2.0 * x) for x in xs]
        fit = fit_log_regret_expansion(samples)
        assert fit.higher is not None
        assert len(fit.higher) == 5
        # constant, log, and linear terms should be recovered closely
        assert fit.higher[0] == pytest.approx(1.0, abs=1e-6)
        assert fit.higher[1] == pytest.approx(-0.5, abs=1e-6)
        assert fit.higher[2] == pytest.approx(2.0, abs=1e-4)

    def test_short_sample_set_has_no_higher_fit(self):
        samples = [(1e-2, 3.0), (1e-3, 3.0), (1e-4, 3.0)]
        assert fit_log_regret_expansion(samples).higher is None


class TestSolutionObjects:
    def test_symmetric_solution_fields(self):
        sol = symmetric_solution(0.7, 0.9)
        assert sol.theta == 0.7 and sol.gamma == 0.9
        zp, zm = zeta_exponents(0.7, 0.9)
        assert sol.zeta_plus == zp and sol.zeta_minus == zm
        assert sol.C > 0.0

    def test_fair_solution_fields(self):
        sol = fair_coin_solution(0.7, 0.99)
        assert sol.theta_plus == 0.7 and sol.gamma == 0.99
        assert sol.zeta_minus > 1.0
        assert sol.C > 0.0
