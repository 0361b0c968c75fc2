"""Grid solver: Bellman operator, value iteration, policy evaluation."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from artifact import solver
from artifact.analytic import symmetric_value
from artifact.bandit import BanditSpec, Belief, entropy, expected_reward, one_step_regret
from artifact.errors import IterationLimit, MultipleBoundaries, NoBoundary
from artifact.ids import IdsConfig, ids_policy_on_grid
from artifact.solver import (
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


def solve(tm, tp, gamma, n=2001, tol=None):
    prob = DiscountedProblem(BanditSpec(tm, tp), gamma)
    grid = BeliefGrid(n)
    v, k = value_iteration(prob, grid, tol=tol)
    return prob, grid, v, k


class TestGridAndContainers:
    def test_grid_requires_odd_size(self):
        with pytest.raises(ValueError):
            BeliefGrid(1000)
        with pytest.raises(ValueError):
            BeliefGrid(1)

    def test_grid_requires_an_integer(self):
        # 801.0 passes the parity test and NaN fails every comparison, so
        # both used to pass construction and fail later inside numpy
        for n in (801.5, 801.0, float("nan"), True, "801"):
            with pytest.raises(ValueError, match="odd integer"):
                BeliefGrid(n)
        assert BeliefGrid(np.int64(801)).n_points == 801

    def test_grid_beyond_index_range_is_rejected(self):
        with pytest.raises(ValueError, match=f"at most {np.iinfo(np.intp).max}"):
            BeliefGrid(10**400 + 1)

    def test_grid_geometry(self):
        g = BeliefGrid(5)
        np.testing.assert_allclose(g.nodes, [-1.0, -0.5, 0.0, 0.5, 1.0])
        assert g.spacing == 0.5
        # linspace alone leaves -1.1e-16 at the middle of 2,504 odd grids
        # below 40,000, the first at n 99; the middle node is +0.0 on all
        for n in range(3, 4001, 2):
            middle = BeliefGrid(n).nodes[n // 2]
            assert middle == 0.0 and not np.signbit(middle), n

    def test_interp_is_linear_between_nodes(self):
        g = BeliefGrid(5)
        vals = np.array([0.0, 1.0, 4.0, 9.0, 16.0])
        assert g.interp(vals, -0.75) == pytest.approx(0.5)
        assert g.interp(vals, 0.25) == pytest.approx(6.5)
        assert g.interp(vals, 1.0) == pytest.approx(16.0)

    def test_value_function_validation(self):
        g = BeliefGrid(5)
        with pytest.raises(ValueError):
            ValueFunction(g, np.zeros(4))
        with pytest.raises(ValueError):
            ValueFunction(g, np.array([0.0, 1.0, np.nan, 1.0, 0.0]))

    def test_value_function_checks_a_scalar_belief(self):
        # a scalar goes through the one scalar-belief rule; arrays do not
        v = ValueFunction(BeliefGrid(5), np.arange(5.0))
        for beta in (2.0, -3.0, math.nan):
            with pytest.raises(ValueError, match="beta must lie in"):
                v(beta)
        assert v(Belief(0.5)) == v(0.5) == 3.0
        assert np.array_equal(v(np.array([-2.0, 0.25, 3.0])), [0.0, 2.5, 4.0])

    def test_policy_table_validation(self):
        g = BeliefGrid(5)
        with pytest.raises(ValueError):
            PolicyTable(g, np.full(5, 1.5))
        with pytest.raises(ValueError):
            PolicyTable(g, np.array([np.nan, 0.0, 1.0, 1.0, 1.0]))
        with pytest.raises(ValueError):
            PolicyTable(g, np.zeros(4))

    def test_problem_rejects_gamma_one(self):
        with pytest.raises(ValueError):
            DiscountedProblem(BanditSpec(0.5, 0.5), 1.0)


class TestBellmanOperator:
    def test_zero_value_symmetric_uniform(self):
        prob = DiscountedProblem(BanditSpec(0.7, 0.7), 0.9)
        assert bellman_apply(prob, lambda b: 0.0, 0.0) == pytest.approx(0.5)

    def test_zero_value_fair_coin_certainty(self):
        prob = DiscountedProblem(BanditSpec(0.5, 0.7), 0.9)
        assert bellman_apply(prob, lambda b: 0.0, -1.0) == pytest.approx(0.5)

    def test_backup_matches_pointwise_apply_on_nodes(self):
        prob = DiscountedProblem(BanditSpec(0.55, 0.8), 0.9)
        g = BeliefGrid(201)
        rng = np.random.default_rng(0)
        v = ValueFunction(g, rng.normal(size=g.n_points))
        w = bellman_backup(v, prob)
        # linear interpolation of a node vector is exact at nodes only when
        # the updated beliefs are compared through the same interpolant
        for i in range(0, g.n_points, 17):
            got = bellman_apply(prob, v, g.nodes[i])
            assert w.values[i] == pytest.approx(got, abs=1e-12)

    def test_contraction_on_random_pairs(self):
        prob = DiscountedProblem(BanditSpec(0.6, 0.8), 0.95)
        g = BeliefGrid(101)
        rng = np.random.default_rng(42)
        for _ in range(50):
            v = ValueFunction(g, rng.normal(size=g.n_points))
            w = ValueFunction(g, rng.normal(size=g.n_points))
            lhs = np.max(np.abs(bellman_backup(v, prob).values - bellman_backup(w, prob).values))
            rhs = prob.gamma * np.max(np.abs(v.values - w.values))
            assert lhs <= rhs + 1e-9

    def test_monotonicity(self):
        prob = DiscountedProblem(BanditSpec(0.6, 0.8), 0.9)
        g = BeliefGrid(101)
        rng = np.random.default_rng(5)
        v = rng.normal(size=g.n_points)
        w = v + rng.uniform(0, 1, size=g.n_points)
        bv = bellman_backup(ValueFunction(g, v), prob).values
        bw = bellman_backup(ValueFunction(g, w), prob).values
        assert np.all(bv <= bw + 1e-12)

    def test_offset_covariance(self):
        prob = DiscountedProblem(BanditSpec(0.6, 0.8), 0.9)
        g = BeliefGrid(101)
        rng = np.random.default_rng(6)
        v = rng.normal(size=g.n_points)
        c = 3.7
        bv = bellman_backup(ValueFunction(g, v), prob).values
        bvc = bellman_backup(ValueFunction(g, v + c), prob).values
        np.testing.assert_allclose(bvc, bv + prob.gamma * c, atol=1e-12)


class TestValueIteration:
    def test_myopic_discount_converges_in_one_sweep(self):
        prob = DiscountedProblem(BanditSpec(0.55, 0.8), 0.0)
        grid = BeliefGrid(101)
        v, k = value_iteration(prob, grid)
        assert k == 1
        want = np.maximum(
            [expected_reward(prob.spec, b, -1) for b in grid.nodes],
            [expected_reward(prob.spec, b, 1) for b in grid.nodes],
        )
        np.testing.assert_allclose(v.values, want, atol=1e-15)

    def test_matches_closed_form_symmetric(self):
        """The ansatz value is exact on the reachable belief lattice only,
        so that is where the two solutions must agree."""
        prob, grid, v, _ = solve(0.7, 0.7, 0.9)
        pts = reachable_beliefs(prob.spec, 0.0, 6)
        dev = max(abs(v(b) - symmetric_value(0.7, 0.9, b)) for b in pts)
        assert dev <= 1e-3

    def test_successive_error_ratio_below_gamma(self):
        """Sweep-to-sweep error must contract at rate gamma."""
        prob = DiscountedProblem(BanditSpec(0.7, 0.7), 0.9)
        grid = BeliefGrid(201)
        prev = ValueFunction(grid, np.zeros(grid.n_points))
        diffs = []
        for _ in range(60):
            nxt = bellman_backup(prev, prob)
            diffs.append(np.max(np.abs(nxt.values - prev.values)))
            prev = nxt
        for d0, d1 in zip(diffs[:-1], diffs[1:]):
            assert d1 <= prob.gamma * d0 + 1e-9

    def test_iteration_limit_raises_with_context(self):
        prob = DiscountedProblem(BanditSpec(0.7, 0.7), 0.99)
        with pytest.raises(IterationLimit) as err:
            value_iteration(prob, BeliefGrid(101), tol=1e-10, max_sweeps=5)
        assert err.value.iterations == 5
        assert err.value.residual > 0

    def test_rejects_nonpositive_tol(self):
        prob = DiscountedProblem(BanditSpec(0.7, 0.7), 0.9)
        with pytest.raises(ValueError):
            value_iteration(prob, BeliefGrid(101), tol=0.0)
        # bound > nan is never true, so a NaN tol would certify anything
        v, pol, _ = policy_iteration(prob, BeliefGrid(101))
        for tol in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                certify_optimal(prob, v, tol)
            with pytest.raises(ValueError, match="finite"):
                policy_evaluation(prob, pol, tol=tol)
            with pytest.raises(ValueError, match="finite"):
                value_iteration(prob, BeliefGrid(101), tol=tol)

    def test_convexity_of_converged_value(self):
        _, grid, v, _ = solve(0.55, 0.7, 0.99, n=401)
        h = grid.spacing
        second = v.values[:-2] - 2.0 * v.values[1:-1] + v.values[2:]
        assert np.min(second) >= -10.0 * h

    def test_value_sandwich(self):
        prob, grid, v, _ = solve(0.55, 0.8, 0.95, n=401)
        upper = mdp_value(prob, grid.nodes)
        lower = (
            np.maximum(
                [expected_reward(prob.spec, b, -1) for b in grid.nodes],
                [expected_reward(prob.spec, b, 1) for b in grid.nodes],
            )
            / (1.0 - prob.gamma)
        )
        slack = 2.0 * default_tolerance(prob.gamma) * prob.gamma / (1.0 - prob.gamma)
        assert np.all(v.values <= upper + slack)
        assert np.all(v.values >= lower - slack)

    def test_symmetric_value_is_even(self):
        _, _, v, _ = solve(0.7, 0.7, 0.95, n=401)
        assert np.max(np.abs(v.values - v.values[::-1])) <= 1e-9


class TestPolicyEvaluation:
    def test_always_fair_arm_earns_half_forever(self):
        prob = DiscountedProblem(BanditSpec(0.5, 0.7), 0.95)
        grid = BeliefGrid(201)
        pol = PolicyTable(grid, np.zeros(grid.n_points))
        v = policy_evaluation(prob, pol)
        want = 0.5 / (1.0 - prob.gamma)
        np.testing.assert_allclose(v.values, want, atol=1e-7)

    def test_myopic_policy_value_is_single_step(self):
        prob = DiscountedProblem(BanditSpec(0.6, 0.8), 0.0)
        grid = BeliefGrid(101)
        rng = np.random.default_rng(1)
        q = rng.uniform(0, 1, grid.n_points)
        v = policy_evaluation(prob, PolicyTable(grid, q))
        want = [
            (1 - qi) * expected_reward(prob.spec, b, -1)
            + qi * expected_reward(prob.spec, b, 1)
            for b, qi in zip(grid.nodes, q)
        ]
        np.testing.assert_allclose(v.values, want, atol=1e-15)

    def test_greedy_policy_recovers_optimal_value(self):
        prob, grid, v, _ = solve(0.7, 0.7, 0.9, n=401)
        pol = extract_greedy_policy(prob, v)
        vp = policy_evaluation(prob, pol)
        tol = default_tolerance(prob.gamma)
        budget = 2.0 * tol * prob.gamma / (1.0 - prob.gamma)
        assert np.max(np.abs(vp.values - v.values)) <= budget

    def test_matches_dense_solve(self):
        prob = DiscountedProblem(BanditSpec(0.55, 0.7), 0.9)
        grid = BeliefGrid(201)
        rng = np.random.default_rng(2)
        pol = PolicyTable(grid, rng.uniform(0, 1, grid.n_points))
        m = policy_transition(prob, pol).toarray()
        r = [
            (1 - qi) * expected_reward(prob.spec, b, -1)
            + qi * expected_reward(prob.spec, b, 1)
            for b, qi in zip(grid.nodes, pol.q)
        ]
        want = np.linalg.solve(np.eye(grid.n_points) - prob.gamma * m, r)
        v = policy_evaluation(prob, pol)
        assert np.max(np.abs(v.values - want)) <= 1e-10

    def test_default_call_is_certified_near_gamma_one(self):
        """At gamma 0.9999 a sweep stopped by its step size missed the
        value by about 0.1; the default call must meet its tolerance."""
        prob = DiscountedProblem(BanditSpec(0.7, 0.7), 0.9999)
        grid = BeliefGrid(401)
        v, pol, _ = policy_iteration(prob, grid)
        tol = default_tolerance(prob.gamma)
        assert np.max(np.abs(policy_evaluation(prob, pol).values - v.values)) <= tol
        c = evaluate_cost(prob, pol, np.ones(grid.n_points))
        assert np.max(np.abs(c.values - 1.0 / (1.0 - prob.gamma))) <= tol

    def test_direct_solve_is_certified_against_tol(self):
        prob = DiscountedProblem(BanditSpec(0.55, 0.7), 0.99)
        grid = BeliefGrid(201)
        pol = PolicyTable(grid, np.full(grid.n_points, 0.5))
        policy_evaluation(prob, pol)
        with pytest.raises(IterationLimit) as info:
            policy_evaluation(prob, pol, tol=1e-30)
        assert info.value.iterations == 1
        assert 0.0 < info.value.residual <= default_tolerance(prob.gamma)

    def test_unknown_method_rejected(self):
        prob = DiscountedProblem(BanditSpec(0.55, 0.7), 0.9)
        grid = BeliefGrid(11)
        pol = PolicyTable(grid, np.zeros(11))
        policy_evaluation(prob, pol, method="direct")
        for method in ("sweep", "cholesky"):
            with pytest.raises(ValueError):
                policy_evaluation(prob, pol, method=method)


class TestCostEvaluation:
    def setup_method(self):
        self.prob = DiscountedProblem(BanditSpec(0.55, 0.7), 0.9)
        self.grid = BeliefGrid(201)
        rng = np.random.default_rng(3)
        self.pol = PolicyTable(self.grid, rng.uniform(0, 1, self.grid.n_points))

    def test_unit_cost_accumulates_geometric_series(self):
        c = evaluate_cost(self.prob, self.pol, np.ones(self.grid.n_points))
        np.testing.assert_allclose(c.values, 1.0 / (1.0 - self.prob.gamma), atol=1e-9)

    def test_linearity(self):
        rng = np.random.default_rng(4)
        f = rng.normal(size=self.grid.n_points)
        g = rng.normal(size=self.grid.n_points)
        cf = evaluate_cost(self.prob, self.pol, f).values
        cg = evaluate_cost(self.prob, self.pol, g).values
        cfg = evaluate_cost(self.prob, self.pol, f + g).values
        np.testing.assert_allclose(cfg, cf + cg, atol=1e-8)

    def test_one_step_regret_cost_recovers_policy_regret(self):
        """Accumulated one-step regret equals the value shortfall."""
        delta = np.array(
            [
                one_step_regret(self.prob.spec, b, qi)
                for b, qi in zip(self.grid.nodes, self.pol.q)
            ]
        )
        c = evaluate_cost(self.prob, self.pol, delta)
        vp = policy_evaluation(self.prob, self.pol)
        want = mdp_value(self.prob, self.grid.nodes) - vp.values
        np.testing.assert_allclose(c.values, want, atol=1e-9)

    def test_entropy_telescoping_cost(self):
        """Using exact posterior entropies (not the grid-consistent form)
        leaves only an interpolation residue near the endpoints, which
        shrinks roughly like h*log(h)."""
        from artifact.bandit import belief_update, obs_prob

        spec, gamma = self.prob.spec, self.prob.gamma
        grid = BeliefGrid(2001)
        rng = np.random.default_rng(13)
        pol = PolicyTable(grid, rng.uniform(0, 1, grid.n_points))
        g = np.empty(grid.n_points)
        for i, (b, qi) in enumerate(zip(grid.nodes, pol.q)):
            exp_h = 0.0
            for a, w in ((-1, 1.0 - qi), (1, qi)):
                for y in (0, 1):
                    p = obs_prob(spec, b, a, y)
                    if p > 0.0:
                        exp_h += w * p * entropy(belief_update(spec, b, a, y))
            g[i] = entropy(b) - gamma * exp_h
        c = evaluate_cost(self.prob, pol, g)
        assert np.max(np.abs(c.values - entropy(grid.nodes))) <= 1e-3

    def test_callable_cost_and_validation(self):
        c = evaluate_cost(self.prob, self.pol, lambda nodes: np.ones_like(nodes))
        assert c(0.0) == pytest.approx(1.0 / (1.0 - self.prob.gamma))
        with pytest.raises(ValueError):
            evaluate_cost(self.prob, self.pol, np.ones(7))
        bad = np.ones(self.grid.n_points)
        bad[3] = np.inf
        with pytest.raises(ValueError):
            evaluate_cost(self.prob, self.pol, bad)


class TestMdpReferenceAndRegret:
    def test_known_values(self):
        assert mdp_value(DiscountedProblem(BanditSpec(0.5, 0.7), 0.99), 1.0) == pytest.approx(70.0)
        assert mdp_value(DiscountedProblem(BanditSpec(0.55, 0.7), 0.9), -1.0) == pytest.approx(5.5)

    def test_scalar_belief_is_checked(self):
        # a scalar goes through the one belief check, as in regret_gap
        prob = DiscountedProblem(BanditSpec(0.55, 0.7), 0.9)
        for beta in (2.0, -1.5, math.nan):
            with pytest.raises(ValueError, match="beta must lie in"):
                mdp_value(prob, beta)
        assert mdp_value(prob, Belief(0.3)) == mdp_value(prob, 0.3)

    def test_symmetric_reference_is_flat(self):
        prob = DiscountedProblem(BanditSpec(0.7, 0.7), 0.9)
        vals = mdp_value(prob, np.linspace(-1, 1, 11))
        np.testing.assert_allclose(vals, 7.0, atol=1e-12)

    def test_optimal_regret_vanishes_at_certainty(self):
        prob, grid, v, _ = solve(0.7, 0.7, 0.9, n=401)
        r = regret_curve(prob, v)
        assert abs(r(1.0)) <= 1e-6
        assert abs(r(-1.0)) <= 1e-6

    def test_suboptimal_policy_dominated(self):
        prob, grid, v, _ = solve(0.55, 0.7, 0.9, n=401)
        rstar = regret_curve(prob, v)
        rng = np.random.default_rng(9)
        pol = PolicyTable(grid, rng.uniform(0, 1, grid.n_points))
        rp = regret_curve(prob, policy_evaluation(prob, pol))
        tol = default_tolerance(prob.gamma)
        slack = 2.0 * tol * prob.gamma / (1.0 - prob.gamma)
        assert np.all(rp.values >= rstar.values - slack)


class TestPolicyExtraction:
    def test_symmetric_boundary_at_origin(self):
        prob, grid, v, _ = solve(0.7, 0.7, 0.9, n=401)
        pol = extract_greedy_policy(prob, v)
        assert pol.boundary is not None
        assert abs(pol.boundary) <= grid.spacing

    def test_fair_coin_boundary_is_negative(self):
        prob, grid, v, _ = solve(0.5, 0.7, 0.99, n=801)
        pol = extract_greedy_policy(prob, v)
        assert pol.boundary is not None and pol.boundary < 0.0

    def test_myopic_boundary_at_reward_crossing(self):
        # asymmetric biases make the myopic crossing sit off-center
        prob = DiscountedProblem(BanditSpec(0.9, 0.6), 0.0)
        grid = BeliefGrid(2001)
        v, _ = value_iteration(prob, grid)
        pol = extract_greedy_policy(prob, v)
        # r(-1) = (1 - 0.8*beta)/2 vs r(+1) = (1 + 0.2*beta)/2 cross at 0
        assert abs(pol.boundary) <= grid.spacing

    def test_decision_boundary_flip_counting(self):
        # a table is its q: .boundary is decision_boundary, None where it raises
        g = BeliefGrid(5)
        never = PolicyTable(g, np.ones(5))
        with pytest.raises(NoBoundary):
            decision_boundary(never)
        assert never.boundary is None
        many = PolicyTable(g, np.array([0.0, 1.0, 0.0, 1.0, 0.0]))
        with pytest.raises(MultipleBoundaries):
            decision_boundary(many)
        assert many.boundary is None
        once = PolicyTable(g, np.array([0.0, 0.0, 0.0, 1.0, 1.0]))
        bc = decision_boundary(once)
        assert bc == pytest.approx(0.25)
        assert once.boundary == bc
        assert [f.name for f in dataclasses.fields(PolicyTable)] == ["grid", "q"]

    def test_policy_iteration_agrees_with_value_iteration(self):
        prob = DiscountedProblem(BanditSpec(0.55, 0.7), 0.99)
        grid = BeliefGrid(401)
        v_vi, _ = value_iteration(prob, grid)
        v_pi, pol, rounds = policy_iteration(prob, grid)
        assert rounds < 20
        budget = 2.0 * default_tolerance(prob.gamma) * prob.gamma / (1.0 - prob.gamma)
        assert np.max(np.abs(v_pi.values - v_vi.values)) <= budget
        assert pol.boundary is not None

    @pytest.mark.parametrize("tm, tp", [(0.3, 0.7), (0.2, 0.8), (0.45, 0.55)])
    def test_policy_iteration_settles_on_mirrored_arms(self, tm, tp):
        # theta_minus = 1 - theta_plus gives both arms the same law up to
        # rounding, so their q values tie within float noise, which must
        # not flip the policy from round to round
        prob = DiscountedProblem(BanditSpec(tm, tp), 0.99)
        grid = BeliefGrid(401)
        v_pi, _, rounds = policy_iteration(prob, grid)
        assert rounds == 1
        cert = certify_optimal(prob, v_pi)
        v_vi, _ = value_iteration(prob, grid)
        vi_bound = default_tolerance(prob.gamma) * prob.gamma / (1.0 - prob.gamma)
        assert np.max(np.abs(v_pi.values - v_vi.values)) <= cert + vi_bound

    @pytest.mark.parametrize("tm, tp", [(0.3, 0.7), (0.45, 0.55), (0.2, 0.8),
                                        (0.55, 0.7), (0.5, 0.7), (0.7, 0.7)])
    def test_policy_iteration_returns_greedy_policy_of_its_value(self, tm, tp):
        # policy iteration improves by the greedy step of
        # extract_greedy_policy, so its settled policy is that step's
        # answer on the value it returns, mirrored arms included
        prob = DiscountedProblem(BanditSpec(tm, tp), 0.99)
        v, pol, _ = policy_iteration(prob, BeliefGrid(801))
        greedy = extract_greedy_policy(prob, v)
        assert np.array_equal(greedy.q, pol.q)
        assert greedy.boundary == pol.boundary

    def test_policy_iteration_budget_scales_with_grid(self):
        # near a fair coin the boundary moves from the myopic start by one
        # or two nodes per round and needs more than 100 rounds
        prob = DiscountedProblem(BanditSpec(0.5, 0.505), 0.99999)
        grid = BeliefGrid(401)
        v, _, rounds = policy_iteration(prob, grid)
        assert 100 < rounds <= grid.n_points
        assert certify_optimal(prob, v) <= default_tolerance(prob.gamma)
        with pytest.raises(IterationLimit):
            policy_iteration(prob, grid, max_rounds=100)

    def test_certificate_bounds_distance_to_optimum(self):
        prob = DiscountedProblem(BanditSpec(0.55, 0.7), 0.99)
        grid = BeliefGrid(401)
        v_pi, _, _ = policy_iteration(prob, grid)
        assert certify_optimal(prob, v_pi) <= 1e-9
        v_vi, _ = value_iteration(prob, grid, tol=1e-3)
        bound = certify_optimal(prob, v_vi, tol=1.0)
        assert np.max(np.abs(v_vi.values - v_pi.values)) <= bound
        with pytest.raises(IterationLimit) as info:
            certify_optimal(prob, v_vi)
        assert info.value.residual == bound

    def test_transition_rows_are_stochastic(self):
        prob = DiscountedProblem(BanditSpec(0.55, 0.7), 0.9)
        grid = BeliefGrid(101)
        rng = np.random.default_rng(8)
        pol = PolicyTable(grid, rng.uniform(0, 1, grid.n_points))
        m = policy_transition(prob, pol)
        np.testing.assert_allclose(np.asarray(m.sum(axis=1)).ravel(), 1.0, atol=1e-12)


class TestArmSwap:
    """Relabelling the arms maps spec (theta_-, theta_+) at beta to
    (theta_+, theta_-) at -beta.  The grid and the stencil are mirrored
    only up to rounding, so the two optima agree within both certificates
    and a few roundings of values of size 1/(1-gamma), and their policies
    are mirror images exactly."""

    @pytest.mark.parametrize("n", [101, 801])
    @pytest.mark.parametrize("gamma", [0.9, 0.99, 0.999])
    @pytest.mark.parametrize("tm, tp", [(0.55, 0.7), (0.3, 0.9), (0.5, 0.7), (0.2, 0.45)])
    def test_swapped_arms_give_the_mirrored_optimum(self, tm, tp, gamma, n):
        grid = BeliefGrid(n)
        solved = []
        for spec in (BanditSpec(tm, tp), BanditSpec(tp, tm)):
            prob = DiscountedProblem(spec, gamma)
            v, pol, _ = policy_iteration(prob, grid)
            solved.append((v.values, pol.q, certify_optimal(prob, v)))
        (va, qa, cert_a), (vb, qb, cert_b) = solved
        eps = np.finfo(float).eps
        allowance = cert_a + cert_b + 8.0 * eps * np.max(np.abs(va)) / (1.0 - gamma)
        assert np.max(np.abs(va - vb[::-1])) <= allowance
        assert np.array_equal(qa, 1.0 - qb[::-1])


POLICY_KINDS = {
    "all -1": lambda rng, n: np.zeros(n),
    "all +1": lambda rng, n: np.ones(n),
    "uniform": lambda rng, n: rng.uniform(0.0, 1.0, n),
    "halves": lambda rng, n: rng.choice([0.0, 0.5, 1.0], n),
    "mostly pure": lambda rng, n: np.where(
        rng.uniform(size=n) < rng.uniform(), rng.uniform(0.0, 1.0, n),
        rng.choice([0.0, 1.0], n)),
}


def eight_entry_cols(st):
    """Columns of the full stencil, shape (8, n): the lower and the upper
    interpolation node over both arms and both outcomes, in that order.
    Row 2*(a == +1) + y of the stencil's tables holds arm a, outcome y."""
    return np.stack([jj for row in st.j for jj in (row, row + 1)])


def eight_entry_data(st, q):
    """Weights of the full stencil of policy q, shape (8, n), in the
    order of eight_entry_cols: both arms, both outcomes, both neighbours."""
    data = []
    for a, w in ((-1, 1.0 - q), (1, q)):
        for y in (0, 1):
            row = 2 * (a == 1) + y
            wp, t = w * st.p[row], st.t[row]
            data += [wp * (1.0 - t), wp * t]
    return np.stack(data)


class TestPolicySystem:
    """The policy system keeps only the entries of the arms a node plays
    and sums them in the order of the full eight-entry stencil, so its
    product and its matrix equal the eight-entry reference bit for bit."""

    @pytest.mark.parametrize("kind", sorted(POLICY_KINDS))
    @pytest.mark.parametrize("n", [3, 201])
    @pytest.mark.parametrize("tm, tp", [(0.55, 0.7), (0.5, 0.7), (0.0, 1.0), (1.0, 0.3)])
    def test_matches_eight_entry_stencil(self, tm, tp, n, kind):
        gamma = 0.9
        st = solver._stencil(DiscountedProblem(BanditSpec(tm, tp), gamma), BeliefGrid(n))
        rng = np.random.default_rng(n)
        q = POLICY_KINDS[kind](rng, n)
        data, cols = eight_entry_data(st, q), eight_entry_cols(st)
        A = st.policy_system(q)
        for v in (rng.normal(size=n), 1e3 * rng.normal(size=n), np.ones(n)):
            want = v - gamma * np.einsum("ij,ij->j", data, v[cols])
            assert np.array_equal(A @ v, want)
        # strided entries slow every product, and take copies a read-only index
        assert all(x.flags.c_contiguous for x in (A.cols, A.data, A.extra_cols, A.extra_data))
        assert A.cols.flags.writeable and A.extra_cols.flags.writeable
        ref = np.zeros((n, n))
        np.add.at(ref, (np.tile(np.arange(n), 8), cols.ravel()), data.ravel())
        assert np.array_equal(A.transition().toarray(), ref)

    @pytest.mark.parametrize("n", [3, 201])
    @pytest.mark.parametrize("tm, tp", [(0.55, 0.7), (0.5, 0.7), (0.0, 1.0), (1.0, 0.3)])
    def test_backup_applies_the_policy_product(self, tm, tp, n):
        # one kernel: where a pure policy plays arm a, the backup's q of a
        # is r_a + gamma * M_pi v bit for bit, from the policy's own system
        gamma = 0.9
        st = solver._stencil(DiscountedProblem(BanditSpec(tm, tp), gamma), BeliefGrid(n))
        rng = np.random.default_rng(n)
        for _ in range(3):
            pi, v = rng.choice([0.0, 1.0], n), rng.normal(size=n)
            q = st.q_values(v)
            mv = st.policy_system(pi).transition_product(v)
            for a, plays in ((-1, pi == 0.0), (1, pi == 1.0)):
                want = st.r[a] + gamma * mv
                assert np.array_equal(q[a][plays], want[plays])

    def test_transition_drops_only_the_idle_arm(self):
        # a pure row stores at most its four played entries; I - gamma*M,
        # where sparse arithmetic drops zeros, is the eight-entry system
        prob = DiscountedProblem(BanditSpec(0.55, 0.7), 0.99)
        grid = BeliefGrid(2001)
        pol = ids_policy_on_grid(prob, grid, IdsConfig(alpha=0.5, gamma=prob.gamma))
        mixed = (pol.q > 0.0) & (pol.q < 1.0)
        assert mixed.any() and not mixed.all()
        M = policy_transition(prob, pol)
        assert np.diff(M.indptr)[~mixed].max() <= 4
        st = solver._stencil(prob, grid)
        n = grid.n_points
        full = sp.csr_matrix((eight_entry_data(st, pol.q).ravel(),
                              (np.tile(np.arange(n), 8), eight_entry_cols(st).ravel())),
                             shape=(n, n))
        assert M.nnz < full.nnz
        eye = sp.identity(n, format="csr")
        A, A_full = eye - prob.gamma * M, eye - prob.gamma * full
        assert A.nnz == A_full.nnz
        assert np.array_equal(A.indptr, A_full.indptr)
        assert np.array_equal(A.indices, A_full.indices)
        assert np.array_equal(A.data, A_full.data)


class TestSolveKernel:
    """Direct solves of certified BiCGSTAB with its LU fallback:
    (0.55, 0.7), gamma 0.99, 8001 nodes, the IDS(0.5) policy."""

    @pytest.fixture(scope="class")
    def case(self):
        prob = DiscountedProblem(BanditSpec(0.55, 0.7), 0.99)
        grid = BeliefGrid(8001)
        pol = ids_policy_on_grid(prob, grid, IdsConfig(alpha=0.5, gamma=prob.gamma))
        return prob, pol

    @staticmethod
    def lu_only(monkeypatch, fn):
        """fn() with every BiCGSTAB attempt reporting non-convergence, so
        each solve takes the LU fallback."""

        def missed(A, b, x0=None, *, rtol, maxiter):
            return np.zeros_like(b), np.full(len(b), maxiter), np.full(len(b), maxiter)

        with monkeypatch.context() as m:
            m.setattr(solver, "_bicgstab", missed)
            return fn()

    @staticmethod
    def spy(monkeypatch, fake=None):
        """Record every system BiCGSTAB solves, one record per row of a
        stack; `fake` maps a row's real result to the one the solver
        sees."""
        calls = []
        real = solver._bicgstab

        def recorded(A, b, x0=None, **kwargs):
            x, info, iterations = real(A, b, x0=x0, **kwargs)
            for i in range(len(b)):
                if fake is not None:
                    x[i], info[i] = fake(x[i], info[i])
                calls.append({"A": A[[i]], "b": b[i], "x": x[i].copy(), "info": info[i],
                              "x0": None if x0 is None else x0[i], **kwargs})
            return x, info, iterations

        monkeypatch.setattr(solver, "_bicgstab", recorded)
        return calls

    def test_kernel_matches_scipy_bicgstab(self, case):
        # scipy's BiCGSTAB on the same stencil product takes the same
        # steps: the same iterate, bit for bit, in the same count
        prob, pol = case
        st = solver._Stencil(prob, pol.grid)
        A, b = st.policy_system(pol.q), st.policy_reward(pol.q)
        # a stack of one system
        (x,), (info,), (iterations,) = solver._bicgstab(
            A, b[None], rtol=solver._KRYLOV_RTOL, maxiter=solver._KRYLOV_MAXITER
        )
        kw = {"rtol": solver._KRYLOV_RTOL, "atol": 0.0, "maxiter": solver._KRYLOV_MAXITER}
        steps = []
        op = spla.LinearOperator((len(b), len(b)), matvec=lambda v: A @ v, dtype=float)
        x_op, info_op = spla.bicgstab(op, b, callback=steps.append, **kw)
        assert info == info_op == 0
        assert np.array_equal(x, x_op)
        assert iterations == len(steps)
        # the CSR assembly of the same system meets the LU certificate too
        csr = sp.identity(len(b), format="csr") - prob.gamma * A.transition()
        x_sp, info_sp = spla.bicgstab(csr, b, **kw)
        assert info_sp == 0
        lu = A.lu_solve(b)

        def cert(v):
            return np.max(np.abs(b - A @ v)) / (1.0 - prob.gamma)

        for v in (x, x_sp):
            assert np.max(np.abs(v - lu)) <= cert(v) + cert(lu)

    def test_small_grids_accept_bicgstab(self, monkeypatch):
        # the paper's grids of 801 and 2001 nodes keep the BiCGSTAB
        # iterate, which agrees with LU within both certificates
        prob = DiscountedProblem(BanditSpec(0.55, 0.7), 0.99)
        for n in (801, 2001):
            grid = BeliefGrid(n)
            pol = ids_policy_on_grid(prob, grid, IdsConfig(alpha=0.5, gamma=prob.gamma))
            with monkeypatch.context() as m:
                calls = self.spy(m)
                _, _, rounds = policy_iteration(prob, grid)
                v = policy_evaluation(prob, pol).values
            assert len(calls) == rounds + 1
            assert all(c["info"] == 0 for c in calls)
            call = calls[-1]
            assert np.array_equal(v, call["x"])
            lu = self.lu_only(monkeypatch, lambda: policy_evaluation(prob, pol)).values

            def cert(u):
                return np.max(np.abs(call["b"] - call["A"] @ u)) / (1.0 - prob.gamma)

            assert 0.0 < cert(v) <= default_tolerance(prob.gamma)
            assert np.max(np.abs(v - lu)) <= cert(v) + cert(lu)

    def test_near_fair_coin_falls_back_within_certificate(self, monkeypatch):
        # (0.5, 0.7) at gamma 0.999: BiCGSTAB misses on the IDS(0.5)
        # policy of 2001 nodes, and the LU answer still meets tol
        prob = DiscountedProblem(BanditSpec(0.5, 0.7), 0.999)
        grid = BeliefGrid(2001)
        pol = ids_policy_on_grid(prob, grid, IdsConfig(alpha=0.5, gamma=prob.gamma))
        calls = self.spy(monkeypatch)
        v = policy_evaluation(prob, pol).values
        (call,) = calls
        assert call["info"] != 0
        lu = self.lu_only(monkeypatch, lambda: policy_evaluation(prob, pol))
        assert np.array_equal(v, lu.values)
        cert = np.max(np.abs(call["b"] - call["A"] @ v)) / (1.0 - prob.gamma)
        assert cert <= default_tolerance(prob.gamma)

    def test_value_within_certificate_of_lu(self, case, monkeypatch):
        prob, pol = case
        calls = self.spy(monkeypatch)
        v = policy_evaluation(prob, pol).values
        (call,) = calls
        assert call["info"] == 0
        assert np.array_equal(v, call["x"])
        cert = np.max(np.abs(call["b"] - call["A"] @ v)) / (1.0 - prob.gamma)
        assert 0.0 < cert <= default_tolerance(prob.gamma)
        lu = self.lu_only(monkeypatch, lambda: policy_evaluation(prob, pol))
        lu_cert = np.max(np.abs(call["b"] - call["A"] @ lu.values)) / (1.0 - prob.gamma)
        assert np.max(np.abs(v - lu.values)) <= cert + lu_cert

    @pytest.mark.parametrize(
        "fake",
        [lambda x, info: (x, 1), lambda x, info: (x + 1e-3, 0), lambda x, info: (x + 1e-6, 0)],
        ids=["not-converged", "perturbed", "just-outside-certificate"],
    )
    def test_rejected_iterate_falls_back_to_lu(self, case, monkeypatch, fake):
        # a loose tol does not loosen acceptance below default_tolerance
        prob, pol = case
        lu = self.lu_only(monkeypatch, lambda: policy_evaluation(prob, pol))
        calls = self.spy(monkeypatch, fake)
        v = policy_evaluation(prob, pol, tol=1e-3)
        assert len(calls) == 1
        assert np.array_equal(v.values, lu.values)

    def test_certified_iterate_is_accepted(self, case, monkeypatch):
        # the rows of M sum to 1, so a constant shift d moves the
        # certificate by d; 1e-9 stays inside default_tolerance = 1e-7
        prob, pol = case
        calls = self.spy(monkeypatch, lambda x, info: (x + 1e-9, 0))
        v = policy_evaluation(prob, pol)
        assert np.array_equal(v.values, calls[0]["x"])

    def test_tol_never_enters_the_stopping_rule(self, case, monkeypatch):
        prob, pol = case
        calls = self.spy(monkeypatch)
        loose = policy_evaluation(prob, pol, tol=1e-3)
        default = policy_evaluation(prob, pol)
        tight = policy_evaluation(prob, pol, tol=1e-9)
        assert np.array_equal(loose.values, default.values)
        assert np.array_equal(tight.values, default.values)
        assert len({c["rtol"] for c in calls}) == 1

    def test_unreachable_tol_raises_after_lu_fallback(self, case):
        prob, pol = case
        with pytest.raises(IterationLimit) as info:
            policy_evaluation(prob, pol, tol=1e-30)
        assert info.value.iterations == 1
        assert "LU after BiCGSTAB" in str(info.value)
        assert 0.0 < info.value.residual <= default_tolerance(prob.gamma)

    def test_policy_iteration_matches_lu_rounds(self, case, monkeypatch):
        prob, pol = case
        grid = pol.grid
        v_lu, pol_lu, k_lu = self.lu_only(monkeypatch, lambda: policy_iteration(prob, grid))
        calls = self.spy(monkeypatch)
        v, pol_k, k = policy_iteration(prob, grid)
        assert k == k_lu and len(calls) == k
        assert np.array_equal(pol_k.q, pol_lu.q)
        # round 1 starts exact on the linear functions of beta
        b, nodes = calls[0]["b"], grid.nodes
        linear = b[0] * (1.0 - nodes) / 2.0 + b[-1] * (1.0 + nodes) / 2.0
        assert np.array_equal(calls[0]["x0"], linear / (1.0 - prob.gamma))
        assert all(c["x0"] is not None for c in calls[1:])
        assert certify_optimal(prob, v) <= default_tolerance(prob.gamma)
        assert np.max(np.abs(v.values - v_lu.values)) <= default_tolerance(prob.gamma)

    def test_policy_iteration_stays_on_lu_after_a_fallback(self, case, monkeypatch):
        prob, pol = case
        grid = pol.grid
        v_lu, pol_lu, k_lu = self.lu_only(monkeypatch, lambda: policy_iteration(prob, grid))
        calls = self.spy(monkeypatch, lambda x, info: (x, 1))
        v, pol_k, k = policy_iteration(prob, grid)
        assert k == k_lu > 1 and len(calls) == 1
        assert np.array_equal(v.values, v_lu.values)
        assert np.array_equal(pol_k.q, pol_lu.q)


class TestLockstep:
    """A stack of policy systems solved in lockstep: every row runs its
    own BiCGSTAB scalars, so each row equals its own solve bit for bit."""

    @staticmethod
    def equations(cases, n):
        """(stencil, q, reward, None) of the IDS(alpha) policy of each
        (theta_minus, theta_plus, gamma, alpha) case on n nodes."""
        out = []
        for tm, tp, gamma, alpha in cases:
            prob = DiscountedProblem(BanditSpec(tm, tp), gamma)
            pol = ids_policy_on_grid(prob, BeliefGrid(n), IdsConfig(alpha=alpha, gamma=gamma))
            out.append(solver._policy_equation(prob, pol))
        return out

    @pytest.mark.parametrize("n", [3, 201])
    def test_stacked_product_is_each_systems_product(self, n):
        eqs = self.equations([(0.55, 0.7, 0.9, 0.5), (0.5, 0.7, 0.99, 0.0),
                              (0.0, 1.0, 0.5, 1.0)], n)
        parts = [st.policy_system(q) for st, q, _, _ in eqs]
        A = solver._PolicySystem.stack(parts)
        v = np.random.default_rng(n).normal(size=(3, n))
        Av = A @ v
        for i, part in enumerate(parts):
            assert np.array_equal(Av[i], part @ v[i])
        # a stack of some of the systems, in any order, is theirs
        sub = A[[2, 0]]
        assert np.array_equal(sub @ v[[2, 0]], np.stack([parts[2] @ v[2], parts[0] @ v[0]]))
        assert np.array_equal(A[[1]].transition().toarray(), parts[1].transition().toarray())

    def test_rows_retire_at_their_own_iteration(self):
        # systems that converge at different iterations, and a zero right
        # side, give each row the iterate, info and count of its own solve
        eqs = self.equations([(0.55, 0.7, 0.99, 0.5), (0.55, 0.7, 0.9, 0.0),
                              (0.3, 0.9, 0.999, 0.25), (0.55, 0.7, 0.99, 1.0)], 801)
        A = solver._PolicySystem.stack([st.policy_system(q) for st, q, _, _ in eqs])
        b = np.stack([r for _, _, r, _ in eqs])
        b[3] = 0.0
        kw = {"rtol": solver._KRYLOV_RTOL, "maxiter": solver._KRYLOV_MAXITER}
        x, info, iterations = solver._bicgstab(A, b, **kw)
        assert len(set(iterations.tolist())) == len(b)
        for i in range(len(b)):
            (xi,), (fi,), (ki,) = solver._bicgstab(A[[i]], b[i][None], **kw)
            assert np.array_equal(x[i], xi)
            assert (info[i], iterations[i]) == (fi, ki)
        assert info[3] == iterations[3] == 0 and not x[3].any()

    def test_a_zero_right_side_ignores_its_warm_start(self):
        # every row starts warm; the zero row still returns exactly zero at
        # iteration 0, and the others each equal their own warm solve
        eqs = self.equations([(0.55, 0.7, 0.99, 0.5), (0.55, 0.7, 0.9, 0.0),
                              (0.3, 0.9, 0.99, 0.25)], 201)
        A = solver._PolicySystem.stack([st.policy_system(q) for st, q, _, _ in eqs])
        b = np.stack([r for _, _, r, _ in eqs])
        b[1] = 0.0
        x0 = np.random.default_rng(1).normal(size=b.shape)
        kw = {"rtol": solver._KRYLOV_RTOL, "maxiter": solver._KRYLOV_MAXITER}
        x, info, iterations = solver._bicgstab(A, b, x0=x0, **kw)
        assert info[1] == iterations[1] == 0 and not x[1].any()
        for i in (0, 2):
            (xi,), (fi,), (ki,) = solver._bicgstab(A[[i]], b[i][None], x0=x0[i][None], **kw)
            assert np.array_equal(x[i], xi)
            assert (info[i], iterations[i]) == (fi, ki) and ki > 0

    class PerRow:
        """A stack of small dense systems, one matrix per row, with the
        two operations _bicgstab needs: `@` on a (k, n) stack and [rows]."""

        def __init__(self, mats):
            self.mats = np.asarray(mats, dtype=float)

        def __matmul__(self, x):
            return np.einsum("kij,kj->ki", self.mats, x)

        def __getitem__(self, rows):
            return type(self)(self.mats[rows])

    def test_a_breakdown_retires_beside_rows_that_converge(self):
        # the rotation maps r0 = b to a vector orthogonal to it, so rv = 0
        # breaks its row down at iteration 0 (info -11) while a diagonal
        # and a triangular row go on to converge
        A = self.PerRow([[[2.0, 0.0], [0.0, 3.0]], [[0.0, -1.0], [1.0, 0.0]],
                         [[1.0, 1.0], [0.0, 2.0]]])
        b = np.array([[1.0, 1.0], [1.0, 0.0], [1.0, 2.0]])
        kw = {"rtol": solver._KRYLOV_RTOL, "maxiter": solver._KRYLOV_MAXITER}
        x, info, iterations = solver._bicgstab(A, b, **kw)
        assert (info[1], iterations[1]) == (-11, 0)
        assert info[0] == info[2] == 0
        for i in range(len(b)):
            (xi,), (fi,), (ki,) = solver._bicgstab(A[[i]], b[i][None], **kw)
            assert np.array_equal(x[i], xi)
            assert (info[i], iterations[i]) == (fi, ki)

    def test_an_all_zero_stack_applies_no_product(self, monkeypatch):
        # every row retires at the first test from the zero solution, even
        # from a warm start, without a product of A
        calls = []
        matmul = self.PerRow.__matmul__
        monkeypatch.setattr(self.PerRow, "__matmul__",
                            lambda A, x: calls.append(len(x)) or matmul(A, x))
        A = self.PerRow([[[2.0, 0.0], [0.0, 3.0]], [[1.0, 1.0], [0.0, 2.0]]])
        kw = {"rtol": solver._KRYLOV_RTOL, "maxiter": solver._KRYLOV_MAXITER}
        for x0 in (None, np.ones((2, 2))):
            x, info, iterations = solver._bicgstab(A, np.zeros((2, 2)), x0=x0, **kw)
            assert not x.any()
            assert info.tolist() == iterations.tolist() == [0, 0]
        assert calls == []
        # the counter sees the products of a nonzero stack
        solver._bicgstab(A, np.ones((2, 2)), **kw)
        assert calls

    def test_rows_that_run_out_keep_their_last_iterate(self):
        # the zero row retires at iteration 0, so the others run out of
        # iterations in a compacted stack and are written back from it
        mats = np.random.default_rng(3).normal(size=(3, 6, 6)) + 3.0 * np.eye(6)
        A = self.PerRow(mats)
        b = np.random.default_rng(4).normal(size=(3, 6))
        b[0] = 0.0
        kw = {"rtol": solver._KRYLOV_RTOL, "maxiter": 2}
        x, info, iterations = solver._bicgstab(A, b, **kw)
        assert info.tolist() == [0, 2, 2] and iterations.tolist() == [0, 2, 2]
        for i in (1, 2):
            (xi,), _, _ = solver._bicgstab(A[[i]], b[i][None], **kw)
            assert np.array_equal(x[i], xi) and xi.any()

    def test_a_missed_system_alone_falls_back_to_lu(self, monkeypatch):
        # (0.5, 0.7) at gamma 0.999 misses its certificate under BiCGSTAB
        # (test_near_fair_coin_falls_back_within_certificate); stacked
        # between two systems that converge, it alone goes to LU
        cases = [(0.55, 0.7, 0.99, 0.5), (0.5, 0.7, 0.999, 0.5), (0.55, 0.7, 0.9999, 0.25)]
        eqs = self.equations(cases, 2001)
        tols = [default_tolerance(g) for _, _, g, _ in cases]
        stacked = solver._solve_policy(eqs, tols)
        assert [how for _, _, _, how in stacked] == ["BiCGSTAB", "LU after BiCGSTAB", "BiCGSTAB"]
        for eq, tol, (v, cert, iterations, how) in zip(eqs, tols, stacked):
            (alone,) = solver._solve_policy([eq], [tol])
            assert np.array_equal(v, alone[0])
            assert (cert, iterations, how) == alone[1:]
            assert cert <= tol
            # a BiCGSTAB row and the LU row alike carry the certificate of
            # their own system
            st, q, b, _ = eq
            assert cert == np.max(np.abs(b - st.policy_system(q) @ v)) / (1.0 - st.prob.gamma)
        lu = TestSolveKernel.lu_only(monkeypatch, lambda: solver._solve_policy(eqs[1:2], tols[1:2]))
        assert np.array_equal(stacked[1][0], lu[0][0])

    def test_no_equations_give_no_values(self):
        assert solver._solve_policy([], []) == []
        assert solver._certified_solves([], None, "x") == []

    def test_each_row_is_certified_on_its_own(self):
        # a tol no solve can meet fails every row alone, with the message
        # policy_evaluation raises
        eqs = self.equations([(0.55, 0.7, 0.99, 0.5), (0.55, 0.7, 0.9, 0.0)], 201)
        values = solver._certified_solves(eqs, None, "policy evaluation")
        assert all(isinstance(v, ValueFunction) for v in values)
        failed = solver._certified_solves(eqs, 1e-30, "policy evaluation")
        for eq, exc in zip(eqs, failed):
            assert isinstance(exc, IterationLimit)
            st, q = eq[0], eq[1]
            with pytest.raises(IterationLimit) as alone:
                policy_evaluation(st.prob, PolicyTable(st.grid, q), tol=1e-30)
            assert repr(exc) == repr(alone.value)
            assert (exc.iterations, exc.residual) == (alone.value.iterations, alone.value.residual)


SLOW_MODE_SPECS = [(0.55, 0.7), (0.7, 0.7), (0.5, 0.55), (0.5, 0.5), (0.0, 1.0),
                   (1.0, 0.0), (0.2, 0.45), (0.3, 0.9)]


class TestSlowModes:
    """The two modes BiCGSTAB starts exact on: linear functions of beta
    are eigenvectors of A = I - gamma*M with eigenvalue 1 - gamma, and row
    0 of M is a unit row.  Row n-1 is one only where BeliefGrid.locate(1.0)
    gives t = 1 exactly, as on N 201.  It gives 1 - 2.1e-14 on N 401 and
    801 and 1 - 1.1e-13 on N 2001 and 20001, and M[n-1, n-2] holds the
    difference."""

    @pytest.mark.parametrize("gamma", [0.0, 0.9, 0.9999])
    @pytest.mark.parametrize("tm, tp", SLOW_MODE_SPECS)
    def test_linear_functions_are_eigenvectors(self, tm, tp, gamma):
        prob = DiscountedProblem(BanditSpec(tm, tp), gamma)
        grid = BeliefGrid(201)
        q = np.random.default_rng(5).uniform(0.0, 1.0, grid.n_points)
        A = solver._stencil(prob, grid).policy_system(q)
        for c0, c1 in ((1.0, 1.0), (0.0, 1.0), (-3.0, 7.5)):
            f = solver._linear_part(np.array([c0, c1]), grid.nodes)
            assert f[0] == c0 and f[-1] == c1
            atol = 8 * np.finfo(float).eps * np.max(np.abs(f))
            np.testing.assert_allclose(A @ f, (1.0 - gamma) * f, rtol=0.0, atol=atol)
        M = policy_transition(prob, PolicyTable(grid, q)).toarray()
        unit = np.eye(grid.n_points)
        assert np.array_equal(M[0], unit[0])
        assert np.array_equal(M[-1], unit[-1])

    def test_start_residual_vanishes_at_both_ends(self, monkeypatch):
        # with or without a warm start, the first residual of every
        # solve lies in the complement that vanishes at beta = -1 and 1
        prob = DiscountedProblem(BanditSpec(0.55, 0.7), 0.9999)
        grid = BeliefGrid(2001)
        calls = TestSolveKernel.spy(monkeypatch)
        v, _, rounds = policy_iteration(prob, grid)
        pol = ids_policy_on_grid(prob, grid, IdsConfig(alpha=0.5, gamma=prob.gamma))
        policy_evaluation(prob, pol, x0=v)
        # a warm start that is no policy value keeps only its part that
        # vanishes at both ends
        noise = np.random.default_rng(3).normal(size=grid.n_points)
        policy_evaluation(prob, pol, x0=ValueFunction(grid, v.values + 100.0 * noise))
        assert len(calls) == rounds + 2
        for c in calls:
            res = c["b"] - c["A"] @ c["x0"]
            ulp = 8 * np.finfo(float).eps * np.max(np.abs(c["x0"]))
            assert abs(res[0]) <= ulp and abs(res[-1]) <= ulp
            assert c["info"] == 0

    @pytest.mark.parametrize(
        "tm, tp, gamma, n",
        [(0.55, 0.7, 0.99, 801), (0.55, 0.7, 0.9999, 2001), (0.5, 0.7, 0.99, 801)],
    )
    def test_warm_start_from_optimum_agrees_with_cold_solve(self, tm, tp, gamma, n, monkeypatch):
        prob = DiscountedProblem(BanditSpec(tm, tp), gamma)
        grid = BeliefGrid(n)
        v_opt, _, _ = policy_iteration(prob, grid)
        pol = ids_policy_on_grid(prob, grid, IdsConfig(alpha=0.5, gamma=gamma))
        calls = TestSolveKernel.spy(monkeypatch)
        cold = policy_evaluation(prob, pol).values
        warm = policy_evaluation(prob, pol, x0=v_opt).values
        cold_call, warm_call = calls
        assert not np.array_equal(warm_call["x0"], cold_call["x0"])
        A, b = cold_call["A"], cold_call["b"]

        def cert(u):
            return np.max(np.abs(b - A @ u)) / (1.0 - gamma)

        assert max(cert(cold), cert(warm)) <= default_tolerance(gamma)
        assert np.max(np.abs(warm - cold)) <= cert(warm) + cert(cold)

    def test_warm_start_must_share_the_grid(self):
        prob = DiscountedProblem(BanditSpec(0.55, 0.7), 0.9)
        pol = ids_policy_on_grid(prob, BeliefGrid(201), IdsConfig(alpha=0.5, gamma=0.9))
        with pytest.raises(ValueError, match="grid"):
            policy_evaluation(prob, pol, x0=ValueFunction(BeliefGrid(101), np.zeros(101)))

    def test_shared_stencil_is_read_only(self):
        prob = DiscountedProblem(BanditSpec(0.55, 0.7), 0.9)
        st = solver._stencil(prob, BeliefGrid(201))
        assert solver._stencil(prob, BeliefGrid(201)) is st
        arrays = [st.p, st.j, st.t, *st.r.values()]
        assert not any(a.flags.writeable for a in arrays)

    def test_pure_arm_systems_are_built_on_first_backup_with_read_only_weights(self):
        prob = DiscountedProblem(BanditSpec(0.6, 0.75), 0.9)
        grid = BeliefGrid(101)
        pol = ids_policy_on_grid(prob, grid, IdsConfig(alpha=0.5, gamma=0.9))
        policy_evaluation(prob, pol)
        st = solver._stencil(prob, grid)
        assert "arm_systems" not in vars(st)
        bellman_backup(ValueFunction(grid, np.zeros(grid.n_points)), prob)
        systems = vars(st)["arm_systems"]
        assert st.arm_systems is systems and sorted(systems) == [-1, 1]
        for s in systems.values():
            assert not s.data.flags.writeable and s.extra_data.size == 0
            # a read-only index array would make every take copy it
            assert s.cols.flags.writeable

    def test_stencil_holds_twelve_node_arrays(self):
        # p, j and t of each (arm, outcome), as the rows of three arrays;
        # r views rows of p, so each array counts once by its base, and the
        # policy system builds its columns from j instead of a cached copy
        n = 201
        st = solver._stencil(DiscountedProblem(BanditSpec(0.55, 0.7), 0.9), BeliefGrid(n))
        found = {}
        for attr in vars(st).values():
            for a in (attr.values() if isinstance(attr, dict) else [attr]):
                if isinstance(a, np.ndarray):
                    base = a if a.base is None else a.base
                    found[id(base)] = base
        assert sum(a.nbytes for a in found.values()) == 12 * 8 * n


class TestReachableBeliefs:
    def test_symmetric_depth_one(self):
        got = reachable_beliefs(BanditSpec(0.7, 0.7), 0.0, 1)
        np.testing.assert_allclose(got, [-0.4, 0.0, 0.4], atol=1e-12)

    def test_fair_pair_stays_put(self):
        got = reachable_beliefs(BanditSpec(0.5, 0.5), 0.3, 4)
        np.testing.assert_allclose(got, [0.3])

    def test_depth_growth(self):
        spec = BanditSpec(0.7, 0.7)
        assert len(reachable_beliefs(spec, 0.0, 0)) == 1
        assert len(reachable_beliefs(spec, 0.0, 2)) == 5
        assert len(reachable_beliefs(spec, 0.0, 3)) == 7

    def test_rejects_negative_depth(self):
        with pytest.raises(ValueError):
            reachable_beliefs(BanditSpec(0.7, 0.7), 0.0, -1)

    def test_sets_nest_by_depth(self):
        spec = BanditSpec(0.55, 0.7)
        d2 = set(np.round(reachable_beliefs(spec, 0.0, 2), 9))
        d3 = set(np.round(reachable_beliefs(spec, 0.0, 3), 9))
        assert d2 <= d3

    def test_rejects_out_of_range_start_at_depth_zero(self):
        with pytest.raises(ValueError):
            reachable_beliefs(BanditSpec(0.55, 0.7), 1.5, 0)
