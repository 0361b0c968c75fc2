"""Information-directed action selection and its regret guarantees."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from artifact.bandit import (
    BanditSpec,
    entropy,
    expected_reward,
    mutual_information,
    one_step_regret,
)
from artifact import ids as ids_module
from artifact.errors import DegenerateRatio
from artifact.ids import (
    DEFAULT_INFO_FLOOR,
    IdsConfig,
    entropy_reduction_cost,
    ids_action_dist,
    ids_endpoints,
    ids_policy_on_grid,
    info_ratio,
    information_function,
    ratio,
    ratio_table,
    regret_bound,
    scaled_log_sup_ratio,
    sup_info_ratio,
)
from artifact.solver import (
    BeliefGrid,
    DiscountedProblem,
    evaluate_cost,
    extract_greedy_policy,
    policy_evaluation,
    regret_curve,
    value_iteration,
)


def greedy_q(spec, beta):
    rp = expected_reward(spec, beta, 1)
    rm = expected_reward(spec, beta, -1)
    return 1.0 if rp >= rm else 0.0


class TestConfig:
    def test_domain_checks(self):
        with pytest.raises(ValueError):
            IdsConfig(alpha=-0.1, gamma=0.9)
        with pytest.raises(ValueError):
            IdsConfig(alpha=1.1, gamma=0.9)
        with pytest.raises(ValueError):
            IdsConfig(alpha=0.5, gamma=1.0)


class TestInformationFunction:
    def test_undiscounted_limit_is_entropy(self):
        spec = BanditSpec(0.55, 0.8)
        for beta in (-0.6, 0.0, 0.3):
            for q in (0.0, 0.4, 1.0):
                got = information_function(spec, beta, q, 0.0)
                assert got == pytest.approx(entropy(beta), abs=1e-12)

    def test_strong_discount_approaches_mutual_information(self):
        spec = BanditSpec(0.55, 0.8)
        beta, q = 0.2, 0.7
        mi = (1 - q) * mutual_information(spec, beta, -1) + q * mutual_information(
            spec, beta, 1
        )
        got = information_function(spec, beta, q, 1.0 - 1e-9)
        assert got == pytest.approx(mi, abs=1e-8)

    def test_identity_with_mutual_information(self):
        """I(q) = (1-gamma)H + gamma * mixed mutual information."""
        rng = np.random.default_rng(21)
        for _ in range(200):
            spec = BanditSpec(*rng.uniform(0.05, 0.95, 2))
            beta = rng.uniform(-1, 1)
            q = rng.uniform()
            gamma = rng.uniform(0, 0.999)
            mi = (1 - q) * mutual_information(spec, beta, -1) + q * mutual_information(
                spec, beta, 1
            )
            want = (1 - gamma) * entropy(beta) + gamma * mi
            got = information_function(spec, beta, q, gamma)
            assert got == pytest.approx(want, abs=1e-12)

    def test_zero_at_certainty(self):
        spec = BanditSpec(0.55, 0.8)
        for q in (0.0, 0.5, 1.0):
            for gamma in (0.0, 0.9, 0.999):
                assert information_function(spec, 1.0, q, gamma) == pytest.approx(0.0, abs=1e-15)
                assert information_function(spec, -1.0, q, gamma) == pytest.approx(0.0, abs=1e-15)

    def test_affine_in_q(self):
        spec = BanditSpec(0.6, 0.8)
        i0 = information_function(spec, 0.3, 0.0, 0.9)
        i1 = information_function(spec, 0.3, 1.0, 0.9)
        for q in (0.2, 0.5, 0.9):
            got = information_function(spec, 0.3, q, 0.9)
            assert got == (1 - q) * i0 + q * i1  # exact

    def test_never_below_undiscounted_share(self):
        rng = np.random.default_rng(22)
        for _ in range(300):
            spec = BanditSpec(*rng.uniform(0, 1, 2))
            beta = rng.uniform(-1, 1)
            q = rng.uniform()
            gamma = rng.uniform(0, 0.9999)
            got = information_function(spec, beta, q, gamma)
            assert got >= (1 - gamma) * entropy(beta) - 1e-12

    def test_rejects_mixture_outside_unit_interval(self):
        spec = BanditSpec(0.55, 0.7)
        for q in (1.5, -0.5):
            with pytest.raises(ValueError, match="q must lie in"):
                information_function(spec, 0.0, q, 0.9)


class TestInfoRatio:
    def test_half_exponent_example(self):
        assert info_ratio(0.2, 0.05, 0.5) == pytest.approx(0.8)

    def test_unit_exponent_returns_delta(self):
        assert info_ratio(0.37, 0.001, 1.0) == 0.37

    def test_zero_delta_wins_regardless_of_info(self):
        assert info_ratio(0.0, 0.0, 0.5) == 0.0
        assert info_ratio(0.0, 1.0, 0.25) == 0.0

    def test_degenerate_case_raises(self):
        with pytest.raises(DegenerateRatio):
            info_ratio(0.1, 0.0, 0.5)

    def test_alpha_domain(self):
        with pytest.raises(ValueError):
            info_ratio(0.1, 0.1, 0.0)
        with pytest.raises(ValueError):
            info_ratio(0.1, 0.1, 1.5)
        with pytest.raises(ValueError):
            info_ratio(-0.1, 0.1, 0.5)
        # NaN compares False, so a check written as `x < 0` would pass it
        for delta, info, alpha in [(math.nan, 1.0, 0.5), (0.1, math.nan, 0.5),
                                   (math.nan, 1.0, 1.0)]:
            with pytest.raises(ValueError):
                info_ratio(delta, info, alpha)


class TestActionSelection:
    def test_symmetric_spec_reduces_to_greedy(self):
        spec = BanditSpec(0.7, 0.7)
        for alpha in (0.0, 0.25, 0.5, 1.0):
            cfg = IdsConfig(alpha=alpha, gamma=0.99)
            for beta in (-0.9, -0.3, 0.0, 0.2, 0.8):
                ev = ids_action_dist(spec, beta, cfg)
                assert ev.q_star.q == greedy_q(spec, beta)

    def test_undiscounted_case_is_greedy(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            spec = BanditSpec(*rng.uniform(0.1, 0.9, 2))
            beta = rng.uniform(-1, 1)
            for alpha in (0.0, 0.5, 1.0):
                cfg = IdsConfig(alpha=alpha, gamma=0.0)
                ev = ids_action_dist(spec, beta, cfg)
                assert ev.q_star.q == greedy_q(spec, beta)

    def test_endpoint_rule_explores_biased_coin(self):
        """With a fair arm and zero-alpha, playing the uninformative arm has
        an infinite ratio wherever its regret is positive."""
        spec = BanditSpec(0.5, 0.7)
        cfg = IdsConfig(alpha=0.0, gamma=0.99)
        for beta in (-0.05, -0.2, -0.5):
            ev = ids_action_dist(spec, beta, cfg)
            assert ev.q_star.q == 1.0

    def test_zero_alpha_returns_endpoint_always(self):
        rng = np.random.default_rng(32)
        cfgs = [IdsConfig(alpha=0.0, gamma=g) for g in (0.3, 0.9, 0.999)]
        for _ in range(100):
            spec = BanditSpec(*rng.uniform(0.05, 0.95, 2))
            beta = rng.uniform(-1, 1)
            for cfg in cfgs:
                assert ids_action_dist(spec, beta, cfg).q_star.q in (0.0, 1.0)

    def test_guard_returns_greedy_at_certainty(self):
        spec = BanditSpec(0.55, 0.8)
        for alpha in (0.0, 0.5, 1.0):
            cfg = IdsConfig(alpha=alpha, gamma=0.9)
            assert ids_action_dist(spec, 1.0, cfg).q_star.q == greedy_q(spec, 1.0)
            assert ids_action_dist(spec, -1.0, cfg).q_star.q == greedy_q(spec, -1.0)
            near = ids_action_dist(spec, 1.0 - 1e-14, cfg)
            assert near.q_star.q == greedy_q(spec, 1.0 - 1e-14)

    def test_minimizer_beats_dense_scan(self):
        """Convexity check: no sampled q does better than the returned one."""
        rng = np.random.default_rng(33)
        qs = np.linspace(0, 1, 101)
        for _ in range(40):
            spec = BanditSpec(*rng.uniform(0.1, 0.9, 2))
            beta = rng.uniform(-0.95, 0.95)
            alpha = rng.choice([0.25, 0.5, 0.75, 1.0])
            gamma = rng.choice([0.5, 0.9, 0.99])
            cfg = IdsConfig(alpha=alpha, gamma=gamma)
            ev = ids_action_dist(spec, beta, cfg)
            d0 = one_step_regret(spec, beta, 0.0)
            d1 = one_step_regret(spec, beta, 1.0)
            i0 = information_function(spec, beta, 0.0, gamma)
            i1 = information_function(spec, beta, 1.0, gamma)
            for q in qs:
                d = (1 - q) * d0 + q * d1
                i = (1 - q) * i0 + q * i1
                if d == 0.0:
                    val = 0.0
                elif i <= 0.0:
                    continue
                else:
                    val = d ** (1 / alpha) * i ** (1 - 1 / alpha)
                assert ev.ratio <= val + 1e-9

    def test_ratio_evaluation_fields_consistent(self):
        spec = BanditSpec(0.5, 0.7)
        cfg = IdsConfig(alpha=0.5, gamma=0.99)
        ev = ids_action_dist(spec, -0.3, cfg)
        q = ev.q_star.q
        assert ev.delta == pytest.approx(one_step_regret(spec, -0.3, q), abs=1e-12)
        assert ev.info == pytest.approx(
            information_function(spec, -0.3, q, 0.99), abs=1e-12
        )
        assert ev.delta >= 0.0 and ev.info >= 0.0 and ev.ratio >= 0.0


def scaled_log_objective(ends, q, alpha):
    """alpha * log of D(q)^p / I(q)^(p-1), p = 1/alpha, for mixtures q,
    that is log D(q) - (1-alpha) log I(q); -inf where D(q) = 0, +inf where
    D(q) > 0 = I(q)."""
    d0, d1, i0, i1 = ends
    d, i = (1 - q) * d0 + q * d1, (1 - q) * i0 + q * i1
    with np.errstate(divide="ignore", invalid="ignore"):
        val = np.where(i > 0.0, np.log(d) - (1.0 - alpha) * np.log(i), np.inf)
    return np.where(d > 0.0, val, -np.inf)


class TestKernelProperty:
    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
        st.floats(-1.0, 1.0),
        st.floats(0.0, 0.999),
        st.floats(0.0, 1.0, exclude_min=True),
    )
    def test_no_scanned_mixture_beats_the_kernel(self, tm, tp, beta, gamma, alpha):
        """The selected q is a minimizer: no point of a 10,001-point scan of
        [0, 1] has a log objective lower by more than the near-tie rule
        (1e-12, relative in the objective) plus the float error of the
        logarithms.  Both sides are scaled by alpha, which keeps their
        order and keeps them finite however small alpha is."""
        spec = BanditSpec(tm, tp)
        ends = [float(x[0]) for x in ids_endpoints(spec, gamma, [beta])]
        assume(max(ends[2], ends[3]) >= DEFAULT_INFO_FLOOR)
        q = ids_action_dist(spec, beta, IdsConfig(alpha=alpha, gamma=gamma)).q_star.q
        scan = scaled_log_objective(ends, np.linspace(0.0, 1.0, 10001), alpha)
        k = int(np.argmin(scan))
        m = float(scan[k])
        got = float(scaled_log_objective(ends, np.array(q), alpha))
        if math.isinf(m):
            assert got == m
            return
        d0, d1, i0, i1 = ends
        qk = k / 10000.0
        logs = abs(math.log((1 - qk) * d0 + qk * d1)) + abs(math.log((1 - qk) * i0 + qk * i1))
        float_err = 8.0 * np.finfo(float).eps * (4.0 + logs)
        assert got <= m + 1e-12 * alpha + float_err


class TestSmallAlphaLimit:
    """Spec (0.55, 0.7), gamma 0.99, N 401: IDS(alpha) tends to IDS(0)."""

    prob = DiscountedProblem(BanditSpec(0.55, 0.7), 0.99)
    grid = BeliefGrid(401)

    def policy(self, alpha):
        return ids_policy_on_grid(self.prob, self.grid, IdsConfig(alpha=alpha, gamma=0.99))

    def max_regret(self, alpha):
        v = policy_evaluation(self.prob, self.policy(alpha))
        return float(np.max(regret_curve(self.prob, v).values))

    def test_tiny_alpha_regret_matches_ids0(self):
        r0 = self.max_regret(0.0)
        assert r0 == pytest.approx(1.517, abs=1e-3)
        assert abs(self.max_regret(1e-3) - r0) <= 1e-3 * r0

    def test_alpha_one_hundredth_regret(self):
        assert self.max_regret(0.01) <= 1.52

    def test_tiny_alpha_bound_is_finite_and_near_ids0(self):
        b0, _ = regret_bound(self.prob, self.policy(0.0), 0.0, 0.0)
        bound, holds = regret_bound(self.prob, self.policy(1e-3), 1e-3, 0.0)
        assert math.isfinite(bound)
        assert holds
        assert abs(bound - b0) <= 1e-3 * b0

    def test_scalar_and_grid_paths_agree_exactly(self):
        cfg = IdsConfig(alpha=0.25, gamma=0.99)
        pol = ids_policy_on_grid(self.prob, self.grid, cfg)
        for i, beta in enumerate(self.grid.nodes):
            assert ids_action_dist(self.prob.spec, beta, cfg).q_star.q == pol.q[i]


class TestGridPolicy:
    def test_matches_scalar_selection(self):
        prob = DiscountedProblem(BanditSpec(0.55, 0.75), 0.95)
        grid = BeliefGrid(201)
        for alpha in (0.0, 0.5, 1.0):
            cfg = IdsConfig(alpha=alpha, gamma=0.95)
            pol = ids_policy_on_grid(prob, grid, cfg)
            for i in range(0, grid.n_points, 13):
                ev = ids_action_dist(prob.spec, grid.nodes[i], cfg)
                assert pol.q[i] == pytest.approx(ev.q_star.q, abs=1e-9)

    def test_gamma_mismatch_rejected(self):
        prob = DiscountedProblem(BanditSpec(0.55, 0.75), 0.95)
        with pytest.raises(ValueError):
            ids_policy_on_grid(prob, BeliefGrid(11), IdsConfig(alpha=0.5, gamma=0.9))

    def test_boundary_ordering_between_variants(self):
        """A fair arm plus a biased arm: the zero-alpha boundary must sit
        strictly between the half-alpha boundary and the optimal one."""
        prob = DiscountedProblem(BanditSpec(0.5, 0.7), 0.99)
        grid = BeliefGrid(2001)
        v, _ = value_iteration(prob, grid)
        bc_opt = extract_greedy_policy(prob, v).boundary
        bc0 = ids_policy_on_grid(prob, grid, IdsConfig(alpha=0.0, gamma=0.99)).boundary
        bc5 = ids_policy_on_grid(prob, grid, IdsConfig(alpha=0.5, gamma=0.99)).boundary
        lo, hi = min(bc5, bc_opt), max(bc5, bc_opt)
        assert lo < bc0 < hi


class TestSupRatioAndBound:
    def test_alpha_one_bound_is_sup_regret_over_discount(self):
        prob = DiscountedProblem(BanditSpec(0.55, 0.7), 0.9)
        grid = BeliefGrid(201)
        pol = ids_policy_on_grid(prob, grid, IdsConfig(alpha=1.0, gamma=0.9))
        psi = sup_info_ratio(prob, pol, 1.0)
        bound, _ = regret_bound(prob, pol, 1.0, 0.0)
        assert bound == pytest.approx(psi / (1.0 - prob.gamma))

    def test_certain_start_gives_zero_bound(self):
        prob = DiscountedProblem(BanditSpec(0.55, 0.7), 0.9)
        grid = BeliefGrid(201)
        pol = ids_policy_on_grid(prob, grid, IdsConfig(alpha=0.5, gamma=0.9))
        for b0 in (1.0, -1.0):
            bound, holds = regret_bound(prob, pol, 0.5, b0)
            assert bound == 0.0
            assert holds

    @pytest.mark.parametrize("b0", [1.5, -1.5, math.nan])
    def test_invalid_start_belief_raises(self, b0):
        # a NaN bound would otherwise be reported as violated
        prob = DiscountedProblem(BanditSpec(0.55, 0.7), 0.9)
        pol = ids_policy_on_grid(prob, BeliefGrid(201), IdsConfig(alpha=0.5, gamma=0.9))
        with pytest.raises(ValueError, match="beta must lie in"):
            regret_bound(prob, pol, 0.5, b0)

    def test_value_must_share_the_grid(self):
        # a value on another grid would be interpolated into a wrong bound
        prob = DiscountedProblem(BanditSpec(0.55, 0.7), 0.5)
        config = IdsConfig(alpha=0.5, gamma=0.5)
        pol = ids_policy_on_grid(prob, BeliefGrid(201), config)
        v = policy_evaluation(prob, ids_policy_on_grid(prob, BeliefGrid(11), config))
        with pytest.raises(ValueError, match="grid"):
            regret_bound(prob, pol, 0.5, 0.0, value=v)

    def test_symmetric_bound_holds_at_uniform_start(self):
        prob = DiscountedProblem(BanditSpec(0.7, 0.7), 0.99)
        grid = BeliefGrid(801)
        pol = ids_policy_on_grid(prob, grid, IdsConfig(alpha=0.5, gamma=0.99))
        bound, holds = regret_bound(prob, pol, 0.5, 0.0)
        assert holds
        assert bound > 0.0

    def test_sup_ratio_skips_guarded_endpoints(self):
        prob = DiscountedProblem(BanditSpec(0.7, 0.7), 0.9)
        grid = BeliefGrid(201)
        pol = ids_policy_on_grid(prob, grid, IdsConfig(alpha=0.5, gamma=0.9))
        psi = sup_info_ratio(prob, pol, 0.5)
        assert np.isfinite(psi)
        assert psi >= 0.0

    def test_alpha_domain_checked(self):
        prob = DiscountedProblem(BanditSpec(0.7, 0.7), 0.9)
        grid = BeliefGrid(11)
        pol = ids_policy_on_grid(prob, grid, IdsConfig(alpha=0.5, gamma=0.9))
        with pytest.raises(ValueError):
            sup_info_ratio(prob, pol, 1.5)


class TestInfoFloor:
    """DEFAULT_INFO_FLOOR is the one floor: the greedy guard of the
    selection and the nodes the sup ratio skips both follow it.  Spec
    (0.55, 0.7), gamma 0.9, N 21, alpha 0.5: the largest information of
    a node is 0.1434, and the default sup ratio sits at beta = -0.2."""

    prob = DiscountedProblem(BanditSpec(0.55, 0.7), 0.9)
    grid = BeliefGrid(21)
    config = IdsConfig(alpha=0.5, gamma=0.9)

    def test_greedy_guard_follows_the_floor(self, monkeypatch):
        greedy = np.array([greedy_q(self.prob.spec, b) for b in self.grid.nodes])
        before = ids_policy_on_grid(self.prob, self.grid, self.config).q
        # beta = -0.1 explores arm +1 although arm -1 is greedy there
        assert before[9] == 1.0 and greedy[9] == 0.0
        # above every node's information, so every node is guarded
        monkeypatch.setattr(ids_module, "DEFAULT_INFO_FLOOR", 0.145)
        after = ids_policy_on_grid(self.prob, self.grid, self.config).q
        np.testing.assert_array_equal(after, greedy)

    def test_sup_ratio_skip_follows_the_floor(self, monkeypatch):
        pol = ids_policy_on_grid(self.prob, self.grid, self.config)
        _, d0, d1, i0, i1, q, r = ratio_table(self.prob, pol, 0.5)
        d, i = (1.0 - q) * d0 + q * d1, (1.0 - q) * i0 + q * i1
        before = sup_info_ratio(self.prob, pol, 0.5)
        assert before == np.max(r)
        monkeypatch.setattr(ids_module, "DEFAULT_INFO_FLOOR", 0.12)
        kept = (d >= 0.12) | (i >= 0.12)
        after = sup_info_ratio(self.prob, pol, 0.5)
        assert after == np.max(r[kept])
        assert after < before


class TestEntropyReductionCost:
    def test_accumulates_back_to_entropy(self):
        """The grid-consistent one-step information cost telescopes."""
        prob = DiscountedProblem(BanditSpec(0.55, 0.7), 0.9)
        grid = BeliefGrid(201)
        pol = ids_policy_on_grid(prob, grid, IdsConfig(alpha=0.5, gamma=0.9))
        g = entropy_reduction_cost(prob, pol)
        tol = 1e-10
        c = evaluate_cost(prob, pol, g, tol=tol)
        assert np.max(np.abs(c.values - entropy(grid.nodes))) <= 10.0 * tol

    def test_cost_is_positive_in_the_interior(self):
        prob = DiscountedProblem(BanditSpec(0.6, 0.8), 0.9)
        grid = BeliefGrid(101)
        pol = ids_policy_on_grid(prob, grid, IdsConfig(alpha=1.0, gamma=0.9))
        g = entropy_reduction_cost(prob, pol)
        assert np.all(g[1:-1] > 0.0)


class TestRatioTable:
    def test_columns_are_endpoints_mixture_and_objective(self):
        prob = DiscountedProblem(BanditSpec(0.55, 0.7), 0.99)
        grid = BeliefGrid(401)
        pol = ids_policy_on_grid(prob, grid, IdsConfig(alpha=0.5, gamma=0.99))
        beta, d0, d1, i0, i1, q, r = ratio_table(prob, pol, 0.5)
        ends = ids_endpoints(prob.spec, prob.gamma, grid.nodes)
        for got, want in zip((beta, d0, d1, i0, i1, q), (grid.nodes, *ends, pol.q)):
            np.testing.assert_array_equal(got, want)
        want_r = ratio((1 - q) * ends[0] + q * ends[1], (1 - q) * ends[2] + q * ends[3], 0.5)
        np.testing.assert_array_equal(r, want_r)

    def test_one_policy_computes_its_endpoints_once(self, monkeypatch):
        calls = []
        real = ids_module.ids_endpoints

        def counting(spec, gamma, beliefs):
            calls.append(len(beliefs))
            return real(spec, gamma, beliefs)

        monkeypatch.setattr(ids_module, "ids_endpoints", counting)
        ids_module._grid_endpoints.cache_clear()
        prob = DiscountedProblem(BanditSpec(0.55, 0.7), 0.99)
        grid = BeliefGrid(201)
        pol = ids_policy_on_grid(prob, grid, IdsConfig(alpha=0.5, gamma=0.99))
        v = policy_evaluation(prob, pol)
        sup_info_ratio(prob, pol, 0.5)
        scaled_log_sup_ratio(prob, pol, 0.5)
        regret_bound(prob, pol, 0.5, 0.0, value=v)
        ratio_table(prob, pol, 0.5)
        assert calls == [201]
        ids_policy_on_grid(
            DiscountedProblem(BanditSpec(0.55, 0.7), 0.9), grid, IdsConfig(alpha=0.5, gamma=0.9)
        )
        assert calls == [201, 201]

    @pytest.mark.parametrize("alpha", [-1.0, 1.5, math.nan])
    def test_alpha_outside_unit_interval_raises(self, alpha):
        prob = DiscountedProblem(BanditSpec(0.55, 0.7), 0.99)
        pol = ids_policy_on_grid(prob, BeliefGrid(11), IdsConfig(alpha=0.5, gamma=0.99))
        with pytest.raises(ValueError, match="alpha must lie in"):
            ratio([0.1], [0.2], alpha)
        with pytest.raises(ValueError, match="alpha must lie in"):
            ratio_table(prob, pol, alpha)

    def test_shared_endpoints_are_read_only(self):
        prob = DiscountedProblem(BanditSpec(0.55, 0.7), 0.99)
        pol = ids_policy_on_grid(prob, BeliefGrid(101), IdsConfig(alpha=0.5, gamma=0.99))
        d0 = ratio_table(prob, pol, 0.5)[1]
        with pytest.raises(ValueError):
            d0[0] = 1.0
