"""Model primitives: win probabilities, Bayes updates, entropy, information."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from artifact.bandit import (
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
from artifact.errors import ZeroLikelihood
from artifact.solver import DiscountedProblem, bellman_apply

specs = st.builds(
    BanditSpec,
    st.floats(0.0, 1.0, allow_nan=False),
    st.floats(0.0, 1.0, allow_nan=False),
)
betas = st.floats(-1.0, 1.0, allow_nan=False)
actions = st.sampled_from([-1, 1])
outcomes = st.sampled_from([0, 1])
# degenerate arms (deterministic or fair) and certain beliefs, mixed with the rest
edge_thetas = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0, allow_nan=False)
edge_specs = st.builds(BanditSpec, edge_thetas, edge_thetas)
belief_arrays = st.lists(
    st.sampled_from([-1.0, 0.0, 1.0]) | betas, min_size=1, max_size=12
).map(lambda xs: np.array([-1.0, 1.0] + xs))


class TestDataTypes:
    def test_spec_rejects_out_of_range_theta(self):
        with pytest.raises(ValueError):
            BanditSpec(-0.1, 0.7)
        with pytest.raises(ValueError):
            BanditSpec(0.5, 1.5)

    def test_spec_bias_and_symmetry(self):
        s = BanditSpec(0.55, 0.7)
        assert s.bias(-1) == pytest.approx(0.1)
        assert s.bias(1) == pytest.approx(0.4)
        assert s.bias_minus == s.bias(-1)
        assert s.bias_plus == s.bias(1)
        assert not s.symmetric
        assert BanditSpec(0.7, 0.7).symmetric

    def test_belief_probabilities(self):
        b = Belief(0.4)
        assert b.prob(1) == pytest.approx(0.7)
        assert b.prob(-1) == pytest.approx(0.3)
        with pytest.raises(ValueError):
            Belief(1.1)

    def test_action_distribution(self):
        d = ActionDistribution(0.25)
        assert d.prob(1) == 0.25
        assert d.prob(-1) == 0.75
        with pytest.raises(ValueError):
            ActionDistribution(1.2)

    def test_observation_reward_equals_outcome(self):
        assert Observation(1).reward == 1.0
        assert Observation(0).reward == 0.0
        with pytest.raises(ValueError):
            Observation(2)


class TestWinProb:
    def test_symmetric_namesake_state(self):
        assert win_prob(BanditSpec(0.7, 0.7), -1, -1) == pytest.approx(0.7)

    def test_fair_coin_pays_half_everywhere(self):
        assert win_prob(BanditSpec(0.5, 0.6), 1, -1) == pytest.approx(0.5)

    def test_off_state_complement(self):
        assert win_prob(BanditSpec(0.55, 0.7), -1, 1) == pytest.approx(0.3)

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            win_prob(BanditSpec(0.5, 0.5), 0, 1)
        with pytest.raises(ValueError):
            win_prob(BanditSpec(0.5, 0.5), 1, 2)


class TestObsProb:
    def test_uniform_belief_averages(self):
        assert obs_prob(BanditSpec(0.3, 0.7), 0.0, 1, 1) == pytest.approx(0.5)

    def test_certain_belief_recovers_theta(self):
        assert obs_prob(BanditSpec(0.3, 0.7), 1.0, 1, 1) == pytest.approx(0.7)

    def test_interior_belief(self):
        got = obs_prob(BanditSpec(0.3, 0.7), 0.4, 1, 1)
        assert got == pytest.approx(0.58)

    @given(specs, betas, actions)
    def test_outcome_probabilities_sum_to_one(self, spec, beta, a):
        total = obs_prob(spec, beta, a, 0) + obs_prob(spec, beta, a, 1)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_accepts_belief_object(self):
        s = BanditSpec(0.3, 0.7)
        assert obs_prob(s, Belief(0.4), 1, 1) == obs_prob(s, 0.4, 1, 1)

    def test_reads_an_observation_as_its_outcome(self):
        s = BanditSpec(0.3, 0.7)
        for y in (0, 1):
            assert obs_prob(s, 0.4, -1, Observation(y)) == obs_prob(s, 0.4, -1, y)


class TestExpectedReward:
    def test_uniform_symmetric(self):
        s = BanditSpec(0.7, 0.7)
        assert expected_reward(s, 0.0, 1) == pytest.approx(0.5)
        assert expected_reward(s, 0.0, -1) == pytest.approx(0.5)

    def test_certainty(self):
        assert expected_reward(BanditSpec(0.3, 0.7), 1.0, 1) == pytest.approx(0.7)

    def test_formula_value(self):
        got = expected_reward(BanditSpec(0.55, 0.7), -0.5, -1)
        assert got == pytest.approx(0.525)

    def test_closed_form_matches_state_sum(self):
        """The affine-in-beta form must agree with marginalizing the state."""
        rng = np.random.default_rng(7)
        for _ in range(1000):
            tm, tp = rng.uniform(0, 1, 2)
            beta = rng.uniform(-1, 1)
            a = int(rng.choice([-1, 1]))
            spec = BanditSpec(tm, tp)
            by_sum = sum(
                (1.0 + s * beta) / 2.0 * win_prob(spec, s, a) for s in (-1, 1)
            )
            assert abs(expected_reward(spec, beta, a) - by_sum) <= 1e-15


class TestBeliefUpdate:
    def test_fair_coin_is_uninformative(self):
        s = BanditSpec(0.5, 0.7)
        for beta in (-0.8, -0.2, 0.0, 0.6):
            for y in (0, 1):
                assert belief_update(s, beta, -1, y) == pytest.approx(beta)

    def test_deterministic_arm_collapses_belief(self):
        assert belief_update(BanditSpec(1.0, 1.0), 0.0, 1, 1) == 1.0

    def test_example_posterior(self):
        got = belief_update(BanditSpec(0.3, 0.7), 0.0, 1, 1)
        assert got == pytest.approx(0.4, abs=1e-12)

    def test_zero_likelihood_raises(self):
        # certain of s=-1, deterministic arm +1 can then never pay
        with pytest.raises(ZeroLikelihood):
            belief_update(BanditSpec(0.5, 1.0), -1.0, 1, 1)

    def test_output_stays_in_range(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            spec = BanditSpec(*rng.uniform(0.01, 0.99, 2))
            beta = rng.uniform(-1, 1)
            b2 = belief_update(spec, beta, int(rng.choice([-1, 1])), int(rng.integers(2)))
            assert -1.0 <= b2 <= 1.0

    @given(specs, betas, actions)
    @settings(max_examples=200)
    def test_martingale(self, spec, beta, a):
        """Posterior mean over outcomes equals the prior."""
        mean = 0.0
        for y in (0, 1):
            p = obs_prob(spec, beta, a, y)
            if p > 0.0:
                mean += p * belief_update(spec, beta, a, y)
        assert mean == pytest.approx(beta, abs=1e-12)

    @given(specs, betas, actions, outcomes)
    @settings(max_examples=200)
    def test_bayes_product_identity(self, spec, beta, a, y):
        """b'(s) * p_b(y|a) = b(s) * p(y|s,a) whenever the outcome is possible."""
        p = obs_prob(spec, beta, a, y)
        if p <= 1e-9:
            return
        b2 = belief_update(spec, beta, a, y)
        for s in (-1, 1):
            lhs = (1.0 + s * b2) / 2.0 * p
            pys = win_prob(spec, s, a) if y == 1 else 1.0 - win_prob(spec, s, a)
            rhs = (1.0 + s * beta) / 2.0 * pys
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestEntropy:
    def test_uniform_is_log_two(self):
        assert entropy(0.0) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_certainty_is_zero(self):
        assert entropy(1.0) == 0.0
        assert entropy(-1.0) == 0.0

    def test_known_value(self):
        assert entropy(0.4) == pytest.approx(0.610864, abs=1e-6)

    def test_accepts_belief_object(self):
        assert entropy(Belief(0.4)) == entropy(0.4)

    def test_array_input(self):
        vals = entropy(np.array([-1.0, 0.0, 1.0]))
        np.testing.assert_allclose(vals, [0.0, math.log(2.0), 0.0], atol=1e-15)

    @given(betas)
    def test_range_and_evenness(self, beta):
        h = entropy(beta)
        assert 0.0 <= h <= math.log(2.0) + 1e-15
        assert h == pytest.approx(entropy(-beta), abs=1e-12)


class TestEntropyMatchesXlogy:
    """entropy takes its logs from libm, as scipy's xlogy does, and must
    agree with -xlogy(b-, b-) - xlogy(b+, b+) + 0 bit for bit."""

    @staticmethod
    def reference(beta):
        from scipy.special import xlogy

        b = np.asarray(beta, dtype=float)
        bm, bp = (1.0 - b) / 2.0, (1.0 + b) / 2.0
        return -xlogy(bm, bm) - xlogy(bp, bp) + 0.0

    def check(self, beta):
        want = self.reference(beta)
        with np.errstate(all="raise"):
            got = entropy(beta)
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))
        return got

    def test_fine_grid_nodes_and_posteriors(self):
        spec = BanditSpec(0.55, 0.7)
        nodes = np.linspace(-1.0, 1.0, 20001)
        self.check(nodes)
        for a in (-1, 1):
            for y in (0, 1):
                self.check(posterior(spec, nodes, a, y)[1])

    def test_random_beliefs(self):
        self.check(np.random.default_rng(11).uniform(-1.0, 1.0, 10**5))

    def test_edge_inputs(self):
        edges = np.array([-1.0, 0.0, -0.0, 1.0, 1.5, -2.0, np.inf, -np.inf, np.nan])
        got = self.check(edges)
        assert np.array_equal(got[:4], [0.0, math.log(2.0), math.log(2.0), 0.0])
        assert np.all(np.isnan(got[4:]))
        for b in edges:
            with np.errstate(all="raise"):
                h = entropy(float(b))
            assert np.array_equal(h, self.reference(b), equal_nan=True)


class TestMutualInformation:
    def test_fair_coin_gives_zero(self):
        s = BanditSpec(0.5, 0.7)
        for beta in (-0.9, 0.0, 0.3):
            assert mutual_information(s, beta, -1) == 0.0

    def test_known_value(self):
        got = mutual_information(BanditSpec(0.3, 0.7), 0.0, 1)
        assert got == pytest.approx(0.082282, abs=1e-6)

    @given(st.floats(0.0, 1.0, allow_nan=False), betas)
    @settings(max_examples=200)
    def test_symmetric_spec_equalizes_actions(self, theta, beta):
        s = BanditSpec(theta, theta)
        gap = mutual_information(s, beta, 1) - mutual_information(s, beta, -1)
        assert abs(gap) <= 1e-12

    @given(specs, betas, actions)
    @settings(max_examples=200)
    def test_matches_entropy_reduction(self, spec, beta, a):
        """Four-term sum equals H(prior) - E[H(posterior)]."""
        red = entropy(beta)
        for y in (0, 1):
            p = obs_prob(spec, beta, a, y)
            if p > 0.0:
                red -= p * entropy(belief_update(spec, beta, a, y))
        assert mutual_information(spec, beta, a) == pytest.approx(red, abs=1e-12)

    @given(specs, betas, actions)
    # an outcome of probability zero: a Python float would raise
    # ZeroDivisionError in the ratio
    @example(BanditSpec(0.0, 1.0), 1.0, 1)
    @example(BanditSpec(0.0, 1.0), -1.0, -1)
    def test_nonnegative(self, spec, beta, a):
        assert mutual_information(spec, beta, a) >= 0.0

    def test_matches_extended_precision_references(self):
        # 50-digit references of the four-term sum; near a fair coin its
        # log ratios sit near 1, where a plain log lost up to 11% relative
        cases = [
            ((0.5, 0.51), 1 - 1e-9, 4.0005333462263098722e-13),
            ((0.5, 0.55), 1 - 1e-12, 1.0033312814054445601e-14),
            ((0.5, 0.51), -0.999999, 4.0005314606846415395e-10),
        ]
        for (tm, tp), beta, ref in cases:
            got = mutual_information(BanditSpec(tm, tp), beta, 1)
            assert abs(got - ref) <= 1e-13 * ref

    @given(edge_specs, belief_arrays, actions)
    def test_array_matches_scalar(self, spec, beliefs, a):
        got = mutual_information(spec, np.array(beliefs), a)
        want = [mutual_information(spec, b, a) for b in beliefs]
        assert np.array_equal(got, want)


class TestOneStepRegret:
    def test_zero_at_matched_certainty(self):
        for spec in (BanditSpec(0.7, 0.7), BanditSpec(0.5, 0.7), BanditSpec(0.2, 0.9)):
            assert one_step_regret(spec, 1.0, 1.0) == 0.0

    def test_symmetric_uniform(self):
        s = BanditSpec(0.7, 0.7)
        for q in (0.0, 0.3, 1.0):
            assert one_step_regret(s, 0.0, q) == pytest.approx(0.2)

    def test_fair_coin_example(self):
        assert one_step_regret(BanditSpec(0.5, 0.7), 0.0, 0.0) == pytest.approx(0.1)

    def test_gap_closed_form(self):
        """gap(a) = b(-a) * (theta_minus + theta_plus - 1)."""
        rng = np.random.default_rng(3)
        for _ in range(200):
            tm, tp = rng.uniform(0, 1, 2)
            if tm + tp < 1.0:
                continue  # closed form below assumes each arm best in its state
            spec = BanditSpec(tm, tp)
            beta = rng.uniform(-1, 1)
            for a in (-1, 1):
                want = (1.0 - a * beta) / 2.0 * (tm + tp - 1.0)
                assert regret_gap(spec, beta, a) == pytest.approx(want, abs=1e-12)

    @given(specs, betas, st.floats(0.0, 1.0, allow_nan=False))
    @settings(max_examples=200)
    def test_affine_in_q(self, spec, beta, q):
        lhs = one_step_regret(spec, beta, q)
        rhs = (1.0 - q) * one_step_regret(spec, beta, 0.0) + q * one_step_regret(
            spec, beta, 1.0
        )
        assert lhs == rhs  # exact by construction

    @given(specs, betas, st.floats(0.0, 1.0, allow_nan=False))
    def test_nonnegative(self, spec, beta, q):
        assert one_step_regret(spec, beta, q) >= 0.0

    def test_accepts_action_distribution(self):
        s = BanditSpec(0.5, 0.7)
        assert one_step_regret(s, 0.0, ActionDistribution(0.0)) == one_step_regret(
            s, 0.0, 0.0
        )


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


class TestPosterior:
    @given(edge_specs, belief_arrays, actions, outcomes)
    @settings(max_examples=200)
    def test_matches_closed_form_bitwise(self, spec, b, a, y):
        c, d = a * (2 * y - 1), 2.0 * spec.theta(a) - 1.0
        want_p, want_post = [], []
        for beta in b.tolist():
            p = (1.0 + c * beta * d) / 2.0
            want_p.append(p)
            want_post.append(
                min(1.0, max(-1.0, (beta + c * d) / (2.0 * p))) if p > 0.0 else beta
            )
        p, post = posterior(spec, b, a, y)
        assert _bits(p) == _bits(want_p)
        assert _bits(post) == _bits(want_post)

    @given(edge_specs, belief_arrays, actions)
    @settings(max_examples=200)
    def test_outcome_probabilities_sum_to_one(self, spec, b, a):
        p0, _ = posterior(spec, b, a, 0)
        p1, _ = posterior(spec, b, a, 1)
        np.testing.assert_allclose(p0 + p1, 1.0, rtol=0.0, atol=1e-15)

    @given(edge_specs, belief_arrays, actions)
    @settings(max_examples=200)
    def test_martingale(self, spec, b, a):
        """sum_y p_b(y|a) beta'(y) = beta at every belief of the array."""
        mean = sum(p * post for p, post in (posterior(spec, b, a, y) for y in (0, 1)))
        np.testing.assert_allclose(mean, b, rtol=0.0, atol=1e-12)

    @given(edge_specs, belief_arrays, actions, outcomes)
    def test_impossible_outcome_keeps_belief(self, spec, b, a, y):
        p, post = posterior(spec, b, a, y)
        assert np.all(post[p <= 0.0] == b[p <= 0.0])

    def test_zero_over_zero_keeps_belief(self):
        # deterministic arm +1 at certainty of s = -1: (beta + d) / (2p) is 0/0
        p, post = posterior(BanditSpec(1.0, 1.0), np.array([-1.0, 0.0, 1.0]), 1, 1)
        assert p.tolist() == [0.0, 0.5, 1.0]
        assert post.tolist() == [-1.0, 1.0, 1.0]

    @given(edge_specs, belief_arrays, actions, outcomes)
    @settings(max_examples=100)
    def test_scalar_wrappers_match_array_entries(self, spec, b, a, y):
        p, post = posterior(spec, b, a, y)
        gaps = regret_gap(spec, b, a)
        for i, beta in enumerate(b.tolist()):
            assert _bits(obs_prob(spec, beta, a, y)) == _bits(p[i])
            assert _bits(regret_gap(spec, beta, a)) == _bits(gaps[i])
            if p[i] > 0.0:
                assert _bits(belief_update(spec, beta, a, y)) == _bits(post[i])
            else:
                with pytest.raises(ZeroLikelihood):
                    belief_update(spec, beta, a, y)

    def test_bellman_apply_rejects_out_of_range_belief(self):
        prob = DiscountedProblem(BanditSpec(0.55, 0.7), 0.9)
        with pytest.raises(ValueError):
            bellman_apply(prob, lambda b: 0.0, 1.5)
