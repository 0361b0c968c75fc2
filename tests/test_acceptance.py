"""Acceptance gate: eleven end-to-end checks of the published claims.

Each test prints one summary line with the measured quantities so a run
log shows how much margin every criterion has.  Tolerances are fixed
here and are not tuned to the implementation.
"""

import numpy as np
import pytest

from artifact.analytic import (
    fair_coin_solution,
    fit_log_regret_expansion,
    symmetric_regret_limit,
    symmetric_regret_linear_coeff,
    symmetric_value,
)
from artifact.bandit import BanditSpec, entropy, mutual_information, win_prob
from artifact.experiments import delta_R_heatmap
from artifact.ids import (
    IdsConfig,
    entropy_reduction_cost,
    ids_policy_on_grid,
    regret_bound,
)
from artifact.solver import (
    BeliefGrid,
    DiscountedProblem,
    PolicyTable,
    ValueFunction,
    bellman_backup,
    decision_boundary,
    evaluate_cost,
    extract_greedy_policy,
    mdp_value,
    policy_evaluation,
    policy_iteration,
    reachable_beliefs,
)


def report(num, ok, detail):
    print(f"criterion {num:02d}: {detail} -> {'PASS' if ok else 'FAIL'}")
    return ok


def optimal_regret_nodes(prob, grid):
    v, _, _ = policy_iteration(prob, grid)
    return v, mdp_value(prob, grid.nodes) - v.values


def ids_regret_nodes(prob, grid, alpha):
    policy = ids_policy_on_grid(prob, grid, IdsConfig(alpha=alpha, gamma=prob.gamma))
    v = policy_evaluation(prob, policy)
    return v, mdp_value(prob, grid.nodes) - v.values


def test_criterion_01_ids_matches_optimal_on_symmetric_specs():
    grid = BeliefGrid(2001)
    worst = 0.0
    ok = True
    for theta in (0.55, 0.7):
        prob = DiscountedProblem(BanditSpec(theta, theta), 0.99)
        _, r_opt = optimal_regret_nodes(prob, grid)
        allowed = 5e-3 * float(np.max(r_opt))
        for alpha in (0.0, 0.25, 0.5, 1.0):
            _, r_ids = ids_regret_nodes(prob, grid, alpha)
            dev = float(np.max(np.abs(r_ids - r_opt)))
            worst = max(worst, dev / allowed)
            ok = ok and dev <= allowed
    assert report(
        1, ok, f"max |R_ids - R_opt| over specs and alphas is {worst:.3g} of allowance"
    )


def test_criterion_02_symmetric_closed_form_agreement():
    grid = BeliefGrid(2001)
    worst = 0.0
    for theta in (0.55, 0.7, 0.8):
        prob = DiscountedProblem(BanditSpec(theta, theta), 0.99)
        v, _, _ = policy_iteration(prob, grid)
        for beta in reachable_beliefs(prob.spec, 0.0, 6):
            num = v(beta)
            ana = symmetric_value(theta, 0.99, beta)
            worst = max(worst, abs(num - ana) / abs(num))
    ok = worst <= 1e-3
    assert report(2, ok, f"max relative value deviation {worst:.2g} (tol 1e-03)")


def test_criterion_03_regret_limit_and_slope():
    grid = BeliefGrid(20001)
    eps_list = (5e-5, 1e-4, 2e-4)
    r0 = []
    for eps in eps_list:
        prob = DiscountedProblem(BanditSpec(0.55, 0.55), 1.0 - eps)
        v, _, _ = policy_iteration(prob, grid)
        r0.append(float(mdp_value(prob, 0.0) - v(0.0)))
    limit = symmetric_regret_limit(0.55)
    at_limit = r0[eps_list.index(1e-4)]
    limit_ok = abs(at_limit - limit) <= 0.02 * limit
    slope = float(np.polyfit(eps_list, r0, 1)[0])
    target = -symmetric_regret_linear_coeff(0.55)
    slope_ok = abs(slope - target) <= 0.10 * abs(target)
    ok = limit_ok and slope_ok
    assert report(
        3,
        ok,
        f"R(0) at 1-gamma=1e-4 is {at_limit:.4f} vs {limit} (2% tol); "
        f"fit slope {slope:.1f} vs {target} (10% tol)",
    )


def test_criterion_04_fair_coin_boundary_matches_analytic():
    grid = BeliefGrid(2001)
    ok = True
    details = []
    for theta_plus in (0.55, 0.7):
        prob = DiscountedProblem(BanditSpec(0.5, theta_plus), 0.99)
        v, _, _ = policy_iteration(prob, grid)
        bc = decision_boundary(extract_greedy_policy(prob, v))
        ref = fair_coin_solution(theta_plus, 0.99).beta_c
        allowed = max(2.0 * grid.spacing, 0.1 * abs(ref))
        ok = ok and bc < 0.0 and abs(bc - ref) <= allowed
        details.append(f"theta+={theta_plus}: {bc:.4f} vs {ref:.4f}")
    assert report(4, ok, "; ".join(details))


def test_criterion_05_logarithmic_scaling_fit():
    # One fair coin: in state s = -1 the biased arm + trails the fair arm by
    # delta, and each pull of it separates the states by kl nats.  Lai and
    # Robbins (1985) give the Bayes regret at beta0 the asymptotic slope
    # (1 - beta0)/2 * delta/kl in -log(1 - gamma).  The law holds only once
    # the effective horizon 1/(1-gamma) allows the 1/kl pulls one nat of
    # evidence needs, so shorter horizons are left out of both fits.
    spec = BanditSpec(0.5, 0.55)
    beta0 = 0.0
    p, q = win_prob(spec, -1, 1), win_prob(spec, 1, 1)
    kl = p * np.log(p / q) + (1.0 - p) * np.log((1.0 - p) / (1.0 - q))
    delta = win_prob(spec, -1, -1) - p
    classical = (1.0 - beta0) / 2.0 * delta / kl
    eps_list = (1e-1, 1e-2, 1e-3, 1e-4)
    kept = [eps for eps in eps_list if 1.0 / eps >= 1.0 / kl]
    dropped = [eps for eps in eps_list if eps not in kept]

    grid = BeliefGrid(2001)
    opt_samples = []
    ids_samples = []
    for eps in kept:
        prob = DiscountedProblem(spec, 1.0 - eps)
        v, _, _ = policy_iteration(prob, grid)
        opt_samples.append((prob.gamma, float(mdp_value(prob, beta0) - v(beta0))))
        v_ids, _ = ids_regret_nodes(prob, grid, 0.0)
        ids_samples.append((prob.gamma, float(mdp_value(prob, beta0) - v_ids(beta0))))
    fit_opt = fit_log_regret_expansion(opt_samples)
    fit_ids = fit_log_regret_expansion(ids_samples)
    # The optimum stops pulling arm + once the weight w on s = +1 falls to
    # about (1-gamma)/kl; IDS(0) stops at the larger w ~ (1-gamma)(log(1/w)+1)/kl.
    # Stopping early costs a second log term of the same order, so the IDS
    # slope lies between the classical constant and twice it.
    slope_opt, slope_ids = -fit_opt.c2, -fit_ids.c2
    ids_lo, ids_hi = 0.8 * classical, 1.2 * 2.0 * classical
    ok = (
        fit_opt.r_squared >= 0.99
        and fit_opt.c2 < 0.0
        and abs(slope_opt - classical) <= 0.2 * classical
        and fit_ids.r_squared >= 0.99
        and fit_ids.c2 < 0.0
        and ids_lo <= slope_ids <= ids_hi
    )
    assert report(
        5,
        ok,
        f"dropped 1-gamma {dropped} (horizon < 1/KL = {1.0 / kl:.1f}); "
        f"R^2 optimal {fit_opt.r_squared:.4f}, IDS(0) {fit_ids.r_squared:.4f} (need >= 0.99); "
        f"slope optimal {slope_opt:.3f} (need within 20% of {classical:.3f}), "
        f"IDS(0) {slope_ids:.3f} (need in [{ids_lo:.3f}, {ids_hi:.3f}]); "
        f"ids/opt slope ratio {slope_ids / slope_opt:.2f}",
    )


def test_criterion_06_bellman_contraction():
    prob = DiscountedProblem(BanditSpec(0.55, 0.7), 0.9)
    grid = BeliefGrid(201)
    rng = np.random.default_rng(0)
    worst_slack = -np.inf
    for _ in range(100):
        a, b = rng.uniform(-10.0, 10.0, size=(2, grid.n_points))
        va = bellman_backup(ValueFunction(grid, a), prob)
        vb = bellman_backup(ValueFunction(grid, b), prob)
        lhs = float(np.max(np.abs(va.values - vb.values)))
        rhs = prob.gamma * float(np.max(np.abs(a - b)))
        worst_slack = max(worst_slack, lhs - rhs)
    pairs_ok = worst_slack <= 1e-9

    v = ValueFunction(grid, np.zeros(grid.n_points))
    prev = None
    worst_ratio = 0.0
    while True:
        nxt = bellman_backup(v, prob)
        resid = float(np.max(np.abs(nxt.values - v.values)))
        if prev is not None and prev > 0.0:
            worst_ratio = max(worst_ratio, resid / prev)
        v, prev = nxt, resid
        if resid <= 1e-4:
            break
    ratios_ok = worst_ratio <= prob.gamma + 1e-9
    ok = pairs_ok and ratios_ok
    assert report(
        6,
        ok,
        f"contraction slack {worst_slack:.2e} (<= 1e-09); "
        f"worst residual ratio {worst_ratio:.6f} vs gamma {prob.gamma}",
    )


def test_criterion_07_cost_accumulation_telescopes_to_entropy():
    grid = BeliefGrid(201)
    tol = 1e-10
    rng = np.random.default_rng(7)
    worst = 0.0
    for tm, tp in ((0.7, 0.7), (0.5, 0.7), (0.55, 0.7)):
        prob = DiscountedProblem(BanditSpec(tm, tp), 0.9)
        target = np.array([entropy(b) for b in grid.nodes])
        for _ in range(5):
            policy = PolicyTable(grid, rng.uniform(0.0, 1.0, grid.n_points))
            g = entropy_reduction_cost(prob, policy)
            acc = evaluate_cost(prob, policy, g, tol=tol)
            worst = max(worst, float(np.max(np.abs(acc.values - target))))
    ok = worst <= 10.0 * tol
    assert report(7, ok, f"max |accumulated cost - entropy| {worst:.2e} (tol {10.0 * tol:.0e})")


def test_criterion_08_regret_bound_holds_everywhere():
    grid = BeliefGrid(401)
    worst_excess = -np.inf
    all_hold = True
    for tm, tp in ((0.7, 0.7), (0.5, 0.7), (0.55, 0.7)):
        for gamma in (0.9, 0.99):
            prob = DiscountedProblem(BanditSpec(tm, tp), gamma)
            for alpha in (0.0, 0.5, 1.0):
                policy = ids_policy_on_grid(
                    prob, grid, IdsConfig(alpha=alpha, gamma=gamma)
                )
                v = policy_evaluation(prob, policy)
                for beta0 in np.linspace(-1.0, 1.0, 21):
                    bound, holds = regret_bound(prob, policy, alpha, beta0, value=v)
                    all_hold = all_hold and holds
                    if np.isfinite(bound):
                        measured = float(mdp_value(prob, beta0) - v(beta0))
                        excess = measured - bound - 1e-6 * max(1.0, bound)
                        worst_excess = max(worst_excess, excess)
    ok = all_hold and worst_excess <= 0.0
    assert report(
        8, ok, f"all bounds hold: {all_hold}; worst excess {worst_excess:.2e} (<= 0)"
    )


def test_criterion_09_heatmap_diagonal_and_alpha_ordering():
    thetas = np.round(np.linspace(0.51, 0.99, 21), 6)
    cells = {}
    for alpha in (0.0, 0.5):
        r = delta_R_heatmap(thetas, thetas, 0.99, alpha, grid=801, n_workers=8)
        assert not r.failures
        cells[alpha] = {(tm, tp): d for tm, tp, d in r.rows}
    max_diag = max(
        max(cells[a][(t, t)] for t in thetas) for a in (0.0, 0.5)
    )
    wins = total = 0
    for tm in thetas:
        for tp in thetas:
            if tm == tp:
                continue
            total += 1
            wins += cells[0.0][(tm, tp)] <= cells[0.5][(tm, tp)]
    frac = wins / total
    ok = max_diag <= 1e-2 and frac >= 0.6
    assert report(
        9,
        ok,
        f"max diagonal gap {max_diag:.2e} (<= 1e-02); "
        f"alpha=0 at least as good on {100 * frac:.1f}% of off-diagonal cells (need 60%)",
    )


def test_criterion_10_information_is_action_symmetric_when_arms_match():
    betas = np.linspace(-1.0, 1.0, 1001)
    worst = 0.0
    for theta in np.linspace(0.05, 0.95, 10):
        spec = BanditSpec(theta, theta)
        for beta in betas:
            worst = max(
                worst,
                abs(
                    mutual_information(spec, beta, 1)
                    - mutual_information(spec, beta, -1)
                ),
            )
    ok = worst <= 1e-12
    assert report(10, ok, f"max |MI(+1) - MI(-1)| {worst:.2e} (tol 1e-12)")


def test_criterion_11_undiscounted_ids_reduces_to_greedy():
    grid = BeliefGrid(201)
    ok = True
    for tm, tp in ((0.7, 0.7), (0.5, 0.7), (0.55, 0.7)):
        prob = DiscountedProblem(BanditSpec(tm, tp), 0.0)
        greedy = extract_greedy_policy(
            prob, ValueFunction(grid, np.zeros(grid.n_points))
        )
        for alpha in (0.0, 0.25, 0.5, 1.0):
            policy = ids_policy_on_grid(prob, grid, IdsConfig(alpha=alpha, gamma=0.0))
            ok = ok and bool(np.array_equal(policy.q, greedy.q))
    assert report(11, ok, "IDS action distribution equals greedy at every node")
