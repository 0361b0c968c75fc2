"""Reference checks for the benchmark's workloads, computed apart from the
program: this module imports numpy only, never `artifact`.

Every tolerance is derived from the method behind the number it guards
(grid spacing, 12-digit output rounding, float64 solve and evaluation
error, or the program's documented near-tie rule), never from what the
program printed on some day.  `selftest.py` shows that each check passes
on exact results and fails on perturbed ones.
"""

from __future__ import annotations

import csv
import math

import numpy as np

# The program writes 12 significant digits, so a written number x carries a
# rounding error of at most half a unit in the 12th digit: 5e-12 * |x|.
HALF_UNIT = 5e-12
# float64 unit roundoff
EPS = np.finfo(float).eps / 2.0
# Nodes whose information both actions lack are played greedily by IDS
# (the program's DEFAULT_INFO_FLOOR); the alpha -> 0 argument skips them.
INFO_FLOOR = 1e-12
# The program's near-tie rule: after its search, an endpoint whose
# objective is within NEAR_TIE * max(1, best) of the best is preferred.
NEAR_TIE = 1e-12


def read_columns(path):
    """Float table of a CSV written by the program, header dropped."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    data = np.array([[float(x) for x in row] for row in rows[1:]], dtype=float)
    return data.reshape(len(rows) - 1, len(rows[0]))


def uniform_nodes(beta):
    """Exact nodes of the odd uniform grid the written betas come from."""
    n = len(beta)
    nodes = np.linspace(-1.0, 1.0, n)
    if n < 3 or n % 2 == 0 or np.max(np.abs(nodes - beta)) > 1e-11:
        raise ValueError("betas are not an odd uniform grid on [-1, 1]")
    return nodes


def full_info_value(theta_minus, theta_plus, gamma, beta):
    """Value of a player who knows the hidden state, averaged over beta."""
    best_minus = max(theta_minus, 1.0 - theta_plus)
    best_plus = max(theta_plus, 1.0 - theta_minus)
    return ((1.0 - beta) / 2.0 * best_minus + (1.0 + beta) / 2.0 * best_plus) / (
        1.0 - gamma
    )


def solve_error(scale, gamma):
    """Float64 error of a solved or iterated discounted value of size
    `scale`: the condition number (1+gamma)/(1-gamma) of I - gamma*M times
    a few roundoffs."""
    return 4.0 * EPS * scale * (1.0 + gamma) / (1.0 - gamma)


# ---------------------------------------------------------------- matched arms


def matched_regret_at_zero(theta, gamma):
    """Regret at beta = 0 of the optimal policy with matched arms:
    delta/(2(1-gamma)) * [1 - gamma*delta / sqrt(1 - 4 gamma^2 theta(1-theta))],
    delta = 2 theta - 1."""
    delta = 2.0 * theta - 1.0
    root = math.sqrt(1.0 - 4.0 * gamma * gamma * theta * (1.0 - theta))
    return delta / (2.0 * (1.0 - gamma)) * (1.0 - gamma * delta / root)


def matched_regret_tolerance(n_points):
    """Relative tolerance 2h.  Exact grid solutions miss the closed form by
    0.48-0.84 h (relative) for N 401-8001 at gamma 0.99 and 0.9999, an
    O(h) interpolation error from the value's cusp at beta = 0."""
    return 2.0 * (2.0 / (n_points - 1))


def check_matched_regret(regret_at_zero, theta, gamma, n_points):
    ref = matched_regret_at_zero(theta, gamma)
    rel = (regret_at_zero - ref) / ref
    tol = matched_regret_tolerance(n_points)
    return abs(rel) <= tol, (
        f"regret(0) {regret_at_zero:.6g} vs closed form {ref:.6g}: "
        f"rel err {rel:+.3e}, tol {tol:.1e}"
    )


# ---------------------------------------------------------- written outputs


def check_value_regret(theta_minus, theta_plus, gamma, beta, value, regret):
    """value + regret equals the full-information value at every node,
    up to the rounding of three written numbers."""
    full = full_info_value(theta_minus, theta_plus, gamma, beta)
    err = np.abs(value + regret - full)
    tol = 2.0 * HALF_UNIT * (np.abs(value) + np.abs(regret) + np.abs(full))
    worst = float(np.max(err - tol))
    return worst <= 0.0, f"max |v + r - V_full| {float(np.max(err)):.3e}"


def check_regret_nonnegative(theta_minus, theta_plus, gamma, regret):
    """No policy beats a player who knows the state.  Linear interpolation
    reproduces the linear full-information value exactly, so this holds on
    the grid chain too; the slack covers float error and rounding."""
    scale = full_info_value(theta_minus, theta_plus, gamma, 1.0) + full_info_value(
        theta_minus, theta_plus, gamma, -1.0
    )
    eps = solve_error(scale, gamma) + 2.0 * HALF_UNIT * scale
    lo = float(np.min(regret))
    return lo >= -eps, f"min regret {lo:.3e} (slack {eps:.1e})"


# ------------------------------------------------------ grid policy equation


def stencil(n, x):
    """Lower node index j and weight t toward node j+1 of the beliefs x on
    the uniform n-node grid: linear interpolation."""
    s = (np.asarray(x) + 1.0) * ((n - 1) / 2.0)
    j = np.clip(np.floor(s).astype(int), 0, n - 2)
    return j, np.clip(s - j, 0.0, 1.0)


def interp_uniform(values, x):
    """Piecewise-linear interpolation of node values on the uniform grid."""
    j, t = stencil(len(values), x)
    return values[j] * (1.0 - t) + values[j + 1] * t


def bayes_posterior(nodes, c, d):
    """Posterior belief after an outcome of predictive probability
    (1 + c*beta*d)/2, c = a(2y-1); zero-probability branches keep beta."""
    p = (1.0 + c * nodes * d) / 2.0
    live = p > 0.0
    post = np.where(live, (nodes + c * d) / np.where(live, 2.0 * p, 1.0), nodes)
    return p, np.clip(post, -1.0, 1.0)


def branches(theta_minus, theta_plus, nodes):
    """Per action a = -1, +1: its expected reward at every node and, per
    outcome, the predictive probability and the posterior belief."""
    out = {}
    for a in (-1, 1):
        d = 2.0 * (theta_plus if a == 1 else theta_minus) - 1.0
        outcomes = [bayes_posterior(nodes, a * (2 * y - 1), d) for y in (0, 1)]
        out[a] = ((1.0 + a * nodes * d) / 2.0, outcomes)
    return out


def action_values(theta_minus, theta_plus, gamma, nodes, value):
    """Q_a = r_a + gamma * E[v(beta')] on the grid chain, for a = -1, +1."""
    return {
        a: reward + gamma * sum(p * interp_uniform(value, post) for p, post in outcomes)
        for a, (reward, outcomes) in branches(theta_minus, theta_plus, nodes).items()
    }


def policy_certificate(theta_minus, theta_plus, gamma, nodes, value, q):
    """||r_pi + gamma M_pi v - v||_inf / (1 - gamma): a bound on the
    distance from `value` to the exact value of policy q on the grid."""
    qv = action_values(theta_minus, theta_plus, gamma, nodes, np.asarray(value, dtype=float))
    res = (1.0 - q) * qv[-1] + q * qv[1] - value
    return float(np.max(np.abs(res))) / (1.0 - gamma)


def certificate_tolerance(value, gamma):
    """What 12-digit rounding of v and q alone can put into the certificate:
    each of v, M v and the q-weighted mix moves by at most
    HALF_UNIT * (1 + ||v||), so the residual by four of those."""
    return 4.0 * HALF_UNIT * (1.0 + float(np.max(np.abs(value)))) / (1.0 - gamma)


def check_policy_values(theta_minus, theta_plus, gamma, nodes, value, q):
    cert = policy_certificate(theta_minus, theta_plus, gamma, nodes, value, q)
    tol = certificate_tolerance(value, gamma)
    return cert <= tol, f"certificate {cert:.3e} (tol {tol:.2e})"


# ------------------------------------------------------ exact grid solutions


def policy_values(theta_minus, theta_plus, gamma, nodes, q):
    """Exact value of policy q on the grid chain: a dense solve of
    (I - gamma M_q) v = r_q.  For small grids only."""
    n = len(nodes)
    rows = np.arange(n)
    m = np.zeros((n, n))
    r = np.zeros(n)
    for a, (reward, outcomes) in branches(theta_minus, theta_plus, nodes).items():
        w = q if a == 1 else 1.0 - q
        r += w * reward
        for p, post in outcomes:
            j, t = stencil(n, post)
            np.add.at(m, (rows, j), w * p * (1.0 - t))
            np.add.at(m, (rows, j + 1), w * p * t)
    return np.linalg.solve(np.eye(n) - gamma * m, r)


def grid_optimum(theta_minus, theta_plus, gamma, nodes):
    """Optimal value on the grid chain by Howard policy iteration, started
    from arm -1 everywhere; a node keeps its action on an exact tie."""
    q = np.zeros(len(nodes))
    for _ in range(100):
        v = policy_values(theta_minus, theta_plus, gamma, nodes, q)
        qv = action_values(theta_minus, theta_plus, gamma, nodes, v)
        better = np.where(qv[1] > qv[-1], 1.0, np.where(qv[1] < qv[-1], 0.0, q))
        if np.array_equal(better, q):
            return v
        q = better
    raise RuntimeError("policy iteration did not settle")


# ------------------------------------------------------------- IDS selection


def entropy(beta):
    out = np.zeros_like(beta)
    for b in ((1.0 - beta) / 2.0, (1.0 + beta) / 2.0):
        pos = b > 0.0
        out -= np.where(pos, b * np.log(np.where(pos, b, 1.0)), 0.0)
    return out


def information(theta_minus, theta_plus, gamma, nodes):
    """I_a(beta) = H(beta) - gamma * E[H(beta')] for a = -1, +1."""
    h = entropy(nodes)
    return [
        h - gamma * sum(np.where(p > 0.0, p * entropy(post), 0.0) for p, post in outcomes)
        for _, outcomes in branches(theta_minus, theta_plus, nodes).values()
    ]


def ids_endpoints(theta_minus, theta_plus, gamma, nodes):
    """Per node: the one-step regrets D_-, D_+ and informations I_-, I_+ of
    the two arms, the entropy H, and the greedy q (1 where arm +1 pays at
    least as much)."""
    bm, bp = (1.0 - nodes) / 2.0, (1.0 + nodes) / 2.0
    best_m = max(theta_minus, 1.0 - theta_plus)
    best_p = max(theta_plus, 1.0 - theta_minus)
    d0 = bm * (best_m - theta_minus) + bp * (best_p - (1.0 - theta_minus))
    d1 = bm * (best_m - (1.0 - theta_plus)) + bp * (best_p - theta_plus)
    i0, i1 = information(theta_minus, theta_plus, gamma, nodes)
    greedy = np.where(
        1.0 + nodes * (2.0 * theta_plus - 1.0) >= 1.0 - nodes * (2.0 * theta_minus - 1.0),
        1.0, 0.0,
    )
    return d0, d1, i0, i1, entropy(nodes), greedy


def log_objective(ends, q, alpha):
    """log of the IDS(alpha) objective D(q)^p / I(q)^(p-1), p = 1/alpha, at
    mixtures q; -inf where D(q) = 0.  Log space neither under- nor
    overflows at small alpha."""
    d0, d1, i0, i1, _, _ = ends
    d, i = d0 + q * (d1 - d0), i0 + q * (i1 - i0)
    p = 1.0 / alpha
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(d <= 0.0, -np.inf, p * np.log(d) - (p - 1.0) * np.log(i))


def exact_ids_q(theta_minus, theta_plus, gamma, nodes, alpha):
    """IDS(alpha) by exact minimisation.  At alpha = 0 it compares D/I at
    the two arms.  At alpha > 0 it compares both arms with the stationary
    point of the log objective, q = ((p-1) dI D_- - p dD I_-) / (dD dI).
    The objective is convex in q, so there is at most one such point.
    Ties go to the greedy arm.  Nodes where neither arm carries
    INFO_FLOOR of information play greedily."""
    ends = ids_endpoints(theta_minus, theta_plus, gamma, nodes)
    d0, d1, i0, i1, _, greedy = ends
    with np.errstate(divide="ignore", invalid="ignore"):
        if alpha == 0.0:
            r0 = np.where(d0 <= 0.0, 0.0, d0 / i0)
            r1 = np.where(d1 <= 0.0, 0.0, d1 / i1)
            q = np.where(r1 < r0, 1.0, np.where(r0 < r1, 0.0, greedy))
        else:
            p, dd, di = 1.0 / alpha, d1 - d0, i1 - i0
            stat = np.clip(((p - 1.0) * di * d0 - p * dd * i0) / (dd * di), 0.0, 1.0)
            cands = np.stack([greedy, 1.0 - greedy, np.where(np.isfinite(stat), stat, greedy)])
            vals = np.stack([log_objective(ends, c, alpha) for c in cands])
            q = cands[np.argmin(vals, axis=0), np.arange(len(nodes))]
    return np.where(np.maximum(i0, i1) < INFO_FLOOR, greedy, q)


def objective_error(ends, q, alpha):
    """Relative float64 error bound of the objective at q.  D is a sum of
    two products.  I = H - gamma E[H'] cancels, so its error scales with
    H + gamma E[H'] <= 2H, which can be 2/(1-gamma) times I.  The last term
    is the first-order change from 12-digit rounding of q."""
    d0, d1, i0, i1, h, _ = ends
    d, i = d0 + q * (d1 - d0), i0 + q * (i1 - i0)
    p = 1.0 / alpha
    with np.errstate(divide="ignore", invalid="ignore"):
        err_i = 16.0 * EPS * 2.0 * h / i
        slope = np.abs(p * (d1 - d0) / d - (p - 1.0) * (i1 - i0) / i)
    return p * 16.0 * EPS + (p - 1.0) * err_i + slope * HALF_UNIT * q


def check_ids_selection(theta_minus, theta_plus, gamma, alpha, nodes, q):
    """IDS(alpha > 0) picks a mixture whose objective is the exact minimum
    at every informative node, up to the program's documented near-tie
    rule (an endpoint within NEAR_TIE * max(1, f*) of the minimum f* may
    be taken) and the float error of both objectives.  Nodes without
    information play greedily."""
    ends = ids_endpoints(theta_minus, theta_plus, gamma, nodes)
    d0, d1, i0, i1, _, greedy = ends
    live = np.maximum(i0, i1) >= INFO_FLOOR
    q_star = exact_ids_q(theta_minus, theta_plus, gamma, nodes, alpha)
    f_star = np.exp(log_objective(ends, q_star, alpha))[live]
    f = np.exp(log_objective(ends, q, alpha))[live]
    err = (objective_error(ends, q, alpha) + objective_error(ends, q_star, alpha))[live]
    allowed = f_star * err + NEAR_TIE * np.maximum(1.0, f_star)
    excess = (f - f_star) / allowed
    guard_ok = np.array_equal(q[~live], greedy[~live])
    worst = float(np.max(excess)) if excess.size else 0.0
    return bool(worst <= 1.0 and guard_ok), (
        f"objective over its exact minimum at most {worst:.3g} of the tolerance "
        f"at {int(np.sum(live))} informative nodes; "
        f"{int(np.sum(~live))} greedy nodes {'ok' if guard_ok else 'NOT greedy'}"
    )


def check_ids_ratios(theta_minus, theta_plus, gamma, alpha, nodes, q, ratio, sup_ratio,
                     bound, regret_at_zero):
    """The written ratio column is the objective at the written q, up to
    its float error and 12-digit rounding.  sup_ratio is its maximum over
    nodes that are not below INFO_FLOOR in both regret and information.
    The bound at beta = 0 is (sup_ratio/(1-gamma))^alpha * H(0)^(1-alpha),
    and the regret at beta = 0 stays within it."""
    ends = ids_endpoints(theta_minus, theta_plus, gamma, nodes)
    d0, d1, i0, i1, _, _ = ends
    f = np.exp(log_objective(ends, q, alpha))
    err = 2.0 * objective_error(ends, q, alpha)
    with np.errstate(invalid="ignore"):
        column_ok = (ratio == f) | (np.abs(ratio - f) <= (err + HALF_UNIT) * f)
    skip = (i0 + q * (i1 - i0) < INFO_FLOOR) & (d0 + q * (d1 - d0) < INFO_FLOOR)
    k = int(np.argmax(np.where(skip, 0.0, f)))
    sup_ok = abs(sup_ratio - f[k]) <= err[k] * f[k]
    ref_bound = (sup_ratio / (1.0 - gamma)) ** alpha * math.log(2.0) ** (1.0 - alpha)
    bound_ok = abs(bound - ref_bound) <= 16.0 * EPS * ref_bound
    ok = bool(np.all(column_ok)) and sup_ok and bound_ok and regret_at_zero <= bound
    return ok, (
        f"ratio column off at {int(np.sum(~column_ok))} nodes; sup ratio {sup_ratio:.12g} "
        f"vs {f[k]:.12g}; bound {bound:.12g} vs {ref_bound:.12g}; "
        f"regret(0) {regret_at_zero:.6g}"
    )


# ------------------------------------------------------------- alpha sweep


def gap_floor_error(gamma):
    """Slack of a delta_R: two float64 solves of values up to 1/(1-gamma),
    divided by the smallest regret the sweep divides by (its floor, at
    least 1e-6)."""
    return 2.0 * solve_error(1.0 / (1.0 - gamma), gamma) / 1e-6


def exact_alpha_gaps(theta_minus, theta_plus, gamma, n_points, alphas):
    """delta_R of the exact IDS(alpha) per alpha, as the sweep defines it:
    the largest (r_ids - r_opt)/r_opt over the nodes whose grid-optimal
    regret r_opt exceeds max(1e-6, 1e-4 * max r_opt)."""
    nodes = np.linspace(-1.0, 1.0, n_points)
    full = full_info_value(theta_minus, theta_plus, gamma, nodes)
    r_opt = full - grid_optimum(theta_minus, theta_plus, gamma, nodes)
    mask = r_opt > max(1e-6, 1e-4 * float(np.max(r_opt)))
    gaps = []
    for alpha in alphas:
        q = exact_ids_q(theta_minus, theta_plus, gamma, nodes, alpha)
        r = full - policy_values(theta_minus, theta_plus, gamma, nodes, q)
        gaps.append(float(np.max((r - r_opt)[mask] / r_opt[mask])) if np.any(mask) else 0.0)
    return gaps


def check_alpha_rows(rows, gamma, exact_gaps):
    """One verdict per (alpha, delta_R) row: delta_R >= -eps, since no
    policy beats the grid optimum, and delta_R within eps of the exact
    IDS(alpha) gap."""
    eps = gap_floor_error(gamma)
    return [
        (bool(gap >= -eps and abs(gap - ref) <= eps),
         f"alpha {alpha:g}: delta_R {gap:.6g}, exact {ref:.6g}, tol {eps:.1e}")
        for (alpha, gap), ref in zip(rows, exact_gaps)
    ]
