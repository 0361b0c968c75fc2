"""Self-tests of the reference checks in checks.py.

Each check must pass on an exact result, from `policy_iteration` or
`artifact.analytic`, and fail on a perturbed one.  Run from the checkout
root; it exits 1 on the first check that misbehaves:

    PYTHONPATH=src python3 benchmarks/selftest.py

This file is not named test_*.py, so pytest does not collect it.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import numpy as np  # noqa: E402

import checks  # noqa: E402
from artifact import analytic, cli  # noqa: E402
from artifact.bandit import BanditSpec  # noqa: E402
from artifact.ids import IdsConfig, ids_policy_on_grid  # noqa: E402
from artifact.solver import (  # noqa: E402
    BeliefGrid,
    DiscountedProblem,
    PolicyTable,
    policy_evaluation,
    policy_iteration,
    value_iteration,
)

FAILURES = []


def expect(label, verdict, want):
    ok = bool(verdict[0]) is want
    print(f"{'ok ' if ok else 'BAD'} {label}: expected {'pass' if want else 'fail'}: {verdict[1]}")
    if not ok:
        FAILURES.append(label)


def written(x):
    """What the program's 12-digit CSV output turns x into."""
    return np.array([float(format(v, ".12g")) for v in np.asarray(x, dtype=float)])


def exact_solution(tm, tp, gamma, n):
    prob = DiscountedProblem(BanditSpec(tm, tp), gamma)
    grid = BeliefGrid(n)
    v, policy, _ = policy_iteration(prob, grid)
    return prob, grid, v.values, policy.q


def test_matched_closed_form():
    for theta, gamma in ((0.7, 0.99), (0.7, 0.9999), (0.6, 0.999)):
        from_value = theta / (1.0 - gamma) - analytic.symmetric_value(theta, gamma, 0.0)
        ref = checks.matched_regret_at_zero(theta, gamma)
        expect(
            f"closed form agrees with analytic.symmetric_value ({theta}, {gamma})",
            (abs(ref - from_value) <= 1e-9 * abs(ref), f"{ref:.12g} vs {from_value:.12g}"),
            True,
        )
    for n, gamma in ((401, 0.99), (2001, 0.99), (2001, 0.9999)):
        _, _, v, _ = exact_solution(0.7, 0.7, gamma, n)
        regret0 = 0.7 / (1.0 - gamma) - v[(n - 1) // 2]
        expect(f"closed form, policy_iteration N {n} gamma {gamma}",
               checks.check_matched_regret(regret0, 0.7, gamma, n), True)
        bumped = regret0 * (1.0 + 2.0 * checks.matched_regret_tolerance(n))
        expect(f"closed form, perturbed N {n} gamma {gamma}",
               checks.check_matched_regret(bumped, 0.7, gamma, n), False)


def test_written_solution():
    tm, tp, gamma, n = 0.55, 0.7, 0.99, 2001
    prob, grid, v, q = exact_solution(tm, tp, gamma, n)
    nodes = checks.uniform_nodes(written(grid.nodes))
    full = checks.full_info_value(tm, tp, gamma, grid.nodes)
    vw, qw, rw = written(v), written(q), written(full - v)
    expect("certificate, policy_iteration",
           checks.check_policy_values(tm, tp, gamma, nodes, vw, qw), True)
    expect("regret >= 0, policy_iteration",
           checks.check_regret_nonnegative(tm, tp, gamma, rw), True)
    expect("value + regret, policy_iteration",
           checks.check_value_regret(tm, tp, gamma, nodes, vw, rw), True)

    bumped = vw.copy()
    bumped[n // 3] += 100.0 * checks.certificate_tolerance(vw, gamma) * (1.0 - gamma)
    expect("certificate, one value perturbed",
           checks.check_policy_values(tm, tp, gamma, nodes, bumped, qw), False)
    flipped = qw.copy()
    flipped[n // 3] = 1.0 - flipped[n // 3]
    expect("certificate, one action flipped",
           checks.check_policy_values(tm, tp, gamma, nodes, vw, flipped), False)
    loose, _ = value_iteration(prob, grid, tol=1e-6)
    expect("certificate, value iteration stopped at 1e-6",
           checks.check_policy_values(tm, tp, gamma, nodes, written(loose.values), qw), False)
    negative = rw.copy()
    negative[n // 2] = -1e-6
    expect("regret >= 0, one regret at -1e-6",
           checks.check_regret_nonnegative(tm, tp, gamma, negative), False)
    expect("value + regret, one value perturbed",
           checks.check_value_regret(tm, tp, gamma, nodes, bumped, rw), False)

    ids = ids_policy_on_grid(prob, grid, IdsConfig(alpha=0.5, gamma=gamma))
    vi = policy_evaluation(prob, ids, method="direct")
    expect("certificate, mixed IDS(0.5) policy solved directly",
           checks.check_policy_values(tm, tp, gamma, nodes, written(vi.values), written(ids.q)),
           True)


def relative_gap(prob, r_opt, q):
    v = policy_evaluation(prob, PolicyTable(BeliefGrid(len(q)), q), method="direct")
    r = checks.full_info_value(prob.spec.theta_minus, prob.spec.theta_plus, prob.gamma,
                               v.grid.nodes) - v.values
    mask = r_opt > max(1e-6, 1e-4 * float(np.max(r_opt)))
    return float(np.max((r[mask] - r_opt[mask]) / r_opt[mask]))


def test_ids_outputs():
    tm, tp, gamma, alpha, n = 0.55, 0.7, 0.99, 0.5, 2001
    with tempfile.TemporaryDirectory() as out:
        cli.main(["ids", "--theta-minus", str(tm), "--theta-plus", str(tp), "--gamma",
                  str(gamma), "--alpha", str(alpha), "--grid", str(n), "--out", out])
        q = checks.read_columns(os.path.join(out, "ids_policy.csv"))[:, 1]
        ratio = checks.read_columns(os.path.join(out, "ids_ratios.csv"))[:, 6]
        with open(os.path.join(out, "ids_summary.json")) as fh:
            summary = json.load(fh)
    nodes = np.linspace(-1.0, 1.0, n)
    sup, bound, r0 = summary["sup_ratio"], summary["bound_at_zero"], summary["regret_at_zero"]

    def selection(label, qq, want):
        expect(f"IDS selection, {label}",
               checks.check_ids_selection(tm, tp, gamma, alpha, nodes, qq), want)

    def ratios(label, want, rr=ratio, s=sup, b=bound, r=r0):
        expect(f"IDS ratios and bound, {label}",
               checks.check_ids_ratios(tm, tp, gamma, alpha, nodes, q, rr, s, b, r), want)

    selection("exact minimiser rounded to 12 digits",
              written(checks.exact_ids_q(tm, tp, gamma, nodes, alpha)), True)
    selection("`artifact ids` output (ternary search)", q, True)
    selection("the IDS(0) choice", checks.exact_ids_q(tm, tp, gamma, nodes, 0.0), False)
    interior = (q > 0.0) & (q < 1.0)
    selection("interior mixtures moved by 1e-4", q + 1e-4 * interior, False)
    flipped = q.copy()
    flipped[0] = 1.0 - flipped[0]  # beta = -1 carries no information
    selection("an uninformative node not greedy", flipped, False)

    ratios("`artifact ids` output", True)
    bumped = ratio.copy()
    bumped[n // 3] *= 1.0 + 1e-9
    ratios("one ratio moved by 1e-9", False, rr=bumped)
    ratios("sup ratio moved by 1e-9", False, s=sup * (1.0 + 1e-9))
    ratios("bound moved by 1e-9", False, b=bound * (1.0 + 1e-9))
    ratios("regret(0) above the bound", False, r=bound * 1.01)


def test_alpha_rows():
    tm, tp, gamma, n = 0.55, 0.7, 0.99, 801
    prob, grid, v, _ = exact_solution(tm, tp, gamma, n)
    diff = float(np.max(np.abs(checks.grid_optimum(tm, tp, gamma, grid.nodes) - v)))
    tol = checks.solve_error(1.0 / (1.0 - gamma), gamma)
    expect("grid optimum agrees with policy_iteration",
           (diff <= tol, f"max difference {diff:.2e} (tol {tol:.1e})"), True)
    r_opt = checks.full_info_value(tm, tp, gamma, grid.nodes) - v
    alphas = (0.0, 0.001, 0.01, 0.5)
    exact = checks.exact_alpha_gaps(tm, tp, gamma, n, alphas)

    def row(alpha, gap, ref, label, want):
        expect(f"alpha row, {label}", checks.check_alpha_rows([(alpha, gap)], gamma, [ref])[0], want)

    for alpha, ref in zip(alphas, exact):
        q = checks.exact_ids_q(tm, tp, gamma, grid.nodes, alpha)
        row(alpha, relative_gap(prob, r_opt, q), ref,
            f"exact IDS({alpha:g}) solved by policy_evaluation", True)
    ternary = ids_policy_on_grid(prob, grid, IdsConfig(alpha=0.5, gamma=gamma)).q
    row(0.5, relative_gap(prob, r_opt, ternary), exact[3], "ids_policy_on_grid at 0.5", True)

    q_half = checks.exact_ids_q(tm, tp, gamma, grid.nodes, 0.5)
    interior = (q_half > 0.0) & (q_half < 1.0)
    row(0.5, relative_gap(prob, r_opt, np.clip(q_half - 1e-3 * interior, 0.0, 1.0)), exact[3],
        "interior mixtures of IDS(0.5) moved by 1e-3", False)
    q_near = checks.exact_ids_q(tm, tp, gamma, grid.nodes, 0.45)
    row(0.5, relative_gap(prob, r_opt, q_near), exact[3], "the IDS(0.45) choice at 0.5", False)
    row(0.5, -1e-3, exact[3], "a policy that beats the optimum", False)


def main():
    test_matched_closed_form()
    test_written_solution()
    test_ids_outputs()
    test_alpha_rows()
    if FAILURES:
        print(f"{len(FAILURES)} self-test(s) misbehaved: {FAILURES}")
        return 1
    print("all self-tests behaved")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
