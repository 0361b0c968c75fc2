"""Command-line entry point.

Four subcommands: `solve` runs the grid solver on one problem, `ids`
computes and evaluates an information-directed policy, `compare` checks
the solver against the closed forms on the subclasses that have them,
and `sweep` executes a JSON manifest.  Data goes to files under --out;
standard output carries a short summary only.

`solve`, `compare` and sweeps share one optimal solver: policy iteration
followed by one Bellman backup that certifies ||V - V*|| <= ||TV - V||/(1-gamma).
`ids` certifies its linear solve by the residual bound.  --tol is the
acceptance bound on the certified error (default 1e-9/(1-gamma), raised
to the float floor 8*eps/(1-gamma)^2 of a certificate when gamma is
above 1 - 1.8e-6).

Exit codes: 0 success, 2 invalid parameters or unreadable manifest,
3 solver non-convergence or certified error above --tol, 4 comparison
requested outside closed-form coverage.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import io as artio
from .analytic import (
    fair_coin_solution,
    fair_coin_value,
    symmetric_value,
)
from .bandit import BanditSpec, entropy
from .errors import BanditError, InvalidManifest, IterationLimit
from .experiments import SweepManifest, run_manifest
from .ids import (
    IdsConfig,
    ids_endpoints,
    ids_policy_on_grid,
    ratio,
    regret_bound,
    sup_info_ratio,
)
from .solver import (
    BeliefGrid,
    DiscountedProblem,
    certify_optimal,
    decision_boundary,
    default_tolerance,
    mdp_value,
    policy_evaluation,
    policy_iteration,
    reachable_beliefs,
    regret_curve,
)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="artifact",
        description="Discounted two-armed Bernoulli bandit: exact solver, "
        "information-directed policies, closed-form checks, sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_problem_flags(p, need_alpha=False):
        p.add_argument("--theta-minus", type=float, required=True)
        p.add_argument("--theta-plus", type=float, required=True)
        p.add_argument("--gamma", type=float, required=True)
        if need_alpha:
            p.add_argument("--alpha", type=float, required=True)
        p.add_argument("--grid", type=int, default=2001, help="odd node count")
        p.add_argument(
            "--tol",
            type=float,
            default=None,
            help="acceptance bound on the certified error ||V - V*|| "
            "(default 1e-9/(1-gamma), at least 8*eps/(1-gamma)^2, the float "
            "floor of the certificate); exit 3 if not met",
        )
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p_solve = sub.add_parser("solve", help="optimal value, regret, and policy")
    add_problem_flags(p_solve)

    p_ids = sub.add_parser("ids", help="information-directed policy and its regret")
    add_problem_flags(p_ids, need_alpha=True)

    p_cmp = sub.add_parser("compare", help="grid solver against closed forms")
    add_problem_flags(p_cmp)

    p_sweep = sub.add_parser("sweep", help="run a JSON sweep manifest")
    p_sweep.add_argument("manifest", help="path to the manifest file")

    return parser


def _problem(args):
    spec = BanditSpec(args.theta_minus, args.theta_plus)
    prob = DiscountedProblem(spec, args.gamma)
    grid = BeliefGrid(args.grid)
    if args.tol is not None and args.tol <= 0.0:
        raise ValueError("tol must be positive")
    return prob, grid


def _outdir(args):
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _series(vf):
    return {
        "beta": [float(b) for b in vf.grid.nodes],
        "values": [float(v) for v in vf.values],
    }


def cmd_solve(args) -> int:
    prob, grid = _problem(args)
    out = _outdir(args)
    tol = args.tol if args.tol is not None else default_tolerance(prob.gamma)
    try:
        v, policy, rounds = policy_iteration(prob, grid)
        bound = certify_optimal(prob, v, tol)
    except IterationLimit as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    regret = regret_curve(prob, v)
    summary = {
        "theta_minus": prob.spec.theta_minus,
        "theta_plus": prob.spec.theta_plus,
        "gamma": prob.gamma,
        "grid_points": grid.n_points,
        "tolerance": tol,
        "iterations": rounds,
        "error_bound": bound,
        "boundary": policy.boundary,
        "max_regret": float(np.max(regret.values)),
    }
    if args.format == "json":
        doc = dict(summary)
        doc["value"] = _series(v)
        doc["regret"] = _series(regret)
        doc["policy"] = {"beta": _series(v)["beta"], "q": [float(q) for q in policy.q]}
        artio.write_json_doc(os.path.join(out, "solution.json"), doc)
    else:
        artio.write_value_csv(os.path.join(out, "value.csv"), v)
        artio.write_value_csv(os.path.join(out, "regret.csv"), regret)
        artio.write_policy_csv(os.path.join(out, "policy.csv"), policy)
        artio.write_json_doc(os.path.join(out, "summary.json"), summary)
    bc = "none" if policy.boundary is None else artio.fmt(policy.boundary)
    print(
        f"solve: {rounds} policy-iteration rounds, certified error {artio.fmt(bound)}, "
        f"boundary {bc}, max regret {artio.fmt(summary['max_regret'])}"
    )
    return 0


def cmd_ids(args) -> int:
    prob, grid = _problem(args)
    out = _outdir(args)
    config = IdsConfig(alpha=args.alpha, gamma=prob.gamma)
    try:
        policy = ids_policy_on_grid(prob, grid, config)
        v = policy_evaluation(prob, policy, tol=args.tol, method="direct")
    except IterationLimit as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    regret = regret_curve(prob, v)
    psi = sup_info_ratio(prob, policy, args.alpha)
    bound, holds = regret_bound(prob, policy, args.alpha, 0.0, value=v)
    d0, d1, i0, i1 = ids_endpoints(prob.spec, prob.gamma, grid.nodes)
    q = policy.q
    r = ratio((1 - q) * d0 + q * d1, (1 - q) * i0 + q * i1, args.alpha)
    ratio_rows = zip(grid.nodes, d0, d1, i0, i1, q, r)
    summary = {
        "theta_minus": prob.spec.theta_minus,
        "theta_plus": prob.spec.theta_plus,
        "gamma": prob.gamma,
        "alpha": args.alpha,
        "grid_points": grid.n_points,
        "boundary": policy.boundary,
        "sup_ratio": psi,
        "regret_at_zero": float(mdp_value(prob, 0.0) - v(0.0)),
        "bound_at_zero": bound,
        "bound_holds": holds,
    }
    if args.format == "json":
        doc = dict(summary)
        doc["value"] = _series(v)
        doc["regret"] = _series(regret)
        doc["policy"] = {"beta": _series(v)["beta"], "q": [float(x) for x in policy.q]}
        artio.write_json_doc(os.path.join(out, "ids_solution.json"), doc)
    else:
        artio.write_value_csv(os.path.join(out, "ids_value.csv"), v)
        artio.write_value_csv(os.path.join(out, "ids_regret.csv"), regret)
        artio.write_policy_csv(os.path.join(out, "ids_policy.csv"), policy)
        artio.write_ratio_csv(os.path.join(out, "ids_ratios.csv"), ratio_rows)
        artio.write_json_doc(os.path.join(out, "ids_summary.json"), summary)
    verdict = "holds" if holds else "VIOLATED"
    print(
        f"ids(alpha={artio.fmt(args.alpha)}): regret(0) {artio.fmt(summary['regret_at_zero'])}, "
        f"bound {artio.fmt(bound)} ({verdict})"
    )
    return 0


def cmd_compare(args) -> int:
    prob, grid = _problem(args)
    spec = prob.spec
    out = _outdir(args)
    symmetric = spec.symmetric and 0.5 < spec.theta_plus < 1.0
    fair = spec.theta_minus == 0.5 and 0.5 < spec.theta_plus < 1.0
    if not symmetric and not fair:
        print(
            "error: closed forms cover theta_minus == theta_plus in (1/2, 1) "
            "or theta_minus == 1/2 with theta_plus in (1/2, 1)",
            file=sys.stderr,
        )
        return 4
    try:
        v, policy, _ = policy_iteration(prob, grid)
        certify_optimal(prob, v, args.tol)
    except IterationLimit as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    rows = []
    if symmetric:
        pts = reachable_beliefs(spec, 0.0, 6)
        ana = np.array([symmetric_value(spec.theta_plus, prob.gamma, b) for b in pts])
        num = np.array([v(b) for b in pts])
        rel_tol = 1e-3
        verdict_scope = "value deviation at depth-6 reachable beliefs"
    else:
        sol = fair_coin_solution(spec.theta_plus, prob.gamma)
        pts = grid.nodes[:: max(1, (grid.n_points - 1) // 200)]
        ana = np.array([fair_coin_value(sol, b) for b in pts])
        num = np.array([v(b) for b in pts])
        verdict_scope = "decision boundary against the closed-form approximation"
    abs_dev = np.abs(num - ana)
    rel_dev = abs_dev / np.maximum(np.abs(num), 1e-300)
    for b, nu, an, ad, rd in zip(pts, num, ana, abs_dev, rel_dev):
        rows.append((b, nu, an, ad, rd))
    artio.write_rows_csv(
        os.path.join(out, "compare.csv"),
        ["beta", "numeric", "analytic", "abs_dev", "rel_dev"],
        rows,
    )

    if symmetric:
        ok = bool(np.max(rel_dev) <= rel_tol)
        detail = f"max rel dev {artio.fmt(np.max(rel_dev))} (tol {artio.fmt(rel_tol)})"
    else:
        try:
            bc_num = decision_boundary(policy)
        except BanditError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        allowed = max(2.0 * grid.spacing, 0.1 * abs(sol.beta_c))
        ok = abs(bc_num - sol.beta_c) <= allowed
        detail = (
            f"boundary numeric {artio.fmt(bc_num)} vs analytic {artio.fmt(sol.beta_c)}, "
            f"allowed {artio.fmt(allowed)}; max value rel dev {artio.fmt(np.max(rel_dev))}"
        )
    artio.write_json_doc(
        os.path.join(out, "compare_summary.json"),
        {
            "theta_minus": spec.theta_minus,
            "theta_plus": spec.theta_plus,
            "gamma": prob.gamma,
            "grid_points": grid.n_points,
            "subclass": "symmetric" if symmetric else "fair_coin",
            "max_abs_dev": float(np.max(abs_dev)),
            "max_rel_dev": float(np.max(rel_dev)),
            "passed": ok,
        },
    )
    print(f"compare ({verdict_scope}): {'PASS' if ok else 'FAIL'}; {detail}")
    return 0


def cmd_sweep(args) -> int:
    try:
        manifest = SweepManifest.from_json(args.manifest)
    except (OSError, InvalidManifest) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        outcome = run_manifest(manifest)
    except IterationLimit as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    result = outcome["result"]
    print(f"sweep {manifest.kind}: {len(result.rows)} rows, "
          f"{len(result.failures)} failed, wrote {outcome['csv']}")
    if len(result.rows) <= 20:
        print("  " + ",".join(result.columns))
        for row in result.rows:
            print("  " + ",".join(artio.fmt(x) for x in row))
    for key in ("alpha_star", "fit_opt", "fit_ids0"):
        if key in result.meta:
            print(f"  {key}: {json.dumps(result.meta[key], sort_keys=True)}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "solve": cmd_solve,
        "ids": cmd_ids,
        "compare": cmd_compare,
        "sweep": cmd_sweep,
    }
    try:
        return handlers[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BanditError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
