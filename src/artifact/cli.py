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

Exit codes: 0 success, 2 invalid parameters, unreadable manifest or
unusable output directory, 3 solver non-convergence or certified error
above --tol, 4 comparison requested outside closed-form coverage.

Importing this module runs bandit, errors, solver and io, all that `solve`
needs; the commands read `ids`, `analytic` and `experiments` as module
attributes, so each of those runs on first use (see the package docstring).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

import numpy as np

from . import analytic, experiments, ids
from . import io as artio
from .bandit import BanditSpec
from .errors import BanditError, InvalidManifest
from .solver import (
    BeliefGrid,
    DiscountedProblem,
    _resolve_tol,
    certify_optimal,
    decision_boundary,
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

    p_solve = sub.add_parser("solve", help="optimal value, regret, and policy")
    add_problem_flags(p_solve)

    p_ids = sub.add_parser("ids", help="information-directed policy and its regret")
    add_problem_flags(p_ids, need_alpha=True)

    # compare always writes compare.csv and compare_summary.json
    for p in (p_solve, p_ids):
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p_cmp = sub.add_parser("compare", help="grid solver against closed forms")
    add_problem_flags(p_cmp)

    p_sweep = sub.add_parser("sweep", help="run a JSON sweep manifest")
    p_sweep.add_argument("manifest", help="path to the manifest file")

    return parser


def _problem(args):
    """The problem, the grid, the checked --tol and the fields that open every summary."""
    spec = BanditSpec(args.theta_minus, args.theta_plus)
    prob = DiscountedProblem(spec, args.gamma)
    grid = BeliefGrid(args.grid)
    header = {
        "theta_minus": spec.theta_minus,
        "theta_plus": spec.theta_plus,
        "gamma": prob.gamma,
        "grid_points": grid.n_points,
    }
    return prob, grid, _resolve_tol(prob.gamma, args.tol), header


def _outdir(args):
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _series(vf):
    return {"beta": vf.grid.nodes.tolist(), "values": vf.values.tolist()}


def _write_solution(args, out, stem, summary, v, regret, policy):
    """`<stem>solution.json`, or `<stem>summary.json` and three CSVs."""
    base = os.path.join(out, stem)
    if args.format == "json":
        q = {"beta": policy.grid.nodes.tolist(), "q": policy.q.tolist()}
        doc = dict(summary, value=_series(v), regret=_series(regret), policy=q)
        artio.write_json_doc(base + "solution.json", doc)
        return
    grid = policy.grid
    artio.write_grid_csv(base + "value.csv", grid, ["beta", "value"], [v.values])
    artio.write_grid_csv(base + "regret.csv", grid, ["beta", "value"], [regret.values])
    artio.write_grid_csv(base + "policy.csv", grid, ["beta", "q"], [policy.q])
    artio.write_json_doc(base + "summary.json", summary)


def cmd_solve(args) -> int:
    prob, grid, tol, header = _problem(args)
    out = _outdir(args)
    v, policy, rounds = policy_iteration(prob, grid)
    bound = certify_optimal(prob, v, tol)
    regret = regret_curve(prob, v)
    summary = {
        **header,
        "tolerance": tol,
        "iterations": rounds,
        "error_bound": bound,
        "boundary": policy.boundary,
        "max_regret": float(np.max(regret.values)),
    }
    _write_solution(args, out, "", summary, v, regret, policy)
    bc = "none" if policy.boundary is None else artio.fmt(policy.boundary)
    print(
        f"solve: {rounds} policy-iteration rounds, certified error {artio.fmt(bound)}, "
        f"boundary {bc}, max regret {artio.fmt(summary['max_regret'])}"
    )
    return 0


def cmd_ids(args) -> int:
    prob, grid, tol, header = _problem(args)
    config = ids.IdsConfig(alpha=args.alpha, gamma=prob.gamma)
    out = _outdir(args)
    policy = ids.ids_policy_on_grid(prob, grid, config)
    v = policy_evaluation(prob, policy, tol=tol)
    regret = regret_curve(prob, v)
    psi = ids.sup_info_ratio(prob, policy, args.alpha)
    bound, holds = ids.regret_bound(prob, policy, args.alpha, 0.0, value=v)
    summary = {
        **header,
        "alpha": args.alpha,
        "boundary": policy.boundary,
        "sup_ratio": artio.json_number(psi),
        "scaled_log_sup_ratio": artio.json_number(
            ids.scaled_log_sup_ratio(prob, policy, args.alpha)
        ),
        "regret_at_zero": float(mdp_value(prob, 0.0) - v(0.0)),
        "bound_at_zero": artio.json_number(bound),
        "bound_holds": holds,
    }
    if args.format == "csv":
        artio.write_grid_csv(
            os.path.join(out, "ids_ratios.csv"), grid,
            ["beta", "delta0", "delta1", "info0", "info1", "q_star", "ratio"],
            ids.ratio_table(prob, policy, args.alpha)[1:],
        )
    _write_solution(args, out, "ids_", summary, v, regret, policy)
    verdict = "holds" if holds else "VIOLATED"
    print(
        f"ids(alpha={artio.fmt(args.alpha)}): regret(0) {artio.fmt(summary['regret_at_zero'])}, "
        f"bound {artio.fmt(bound)} ({verdict})"
    )
    return 0


def cmd_compare(args) -> int:
    prob, grid, tol, header = _problem(args)
    spec = prob.spec
    symmetric = spec.symmetric and 0.5 < spec.theta_plus < 1.0
    fair = spec.theta_minus == 0.5 and 0.5 < spec.theta_plus < 1.0
    if prob.gamma == 0.0 or (not symmetric and not fair):
        print(
            "error: closed forms cover gamma in (0, 1) with theta_minus == "
            "theta_plus in (1/2, 1) or theta_minus == 1/2 with theta_plus in (1/2, 1)",
            file=sys.stderr,
        )
        return 4
    out = _outdir(args)
    v, policy, _ = policy_iteration(prob, grid)
    certify_optimal(prob, v, tol)

    if symmetric:
        pts = reachable_beliefs(spec, 0.0, 6)
        ana = np.array([analytic.symmetric_value(spec.theta_plus, prob.gamma, b) for b in pts])
        rel_tol = 1e-3
        verdict_scope = "value deviation at depth-6 reachable beliefs"
    else:
        sol = analytic.fair_coin_solution(spec.theta_plus, prob.gamma)
        pts = grid.nodes[:: max(1, (grid.n_points - 1) // 200)]
        ana = np.array([analytic.fair_coin_value(sol, b) for b in pts])
        verdict_scope = "decision boundary against the closed-form approximation"
    num = v(pts)
    abs_dev = np.abs(num - ana)
    rel_dev = abs_dev / np.maximum(np.abs(num), 1e-300)
    artio.write_rows_csv(
        os.path.join(out, "compare.csv"),
        ["beta", "numeric", "analytic", "abs_dev", "rel_dev"],
        zip(pts, num, ana, abs_dev, rel_dev),
    )

    if symmetric:
        ok = bool(np.max(rel_dev) <= rel_tol)
        detail = f"max rel dev {artio.fmt(np.max(rel_dev))} (tol {artio.fmt(rel_tol)})"
    else:
        bc_num = decision_boundary(policy)
        allowed = max(2.0 * grid.spacing, 0.1 * abs(sol.beta_c))
        ok = abs(bc_num - sol.beta_c) <= allowed
        detail = (
            f"boundary numeric {artio.fmt(bc_num)} vs analytic {artio.fmt(sol.beta_c)}, "
            f"allowed {artio.fmt(allowed)}; max value rel dev {artio.fmt(np.max(rel_dev))}"
        )
    artio.write_json_doc(
        os.path.join(out, "compare_summary.json"),
        {
            **header,
            "subclass": "symmetric" if symmetric else "fair_coin",
            "max_abs_dev": float(np.max(abs_dev)),
            "max_rel_dev": float(np.max(rel_dev)),
            "passed": ok,
        },
    )
    print(f"compare ({verdict_scope}): {'PASS' if ok else 'FAIL'}; {detail}")
    return 0


def cmd_sweep(args) -> int:
    manifest = experiments.SweepManifest.from_json(args.manifest)
    outcome = experiments.run_manifest(manifest)
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
    except (ValueError, OSError, InvalidManifest) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BanditError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entry() -> int:
    """Process entry of `python -m artifact.cli` and the `artifact`
    script: main(), then gc.freeze(), so that interpreter shutdown does
    not run a collection over numpy's objects and the program's.
    Flushing, atexit handlers, profilers and coverage still run.

    Freezing is safe because nothing waits for the collector: every file
    the CLI writes is closed by its `with` block, and a sweep's process
    pool is shut down before main() returns.  Tests call main(), which
    leaves the caller's collector alone.
    """
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    raise SystemExit(entry())
