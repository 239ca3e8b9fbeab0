"""Batch front-end: solve / sweep / compare-eps / qbar / simulate.

Every command reads one YAML config (all keys optional), writes CSV/JSON
into --out, and prints a short human summary.  Exit codes:

    0  success
    2  config error
    3  infeasible (grid searched, nothing feasible)
    4  all quantization levels ruled out by the budget cap
    5  privacy bound unreachable within the trial-count cap
    6  relative-error machinery unavailable (eta >= 1/4)
    7  simulation diverged
    8  channel cannot carry the minimal payload
"""

from __future__ import annotations

import argparse
import json
import math
import sys as _sys
from pathlib import Path

import numpy as np

from . import sim as simmod
from . import tasks as tasksmod
from .config import (
    ROLE_BIAS,
    ROLE_SIM,
    SPEC_VERSION,
    RunConfig,
    child_seed,
)
from .errors import (
    AllInfeasibleError,
    BinomflError,
    ConfigError,
    DivergedError,
    EmptyDomainError,
    ErrorBoundUnavailableError,
    InfeasibleError,
    PrivacyInfeasibleError,
)
from .privacy import baseline_epsilon_value
from .solver import Solution, qbar, solve_with_stats, suboptimal_tuple
from .wireless import watts_to_dbm

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_ALL_INFEASIBLE = 4
EXIT_PRIVACY_INFEASIBLE = 5
EXIT_ERROR_BOUND = 6
EXIT_DIVERGED = 7
EXIT_EMPTY_DOMAIN = 8

_EXIT_BY_ERROR = [
    (ConfigError, EXIT_CONFIG),
    (AllInfeasibleError, EXIT_ALL_INFEASIBLE),
    (PrivacyInfeasibleError, EXIT_PRIVACY_INFEASIBLE),
    (ErrorBoundUnavailableError, EXIT_ERROR_BOUND),
    (DivergedError, EXIT_DIVERGED),
    (EmptyDomainError, EXIT_EMPTY_DOMAIN),
    (InfeasibleError, EXIT_INFEASIBLE),
]


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join("" if v is None else (repr(v) if isinstance(v, float) else str(v)) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _load_config(args) -> RunConfig:
    cfg = RunConfig.from_yaml(args.config) if args.config else RunConfig.defaults()
    if args.seed is not None:
        cfg = cfg.with_seed(args.seed)
    return cfg


def _parse_values(text: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"bad --values list {text!r}: {exc}") from exc
    if not values:
        raise ConfigError("--values must contain at least one number")
    return values


def _out_dir(args, cfg: RunConfig) -> Path:
    out = Path(args.out if args.out else cfg.output_dir())
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_solve(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args, cfg)
    system = cfg.build_system()
    ctx = cfg.build_context(system)
    scfg = cfg.build_solver(ctx)
    sol, stats = solve_with_stats(system, scfg, ctx)
    report = {
        "spec_version": SPEC_VERSION,
        "eps_bar": scfg.eps_bar,
        "q": sol.q,
        "n": sol.n,
        "p": sol.p,
        "objective": sol.objective,
        "epsilon_achieved": sol.epsilon_achieved,
        "powers_w": list(sol.powers),
        "eta": stats.eta,
        "mu": stats.mu,
        "lambda_step": stats.lambda_step,
        "relative_error_bound": None if stats.mu is None else stats.mu * stats.lambda_step,
        "grid": {
            "q_lo": stats.q_lo,
            "q_hi": stats.q_hi,
            "p_points": stats.p_grid_size,
            "cells_total": stats.cells_total,
            "cells_feasible": stats.cells_feasible,
        },
        "eps_evaluations": stats.eps_evaluations,
        "seed": cfg.seed,
    }
    _write_json(out / "solution.json", report)
    print(f"q={sol.q}  n={sol.n}  p={sol.p:.6g}  objective={sol.objective:.6g}")
    print(f"epsilon achieved {sol.epsilon_achieved:.6g} of budget {scfg.eps_bar:.6g}")
    if stats.mu is not None:
        print(f"eta={stats.eta:.4g}  mu={stats.mu:.4g}  lambda={stats.lambda_step:.4g}  "
              f"relative error < {stats.mu * stats.lambda_step:.4g}")
    print(f"grid {stats.q_hi - stats.q_lo + 1} q-values x {stats.p_grid_size} p-values, "
          f"{stats.eps_evaluations} budget evaluations")
    print(f"power range [{min(sol.powers):.4g}, {max(sol.powers):.4g}] W "
          f"({watts_to_dbm(min(sol.powers)):.2f} to {watts_to_dbm(max(sol.powers)):.2f} dBm)")
    print(f"wrote {out / 'solution.json'}")
    return EXIT_OK


def _solve_row(cfg: RunConfig, **overrides):
    eps_bar = overrides.pop("eps_bar", None)
    system = cfg.build_system(**overrides)
    ctx = cfg.build_context(system)
    scfg = cfg.build_solver(ctx, eps_bar=eps_bar)
    try:
        sol, _ = solve_with_stats(system, scfg, ctx)
        return sol
    except (InfeasibleError, AllInfeasibleError, EmptyDomainError, PrivacyInfeasibleError):
        return None


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args, cfg)
    values = _parse_values(args.values)
    if sorted(values) != values:
        raise ConfigError("--values must be ascending")
    rows = []
    for v in values:
        if args.axis == "eps_bar":
            sol = _solve_row(cfg, eps_bar=v)
        elif args.axis == "p_max":
            sol = _solve_row(cfg, p_max_dbm=v)
        elif args.axis == "W":
            sol = _solve_row(cfg, W=v)
        elif args.axis == "T":
            sol = _solve_row(cfg, T=v)
        elif args.axis == "K":
            sol = _solve_row(cfg, K=int(v))
        else:
            raise ConfigError(f"unknown sweep axis {args.axis!r}")
        if sol is None:
            rows.append([v, "infeasible", None, None, None, None])
        else:
            rows.append([v, sol.objective, sol.q, sol.n, sol.p, sol.epsilon_achieved])
    path = out / f"sweep_{args.axis}.csv"
    _write_csv(path, ["axis_value", "objective", "q", "n", "p", "epsilon"], rows)
    feasible = sum(1 for r in rows if r[1] != "infeasible")
    print(f"{args.axis} sweep: {feasible}/{len(rows)} feasible rows -> {path}")
    return EXIT_OK


def cmd_compare_eps(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args, cfg)
    values = _parse_values(args.values) if args.values is not None else [float(v) for v in range(1, 11)]
    system = cfg.build_system()
    ctx = cfg.build_context(system)
    rows = []
    for eb in values:
        sol = _solve_row(cfg, eps_bar=eb)
        if sol is None:
            rows.append([eb, "infeasible", None, None])
            continue
        tight = sol.epsilon_achieved
        base = baseline_epsilon_value(sol.q, sol.n, sol.p, ctx.d, ctx.delta)
        rows.append([eb, tight, base, base / tight])
    path = out / "compare_eps.csv"
    _write_csv(path, ["eps_bar", "epsilon_tight", "epsilon_baseline", "ratio"], rows)
    print(f"wrote {path}")
    return EXIT_OK


def cmd_qbar(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args, cfg)
    values = _parse_values(args.values) if args.values is not None else [float(v) for v in range(1, 21)]
    rows = []
    for dbm in values:
        system = cfg.build_system(p_max_dbm=dbm)
        ctx = cfg.build_context(system)
        scfg = cfg.build_solver(ctx)
        try:
            qb = qbar(system, scfg, ctx)
            rows.append([dbm, qb, math.log10(qb)])
        except EmptyDomainError:
            rows.append([dbm, "empty_domain", None])
        except AllInfeasibleError:
            rows.append([dbm, "all_infeasible", None])
    path = out / "qbar_sweep.csv"
    _write_csv(path, ["p_max_dbm", "qbar", "log10_qbar"], rows)
    print(f"wrote {path}")
    return EXIT_OK


def _build_task(cfg: RunConfig):
    s = cfg.sim_section()
    kind = str(s["task"])
    data_seed = child_seed(cfg.seed, ROLE_SIM)
    if kind == "logistic":
        return tasksmod.LogisticRegressionTask(
            d=int(s["dimension"]), M=int(s["population"]),
            samples_per_device=int(s["samples_per_device"]),
            seed=data_seed, l2=float(s["l2"]),
        )
    if kind == "quadratic":
        return tasksmod.QuadraticBowlTask(d=int(s["dimension"]), M=int(s["population"]), seed=data_seed)
    raise ConfigError(f"unknown task {kind!r}; expected 'logistic' or 'quadratic'")


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args, cfg)
    s = cfg.sim_section()
    task = _build_task(cfg)
    system = cfg.build_system(K=int(s["selected"]), M=int(s["population"]), d=int(s["dimension"]))
    ctx = cfg.build_context(system)
    scfg = cfg.build_solver(ctx, eps_bar=s["eps_bar"])
    sol, _ = solve_with_stats(system, scfg, ctx)
    rounds = int(s["rounds"])

    conv_probe = simmod.ConvergenceParams.auto(
        L=task.smoothness(), G=task.grad_bound(), G_f=max(task.loss(task.initial_point()), 1e-9),
        theta=float(s["theta"]), capital_lambda=float(s["confidence"]),
        sigma_sq=1.0, rounds=rounds,
    )
    bounds = simmod.theoretical_bounds(system, sol, conv_probe)
    sigma_sq = bounds.u_hi_iid + bounds.b_hi
    conv = simmod.ConvergenceParams.auto(
        L=task.smoothness(), G=task.grad_bound(), G_f=conv_probe.G_f,
        theta=conv_probe.theta, capital_lambda=conv_probe.capital_lambda,
        sigma_sq=sigma_sq, rounds=rounds,
    )
    iters = simmod.iterations_estimate(conv, sigma_sq)
    bias = simmod.measure_bias(
        task, sol, trials=int(s["bias_trials"]),
        rng=np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(ROLE_BIAS,))),
        rescale=str(s["rescale"]),
    )
    in_sandwich = (bounds.b_lo - 4.0 * bias.stderr) <= bias.mean <= (bounds.b_hi + 4.0 * bias.stderr)

    def arm_rng(index: int) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(ROLE_SIM, index)))

    arms: dict[str, Solution | None] = {"baseline": None, "optimized": sol}
    sub = None
    if bool(s["compare_suboptimal"]):
        sub = suboptimal_tuple(sol, system, scfg, ctx, float(s["subopt_factor"]))
        if sub is not None:
            arms["suboptimal"] = sub

    traces = {}
    for index, (name, arm_sol) in enumerate(arms.items()):
        trace = simmod.run_fsgd(
            task, system, arm_sol, rounds, arm_rng(index),
            gamma=conv.gamma, rescale=str(s["rescale"]),
        )
        trace.to_csv(out / f"trace_{name}.csv")
        traces[name] = trace

    summary = {
        "spec_version": SPEC_VERSION,
        "seed": cfg.seed,
        "rounds": rounds,
        "gamma": conv.gamma,
        "solution": {"q": sol.q, "n": sol.n, "p": sol.p, "objective": sol.objective,
                     "epsilon_achieved": sol.epsilon_achieved},
        "suboptimal": None if sub is None else {
            "q": sub.q, "n": sub.n, "p": sub.p, "objective": sub.objective,
            "objective_ratio": sub.objective / sol.objective,
        },
        "final_loss": {name: tr.loss[-1] for name, tr in traces.items()},
        "comm_cost_bits": {
            name: tr.total_bits for name, tr in traces.items()
        },
        "comm_cost_formula_bits": simmod.comm_cost(rounds, system.K, system.d, sol.q, sol.n),
        "theoretical_bounds": {
            "u_hi": bounds.u_hi, "u_hi_iid": bounds.u_hi_iid,
            "b_lo": bounds.b_lo, "b_hi": bounds.b_hi,
        },
        "measured_bias": {"mean": bias.mean, "stderr": bias.stderr, "trials": bias.trials,
                          "within_bounds": bool(in_sandwich)},
        "iterations_estimate": {"exact": iters.exact, "order_form": iters.order_form},
        "sigma_sq": sigma_sq,
    }
    _write_json(out / "summary.json", summary)
    base_final = traces["baseline"].loss[-1]
    opt_final = traces["optimized"].loss[-1]
    print(f"tuple q={sol.q} n={sol.n} p={sol.p:.4g}; gamma={conv.gamma:.4g}")
    print(f"final loss: baseline {base_final:.6g}, optimized {opt_final:.6g} "
          f"(gap {abs(opt_final - base_final) / base_final * 100:.2f}%)")
    if "suboptimal" in traces:
        print(f"suboptimal final loss {traces['suboptimal'].loss[-1]:.6g} "
              f"(objective x{summary['suboptimal']['objective_ratio']:.2f})")
    print(f"bias {bias.mean:.6g} +/- {bias.stderr:.2g} vs bounds "
          f"[{bounds.b_lo:.6g}, {bounds.b_hi:.6g}] -> {'PASS' if in_sandwich else 'FAIL'}")
    print(f"wrote {out / 'summary.json'}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="binomfl",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="YAML config file (defaults built in)")
        p.add_argument("--out", help="output directory (default: config output.dir)")
        p.add_argument("--seed", type=int, help="override the top-level seed")

    p = sub.add_parser("solve", help="solve the joint problem once")
    common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sweep", help="re-solve along one parameter axis")
    common(p)
    p.add_argument("--axis", required=True, choices=["eps_bar", "p_max", "W", "T", "K"])
    p.add_argument("--values", required=True, help="ascending comma-separated values "
                   "(p_max in dBm, W in Hz, T in s)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("compare-eps", help="tight vs classical budget on solved tuples")
    common(p)
    p.add_argument("--values", help="eps_bar values (default 1..10)")
    p.set_defaults(func=cmd_compare_eps)

    p = sub.add_parser("qbar", help="quantization-level cap across max power")
    common(p)
    p.add_argument("--values", help="p_max values in dBm (default 1..20)")
    p.set_defaults(func=cmd_qbar)

    p = sub.add_parser("simulate", help="desk-scale training runs with the solved tuple")
    common(p)
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BinomflError as exc:
        for klass, code in _EXIT_BY_ERROR:
            if isinstance(exc, klass):
                print(f"error: {exc}", file=_sys.stderr)
                return code
        print(f"error: {exc}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
