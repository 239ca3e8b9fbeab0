"""Batch front-end: solve / sweep / compare-eps / qbar / simulate.

Every command reads one YAML config (all keys optional), prints a short
human summary and returns its CSV/JSON files by name; ``main`` then writes
them into --out in order, through one writer, and prints ``wrote <path>``
after each.  A command that fails writes no file.  Exit codes:

    0  success
    2  config error, or an output file that cannot be written
    3  infeasible (nothing feasible on the grid, or a tuple's powers
       cannot carry its payload)
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

from . import sim as simmod
from . import tasks as tasksmod
from .config import (
    ROLE_BIAS,
    ROLE_SIM,
    SPEC_VERSION,
    RunConfig,
    child_seed,
    rng_for,
)
from .errors import (
    AllInfeasibleError,
    BinomflError,
    CapacityInfeasibleError,
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

# floats one simulate may hold: M*S*d samples and M d-by-d Gram matrices (logistic), M*d (quadratic)
MAX_SIM_FLOATS = 2**24

_EXIT_BY_ERROR = [
    (ConfigError, EXIT_CONFIG),
    (AllInfeasibleError, EXIT_ALL_INFEASIBLE),
    (PrivacyInfeasibleError, EXIT_PRIVACY_INFEASIBLE),
    (ErrorBoundUnavailableError, EXIT_ERROR_BOUND),
    (DivergedError, EXIT_DIVERGED),
    (EmptyDomainError, EXIT_EMPTY_DOMAIN),
    (InfeasibleError, EXIT_INFEASIBLE),
    (CapacityInfeasibleError, EXIT_INFEASIBLE),
]


# indent=None selects the C encoder; json.dumps(indent=2) runs the pure-Python one
_COMPACT = json.JSONEncoder(separators=(",", ":"))


def _json(payload) -> str:
    """Exactly ``json.dumps(payload, sort_keys=True, indent=2) + "\\n"``.

    The layout is written here, and every key and leaf goes through the C
    encoder.  A list of numbers, booleans and nulls is encoded in one call
    and split at its commas, which only strings and containers can hold.
    """
    return _indented(payload, "\n") + "\n"


def _indented(value, newline: str) -> str:
    inner = newline + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        return "{" + ",".join(inner + _COMPACT.encode(_json_key(k)) + ": " + _indented(v, inner)
                              for k, v in sorted(value.items())) + newline + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        flat = _COMPACT.encode(value)
        if '"' in flat or "{" in flat or "[" in flat[1:]:
            return "[" + ",".join(inner + _indented(v, inner) for v in value) + newline + "]"
        return "[" + inner + flat[1:-1].replace(",", "," + inner) + newline + "]"
    return _COMPACT.encode(value)


def _json_key(key) -> str:
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return _COMPACT.encode(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _csv(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join("" if v is None else (float.__repr__(v) if isinstance(v, float) else str(v))
                              for v in row))
    return "\n".join(lines) + "\n"


def _parse_values(text: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"bad --values list {text!r}: {exc}") from exc
    if not values:
        raise ConfigError("--values must contain at least one number")
    return values


def _build(cfg: RunConfig):
    system = cfg.build_system()
    ctx = cfg.build_context(system)
    return system, ctx, cfg.build_solver(ctx)


def cmd_solve(args, cfg: RunConfig) -> dict[str, str]:
    system, ctx, scfg = _build(cfg)
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
    print(f"q={sol.q}  n={sol.n}  p={sol.p:.6g}  objective={sol.objective:.6g}")
    print(f"epsilon achieved {sol.epsilon_achieved:.6g} of budget {scfg.eps_bar:.6g}")
    if stats.mu is not None:
        print(f"eta={stats.eta:.4g}  mu={stats.mu:.4g}  lambda={stats.lambda_step:.4g}  "
              f"relative error < {stats.mu * stats.lambda_step:.4g}")
    print(f"grid {stats.q_hi - stats.q_lo + 1} q-values x {stats.p_grid_size} p-values, "
          f"{stats.eps_evaluations} budget evaluations")
    lo, hi = min(sol.powers), max(sol.powers)
    print(f"power range [{lo:.4g}, {hi:.4g}] W ({watts_to_dbm(lo):.2f} to {watts_to_dbm(hi):.2f} dBm)")
    return {"solution.json": _json(report)}


def _solve_row(cfg: RunConfig):
    system, ctx, scfg = _build(cfg)
    try:
        sol, _ = solve_with_stats(system, scfg, ctx)
        return sol
    except (InfeasibleError, AllInfeasibleError, EmptyDomainError, PrivacyInfeasibleError,
            CapacityInfeasibleError):
        return None


# sweep axis -> the (section, key) of the config it sets
SWEEP_AXES = {"eps_bar": ("solver", "eps_bar"), "p_max": ("system", "power_max_dbm"),
              "W": ("system", "bandwidth_hz"), "T": ("system", "transmission_time_s"),
              "K": ("system", "selected")}


def cmd_sweep(args, cfg: RunConfig) -> dict[str, str]:
    values = _parse_values(args.values)
    if sorted(values) != values:
        raise ConfigError("--values must be ascending")
    section, key = SWEEP_AXES[args.axis]
    rows = []
    for v in values:
        sol = _solve_row(cfg.merged({section: {key: v}}))
        if sol is None:
            rows.append([v, "infeasible", None, None, None, None])
        else:
            rows.append([v, sol.objective, sol.q, sol.n, sol.p, sol.epsilon_achieved])
    feasible = sum(1 for r in rows if r[1] != "infeasible")
    print(f"{args.axis} sweep: {feasible}/{len(rows)} feasible rows")
    return {f"sweep_{args.axis}.csv": _csv(["axis_value", "objective", "q", "n", "p", "epsilon"], rows)}


def cmd_compare_eps(args, cfg: RunConfig) -> dict[str, str]:
    values = _parse_values(args.values) if args.values is not None else [float(v) for v in range(1, 11)]
    system = cfg.build_system()
    ctx = cfg.build_context(system)
    rows = []
    for eb in values:
        sol = _solve_row(cfg.merged({"solver": {"eps_bar": eb}}))
        if sol is None:
            rows.append([eb, "infeasible", None, None])
            continue
        tight = sol.epsilon_achieved
        base = baseline_epsilon_value(sol.q, sol.n, sol.p, ctx.d, ctx.delta)
        rows.append([eb, tight, base, base / tight])
    return {"compare_eps.csv": _csv(["eps_bar", "epsilon_tight", "epsilon_baseline", "ratio"], rows)}


def cmd_qbar(args, cfg: RunConfig) -> dict[str, str]:
    values = _parse_values(args.values) if args.values is not None else [float(v) for v in range(1, 21)]
    rows = []
    for dbm in values:
        system, ctx, scfg = _build(cfg.merged({"system": {"power_max_dbm": dbm}}))
        try:
            qb = qbar(system, scfg, ctx)
            rows.append([dbm, qb, math.log10(qb)])
        except EmptyDomainError:
            rows.append([dbm, "empty_domain", None])
        except AllInfeasibleError:
            rows.append([dbm, "all_infeasible", None])
    return {"qbar_sweep.csv": _csv(["p_max_dbm", "qbar", "log10_qbar"], rows)}


def _build_task(s: dict, system, seed: int):
    M, d, S = system.M, system.d, s["samples_per_device"]
    floats = M * d * max(S, d) if s["task"] == "logistic" else M * d
    if floats > MAX_SIM_FLOATS:  # before any array exists
        raise ConfigError(
            f"simulate would hold {floats:.3g} floats (M={M}, d={d}, samples_per_device={S}), above the "
            f"{MAX_SIM_FLOATS} one run may hold; configs/desk.yaml is a desk-scale deployment")
    data_seed = child_seed(seed, ROLE_SIM)
    if s["task"] == "logistic":
        return tasksmod.LogisticRegressionTask(d=d, M=M, samples_per_device=S, seed=data_seed, l2=s["l2"])
    return tasksmod.QuadraticBowlTask(d=d, M=M, seed=data_seed)


def cmd_simulate(args, cfg: RunConfig) -> dict[str, str]:
    s = cfg.sim_section()
    system, ctx, scfg = _build(cfg)
    task = _build_task(s, system, cfg.seed)
    sol, _ = solve_with_stats(system, scfg, ctx)
    rounds = s["rounds"]

    bounds = simmod.theoretical_bounds(system, sol, task.grad_bound())
    sigma_sq = bounds.u_hi_iid + bounds.b_hi
    L, G_f = task.smoothness(), max(task.loss(task.initial_point()), 1e-9)
    gamma = simmod.learning_rate(L, G_f, sigma_sq, rounds)
    iters = simmod.iterations_estimate(L, G_f, s["theta"], s["confidence"], sigma_sq)
    bias = simmod.measure_bias(task, sol, trials=s["bias_trials"], rng=rng_for(cfg.seed, ROLE_BIAS))
    in_sandwich = (bounds.b_lo - 4.0 * bias.stderr) <= bias.mean <= (bounds.b_hi + 4.0 * bias.stderr)

    arms: dict[str, Solution | None] = {"baseline": None, "optimized": sol}
    sub = None
    if s["compare_suboptimal"]:
        sub = suboptimal_tuple(sol, system, scfg, ctx, s["subopt_factor"])
        if sub is not None:
            arms["suboptimal"] = sub

    traces = {}
    for index, (name, arm_sol) in enumerate(arms.items()):
        traces[name] = simmod.run_fsgd(task, system, arm_sol, rounds, rng_for(cfg.seed, ROLE_SIM, index),
                                       gamma=gamma)

    summary = {
        "spec_version": SPEC_VERSION,
        "seed": cfg.seed,
        "rounds": rounds,
        "gamma": gamma,
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
    base_final = traces["baseline"].loss[-1]
    opt_final = traces["optimized"].loss[-1]
    print(f"tuple q={sol.q} n={sol.n} p={sol.p:.4g}; gamma={gamma:.4g}")
    print(f"final loss: baseline {base_final:.6g}, optimized {opt_final:.6g} "
          f"(gap {abs(opt_final - base_final) / base_final * 100:.2f}%)")
    if "suboptimal" in traces:
        print(f"suboptimal final loss {traces['suboptimal'].loss[-1]:.6g} "
              f"(objective x{summary['suboptimal']['objective_ratio']:.2f})")
    print(f"bias {bias.mean:.6g} +/- {bias.stderr:.2g} vs bounds "
          f"[{bounds.b_lo:.6g}, {bounds.b_hi:.6g}] -> {'PASS' if in_sandwich else 'FAIL'}")
    files = {f"trace_{name}.csv": _csv(simmod.TRACE_COLUMNS, zip(range(tr.rounds), tr.loss, tr.grad_norm_sq,
                                                                  tr.bias_sample, tr.bits))
             for name, tr in traces.items()}
    return {**files, "summary.json": _json(summary)}


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
    p.add_argument("--axis", required=True, choices=list(SWEEP_AXES))
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
        cfg = RunConfig.from_yaml(args.config) if args.config else RunConfig.defaults()
        if args.seed is not None:
            cfg = cfg.merged({"seed": args.seed})
        out = cfg.output_dir()  # checked even when --out replaces it
        out = Path(args.out or out)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory: {exc}") from exc
        for name, text in args.func(args, cfg).items():
            try:
                (out / name).write_text(text)
            except OSError as exc:
                raise ConfigError(f"cannot write output file: {exc}") from exc
            print(f"wrote {out / name}")
        return EXIT_OK
    except BinomflError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return next((code for klass, code in _EXIT_BY_ERROR if isinstance(exc, klass)), 1)


if __name__ == "__main__":
    raise SystemExit(main())
