"""The three benchmark workloads: op generation, the timed call, the output check.

Each workload turns the benchmark seed into a deterministic op list, served
in blocks: block ``b`` is drawn from ``SeedSequence(seed, spawn_key=(b,))``
only, so op ``i`` is the same whatever run length asked for it.  Inside a
block the ops are stratified over the property that sets their cost, while
each op on its own keeps the workload's stated distribution.  This keeps
the per-run op mix, and so the medians, steady from seed to seed.

``run`` is the only part timed; ``check`` runs after the clock stops and
returns the list of problems found (empty means the op passed).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np
import yaml

from binomfl import cli, solver, wireless
from binomfl.config import RunConfig
from binomfl.errors import BinomflError
from binomfl.privacy import PrivacyContext, tight_epsilon_value

BENCH_DIR = Path(__file__).resolve().parent
REFS_SOLVE_FULL = BENCH_DIR / "refs_solve_full.json"

# solve-full draws eps_bar from the 0.01 grid on [5, 10]
EPS_GRID_LO = 5.0
EPS_GRID_POINTS = 501

# simulate-desk: built-in sim lengths, and the channel seed desk seed 7 derives
DESK_ROUNDS = 500
DESK_BIAS_TRIALS = 400
DESK_CHANNEL_SEED = 1201125462


def eps_bar_of(k: int) -> float:
    """Point k of the solve-full eps_bar grid {5.00, 5.01, ..., 10.00}."""
    return round(EPS_GRID_LO + 0.01 * k, 2)


def block_rng(seed: int, block: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(block,)))


def run_cli(argv: list[str]) -> int:
    """One in-process CLI invocation with its console output discarded."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return cli.main(argv)


def _reject_nan(token: str):
    raise ValueError(f"non-finite literal {token} in JSON output")


class Workload:
    """Op list from a seed, served block by block."""

    name = ""
    block_size = 1

    def __init__(self, root: Path, workdir: Path, seed: int):
        self.root = root
        self.workdir = workdir
        self.out = workdir / "out"
        self.out.mkdir(parents=True, exist_ok=True)
        self.seed = seed
        self._blocks: dict[int, list] = {}

    def op(self, i: int):
        b, j = divmod(i, self.block_size)
        if b not in self._blocks:
            self._blocks[b] = self.make_block(block_rng(self.seed, b))
        return self._blocks[b][j]

    def make_block(self, rng: np.random.Generator) -> list:
        raise NotImplementedError

    def run(self, op):
        raise NotImplementedError

    def check(self, op, result) -> list[str]:
        raise NotImplementedError


class SolveFull(Workload):
    """``binomfl solve`` at the built-in full scale, eps_bar uniform on [5, 10].

    A block holds one grid point from each of 20 equal strata of the eps_bar
    grid, in random order, so every op is uniform over the grid.
    """

    name = "solve-full"
    block_size = 20

    def __init__(self, root: Path, workdir: Path, seed: int):
        super().__init__(root, workdir, seed)
        self.refs = json.loads(REFS_SOLVE_FULL.read_text())["objective"]

    def make_block(self, rng):
        edges = np.linspace(0, EPS_GRID_POINTS, self.block_size + 1)
        ops = []
        for stratum in rng.permutation(self.block_size):
            lo, hi = int(math.ceil(edges[stratum])), int(math.ceil(edges[stratum + 1]))
            ops.append(self._config_for(int(rng.integers(lo, hi))))
        return ops

    def _config_for(self, k: int) -> tuple[float, Path]:
        eps_bar = eps_bar_of(k)
        path = self.workdir / f"solve-{k:03d}.yaml"
        if not path.exists():
            path.write_text(yaml.safe_dump({"solver": {"eps_bar": eps_bar}}))
        return eps_bar, path

    def run(self, op):
        _, path = op
        return run_cli(["solve", "--config", str(path), "--out", str(self.out)])

    def check(self, op, rc) -> list[str]:
        eps_bar, path = op
        if rc != 0:
            return [f"exit {rc}"]
        try:
            rep = json.loads((self.out / "solution.json").read_text(), parse_constant=_reject_nan)
        except ValueError as exc:
            return [f"solution.json: {exc}"]
        cfg = RunConfig.from_yaml(path)
        system = cfg.build_system()
        ctx = cfg.build_context(system)
        scfg = cfg.build_solver(ctx)
        sol = solver.Solution(
            q=rep["q"], n=rep["n"], p=rep["p"], powers=tuple(rep["powers_w"]),
            objective=rep["objective"], epsilon_achieved=rep["epsilon_achieved"],
        )
        problems = solver.check_solution(sol, system, scfg, ctx)
        if not sol.epsilon_achieved <= eps_bar:
            problems.append(f"epsilon_achieved {sol.epsilon_achieved} > eps_bar {eps_bar}")
        ref = self.refs.get(f"{eps_bar:.2f}")
        if ref is None:
            problems.append(f"no reference objective for eps_bar {eps_bar:.2f}")
        elif not sol.objective <= ref * (1.0 + 1e-9):
            problems.append(f"objective {sol.objective} worse than reference {ref}")
        return problems


def oracle_work(bound: int, n_max: int, lambda_step: float, K: int, d: int, delta: float) -> float:
    """Estimated seconds of ``brute_force_solve(fine_factor=3)`` on an instance.

    Counts the (q, p) cells the oracle's scan visits, the array-kernel calls
    it makes and the n values those calls evaluate, and weights the three
    counts by their per-unit costs fitted to op times at the commit that
    added the benchmark.  It only orders instances for stratification, so a
    later change to the oracle's speed makes the strata coarser, never the
    op list wrong.
    """
    step = lambda_step / 3
    ps = np.arange(1, math.ceil(1.0 / step) + 1) * step
    ps = np.append(ps[ps < 1.0], 0.5)
    floor = 23.0 * math.log(10.0 * d / delta)
    cells = calls = elements = 0
    for q in range(2, bound + 1):
        top = min(n_max, bound + 2 - q)
        if top < 2:
            continue
        n_min = np.maximum(2.0, np.ceil(max(floor, 2.0 * (q + 1)) / (K * ps * (1.0 - ps))))
        count = np.maximum(0.0, top - n_min + 1)
        cells += len(ps)
        calls += int(np.count_nonzero(count))
        elements += float(count.sum())
    return 7.0e-6 * cells + 4.2e-5 * calls + 6.7e-8 * elements


class CertifySmall(Workload):
    """rho-certified ``solve`` then ``brute_force_solve(fine_factor=3)``.

    Instances follow acceptance criterion 04: domain bound <= 64, n_cap in
    16..512, eta in 0.08..0.23, rho in {0.05, 0.1, 0.3}.  A block draws
    ``block_size * POOL`` instances, sorts them by ``oracle_work`` and keeps
    one at random from each of ``block_size`` equal chunks, so each op is
    still a plain draw from the generator while a block spans the cost range
    evenly.
    """

    name = "certify-small"
    block_size = 24
    POOL = 8
    RHOS = (0.05, 0.1, 0.3)

    def make_block(self, rng):
        pool = [self._instance(rng) for _ in range(self.block_size * self.POOL)]
        pool.sort(key=lambda inst: inst[-1])
        chunks = [pool[c * self.POOL:(c + 1) * self.POOL] for c in range(self.block_size)]
        picks = [chunk[int(rng.integers(self.POOL))][:-1] for chunk in chunks]
        return [picks[i] for i in rng.permutation(self.block_size)]

    def _instance(self, rng):
        while True:
            d = int(rng.integers(2, 40))
            delta = 10.0 ** rng.uniform(-4, -1.3)
            base_target = float(rng.uniform(12.0, 66.0))
            n_cap = int(rng.integers(16, 513))
            floor = 23.0 * math.log(10.0 * d / delta)
            eta_target = float(rng.uniform(0.08, 0.23))
            K = max(2, round(floor / (eta_target * n_cap)))
            spread = float(rng.uniform(0.05, 1.0))
            rho = self.RHOS[int(rng.integers(len(self.RHOS)))]
            ratio = float(rng.uniform(1.1, 3.0))
            # gains ramp up from SNR 3 at p_max = omega0 = 1, so the domain
            # bound lands at floor(base_target) - 2
            system = wireless.SystemParams(
                K=K, M=2 * K, d=d, delta=delta, T=1.0,
                W=d * math.log2(base_target) / math.log2(4.0), omega0=1.0,
                p_min=1e-3, p_max=1.0, gains=tuple(3.0 + spread * k for k in range(K)),
            )
            ctx = PrivacyContext(d=d, delta=delta, K=K)
            try:
                bound = wireless.domain_bound(system)
                n_max = min(n_cap, bound)
                if math.ceil(floor / (K * 0.25)) > n_max:
                    continue  # not even p = 1/2 clears the variance floor
                eps_bar = tight_epsilon_value(2, n_max, 0.5, d, delta) * ratio
                cfg = solver.SolverConfig.for_target_error(eps_bar, rho, n_cap, ctx)
            except (BinomflError, ValueError):
                continue  # empty or overflowing channel domain, or no error factor
            return system, ctx, cfg, oracle_work(bound, n_max, cfg.lambda_step, K, d, delta)

    def run(self, op):
        system, ctx, cfg = op
        sol = solver.solve(system, cfg, ctx)
        oracle = solver.brute_force_solve(system, cfg, ctx, fine_factor=3)
        return sol, oracle

    def check(self, op, result) -> list[str]:
        system, ctx, cfg = op
        sol, oracle = result
        _, mu = solver.eta_and_mu_values(cfg.n_cap, ctx)
        ratio = sol.objective / oracle.objective
        problems = solver.check_solution(sol, system, cfg, ctx)
        if not ratio <= 1.0 + cfg.rho + 1e-12:
            problems.append(f"objective/oracle {ratio} > 1 + rho ({cfg.rho})")
        if not ratio <= 1.0 + mu * cfg.lambda_step + 1e-12:
            problems.append(f"objective/oracle {ratio} > 1 + mu*lambda ({mu * cfg.lambda_step})")
        return problems


class SimulateDesk(Workload):
    """``binomfl simulate`` on configs/desk.yaml at the built-in sim lengths.

    Each op runs under its own top-level seed; the channel seed stays pinned
    to the one desk seed 7 derives, so every op solves the same tuple.
    """

    name = "simulate-desk"
    block_size = 16

    def __init__(self, root: Path, workdir: Path, seed: int):
        super().__init__(root, workdir, seed)
        raw = yaml.safe_load((root / "configs" / "desk.yaml").read_text())
        raw["sim"]["rounds"] = DESK_ROUNDS
        raw["sim"]["bias_trials"] = DESK_BIAS_TRIALS
        raw["system"].setdefault("channel", {})["seed"] = DESK_CHANNEL_SEED
        self.config = workdir / "desk.yaml"
        self.config.write_text(yaml.safe_dump(raw))

    def make_block(self, rng):
        return [int(s) for s in rng.integers(1, 2**31, size=self.block_size)]

    def run(self, op):
        return run_cli(["simulate", "--config", str(self.config), "--out", str(self.out),
                        "--seed", str(op)])

    def check(self, op, rc) -> list[str]:
        if rc != 0:
            return [f"exit {rc}"]
        summary = json.loads((self.out / "summary.json").read_text())
        problems = [f"final loss of {arm} is {loss}"
                    for arm, loss in summary["final_loss"].items() if not math.isfinite(loss)]
        if summary["measured_bias"]["within_bounds"] is not True:
            problems.append("measured bias outside its theoretical sandwich")
        if summary["comm_cost_bits"]["optimized"] != summary["comm_cost_formula_bits"]:
            problems.append("optimized comm cost disagrees with the closed form")
        return problems


WORKLOADS = {w.name: w for w in (SolveFull, CertifySmall, SimulateDesk)}
