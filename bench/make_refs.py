"""Regenerate refs_solve_full.json: the solve-full reference objectives.

One built-in full-scale solve (seed-2024 channel) per point of the eps_bar
grid {5.00, 5.01, ..., 10.00}.  The solve-full output check requires every
op's objective to be no worse than the reference for its eps_bar.  Run from
the repository root; about 3 minutes on 2 cores:

    python3 bench/make_refs.py
"""

from __future__ import annotations

import json
import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from binomfl.config import RunConfig  # noqa: E402
from binomfl.solver import solve_with_stats  # noqa: E402
from workloads import EPS_GRID_POINTS, REFS_SOLVE_FULL, eps_bar_of  # noqa: E402


def solve_at(k: int) -> tuple[str, float, list]:
    eps_bar = eps_bar_of(k)
    cfg = RunConfig.defaults()
    system = cfg.build_system()
    ctx = cfg.build_context(system)
    sol, _ = solve_with_stats(system, cfg.build_solver(ctx, eps_bar=eps_bar), ctx)
    return f"{eps_bar:.2f}", sol.objective, [sol.q, sol.n, sol.p]


def main() -> int:
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=2, mp_context=ctx) as pool:
        rows = list(pool.map(solve_at, range(EPS_GRID_POINTS), chunksize=8))
    payload = {
        "about": "objective of the built-in full-scale solve at each eps_bar of the solve-full grid",
        "objective": {key: obj for key, obj, _ in rows},
        "tuple_qnp": {key: qnp for key, _, qnp in rows},
    }
    REFS_SOLVE_FULL.write_text(json.dumps(payload, indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(rows)} references to {REFS_SOLVE_FULL}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
