"""Outputs pinned byte for byte: at desk, solve, sweep on every axis,
compare-eps, qbar, and simulate's summary and three traces; at the built-in
full scale, solve at three budgets, and the search's (q, n, p) and
objective at every tenth budget of the benchmark's solve-full grid.

The files under data/golden/ are what these commands write on
configs/desk.yaml.  A change that alters them on purpose rewrites them (run
each command with ``--config configs/desk.yaml --out tests/data/golden``)
and says why.  The files under data/golden/full_scale/ are the
solution.json that ``binomfl solve`` writes at the built-in defaults with
``solver: {eps_bar: E}`` as the only config key, one per budget E; they pin
all 1,000 powers bit for bit.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from binomfl.cli import main
from binomfl.config import RunConfig
from binomfl.solver import solve_with_stats

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"
FULL_SCALE_EPS_BARS = ["5.00", "7.50", "10.00"]
DESK_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "desk.yaml"
# bench/make_refs.py writes it: one built-in full-scale solve per eps_bar of
# {5.00, 5.01, ..., 10.00}, keyed by eps_bar to two decimals
REFS_SOLVE_FULL = Path(__file__).resolve().parents[1] / "bench" / "refs_solve_full.json"

COMMANDS = {
    "solve": (["solve"], "solution.json"),
    "sweep": (["sweep", "--axis", "eps_bar", "--values", "5,10,20,30"], "sweep_eps_bar.csv"),
    "sweep-p_max": (["sweep", "--axis", "p_max", "--values", "20,26,28,30"], "sweep_p_max.csv"),
    "sweep-K": (["sweep", "--axis", "K", "--values", "4,6,12.0,20"], "sweep_K.csv"),
    "sweep-W": (["sweep", "--axis", "W", "--values", "100,150,200"], "sweep_W.csv"),
    "sweep-T": (["sweep", "--axis", "T", "--values", "0.5,1,2"], "sweep_T.csv"),
    "compare-eps": (["compare-eps", "--values", "20,25,30"], "compare_eps.csv"),
    "qbar": (["qbar", "--values", "0,10,20,30"], "qbar_sweep.csv"),
}


SIMULATE_FILES = ["summary.json", "trace_baseline.csv", "trace_optimized.csv", "trace_suboptimal.csv"]


def _run_desk(argv, out):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*argv, "--config", str(DESK_CONFIG), "--out", str(out)]) == 0


@pytest.mark.parametrize("argv, name", list(COMMANDS.values()), ids=list(COMMANDS))
def test_desk_output_matches_golden(argv, name, tmp_path):
    _run_desk(argv, tmp_path)
    assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()


@pytest.fixture(scope="module")
def desk_simulate(tmp_path_factory):
    out = tmp_path_factory.mktemp("simulate")
    _run_desk(["simulate"], out)
    return out


@pytest.mark.parametrize("name", SIMULATE_FILES)
def test_desk_simulate_matches_golden(name, desk_simulate):
    assert (desk_simulate / name).read_bytes() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("eps_bar", FULL_SCALE_EPS_BARS)
def test_full_scale_solve_matches_golden(eps_bar, tmp_path):
    config = tmp_path / "config.yaml"
    config.write_text(f"solver:\n  eps_bar: {eps_bar}\n")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["solve", "--config", str(config), "--out", str(tmp_path)]) == 0
    golden = GOLDEN / "full_scale" / f"solution_eps_bar_{eps_bar}.json"
    assert (tmp_path / "solution.json").read_bytes() == golden.read_bytes()


@pytest.fixture(scope="module")
def full_scale():
    cfg = RunConfig.defaults()
    system = cfg.build_system()
    return cfg, system, cfg.build_context(system), json.loads(REFS_SOLVE_FULL.read_text())


@pytest.mark.parametrize("k", range(0, 501, 10))
def test_full_scale_search_matches_the_solve_full_references(k, full_scale):
    cfg, system, ctx, refs = full_scale
    eps_bar = round(5.0 + 0.01 * k, 2)
    key = f"{eps_bar:.2f}"
    sol, _ = solve_with_stats(system, cfg.merged({"solver": {"eps_bar": eps_bar}}).build_solver(ctx), ctx)
    assert [sol.q, sol.n, sol.p] == refs["tuple_qnp"][key]
    assert sol.objective == refs["objective"][key]
