"""Desk outputs pinned byte for byte: solve, sweep, compare-eps and qbar.

The files under data/golden/ are what these commands write on
configs/desk.yaml.  A change that alters them on purpose rewrites them (run
each command with ``--config configs/desk.yaml --out tests/data/golden``)
and says why.
"""

import contextlib
import io
from pathlib import Path

import pytest

from binomfl.cli import EXIT_OK, main

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"
DESK_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "desk.yaml"

COMMANDS = [
    (["solve"], "solution.json"),
    (["sweep", "--axis", "eps_bar", "--values", "5,10,20,30"], "sweep_eps_bar.csv"),
    (["compare-eps", "--values", "20,25,30"], "compare_eps.csv"),
    (["qbar", "--values", "0,10,20,30"], "qbar_sweep.csv"),
]


@pytest.mark.parametrize("argv, name", COMMANDS, ids=[argv[0] for argv, _ in COMMANDS])
def test_desk_output_matches_golden(argv, name, tmp_path):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*argv, "--config", str(DESK_CONFIG), "--out", str(tmp_path)]) == EXIT_OK
    assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()
