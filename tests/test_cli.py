"""Command-line front end: outputs, determinism, exit codes."""

import argparse
import contextlib
import csv
import io
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from binomfl.cli import SWEEP_AXES, main
from binomfl import cli
from binomfl import config as config_module
from binomfl import errors
from binomfl import sim as simmod
from binomfl import tasks as tasksmod
from binomfl import wireless
from binomfl.config import DEFAULTS, RunConfig
from binomfl.errors import DivergedError
from binomfl.solver import SUBOPT_FACTOR, Solution, check_solution, objective

DESK_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "desk.yaml"
# configs/desk.yaml without its comments, for the tests that edit its text
SMALL_CONFIG = """\
seed: 7
system:
  selected: 12
  population: 60
  dimension: 40
  delta: 1.0e-4
  transmission_time_s: 1.0
  bandwidth_hz: 150.0
  noise_power_w: 0.4
  power_min_dbm: -10.0
  power_max_dbm: 30.0
  channel:
    reference_gain_db: 20.0
    reference_distance_m: 1.0
    distance_min_m: 1.0
    distance_max_m: 2.0
    seed: 1201125462
solver:
  eps_bar: 30.0
  lambda_step: 0.02
  n_cap: 256
  bit_cap: null
sim:
  task: logistic
  samples_per_device: 20
  rounds: 40
  bias_trials: 150
output:
  dir: out
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text(SMALL_CONFIG)
    return path


def test_small_config_is_the_desk_config(config_path):
    # an edit to one of the two must reach the other
    assert RunConfig.from_yaml(config_path).raw == RunConfig.from_yaml(DESK_CONFIG).raw


def run_module(argv):
    return subprocess.run([sys.executable, "-m", "binomfl.cli", *argv], capture_output=True, text=True)


def read_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)


EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16]
json_floats = st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS))
# quotes, backslashes, control characters and non-ASCII, in keys and in strings
json_text = st.text(st.one_of(st.characters(), st.sampled_from('"\\,\n\t\x00\x1f\x7fé\u2028😀')))
json_leaves = st.one_of(st.none(), st.booleans(), st.integers(), json_floats,
                        json_floats.map(np.float64), json_text)
json_trees = st.recursive(
    json_leaves,
    lambda children: st.one_of(st.lists(children), st.lists(children).map(tuple),
                               st.dictionaries(json_text, children)),
    max_leaves=25,
)


class TestWriters:
    @settings(max_examples=100, deadline=None)
    @given(payload=json_trees)
    @example(payload={"powers_w": EDGE_FLOATS + [np.float64(0.1)], "empty": {"d": {}, "l": []},
                      "mixed": [1, True, None, "a,b", 2.5, False], "t": (1.5, (), [[]])})
    # non-string keys, converted as the stdlib converts them
    @example(payload={1: "a", 2.5: "b", -3: "c"})
    @example(payload={True: [], False: 0})
    @example(payload={None: {}})
    @example(payload={math.nan: 1.0, math.inf: [1, 2], np.float64(0.5): "x"})
    def test_json_matches_the_stdlib_indented_encoder(self, payload):
        assert cli._json(payload) == json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def test_json_rejects_what_the_stdlib_rejects(self):
        for payload in ({(1, 2): 0}, {"a": object()}, [np.int64(1)]):
            with pytest.raises(TypeError):
                json.dumps(payload, sort_keys=True, indent=2)
            with pytest.raises(TypeError):
                cli._json(payload)

    def test_csv_prints_numpy_floats_as_plain_floats(self):
        text = cli._csv(["a", "b", "c", "d"], [[np.float64(0.1), 0.1, 2, None], [np.float64(-0.0), 1e16, "x", 5e-324]])
        assert text == "a,b,c,d\n0.1,0.1,2,\n-0.0,1e+16,x,5e-324\n"


class TestSolveCommand:
    def test_report_contents(self, config_path, tmp_path, capsys):
        out = tmp_path / "a"
        assert main(["solve", "--config", str(config_path), "--out", str(out)]) == 0
        report = json.loads((out / "solution.json").read_text())
        assert report["spec_version"] == 1
        assert report["epsilon_achieved"] <= report["eps_bar"]
        assert len(report["powers_w"]) == 12
        assert report["objective"] == objective(report["q"], report["n"], report["p"])
        assert "exit codes" not in capsys.readouterr().err

    def test_rerun_byte_identical(self, config_path, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["solve", "--config", str(config_path), "--out", str(out_a)])
        main(["solve", "--config", str(config_path), "--out", str(out_b)])
        assert (out_a / "solution.json").read_bytes() == (out_b / "solution.json").read_bytes()

    def test_runs_as_module(self, config_path, tmp_path):
        proc = run_module(["solve", "--config", str(config_path), "--out", str(tmp_path / "m")])
        assert proc.returncode == 0, proc.stderr

    def test_console_script_reads_sys_argv(self, config_path, tmp_path, monkeypatch):
        # the binomfl entry point calls main() with no arguments
        monkeypatch.setattr(sys, "argv", ["binomfl", "solve", "--config", str(config_path), "--out", str(tmp_path)])
        with contextlib.redirect_stdout(io.StringIO()):
            assert main() == 0
        assert (tmp_path / "solution.json").exists()

    def test_builtin_defaults_feasible(self, tmp_path, monkeypatch):
        # full-scale preset: K=1000, M=1e6, delta=1e-10, 16-bit cap, eps_bar=10
        monkeypatch.chdir(tmp_path)
        assert main(["solve"]) == 0
        text = (tmp_path / "out" / "solution.json").read_text()
        report = json.loads(text)
        assert text == json.dumps(report, sort_keys=True, indent=2) + "\n"
        assert len(report["powers_w"]) == 1000
        assert report["epsilon_achieved"] <= 10.0
        assert report["q"] + report["n"] <= 2**16


class TestSweepCommand:
    def test_eps_bar_sweep_monotone_and_roundtrip(self, config_path, tmp_path):
        out = tmp_path / "s"
        code = main(["sweep", "--config", str(config_path), "--out", str(out),
                     "--axis", "eps_bar", "--values", "5,10,20,30"])
        assert code == 0
        header, rows = read_csv(out / "sweep_eps_bar.csv")
        assert header == ["axis_value", "objective", "q", "n", "p", "epsilon"]
        feasible = [r for r in rows if r[1] != "infeasible"]
        objs = [float(r[1]) for r in feasible]
        assert objs == sorted(objs, reverse=True) or all(
            b <= a * (1 + 1e-12) for a, b in zip(objs, objs[1:])
        )
        for r in feasible:
            # derived column reproducible from the row itself
            assert float(r[1]) == objective(int(r[2]), int(r[3]), float(r[4]))

    def test_unsorted_values_rejected(self, config_path, tmp_path):
        code = main(["sweep", "--config", str(config_path), "--out", str(tmp_path / "x"),
                     "--axis", "eps_bar", "--values", "10,5"])
        assert code == 2

    def test_empty_values_rejected(self, config_path, tmp_path):
        code = main(["compare-eps", "--config", str(config_path),
                     "--out", str(tmp_path / "x"), "--values", ""])
        assert code == 2

    def test_p_max_sweep_nonincreasing(self, config_path, tmp_path):
        out = tmp_path / "p"
        main(["sweep", "--config", str(config_path), "--out", str(out),
              "--axis", "p_max", "--values", "26,28,30"])
        _, rows = read_csv(out / "sweep_p_max.csv")
        objs = [float(r[1]) for r in rows if r[1] != "infeasible"]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(objs, objs[1:]))

    def test_k_sweep_recomputed_bias_bound_decreases(self, config_path, tmp_path):
        out = tmp_path / "k"
        main(["sweep", "--config", str(config_path), "--out", str(out),
              "--axis", "K", "--values", "8,12,16"])
        _, rows = read_csv(out / "sweep_K.csv")
        b_his = []
        for r in rows:
            if r[1] == "infeasible":
                continue
            K, q, n, p = float(r[0]), int(r[2]), int(r[3]), float(r[4])
            d, g = 40, 1.0  # dimension from the config; unit gradient bound
            b_his.append(4.0 * d * g * g * (1.0 + n * p * (1.0 - p)) / (K * (q - 1) ** 2))
        assert len(b_his) >= 2
        assert all(b < a for a, b in zip(b_his, b_his[1:]))

    # a value per axis whose solution differs from the config's own
    AXIS_VALUES = {"eps_bar": 25.0, "p_max": 29.0, "W": 140.0, "T": 0.85, "K": 14.0}

    @pytest.mark.parametrize("axis", list(SWEEP_AXES))
    def test_sweep_row_equals_solve_on_file_with_key_set(self, axis, config_path, tmp_path):
        value = self.AXIS_VALUES[axis]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["sweep", "--config", str(config_path), "--out", str(tmp_path / "s"),
                         "--axis", axis, "--values", repr(value)]) == 0
            section, key = SWEEP_AXES[axis]
            raw = yaml.safe_load(SMALL_CONFIG)
            raw[section][key] = value
            edited = tmp_path / "edited.yaml"
            edited.write_text(yaml.safe_dump(raw))
            assert main(["solve", "--config", str(edited), "--out", str(tmp_path / "f")]) == 0
        _, rows = read_csv(tmp_path / "s" / f"sweep_{axis}.csv")
        report = json.loads((tmp_path / "f" / "solution.json").read_text())
        assert rows == [[repr(value), repr(report["objective"]), str(report["q"]), str(report["n"]),
                         repr(report["p"]), repr(report["epsilon_achieved"])]]


class TestCompareEpsCommand:
    def test_tight_below_baseline_each_row(self, config_path, tmp_path):
        out = tmp_path / "c"
        main(["compare-eps", "--config", str(config_path), "--out", str(out),
              "--values", "20,25,30"])
        header, rows = read_csv(out / "compare_eps.csv")
        assert header == ["eps_bar", "epsilon_tight", "epsilon_baseline", "ratio"]
        seen = 0
        for row in rows:
            if row[1] == "infeasible":
                continue
            seen += 1
            tight, base, ratio = float(row[1]), float(row[2]), float(row[3])
            assert tight <= base
            assert ratio > 1.0
            assert ratio == base / tight
        assert seen >= 2


class TestQbarCommand:
    def test_monotone_with_flagged_rows(self, config_path, tmp_path):
        out = tmp_path / "q"
        main(["qbar", "--config", str(config_path), "--out", str(out),
              "--values", "0,10,20,30"])
        header, rows = read_csv(out / "qbar_sweep.csv")
        assert header == ["p_max_dbm", "qbar", "log10_qbar"]
        flagged = [r for r in rows if r[1] in ("empty_domain", "all_infeasible")]
        numeric = [int(r[1]) for r in rows if r[1].isdigit()]
        assert flagged, "low-power rows should be flagged"
        assert numeric == sorted(numeric)
        for r in rows:
            if r[1].isdigit():
                assert float(r[2]) == math.log10(int(r[1]))


class TestSimulateCommand:
    def test_summary_and_traces(self, config_path, tmp_path):
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(config_path), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        q, n = summary["solution"]["q"], summary["solution"]["n"]
        rounds = summary["rounds"]
        expected_bits = rounds * 12 * 40 * math.ceil(math.log2(q + n))
        assert summary["comm_cost_formula_bits"] == expected_bits
        assert summary["comm_cost_bits"]["optimized"] == expected_bits
        assert summary["measured_bias"]["within_bounds"] is True
        header, rows = read_csv(out / "trace_optimized.csv")
        assert header == ["round", "loss", "grad_norm_sq", "bias_sample", "bits"]
        assert len(rows) == rounds
        assert sum(int(r[4]) for r in rows) == expected_bits

    def test_suboptimal_arm_present_with_ratio(self, config_path, tmp_path):
        out = tmp_path / "sim2"
        main(["simulate", "--config", str(config_path), "--out", str(out)])
        summary = json.loads((out / "summary.json").read_text())
        assert summary["suboptimal"]["objective_ratio"] >= SUBOPT_FACTOR
        assert (out / "trace_suboptimal.csv").exists()

    def test_seed_option_equals_the_seed_key(self, tmp_path):
        raw = yaml.safe_load(DESK_CONFIG.read_text())
        raw["seed"] = 8
        (tmp_path / "seed8.yaml").write_text(yaml.safe_dump(raw))
        runs = {"option": [str(DESK_CONFIG), "--seed", "8"], "key": [str(tmp_path / "seed8.yaml")],
                "desk": [str(DESK_CONFIG)]}
        with contextlib.redirect_stdout(io.StringIO()):
            for name, argv in runs.items():
                assert main(["simulate", "--config", *argv, "--out", str(tmp_path / name)]) == 0
        names = sorted(path.name for path in (tmp_path / "option").iterdir())
        assert names == ["summary.json", "trace_baseline.csv", "trace_optimized.csv", "trace_suboptimal.csv"]
        assert all((tmp_path / "option" / name).read_bytes() == (tmp_path / "key" / name).read_bytes()
                   for name in names)
        assert (tmp_path / "option" / "summary.json").read_bytes() != (tmp_path / "desk" / "summary.json").read_bytes()

    @pytest.mark.parametrize("seed", ["1", "2024"])
    def test_seed_option_keeps_the_desk_deployment(self, seed, tmp_path):
        # desk pins its channel seed, so --seed redraws training, not the gains
        argv = ["--config", str(DESK_CONFIG), "--seed", seed]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["solve", *argv, "--out", str(tmp_path / "solve")]) == 0
            assert main(["simulate", *argv, "--out", str(tmp_path / "sim")]) == 0
        report = json.loads((tmp_path / "solve" / "solution.json").read_text())
        assert (report["q"], report["n"], report["p"]) == (8, 241, 0.5)

    def test_quadratic_task(self, tmp_path):
        raw = yaml.safe_load(DESK_CONFIG.read_text())
        raw["sim"]["task"] = "quadratic"
        cfg = tmp_path / "c.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        runs = [tmp_path / "a", tmp_path / "b"]
        with contextlib.redirect_stdout(io.StringIO()):
            for out in runs:
                assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        names = sorted(path.name for path in runs[0].iterdir())
        assert names == ["summary.json", "trace_baseline.csv", "trace_optimized.csv", "trace_suboptimal.csv"]
        assert json.loads((runs[0] / "summary.json").read_text())["measured_bias"]["within_bounds"] is True
        assert all((runs[0] / name).read_bytes() == (runs[1] / name).read_bytes() for name in names)

    def test_no_suboptimal_arm_when_none_fits(self, tmp_path):
        # desk at eps_bar 20 and n_cap 128 solves to (2, 125, 0.5): q cannot
        # shrink, and doubling n passes n_cap
        raw = yaml.safe_load(DESK_CONFIG.read_text())
        raw["solver"].update(eps_bar=20, n_cap=128)
        cfg = tmp_path / "c.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        out = tmp_path / "o"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        solution = summary["solution"]
        assert (solution["q"], solution["n"], solution["p"]) == (2, 125, 0.5)
        assert summary["suboptimal"] is None
        assert sorted(summary["final_loss"]) == ["baseline", "optimized"]
        assert summary["measured_bias"]["within_bounds"] is True
        assert sorted(path.name for path in out.iterdir()) == ["summary.json", "trace_baseline.csv",
                                                               "trace_optimized.csv"]

    @pytest.mark.parametrize("system", [{}, {"selected": 10, "dimension": 30}], ids=["desk", "desk-K10-d30"])
    def test_simulate_solves_the_configured_deployment(self, system, tmp_path):
        # simulate solves and trains the K, M, d and eps_bar of the system and
        # solver sections, as solve does, and no shadow of them
        raw = yaml.safe_load(DESK_CONFIG.read_text())
        raw["system"].update(system)
        cfg = tmp_path / "c.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "solve")]) == 0
            assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "sim")]) == 0
        report = json.loads((tmp_path / "solve" / "solution.json").read_text())
        summary = json.loads((tmp_path / "sim" / "summary.json").read_text())
        keys = ("q", "n", "p", "objective", "epsilon_achieved")
        assert summary["solution"] == {key: report[key] for key in keys}
        K, d = raw["system"]["selected"], raw["system"]["dimension"]
        bits = summary["rounds"] * K * d * math.ceil(math.log2(report["q"] + report["n"]))
        assert summary["comm_cost_formula_bits"] == bits


# every signal the CLI returns, with its documented exit code;
# CapacityInfeasibleError inherits InfeasibleError's
CLI_EXITS = {errors.ConfigError: 2, errors.InfeasibleError: 3, errors.CapacityInfeasibleError: 3,
             errors.AllInfeasibleError: 4, errors.PrivacyInfeasibleError: 5, errors.DivergedError: 7,
             errors.EmptyDomainError: 8}


class TestExitCodes:
    @pytest.mark.parametrize("error, code", list(CLI_EXITS.items()), ids=[e.__name__ for e in CLI_EXITS])
    def test_error_class_carries_its_exit_code(self, error, code, monkeypatch, tmp_path):
        assert error.exit_code == code

        def fail(args, cfg):
            raise error("stopped")

        monkeypatch.setattr(cli, "cmd_solve", fail)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            assert main(["solve", "--out", str(tmp_path)]) == code
        assert err.getvalue() == "error: stopped\n"
        # the codes above are the documented failures, and every other
        # class keeps the base class's 1, which the CLI never returns
        assert set(CLI_EXITS.values()) == DOCUMENTED_EXITS - {0}
        signals = {c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, errors.BinomflError)}
        assert {c for c in signals if c.exit_code == 1} == signals - CLI_EXITS.keys() == {
            errors.BinomflError, errors.NotApplicableError}

    def test_bad_yaml(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("system: [not, a, mapping]")
        assert main(["solve", "--config", str(bad)]) == 2

    @pytest.mark.parametrize("kind", ["missing", "directory", "invalid YAML", "list root", "not UTF-8",
                                      "deeply nested"])
    def test_unreadable_config_file(self, kind, tmp_path):
        # the parser's own message spans several lines; the error takes one
        path = tmp_path / "c.yaml"
        if kind == "directory":
            path.mkdir()
        elif kind == "invalid YAML":
            path.write_text("system:\n  selected: [12,\n  population: {60\n")
        elif kind == "list root":
            path.write_text("- seed: 7\n- solver: {}\n")
        elif kind == "not UTF-8":
            path.write_bytes(b"seed: 7\x80\x81\n")
        elif kind == "deeply nested":
            path.write_text("seed: " + "[" * 5000 + "]" * 5000 + "\n")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["solve", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        assert "Traceback" not in err.getvalue() and out.getvalue() == ""
        assert not (tmp_path / "o").exists()

    def test_unknown_key(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("solver:\n  epsbar: 3\n")
        assert main(["solve", "--config", str(bad)]) == 2

    def test_all_infeasible(self, config_path, tmp_path):
        cfg = tmp_path / "tight.yaml"
        cfg.write_text(SMALL_CONFIG.replace("eps_bar: 30.0", "eps_bar: 0.5"))
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 4

    def test_privacy_infeasible(self, tmp_path):
        # enough capacity that the budget envelope passes, but a budget no
        # trial count up to the tiny cap can reach
        cfg = tmp_path / "p.yaml"
        cfg.write_text(
            SMALL_CONFIG
            .replace("bandwidth_hz: 150.0", "bandwidth_hz: 1100.0")
            .replace("eps_bar: 30.0", "eps_bar: 1.0e-6")
            .replace("n_cap: 256", "n_cap: 8")
        )
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 5

    @pytest.mark.parametrize("section, key, value, exit_code", [
        ("solver", "eps_bar", 5.0, 4),  # every q ruled out
        ("solver", "n_cap", 8, 5),  # budget unreachable
        ("system", "power_max_dbm", 0.0, 8),  # empty domain
    ], ids=["eps_bar-5", "n_cap-8", "power_max_dbm-0"])
    def test_desk_variant_exits_with_its_code_in_one_line(self, section, key, value, exit_code, tmp_path):
        raw = yaml.safe_load(DESK_CONFIG.read_text())
        raw[section][key] = value
        code, err = self.run_in_process(tmp_path, yaml.safe_dump(raw), "solve")
        assert code == exit_code
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "o" / "solution.json").exists()

    def test_empty_domain(self, config_path, tmp_path):
        cfg = tmp_path / "narrow.yaml"
        cfg.write_text(SMALL_CONFIG.replace("bandwidth_hz: 150.0", "bandwidth_hz: 10.0"))
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 8

    @classmethod
    def assert_config_error(cls, tmp_path, text, *extra):
        """solve on ``text`` exits 2 with one stderr line, which it returns."""
        code, err = cls.run_in_process(tmp_path, text, "solve", *extra)
        assert code == 2
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "o" / "solution.json").exists()
        return err

    @pytest.mark.parametrize("value, shown", [(".nan", "nan"), (".inf", "inf"), ("abc", "'abc'")],
                             ids=[".nan", ".inf", "abc"])
    def test_eps_bar_not_a_finite_number(self, value, shown, tmp_path):
        err = self.assert_config_error(tmp_path, SMALL_CONFIG.replace("eps_bar: 30.0", f"eps_bar: {value}"))
        assert err == f"error: solver.eps_bar must be a finite number in (0, inf), got {shown}\n"
        # SolverConfig checks lambda_step's range, so its message names none
        err = self.assert_config_error(tmp_path, SMALL_CONFIG.replace("lambda_step: 0.02", f"lambda_step: {value}"))
        assert err == f"error: solver.lambda_step must be a finite number, got {shown}\n"

    @pytest.mark.parametrize("line, value", [
        ("power_max_dbm: 30.0", ".nan"),
        ("power_max_dbm: 30.0", ".inf"),
        ("transmission_time_s: 1.0", ".nan"),
        ("bandwidth_hz: 150.0", ".nan"),
        ("noise_power_w: 0.4", ".nan"),
    ])
    def test_channel_parameter_not_finite(self, line, value, tmp_path):
        key = line.split(":")[0]
        self.assert_config_error(tmp_path, SMALL_CONFIG.replace(line, f"{key}: {value}"))

    @pytest.mark.parametrize("line, value", [
        ("  selected: 12\n", "  selected: null\n"),
        ("  dimension: 40\n", "  dimension: abc\n"),
        ("  bit_cap: null\n", "  bit_cap: 1100\n"),
        # once a ZeroDivisionError traceback; lockstep_min_n needs lo + hi in int64
        ("  n_cap: 256\n", "  n_cap: 9223372036854775808\n"),
        ("  n_cap: 256\n", "  n_cap: 4611686018427387905\n"),
        ("    reference_gain_db: 20.0\n", "    reference_gain_db: 1100\n"),
        ("    distance_max_m: 2.0\n", "    distance_max_m: .inf\n"),
        # no bit cap and a wide channel, or a fine pitch: a grid too big to hold
        ("  power_max_dbm: 30.0\n", "  power_max_dbm: 60.0\n"),
        ("  lambda_step: 0.02\n", "  lambda_step: 1.0e-9\n"),
        ("  lambda_step: 0.02\n", "  lambda_step: 5.0e-324\n"),
    ])
    def test_malformed_or_oversized_system_and_solver(self, line, value, tmp_path):
        assert line in SMALL_CONFIG
        self.assert_config_error(tmp_path, SMALL_CONFIG.replace(line, value, 1))

    def test_nan_channel_gain(self, tmp_path):
        gains = ", ".join([".nan"] + ["1.0"] * 11)
        self.assert_config_error(tmp_path, SMALL_CONFIG.replace(
            "  power_max_dbm: 30.0\n", f"  power_max_dbm: 30.0\n  gains: [{gains}]\n"))

    @pytest.mark.parametrize("config_seed, cli_seed", [
        ("-1", None), ("abc", None), ("7", "-1"),
    ])
    def test_seed_not_a_non_negative_integer(self, config_seed, cli_seed, tmp_path):
        extra = () if cli_seed is None else ("--seed", cli_seed)
        self.assert_config_error(tmp_path, SMALL_CONFIG.replace("seed: 7", f"seed: {config_seed}"), *extra)

    def test_negative_channel_seed(self, tmp_path):
        self.assert_config_error(tmp_path, SMALL_CONFIG.replace("    seed: 1201125462\n", "    seed: -1\n"))

    @staticmethod
    def run_in_process(tmp_path, text, *argv):
        cfg = tmp_path / "c.yaml"
        cfg.write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([*argv, "--config", str(cfg), "--out", str(tmp_path / "o")])
        return code, err.getvalue()

    @pytest.mark.parametrize("command, line, value", [
        # a bool once ran as K = 1 and exited 3; fractions were truncated
        ("solve", "  selected: 12\n", "  selected: true\n"),
        ("solve", "  selected: 12\n", "  selected: 12.9\n"),
        # a count takes no string, not even one that spells an integer
        ("solve", "  selected: 12\n", '  selected: "12"\n'),
        ("solve", "  n_cap: 256\n", '  n_cap: "256"\n'),
        ("solve", "  population: 60\n", "  population: 60.5\n"),
        ("solve", "  dimension: 40\n", "  dimension: false\n"),
        ("solve", "  n_cap: 256\n", "  n_cap: 255.7\n"),
        ("solve", "  bit_cap: null\n", "  bit_cap: 15.5\n"),
        ("simulate", "  dimension: 40\n", "  dimension: 40.5\n"),
        ("simulate", "  population: 60\n", "  population: true\n"),
        ("simulate", "  selected: 12\n", "  selected: 12.9\n"),
        ("simulate", "  samples_per_device: 20\n", "  samples_per_device: 19.5\n"),
        ("simulate", "  rounds: 40\n", "  rounds: true\n"),
        ("simulate", "  rounds: 40\n", "  rounds: 0\n"),
        ("simulate", "  bias_trials: 150\n", "  bias_trials: 1\n"),
        ("simulate", "  bias_trials: 150\n", "  bias_trials: 150.5\n"),
    ])
    def test_bool_or_fractional_count(self, command, line, value, tmp_path):
        assert line in SMALL_CONFIG
        code, err = self.run_in_process(tmp_path, SMALL_CONFIG.replace(line, value, 1), command)
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [["sweep", "--axis", "eps_bar"], ["compare-eps"], ["qbar"]],
                             ids=["sweep", "compare-eps", "qbar"])
    def test_unparsable_values_list(self, argv, tmp_path):
        code, err = self.run_in_process(tmp_path, SMALL_CONFIG, *argv, "--values", "1,abc")
        assert code == 2
        assert err.startswith("error: bad --values list '1,abc': ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert list((tmp_path / "o").iterdir()) == []

    @pytest.mark.parametrize("argv, output, first", [
        (["qbar", "--values=-10,0,30"], "qbar_sweep.csv", ["-10.0", "empty_domain", ""]),
        (["sweep", "--axis", "p_max", "--values=-10,30"], "sweep_p_max.csv", ["-10.0", "infeasible", "", "", "", ""]),
    ], ids=["qbar", "sweep-p_max"])
    def test_negative_values_with_the_equals_form(self, argv, output, first, tmp_path):
        # "--values -10,0" reads -10,0 as an option; "--values=-10,0" does not
        code, err = self.run_in_process(tmp_path, SMALL_CONFIG, *argv)
        assert (code, err) == (0, "")
        _, rows = read_csv(tmp_path / "o" / output)
        assert len(rows) == len(argv[-1].split(",")) and rows[0] == first

    def test_coarse_rho_blames_rho(self, tmp_path):
        # rho 5 at desk (mu = 7.635) asks for a pitch 0.648; the error once
        # named lambda_step, which the config never set
        raw = yaml.safe_load(DESK_CONFIG.read_text())
        raw["solver"]["rho"] = 5
        code, err = self.run_in_process(tmp_path, yaml.safe_dump(raw), "solve")
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
        assert "rho must be below 3.856 here" in err and "lambda_step" not in err
        raw["solver"]["rho"] = 3.85
        code, _ = self.run_in_process(tmp_path, yaml.safe_dump(raw), "solve")
        assert code == 0

    def test_rho_where_the_variance_floor_outgrows_n_cap(self, tmp_path):
        # with rho set, eta = thr(2)/(K*n_cap) > 1/4 at K <= 6: the floor needs
        # n >= 700 at K = 2 even at q = 2, p = 1/2, above n_cap 256.  Such a
        # deployment is infeasible: a row of its own in a sweep, exit 3 alone.
        # qbar reads only eps_bar and the channel, so it writes the rows it
        # writes without rho (it once exited 3 here)
        raw = yaml.safe_load(DESK_CONFIG.read_text())
        raw["solver"]["rho"] = 0.5
        code, err = self.run_in_process(tmp_path, yaml.safe_dump(raw), "sweep", "--axis", "K", "--values", "1,6,12")
        assert (code, err) == (0, "")
        _, rows = read_csv(tmp_path / "o" / "sweep_K.csv")
        assert [r[1] for r in rows[:2]] == ["infeasible", "infeasible"] and rows[2][1] != "infeasible"
        raw["system"]["selected"] = 2
        text = yaml.safe_dump(raw)
        for argv, name in [(["compare-eps", "--values", "20,30"], "compare_eps.csv"),
                           (["sweep", "--axis", "eps_bar", "--values", "20,30"], "sweep_eps_bar.csv")]:
            code, err = self.run_in_process(tmp_path, text, *argv)
            assert (code, err) == (0, "")
            _, rows = read_csv(tmp_path / "o" / name)
            assert [r[1] for r in rows] == ["infeasible", "infeasible"]
        code, err = self.run_in_process(tmp_path, text, "solve")
        assert code == 3
        assert err == "error: the variance floor needs n >= 700 even at q = 2, p = 1/2, above n_cap = 256\n"
        written = {}
        for rho in (0.5, None):
            raw["solver"]["rho"] = rho
            code, err = self.run_in_process(tmp_path, yaml.safe_dump(raw), "qbar", "--values", "0,10,20,30")
            assert (code, err) == (0, "")
            written[rho] = (tmp_path / "o" / "qbar_sweep.csv").read_text()
        assert written[0.5] == written[None]
        _, rows = read_csv(tmp_path / "o" / "qbar_sweep.csv")
        assert [r[1] for r in rows] == ["empty_domain", "empty_domain", "empty_domain", "17"]

    @pytest.mark.parametrize("solver", [
        {"n_cap": 1}, {"bit_cap": 64}, {"rho": -1},
        {"lambda_step": 0.7},
        # the key was once read and then ignored when rho was set
        {"lambda_step": 0.7, "rho": 0.5},
    ], ids=["n_cap-1", "bit_cap-64", "rho-negative", "lambda_step", "lambda_step-with-rho"])
    @pytest.mark.parametrize("argv", [["solve"], ["sweep", "--axis", "eps_bar", "--values", "30"],
                                      ["compare-eps", "--values", "30"], ["qbar", "--values", "30"], ["simulate"]],
                             ids=["solve", "sweep", "compare-eps", "qbar", "simulate"])
    def test_every_command_rejects_an_out_of_range_solver_key(self, argv, solver, tmp_path):
        raw = yaml.safe_load(DESK_CONFIG.read_text())
        raw["solver"].update(solver)
        code, err = self.run_in_process(tmp_path, yaml.safe_dump(raw), *argv)
        assert code == 2
        assert err.startswith("error: bad solver section: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_fractional_sweep_k_rejected(self, tmp_path):
        code, err = self.run_in_process(tmp_path, SMALL_CONFIG, "sweep", "--axis", "K", "--values", "12.9")
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "o" / "sweep_K.csv").exists()

    def test_integral_float_count_accepted(self, tmp_path):
        code, _ = self.run_in_process(tmp_path, SMALL_CONFIG.replace("  selected: 12\n", "  selected: 12.0\n", 1),
                                      "solve")
        assert code == 0
        assert len(json.loads((tmp_path / "o" / "solution.json").read_text())["powers_w"]) == 12

    @pytest.mark.parametrize("command, line, value", [
        # booleans once ran as 1.0: exit 8, exit 0, exit 0, exit 3 and exit 8
        ("solve", "  power_max_dbm: 30.0\n", "  power_max_dbm: true\n"),
        ("solve", "  lambda_step: 0.02\n", "  lambda_step: 0.02\n  rho: true\n"),
        ("solve", "  transmission_time_s: 1.0\n", "  transmission_time_s: true\n"),
        ("solve", "  power_max_dbm: 30.0\n", "  power_max_dbm: 30.0\n  gains: [true" + ", 1.0" * 11 + "]\n"),
        ("solve", "    reference_gain_db: 20.0\n", "    reference_gain_db: true\n"),
        # once written into a directory named "[1, 2]"
        ("solve", "  dir: out\n", "  dir: [1, 2]\n"),
        # a malformed sim section once passed every command but simulate
        ("solve", "  rounds: 40\n", "  rounds: abc\n"),
        ("sweep --axis eps_bar --values 30", "  task: logistic\n", "  task: nonsense\n"),
        ("compare-eps --values 30", "  rounds: 40\n", "  rounds: abc\n"),
        ("qbar --values 30", "  task: logistic\n", "  task: nonsense\n"),
    ])
    def test_boolean_real_or_junk_key(self, command, line, value, tmp_path):
        assert line in SMALL_CONFIG
        code, err = self.run_in_process(tmp_path, SMALL_CONFIG.replace(line, value, 1), *command.split())
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("argv, line, key", [
        # each once printed the errno tuple "(34, 'Numerical result out of range')"
        (["solve"], "  power_min_dbm: -10.0\n", "system.power_min_dbm"),
        (["solve"], "  power_max_dbm: 30.0\n", "system.power_max_dbm"),
        (["solve"], "    reference_gain_db: 20.0\n", "system.channel.reference_gain_db"),
        (["qbar", "--values", "1e308"], None, "system.power_max_dbm"),
        (["sweep", "--axis", "p_max", "--values", "1e308"], None, "system.power_max_dbm"),
    ])
    def test_db_level_whose_linear_value_overflows(self, argv, line, key, tmp_path):
        text = SMALL_CONFIG
        if line is not None:
            assert line in text
            text = text.replace(line, line.split(":")[0] + ": 1.0e+308\n", 1)
        code, err = self.run_in_process(tmp_path, text, *argv)
        assert code == 2
        assert err == f"error: {key} must be a level whose linear value fits a float, got 1e+308\n"

    @pytest.mark.parametrize("argv, text, snr, exponent", [
        # the power is the cause at 3080 dBm, the exponent at d = 1; the
        # message once blamed T, W and d alone
        (["solve"], "system: {power_max_dbm: 3080}\n", "4.02e+306", "9.43"),
        (["solve"], "system: {dimension: 1}\n", "4.02", "4.5e+05"),
        (["qbar", "--values", "3080"], "{}\n", "4.02e+306", "9.43"),
    ], ids=["power", "exponent", "qbar-power"])
    def test_capacity_ceiling_overflow_prints_snr_and_exponent(self, argv, text, snr, exponent, tmp_path):
        code, err = self.run_in_process(tmp_path, text, *argv)
        assert code == 2
        assert err.startswith("error: capacity ceiling") and err.count("\n") == 1
        assert f" with worst-device SNR {snr} and T*W/d {exponent}; " in err

    def test_channel_gain_overflow(self, tmp_path):
        # the mean gain g0*(d0/dist)^4 overflows at dist = 1e-300; it once
        # printed a RuntimeWarning line before the error
        text = "system: {channel: {distance_min_m: 1.0e-300, distance_max_m: 1.0e-300}}\n"
        code, err = self.run_in_process(tmp_path, text, "solve")
        assert code == 2
        assert err == "error: bad system section: all channel gains must be positive and finite\n"

    @pytest.mark.parametrize("where", ["--out", "output.dir"])
    def test_output_under_a_regular_file(self, where, tmp_path):
        # once a NotADirectoryError traceback with exit 1
        blocker = tmp_path / "file"
        blocker.write_text("")
        cfg = tmp_path / "c.yaml"
        cfg.write_text(SMALL_CONFIG.replace("  dir: out\n", f"  dir: {blocker / 'o'}\n"))
        argv = ["solve", "--config", str(cfg)] + (["--out", str(blocker / "o")] if where == "--out" else [])
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            assert main(argv) == 2
        assert err.getvalue().startswith("error: cannot create output directory")
        assert err.getvalue().count("\n") == 1 and "Traceback" not in err.getvalue()

    @pytest.mark.parametrize("argv, name", [
        (["solve"], "solution.json"),
        (["sweep", "--axis", "eps_bar", "--values", "20,30"], "sweep_eps_bar.csv"),
        (["simulate"], "summary.json"),
    ])
    def test_output_file_is_a_directory(self, argv, name, config_path, tmp_path):
        out = tmp_path / "o"
        (out / name).mkdir(parents=True)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            assert main([*argv, "--config", str(config_path), "--out", str(out)]) == 2
        assert err.getvalue().startswith("error: cannot write output file")
        assert err.getvalue().count("\n") == 1 and "Traceback" not in err.getvalue()

    def test_simulate_that_diverges_writes_no_file(self, config_path, tmp_path, monkeypatch):
        # the last arm diverges after the first two traces are computed
        run_fsgd = simmod.run_fsgd
        calls = []

        def diverge_on_last_arm(*args, **kwargs):
            calls.append(None)
            if len(calls) == 3:
                raise DivergedError("loss became non-finite")
            return run_fsgd(*args, **kwargs)

        monkeypatch.setattr(simmod, "run_fsgd", diverge_on_last_arm)
        out = tmp_path / "o"
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(["simulate", "--config", str(config_path), "--out", str(out)]) == 7
        assert len(calls) == 3
        assert list(out.iterdir()) == []

    def test_unmet_capacity_is_infeasible(self, config_path, tmp_path, monkeypatch):
        # with every rate zero no power carries the payload
        monkeypatch.setattr(wireless, "shannon_rate", lambda power, gain, sys: np.zeros(np.shape(power)))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            assert main(["solve", "--config", str(config_path), "--out", str(tmp_path)]) == 3
            code = main(["sweep", "--axis", "eps_bar", "--values", "20,30",
                         "--config", str(config_path), "--out", str(tmp_path)])
        assert code == 0
        assert err.getvalue().startswith("error: payload at") and err.getvalue().count("\n") == 1
        _, rows = read_csv(tmp_path / "sweep_eps_bar.csv")
        assert [r[1] for r in rows] == ["infeasible", "infeasible"]

    def test_simulate_builtin_defaults_overflow_is_config_error(self, tmp_path):
        # the built-in defaults are full scale: M*S*d = 1.2e12 training
        # floats, far above cli.MAX_SIM_FLOATS, so the size guard stops the run
        proc = run_module(["simulate", "--out", str(tmp_path / "o")])
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1

    # the deployment's keys live in system and solver; rescale switched
    # between two per-coordinate caps that the l2 cap replaced, the next
    # two shaped the suboptimal arm, which now always runs at 4x, and the
    # last three were the logistic regularizer and the (theta, Lambda)
    # target, now fixed at tasks.LogisticRegressionTask's default and
    # sim.ACCURACY_TARGET
    @pytest.mark.parametrize("key, value", [("selected", 12), ("population", 12), ("dimension", 12),
                                            ("eps_bar", 12), ("rescale", "clip"), ("compare_suboptimal", "abc"),
                                            ("subopt_factor", 4.0), ("l2", 0.05), ("theta", 0.1),
                                            ("confidence", 0.1)],
                             ids=["selected", "population", "dimension", "eps_bar", "rescale",
                                  "compare_suboptimal", "subopt_factor", "l2", "theta", "confidence"])
    def test_sim_section_has_no_deployment_keys(self, key, value, tmp_path):
        text = SMALL_CONFIG.replace("  rounds: 40\n", f"  rounds: 40\n  {key}: {value}\n")
        code, err = self.run_in_process(tmp_path, text, "simulate")
        assert code == 2
        assert err == f"error: unknown config key 'sim.{key}'\n"

    @staticmethod
    def refuse_to_build(monkeypatch, error):
        """Make the task constructors and the solve raise ``error``."""
        def refuse(*args, **kwargs):
            raise error

        for name in ("LogisticRegressionTask", "QuadraticBowlTask"):
            monkeypatch.setattr(tasksmod, name, refuse)
        monkeypatch.setattr(cli, "solve_with_stats", refuse)

    def test_oversized_k_rejected_before_sampling_gains(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("gains drawn for an invalid K")

        monkeypatch.setattr(config_module, "sample_gains", refuse)
        raw = yaml.safe_load(DESK_CONFIG.read_text())
        raw["system"].update(selected=10**9, population=60)
        (tmp_path / "c.yaml").write_text(yaml.safe_dump(raw))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["solve", "--config", str(tmp_path / "c.yaml"), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "need 1 <= K <= M, got K=1000000000, M=60" in err.getvalue()
        assert err.getvalue().count("\n") == 1 and "Traceback" not in err.getvalue()

    @pytest.mark.parametrize("config", [
        None,
        {"sim": {"task": "quadratic"}},
        {"system": {"population": 1e6}},
        {"system": {"dimension": 1100}},
    ], ids=["defaults", "defaults-quadratic", "desk-M1e6", "desk-d1100"])
    def test_simulate_above_the_size_guard_allocates_nothing(self, config, tmp_path, monkeypatch):
        self.refuse_to_build(monkeypatch, AssertionError("built above the size guard"))
        argv = ["simulate", "--out", str(tmp_path / "o")]
        if config is not None:
            raw = yaml.safe_load(DESK_CONFIG.read_text()) if "system" in config else {}
            for section, values in config.items():
                raw.setdefault(section, {}).update(values)
            (tmp_path / "c.yaml").write_text(yaml.safe_dump(raw))
            argv += ["--config", str(tmp_path / "c.yaml")]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            assert main(argv) == 2
        assert err.getvalue().startswith("error: simulate would hold")
        assert err.getvalue().count("\n") == 1 and "Traceback" not in err.getvalue()
        assert list((tmp_path / "o").iterdir()) == []

    def test_size_guard_admits_the_fuzz_range(self, tmp_path, monkeypatch):
        # desk with M, d and S each scaled by 4, the fuzz's largest: 6.1e6 floats
        class Built(Exception):
            pass

        self.refuse_to_build(monkeypatch, Built())
        raw = yaml.safe_load(DESK_CONFIG.read_text())
        raw["system"].update(population=240, dimension=160)
        raw["sim"]["samples_per_device"] = 80
        (tmp_path / "c.yaml").write_text(yaml.safe_dump(raw))
        with contextlib.redirect_stdout(io.StringIO()), pytest.raises(Built):
            main(["simulate", "--config", str(tmp_path / "c.yaml"), "--out", str(tmp_path / "o")])

    def test_help_documents_exit_codes(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        assert "Exit codes" in out and "privacy" in out


def parser_exit(call):
    """The stdout, stderr and exit code of a call that argparse ends."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
        call()
    return out.getvalue(), err.getvalue(), exc.value.code


class TestParser:
    # main builds the named command's subparser alone; help and every parse
    # error must read as they do from the parser with all five
    @pytest.mark.parametrize("argv", [
        ["-h"], *([cmd, "-h"] for cmd in cli.COMMANDS),
        [], ["foo"], ["--config", "x", "solve"],
        ["solve", "--bogus"], ["solve", "extra"], ["solve", "--out"], ["solve", "--seed", "x"],
        ["sweep"], ["sweep", "--axis", "K"], ["sweep", "--axis", "bad", "--values", "1"],
        ["qbar", "--values", "-10,0"], ["simulate", "--seed"],
    ], ids=lambda argv: " ".join(argv) or "no-arguments")
    def test_main_prints_what_the_full_parser_prints(self, argv):
        assert parser_exit(lambda: main(argv)) == parser_exit(lambda: cli.build_parser().parse_args(argv))

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_each_command_help_lists_the_shared_options(self, command):
        out, _, code = parser_exit(lambda: main([command, "-h"]))
        assert code == 0
        assert {"--config", "--out", "--seed"} <= set(re.findall(r"--[\w-]+", out))

    def test_a_call_builds_only_its_commands_subparser(self, tmp_path, monkeypatch):
        added = []
        add_parser = argparse._SubParsersAction.add_parser

        def spy(self, name, **kwargs):
            added.append(name)
            return add_parser(self, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["solve", "--out", str(tmp_path)]) == 0
        assert added == ["solve"]
        added.clear()
        cli.build_parser()
        assert added == ["solve", "sweep", "compare-eps", "qbar", "simulate"]


DOCUMENTED_EXITS = {0, 2, 3, 4, 5, 7, 8}
JUNK_VALUES = [None, "abc", True, [1.0], {"k": 1}, -1, 0, 1100, 1e6, -1e6, 1e-300,
               math.nan, math.inf, -math.inf]


def _leaf_paths(tree, prefix=()):
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from _leaf_paths(value, prefix + (key,))
        else:
            yield prefix + (key,)


# every key solve reads: the seed, the system and the solver sections
FUZZ_PATHS = [p for p in _leaf_paths(DEFAULTS) if p[0] in ("seed", "system", "solver")]


def get_in(tree, path):
    for key in path:
        tree = tree.get(key) if isinstance(tree, dict) else None
    return tree


@st.composite
def config_mutation(draw):
    path = draw(st.sampled_from(FUZZ_PATHS + [("system", "unknown_key")]))
    section = yaml.safe_load(DESK_CONFIG.read_text())
    for key in path[:-1]:
        section = section.get(key, {})
    base = section.get(path[-1], get_in(DEFAULTS, path))
    options = [st.sampled_from(JUNK_VALUES)]
    if isinstance(base, (int, float)) and not isinstance(base, bool):
        cast = int if isinstance(base, int) else float
        options.append(st.floats(0.25, 4.0).map(lambda f: cast(base * f)))
    if isinstance(base, int) and not isinstance(base, bool):
        # counts: booleans, and scaled values that are mostly fractional
        options += [st.booleans(), st.floats(0.25, 4.0).map(lambda f: base * f)]
    if path[-1] == "gains":
        options.append(st.lists(st.floats(0.1, 100.0), min_size=1, max_size=14))
    return path, draw(st.one_of(options))


# simulate at fuzz scale: a few rounds and bias trials
SIM_FUZZ_BASE = {"rounds": 3, "bias_trials": 3}
# junk for the sim counts stays small: they size the training data
SIM_COUNT_JUNK = [None, "abc", True, False, -1, 0, 1, 2.5, math.nan, math.inf, [1.0]]


@st.composite
def sim_mutation(draw):
    path = draw(st.sampled_from([p for p in _leaf_paths(DEFAULTS) if p[0] == "sim"]))
    key = path[-1]
    base = SIM_FUZZ_BASE.get(key, yaml.safe_load(DESK_CONFIG.read_text())["sim"].get(key, DEFAULTS["sim"][key]))
    if isinstance(base, int) and not isinstance(base, bool):
        top = 1.0 if key in SIM_FUZZ_BASE else 4.0
        value = st.one_of(st.sampled_from(SIM_COUNT_JUNK), st.booleans(),
                          st.floats(0.25, top).map(lambda f: int(base * f)),
                          st.floats(0.25, top).map(lambda f: base * f))
    else:
        value = st.sampled_from(JUNK_VALUES + ["quadratic", False])
    return path, draw(value)


# keys each command sets itself, so the file's value is never read
SET_BY_COMMAND = {
    "solve": set(),
    "sweep-eps_bar": {("solver", "eps_bar")},
    "sweep-K": {("system", "selected")},
    "compare-eps": {("solver", "eps_bar")},
    "qbar": {("system", "power_max_dbm")},
    "simulate": set(),
}


def assert_booleans_rejected(command, raw, code, err):
    """A boolean on a leaf the command reads is a config error."""
    booleans = [p for p in _leaf_paths(raw) if isinstance(get_in(raw, p), bool) and p not in SET_BY_COMMAND[command]]
    if booleans:
        assert code == 2, (booleans, err)


def _mutated_desk(mutations, sim=False):
    raw = yaml.safe_load(DESK_CONFIG.read_text())
    if sim:
        raw["sim"].update(SIM_FUZZ_BASE)
    for path, value in mutations:
        node = raw
        for key in path[:-1]:
            node = node.setdefault(key, {})
        node[path[-1]] = value
    return raw


# the commands besides solve, and the output each writes
OTHER_COMMANDS = {
    "sweep-eps_bar": (["sweep", "--axis", "eps_bar", "--values", "20,30"], "sweep_eps_bar.csv"),
    "sweep-K": (["sweep", "--axis", "K", "--values", "6,12"], "sweep_K.csv"),
    "compare-eps": (["compare-eps", "--values", "25,30"], "compare_eps.csv"),
    "qbar": (["qbar", "--values", "0,30"], "qbar_sweep.csv"),
    "simulate": (["simulate"], "summary.json"),
}


class TestConfigFuzz:
    @settings(max_examples=60, deadline=None)
    @given(mutations=st.lists(config_mutation(), min_size=1, max_size=3))
    def test_solve_never_crashes_or_breaks_the_cap(self, mutations, tmp_path_factory):
        raw = _mutated_desk(mutations)
        work = tmp_path_factory.mktemp("fuzz")
        cfg_path = work / "c.yaml"
        cfg_path.write_text(yaml.safe_dump(raw))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            # any exception other than a mapped signal escapes main here
            code = main(["solve", "--config", str(cfg_path), "--out", str(work / "o")])
        assert code in DOCUMENTED_EXITS, err.getvalue()
        assert "Traceback" not in err.getvalue()
        assert_booleans_rejected("solve", raw, code, err.getvalue())
        if code != 0:
            assert err.getvalue().startswith("error: ")
            return
        report = json.loads((work / "o" / "solution.json").read_text())
        run = RunConfig.from_yaml(cfg_path)
        system = run.build_system()
        ctx = run.build_context(system)
        scfg = run.build_solver(ctx)
        sol = Solution(
            q=report["q"], n=report["n"], p=report["p"], powers=tuple(report["powers_w"]),
            objective=report["objective"], epsilon_achieved=report["epsilon_achieved"],
        )
        assert check_solution(sol, system, scfg, ctx) == []
        assert math.isfinite(sol.epsilon_achieved) and sol.epsilon_achieved <= scfg.eps_bar

    @pytest.mark.parametrize("value", [True, False])
    @pytest.mark.parametrize("path", list(_leaf_paths(DEFAULTS)), ids=".".join)
    def test_boolean_on_any_leaf_is_a_config_error(self, path, value, tmp_path):
        # every leaf, one at a time; the random mutations above hit each only rarely
        self.assert_boolean_rejected("simulate" if path[0] == "sim" else "solve", path, value, tmp_path)

    @pytest.mark.parametrize("value", [True, False])
    @pytest.mark.parametrize("path", [("system", "selected"), ("system", "population"),
                                      ("system", "dimension"), ("solver", "eps_bar")], ids=".".join)
    def test_boolean_on_a_deployment_key_fails_simulate(self, path, value, tmp_path):
        # simulate reads the deployment from the system and solver sections too
        self.assert_boolean_rejected("simulate", path, value, tmp_path)

    @staticmethod
    def assert_boolean_rejected(command, path, value, tmp_path):
        raw = _mutated_desk([(path, value)], sim=command == "simulate")
        cfg_path = tmp_path / "c.yaml"
        cfg_path.write_text(yaml.safe_dump(raw))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 2, err.getvalue()
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1

    @pytest.mark.parametrize("command", list(OTHER_COMMANDS))
    def test_other_commands_never_crash_or_break_the_cap(self, command, tmp_path_factory):
        argv, output = OTHER_COMMANDS[command]
        mutation = config_mutation()
        if command == "simulate":
            mutation = st.one_of(mutation, sim_mutation(), sim_mutation())

        @settings(max_examples=40, deadline=None)
        @given(mutations=st.lists(mutation, min_size=1, max_size=2))
        def check(mutations):
            raw = _mutated_desk(mutations, sim=command == "simulate")
            work = tmp_path_factory.mktemp("fuzz")
            cfg_path = work / "c.yaml"
            cfg_path.write_text(yaml.safe_dump(raw))
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([*argv, "--config", str(cfg_path), "--out", str(work / "o")])
            assert code in DOCUMENTED_EXITS, err.getvalue()
            assert "Traceback" not in err.getvalue()
            assert_booleans_rejected(command, raw, code, err.getvalue())
            if code != 0:
                assert err.getvalue().startswith("error: ")
                return
            eps_bar = raw["solver"]["eps_bar"]
            if command == "simulate":
                summary = json.loads((work / "o" / output).read_text())
                written = [(summary["solution"]["epsilon_achieved"], float(eps_bar))]
            else:
                _, rows = read_csv(work / "o" / output)
                if command == "qbar":
                    assert all(r[1] in ("empty_domain", "all_infeasible") or int(r[1]) >= 2 for r in rows)
                    return
                # sweep rows hold the epsilon last, compare-eps rows second;
                # the cap is the row's eps_bar except along the K axis
                column = 1 if command == "compare-eps" else 5
                written = [(float(r[column]), float(eps_bar if command == "sweep-K" else r[0]))
                           for r in rows if r[1] != "infeasible"]
            for eps, cap_value in written:
                assert math.isfinite(eps) and eps <= cap_value

        check()
