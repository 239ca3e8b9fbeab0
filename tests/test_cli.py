"""Command-line front end: outputs, determinism, exit codes."""

import contextlib
import csv
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from binomfl.cli import (
    EXIT_ALL_INFEASIBLE,
    EXIT_CONFIG,
    EXIT_DIVERGED,
    EXIT_EMPTY_DOMAIN,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_PRIVACY_INFEASIBLE,
    SWEEP_AXES,
    main,
)
from binomfl import cli
from binomfl import config as config_module
from binomfl import sim as simmod
from binomfl import tasks as tasksmod
from binomfl import wireless
from binomfl.config import DEFAULTS, RunConfig
from binomfl.errors import DivergedError
from binomfl.solver import Solution, check_solution, objective

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
        assert main(["solve", "--config", str(config_path), "--out", str(out)]) == EXIT_OK
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
        assert proc.returncode == EXIT_OK, proc.stderr

    def test_builtin_defaults_feasible(self, tmp_path, monkeypatch):
        # full-scale preset: K=1000, M=1e6, delta=1e-10, 16-bit cap, eps_bar=10
        monkeypatch.chdir(tmp_path)
        assert main(["solve"]) == EXIT_OK
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
        assert code == EXIT_OK
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
        assert code == EXIT_CONFIG

    def test_empty_values_rejected(self, config_path, tmp_path):
        code = main(["compare-eps", "--config", str(config_path),
                     "--out", str(tmp_path / "x"), "--values", ""])
        assert code == EXIT_CONFIG

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
                         "--axis", axis, "--values", repr(value)]) == EXIT_OK
            section, key = SWEEP_AXES[axis]
            raw = yaml.safe_load(SMALL_CONFIG)
            raw[section][key] = value
            edited = tmp_path / "edited.yaml"
            edited.write_text(yaml.safe_dump(raw))
            assert main(["solve", "--config", str(edited), "--out", str(tmp_path / "f")]) == EXIT_OK
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
        assert main(["simulate", "--config", str(config_path), "--out", str(out)]) == EXIT_OK
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
        assert summary["suboptimal"]["objective_ratio"] >= 4.0
        assert (out / "trace_suboptimal.csv").exists()

    @pytest.mark.parametrize("system", [{}, {"selected": 10, "dimension": 30}], ids=["desk", "desk-K10-d30"])
    def test_simulate_solves_the_configured_deployment(self, system, tmp_path):
        # simulate solves and trains the K, M, d and eps_bar of the system and
        # solver sections, as solve does, and no shadow of them
        raw = yaml.safe_load(DESK_CONFIG.read_text())
        raw["system"].update(system)
        cfg = tmp_path / "c.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "solve")]) == EXIT_OK
            assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "sim")]) == EXIT_OK
        report = json.loads((tmp_path / "solve" / "solution.json").read_text())
        summary = json.loads((tmp_path / "sim" / "summary.json").read_text())
        keys = ("q", "n", "p", "objective", "epsilon_achieved")
        assert summary["solution"] == {key: report[key] for key in keys}
        K, d = raw["system"]["selected"], raw["system"]["dimension"]
        bits = summary["rounds"] * K * d * math.ceil(math.log2(report["q"] + report["n"]))
        assert summary["comm_cost_formula_bits"] == bits


class TestExitCodes:
    def test_bad_yaml(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("system: [not, a, mapping]")
        assert main(["solve", "--config", str(bad)]) == EXIT_CONFIG

    @pytest.mark.parametrize("kind", ["missing", "directory", "invalid YAML", "list root"])
    def test_unreadable_config_file(self, kind, tmp_path):
        # the parser's own message spans several lines; the error takes one
        path = tmp_path / "c.yaml"
        if kind == "directory":
            path.mkdir()
        elif kind == "invalid YAML":
            path.write_text("system:\n  selected: [12,\n  population: {60\n")
        elif kind == "list root":
            path.write_text("- seed: 7\n- solver: {}\n")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["solve", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        assert "Traceback" not in err.getvalue() and out.getvalue() == ""
        assert not (tmp_path / "o").exists()

    def test_unknown_key(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("solver:\n  epsbar: 3\n")
        assert main(["solve", "--config", str(bad)]) == EXIT_CONFIG

    def test_all_infeasible(self, config_path, tmp_path):
        cfg = tmp_path / "tight.yaml"
        cfg.write_text(SMALL_CONFIG.replace("eps_bar: 30.0", "eps_bar: 0.5"))
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_ALL_INFEASIBLE

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
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_PRIVACY_INFEASIBLE

    def test_empty_domain(self, config_path, tmp_path):
        cfg = tmp_path / "narrow.yaml"
        cfg.write_text(SMALL_CONFIG.replace("bandwidth_hz: 150.0", "bandwidth_hz: 10.0"))
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_EMPTY_DOMAIN

    @staticmethod
    def assert_config_error(tmp_path, text, *extra):
        cfg = tmp_path / "c.yaml"
        cfg.write_text(text)
        proc = run_module(["solve", "--config", str(cfg), "--out", str(tmp_path / "o"), *extra])
        assert proc.returncode == EXIT_CONFIG
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "o" / "solution.json").exists()

    @pytest.mark.parametrize("value", [".nan", ".inf", "abc"])
    def test_eps_bar_not_a_finite_number(self, value, tmp_path):
        self.assert_config_error(tmp_path, SMALL_CONFIG.replace("eps_bar: 30.0", f"eps_bar: {value}"))

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
        self.assert_config_error(tmp_path, SMALL_CONFIG.replace(
            "    distance_max_m: 2.0\n", "    distance_max_m: 2.0\n    seed: -1\n"))

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
        assert code == EXIT_CONFIG
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("key, value, interval", [
        ("theta", "1.5", "(0, 1]"),
        ("theta", "0", "(0, 1]"),
        ("confidence", "1.0", "(0, 1)"),
        ("confidence", "0", "(0, 1)"),
    ])
    def test_convergence_constant_out_of_range(self, key, value, interval, tmp_path):
        text = SMALL_CONFIG.replace("  rounds: 40\n", f"  rounds: 40\n  {key}: {value}\n", 1)
        code, err = self.run_in_process(tmp_path, text, "simulate")
        assert code == EXIT_CONFIG
        assert err == f"error: sim.{key} must be a finite number in {interval}, got {value}\n"
        assert not (tmp_path / "o" / "summary.json").exists()

    def test_tiny_theta_overflows_the_round_count(self, tmp_path):
        text = SMALL_CONFIG.replace("  rounds: 40\n", "  rounds: 40\n  theta: 1.0e-300\n", 1)
        code, err = self.run_in_process(tmp_path, text, "simulate")
        assert code == EXIT_CONFIG
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "round count overflows" in err
        assert not (tmp_path / "o" / "summary.json").exists()

    def test_fractional_sweep_k_rejected(self, tmp_path):
        code, err = self.run_in_process(tmp_path, SMALL_CONFIG, "sweep", "--axis", "K", "--values", "12.9")
        assert code == EXIT_CONFIG
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "o" / "sweep_K.csv").exists()

    def test_integral_float_count_accepted(self, tmp_path):
        code, _ = self.run_in_process(tmp_path, SMALL_CONFIG.replace("  selected: 12\n", "  selected: 12.0\n", 1),
                                      "solve")
        assert code == EXIT_OK
        assert len(json.loads((tmp_path / "o" / "solution.json").read_text())["powers_w"]) == 12

    @pytest.mark.parametrize("command, line, value", [
        # booleans once ran as 1.0: exit 8, exit 0, exit 0, exit 3 and exit 8
        ("solve", "  power_max_dbm: 30.0\n", "  power_max_dbm: true\n"),
        ("solve", "  lambda_step: 0.02\n", "  lambda_step: 0.02\n  rho: true\n"),
        ("solve", "  transmission_time_s: 1.0\n", "  transmission_time_s: true\n"),
        ("solve", "  power_max_dbm: 30.0\n", "  power_max_dbm: 30.0\n  gains: [true" + ", 1.0" * 11 + "]\n"),
        ("solve", "    reference_gain_db: 20.0\n", "    reference_gain_db: true\n"),
        # any value once turned the suboptimal arm on
        ("simulate", "  rounds: 40\n", "  rounds: 40\n  compare_suboptimal: abc\n"),
        # once written into a directory named "[1, 2]"
        ("solve", "  dir: out\n", "  dir: [1, 2]\n"),
    ])
    def test_boolean_real_or_junk_key(self, command, line, value, tmp_path):
        assert line in SMALL_CONFIG
        code, err = self.run_in_process(tmp_path, SMALL_CONFIG.replace(line, value, 1), command)
        assert code == EXIT_CONFIG
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err

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
            assert main(argv) == EXIT_CONFIG
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
            assert main([*argv, "--config", str(config_path), "--out", str(out)]) == EXIT_CONFIG
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
            assert main(["simulate", "--config", str(config_path), "--out", str(out)]) == EXIT_DIVERGED
        assert len(calls) == 3
        assert list(out.iterdir()) == []

    def test_unmet_capacity_is_infeasible(self, config_path, tmp_path, monkeypatch):
        # with every rate zero no power carries the payload
        monkeypatch.setattr(wireless, "shannon_rate", lambda power, gain, sys: np.zeros(np.shape(power)))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            assert main(["solve", "--config", str(config_path), "--out", str(tmp_path)]) == EXIT_INFEASIBLE
            code = main(["sweep", "--axis", "eps_bar", "--values", "20,30",
                         "--config", str(config_path), "--out", str(tmp_path)])
        assert code == EXIT_OK
        assert err.getvalue().startswith("error: payload at") and err.getvalue().count("\n") == 1
        _, rows = read_csv(tmp_path / "sweep_eps_bar.csv")
        assert [r[1] for r in rows] == ["infeasible", "infeasible"]

    def test_simulate_builtin_defaults_overflow_is_config_error(self, tmp_path):
        # the built-in defaults are full scale: M*S*d = 1.2e12 training
        # floats, far above cli.MAX_SIM_FLOATS, so the size guard stops the run
        proc = run_module(["simulate", "--out", str(tmp_path / "o")])
        assert proc.returncode == EXIT_CONFIG
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1

    # the deployment's keys live in system and solver; the last id is the
    # switch between two per-coordinate caps that the l2 cap replaced
    @pytest.mark.parametrize("key, value", [("selected", 12), ("population", 12), ("dimension", 12),
                                            ("eps_bar", 12), ("rescale", "clip")],
                             ids=["selected", "population", "dimension", "eps_bar", "rescale"])
    def test_sim_section_has_no_deployment_keys(self, key, value, tmp_path):
        text = SMALL_CONFIG.replace("  rounds: 40\n", f"  rounds: 40\n  {key}: {value}\n")
        code, err = self.run_in_process(tmp_path, text, "simulate")
        assert code == EXIT_CONFIG
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
        assert code == EXIT_CONFIG
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
            assert main(argv) == EXIT_CONFIG
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


DESK_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "desk.yaml"
DOCUMENTED_EXITS = {0, 2, 3, 4, 5, 6, 7, 8}
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
    elif isinstance(base, float):
        value = st.one_of(st.sampled_from(JUNK_VALUES), st.floats(-1.0, 4.0).map(lambda f: base * f))
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
    """A boolean on a leaf the command reads, other than the one boolean key
    sim.compare_suboptimal, is a config error."""
    unread = SET_BY_COMMAND[command] | {("sim", "compare_suboptimal")}
    booleans = [p for p in _leaf_paths(raw) if isinstance(get_in(raw, p), bool) and p not in unread]
    if booleans:
        assert code == EXIT_CONFIG, (booleans, err)


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
        if code != EXIT_OK:
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
    @pytest.mark.parametrize("path", [p for p in _leaf_paths(DEFAULTS) if p != ("sim", "compare_suboptimal")],
                             ids=".".join)
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
        assert code == EXIT_CONFIG, err.getvalue()
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
            if code != EXIT_OK:
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
