"""Command-line front end: outputs, determinism, exit codes."""

import csv
import json
import math
import subprocess
import sys

import pytest

from binomfl.cli import (
    EXIT_ALL_INFEASIBLE,
    EXIT_CONFIG,
    EXIT_EMPTY_DOMAIN,
    EXIT_OK,
    EXIT_PRIVACY_INFEASIBLE,
    main,
)
from binomfl.solver import objective

SMALL_CONFIG = """\
seed: 7
system:
  selected: 12
  population: 600
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
  dimension: 40
  population: 60
  selected: 12
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
        report = json.loads((tmp_path / "out" / "solution.json").read_text())
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


class TestExitCodes:
    def test_bad_yaml(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("system: [not, a, mapping]")
        assert main(["solve", "--config", str(bad)]) == EXIT_CONFIG

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

    def test_simulate_builtin_defaults_overflow_is_config_error(self, tmp_path):
        # the built-in sim dimension is far below the full-scale d, so the
        # capacity ceiling on q + n overflows the float range
        proc = run_module(["simulate", "--out", str(tmp_path / "o")])
        assert proc.returncode == EXIT_CONFIG
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1

    def test_help_documents_exit_codes(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        assert "Exit codes" in out and "privacy" in out
