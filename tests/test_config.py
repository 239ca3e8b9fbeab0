"""Configuration layer: merging, unit conversion, seed splitting."""

import numpy as np
import pytest
import yaml

from binomfl.config import (
    ROLE_BIAS,
    ROLE_GAINS,
    ROLE_SIM,
    RunConfig,
    child_seed,
    rng_for,
)
from binomfl.errors import ConfigError


class TestMergeAndDefaults:
    def test_defaults_build(self):
        cfg = RunConfig.defaults()
        system = cfg.build_system()
        assert system.K == 1000 and system.M == 1_000_000 and system.d == 47_710
        assert system.delta == 1e-10
        # dBm boundary conversion: 1..20 dBm -> watts
        assert system.p_min == pytest.approx(10 ** (1.0 / 10) / 1000)
        assert system.p_max == pytest.approx(0.1)

    def test_partial_override(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("system:\n  selected: 5\n  population: 9\n  dimension: 3\n")
        cfg = RunConfig.from_yaml(path)
        system = cfg.build_system()
        assert (system.K, system.M, system.d) == (5, 9, 3)
        assert system.delta == 1e-10  # untouched default

    def test_utf16_file_with_bom_loads(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_bytes("seed: 7\nsolver:\n  eps_bar: 30.0\n".encode("utf-16"))  # BOM first
        cfg = RunConfig.from_yaml(path)
        assert (cfg.seed, cfg.raw["solver"]["eps_bar"]) == (7, 30.0)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("system:\n  dimenson: 3\n")
        with pytest.raises(ConfigError):
            RunConfig.from_yaml(path)

    def test_explicit_gains_length_checked(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("system:\n  selected: 3\n  gains: [1.0, 2.0]\n")
        with pytest.raises(ConfigError):
            RunConfig.from_yaml(path).build_system()

    # a real-valued key takes whatever float() reads, so a string that spells
    # a number loads; PyYAML reads an unquoted 1e-4 (no dot) as such a string
    @pytest.mark.parametrize("section, key, literal, value", [
        ("system", "delta", "1e-4", 1e-4),
        ("solver", "eps_bar", '"30"', 30.0),
        ("system", "bandwidth_hz", '"1_000"', 1000.0),
    ], ids=["delta-unquoted-1e-4", "eps_bar-quoted", "bandwidth_hz-underscore"])
    def test_number_string_on_a_real_key_loads(self, section, key, literal, value, tmp_path):
        text = f"{section}:\n  {key}: {literal}\n"
        assert isinstance(yaml.safe_load(text)[section][key], str)
        path = tmp_path / "c.yaml"
        path.write_text(text)
        cfg = RunConfig.from_yaml(path).merged({"system": {"selected": 5, "population": 9, "dimension": 3}})
        system = cfg.build_system()
        assert {"delta": system.delta, "eps_bar": cfg.eps_bar, "bandwidth_hz": system.W}[key] == value

    def test_rho_derives_lambda(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("solver:\n  rho: 0.1\n  n_cap: 4096\n")
        cfg = RunConfig.from_yaml(path)
        system = cfg.merged({"system": {"selected": 50, "dimension": 10}}).build_system()
        ctx = cfg.build_context(system)
        scfg = cfg.build_solver(ctx)
        assert scfg.rho == 0.1
        assert 0.0 < scfg.lambda_step < 0.1


class TestSeedSplitting:
    def test_roles_are_disjoint(self):
        seeds = {child_seed(7, role) for role in (ROLE_GAINS, ROLE_SIM, ROLE_BIAS)}
        assert len(seeds) == 3

    def test_streams_reproducible(self):
        a = rng_for(7, ROLE_SIM).random(4)
        b = rng_for(7, ROLE_SIM).random(4)
        assert (a == b).all()

    def test_spawn_key_path(self):
        # the stream of simulate's training arm 2
        expected = np.random.default_rng(np.random.SeedSequence(entropy=7, spawn_key=(ROLE_SIM, 2)))
        assert (rng_for(7, ROLE_SIM, 2).random(4) == expected.random(4)).all()

    def test_adding_roles_never_perturbs_existing(self):
        # spawn keys are fixed per role, not positional
        before = child_seed(7, ROLE_GAINS)
        _ = child_seed(7, 17)  # hypothetical future role
        assert child_seed(7, ROLE_GAINS) == before

    def test_seed_override(self):
        cfg = RunConfig.defaults().merged({"seed": 99})
        assert cfg.seed == 99
        assert RunConfig.defaults().seed == 2024

    def test_merge_checked_like_a_file(self):
        with pytest.raises(ConfigError, match="unknown config key 'system.K'"):
            RunConfig.defaults().merged({"system": {"K": 5}})
        with pytest.raises(ConfigError, match="must be a mapping"):
            RunConfig.defaults().merged({"solver": 5})

    @pytest.mark.parametrize("seed", [-1, 1.5, "abc", True, None])
    def test_seed_must_be_non_negative_integer(self, seed):
        with pytest.raises(ConfigError):
            RunConfig.defaults().merged({"seed": seed})
