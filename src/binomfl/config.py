"""Run configuration: YAML ingestion, unit conversion, seed splitting.

The config file is a single YAML document with ``system``, ``solver``,
``sim`` and ``output`` sections; every key has a default, so a partial
file (or none at all) is valid.  dBm -> watt and dB -> linear conversions
happen here and only here; the rest of the package sees linear units.

Seed policy: one top-level ``seed`` drives everything.  Component streams
are derived as SeedSequence(entropy=seed, spawn_key=(ROLE,)) with a fixed
role index per purpose, so adding a new command never perturbs the streams
of existing ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np
import yaml

from .errors import ConfigError
from .privacy import PrivacyContext
from .solver import SolverConfig
from .wireless import ChannelSampler, SystemParams, db_to_linear, dbm_to_watts, sample_gains

SPEC_VERSION = 1

# fixed spawn-key role indices of the seed-splitting rule
ROLE_GAINS = 0
ROLE_SIM = 1
ROLE_BIAS = 2

DEFAULTS: dict[str, Any] = {
    "seed": 2024,
    "system": {
        "selected": 1000,            # K
        "population": 1_000_000,     # M
        "dimension": 47_710,         # d
        "delta": 1e-10,
        "transmission_time_s": 5e-4,
        "bandwidth_hz": 900e6,
        "noise_power_w": 6.2e-10,
        "power_min_dbm": 1.0,
        "power_max_dbm": 20.0,
        "gains": None,               # explicit list overrides the sampler
        "channel": {
            "reference_gain_db": -40.0,
            "reference_distance_m": 1.0,
            "distance_min_m": 2.0,
            "distance_max_m": 200.0,
            "gain_semantics": "amplitude",
            "seed": None,            # default: derived from the top-level seed
        },
    },
    "solver": {
        "eps_bar": 10.0,
        "rho": None,
        "lambda_step": 0.01,         # ignored when rho is given
        "n_cap": 65_534,
        "bit_cap": 16,
    },
    "sim": {
        "task": "logistic",
        "dimension": 100,
        "population": 100,
        "selected": 20,
        "samples_per_device": 25,
        "l2": 0.05,
        "rounds": 500,
        "theta": 0.1,
        "confidence": 0.1,           # capital lambda
        "rescale": "clip",
        "eps_bar": None,             # defaults to solver.eps_bar
        "compare_suboptimal": True,
        "bias_trials": 400,
        "subopt_factor": 4.0,
    },
    "output": {
        "dir": "out",
    },
}


def rng_for(seed: int, role: int) -> np.random.Generator:
    """Component generator under the documented splitting rule."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(role,)))


def child_seed(seed: int, role: int) -> int:
    """Integer sub-seed under the same rule, for APIs that take plain ints."""
    return int(np.random.SeedSequence(entropy=seed, spawn_key=(role,)).generate_state(1)[0])


def _merge(base: dict, override: dict, path: str = "") -> dict:
    out = dict(base)
    for key, value in override.items():
        if key not in base:
            raise ConfigError(f"unknown config key {path + key!r}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {path + key!r} must be a mapping")
            out[key] = _merge(base[key], value, path + key + ".")
        else:
            out[key] = value
    return out


@dataclass
class RunConfig:
    """Validated run configuration; build_* methods yield module-level types."""

    raw: dict = field(default_factory=lambda: dict(DEFAULTS))

    def __post_init__(self):
        validate_seed("seed", self.raw["seed"])
        channel_seed = self.raw["system"]["channel"]["seed"]
        if channel_seed is not None:
            validate_seed("system.channel.seed", channel_seed)

    @classmethod
    def from_yaml(cls, path) -> "RunConfig":
        try:
            with open(path) as fh:
                data = yaml.safe_load(fh) or {}
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except yaml.YAMLError as exc:
            raise ConfigError(f"config file is not valid YAML: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config root must be a mapping")
        return cls(raw=_merge(DEFAULTS, data))

    @classmethod
    def defaults(cls) -> "RunConfig":
        return cls()

    @property
    def seed(self) -> int:
        return int(self.raw["seed"])

    def with_seed(self, seed: int) -> "RunConfig":
        raw = dict(self.raw)
        raw["seed"] = seed
        return RunConfig(raw=raw)

    # system ---------------------------------------------------------------

    def channel_sampler(self) -> ChannelSampler:
        ch = self.raw["system"]["channel"]
        seed = ch["seed"]
        if seed is None:
            seed = child_seed(self.seed, ROLE_GAINS)
        try:
            return ChannelSampler(
                g0=db_to_linear(float(ch["reference_gain_db"])),
                d0=float(ch["reference_distance_m"]),
                d_min=float(ch["distance_min_m"]),
                d_max=float(ch["distance_max_m"]),
                seed=int(seed),
                semantics=str(ch["gain_semantics"]),
            )
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"bad channel section: {exc}") from exc

    def build_system(
        self,
        K: int | None = None,
        M: int | None = None,
        d: int | None = None,
        p_max_dbm: float | None = None,
        T: float | None = None,
        W: float | None = None,
    ) -> SystemParams:
        s = self.raw["system"]
        try:
            K = int(K if K is not None else s["selected"])
            M = int(M if M is not None else s["population"])
            d = int(d if d is not None else s["dimension"])
            gains = s["gains"]
            if gains is None:
                gains = sample_gains(self.channel_sampler(), K)
            elif len(gains) != K:
                raise ConfigError(f"system.gains has {len(gains)} entries, expected K={K}")
            return SystemParams(
                K=K, M=M, d=d,
                delta=float(s["delta"]),
                T=float(T if T is not None else s["transmission_time_s"]),
                W=float(W if W is not None else s["bandwidth_hz"]),
                omega0=float(s["noise_power_w"]),
                p_min=dbm_to_watts(float(s["power_min_dbm"])),
                p_max=dbm_to_watts(float(p_max_dbm if p_max_dbm is not None else s["power_max_dbm"])),
                gains=tuple(float(g) for g in gains),
            )
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"bad system section: {exc}") from exc

    def build_context(self, sys: SystemParams) -> PrivacyContext:
        return PrivacyContext(d=sys.d, delta=sys.delta, K=sys.K)

    # solver ---------------------------------------------------------------

    def build_solver(self, ctx: PrivacyContext, eps_bar: float | None = None) -> SolverConfig:
        sv = self.raw["solver"]
        try:
            eps = validate_positive("eps_bar", eps_bar if eps_bar is not None else sv["eps_bar"])
            n_cap = int(sv["n_cap"])
            bit_cap = sv["bit_cap"]
            bit_cap = None if bit_cap is None else int(bit_cap)
            if sv["rho"] is not None:
                return SolverConfig.for_target_error(eps, float(sv["rho"]), n_cap, ctx, bit_cap)
            return SolverConfig(
                eps_bar=eps, lambda_step=float(sv["lambda_step"]), n_cap=n_cap, bit_cap=bit_cap,
            )
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"bad solver section: {exc}") from exc

    # sim ------------------------------------------------------------------

    def sim_section(self) -> dict:
        return self.raw["sim"]

    def output_dir(self) -> str:
        return str(self.raw["output"]["dir"])


def validate_positive(name: str, value) -> float:
    """``value`` as a float; raises :class:`ConfigError` unless it is a
    positive finite number."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be a number, got {value!r}") from None
    if not math.isfinite(number) or number <= 0:
        raise ConfigError(f"{name} must be a positive finite number, got {number}")
    return number


def validate_seed(name: str, value) -> int:
    """``value`` as an int; raises :class:`ConfigError` unless it is a
    non-negative integer (SeedSequence entropy)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 0:
        raise ConfigError(f"{name} must be a non-negative integer, got {value!r}")
    return int(value)
