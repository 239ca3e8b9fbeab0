"""Run configuration: YAML ingestion, unit conversion, seed splitting.

The config file is a single YAML document with ``system``, ``solver``,
``sim`` and ``output`` sections; every key has a default, so a partial
file (or none at all) is valid.  It describes one deployment, whose K, M, d
and eps_bar every command reads, and is the one way to set a run parameter:
an override (``--seed``, a sweep value) is merged in by :meth:`RunConfig.merged`
and read by the same validators, so a boolean or a non-finite number is a
config error.  dBm -> watt and dB -> linear conversions happen here and only
here; the rest of the package sees linear units.

Seed policy: one top-level ``seed`` drives everything.  Component streams
are derived as SeedSequence(entropy=seed, spawn_key=(ROLE, ...)) with a
fixed role index per purpose, so adding a new command never perturbs the
streams of existing ones.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np
import yaml

from .errors import ConfigError
from .privacy import PrivacyContext, as_count
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
        "lambda_step": 0.01,         # checked even when rho is set, which derives the pitch
        "n_cap": 65_534,
        "bit_cap": 16,
    },
    "sim": {
        "task": "logistic",
        "samples_per_device": 25,
        "rounds": 500,
        "bias_trials": 400,
    },
    "output": {
        "dir": "out",
    },
}


# sim counts and their smallest valid value: run_fsgd needs a round, and
# measure_bias two trials for a standard error
SIM_COUNTS = {"samples_per_device": 1, "rounds": 1, "bias_trials": 2}


def rng_for(seed: int, *roles: int) -> np.random.Generator:
    """Component generator under the documented splitting rule; ``roles`` is
    the spawn-key path, e.g. ``(ROLE_SIM, arm)``."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=roles))


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


class RunConfig:
    """Validated run configuration; build_* methods yield module-level types.

    Every section checkable without building anything is checked when the
    config is built, so every command rejects a malformed one, even one that
    never reads it; ``seed``, ``sim``, ``output_dir`` and ``eps_bar`` hold
    checked values.  The solver section is checked at the file's lambda_step.
    """

    def __init__(self, raw: dict | None = None):
        self.raw = dict(DEFAULTS) if raw is None else raw
        self.seed = validate_integer("seed", self.raw["seed"], 0)
        ch_seed = self.raw["system"]["channel"]["seed"]
        self._channel_seed = None if ch_seed is None else validate_integer("system.channel.seed", ch_seed, 0)
        self.sim = self._checked_sim()
        self.output_dir = self.raw["output"]["dir"]
        if not isinstance(self.output_dir, str):
            raise ConfigError(f"output.dir must be a string, got {self.output_dir!r}")
        self._solver = self._checked_solver()
        self.eps_bar = self._solver.eps_bar

    @classmethod
    def from_yaml(cls, path) -> "RunConfig":
        try:
            with open(path, "rb") as fh:  # the YAML reader decodes it: UTF-8, or UTF-16 by its BOM
                data = yaml.safe_load(fh) or {}
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except yaml.YAMLError as exc:
            # the parser's message spans lines; every error prints on one
            raise ConfigError(f"config file is not valid YAML: {' '.join(str(exc).split())}") from exc
        except RecursionError:  # the pure-Python composer recurses once per nesting level
            raise ConfigError("config file nests too deeply to parse") from None
        if not isinstance(data, dict):
            raise ConfigError("config root must be a mapping")
        return cls(raw=_merge(DEFAULTS, data))

    @classmethod
    def defaults(cls) -> "RunConfig":
        return cls()

    def merged(self, override: dict) -> "RunConfig":
        """This config with ``override`` merged in, checked like a file."""
        return RunConfig(raw=_merge(self.raw, override))

    # system ---------------------------------------------------------------

    def channel_sampler(self) -> ChannelSampler:
        ch = self.raw["system"]["channel"]
        seed = child_seed(self.seed, ROLE_GAINS) if self._channel_seed is None else self._channel_seed
        try:
            return ChannelSampler(
                g0=validate_db("system.channel.reference_gain_db", ch["reference_gain_db"], db_to_linear),
                d0=validate_real("system.channel.reference_distance_m", ch["reference_distance_m"]),
                d_min=validate_real("system.channel.distance_min_m", ch["distance_min_m"]),
                d_max=validate_real("system.channel.distance_max_m", ch["distance_max_m"]),
                seed=seed,
                semantics=str(ch["gain_semantics"]),
            )
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"bad channel section: {exc}") from exc

    def build_system(self) -> SystemParams:
        s = self.raw["system"]
        try:
            K = validate_integer("system.selected", s["selected"])
            M = validate_integer("system.population", s["population"])
            d = validate_integer("system.dimension", s["dimension"])
            if not 1 <= K <= M:  # before the K gains are drawn
                raise ValueError(f"need 1 <= K <= M, got K={K}, M={M}")
            sampler = self.channel_sampler()  # checked even when explicit gains replace it
            gains = s["gains"]
            if gains is None:
                gains = sample_gains(sampler, K)
            elif len(gains) != K:
                raise ConfigError(f"system.gains has {len(gains)} entries, expected K={K}")
            else:
                gains = [validate_real("system.gains", g) for g in gains]
            return SystemParams(
                K=K, M=M, d=d,
                delta=validate_real("system.delta", s["delta"]),
                T=validate_real("system.transmission_time_s", s["transmission_time_s"]),
                W=validate_real("system.bandwidth_hz", s["bandwidth_hz"]),
                omega0=validate_real("system.noise_power_w", s["noise_power_w"]),
                p_min=validate_db("system.power_min_dbm", s["power_min_dbm"], dbm_to_watts),
                p_max=validate_db("system.power_max_dbm", s["power_max_dbm"], dbm_to_watts),
                gains=gains,
            )
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"bad system section: {exc}") from exc

    def build_context(self, sys: SystemParams) -> PrivacyContext:
        return PrivacyContext(d=sys.d, delta=sys.delta, K=sys.K)

    # solver ---------------------------------------------------------------

    def build_solver(self, ctx: PrivacyContext, eps_bar: float | None = None) -> SolverConfig:
        """The checked solver section, its pitch derived from rho in ``ctx`` if rho is set."""
        # eps_bar= is kept for bench/make_refs.py only; it is a merge like any override
        if eps_bar is not None:
            return self.merged({"solver": {"eps_bar": eps_bar}}).build_solver(ctx)
        sv = self._solver
        if sv.rho is None:
            return sv
        try:
            return SolverConfig.for_target_error(sv.eps_bar, sv.rho, sv.n_cap, ctx, sv.bit_cap)
        except ValueError as exc:
            raise ConfigError(f"bad solver section: {exc}") from exc

    def _checked_solver(self) -> SolverConfig:
        """The solver section at the file's lambda_step, rho included, so every range check runs."""
        sv = self.raw["solver"]
        try:
            return SolverConfig(
                eps_bar=validate_real("solver.eps_bar", sv["eps_bar"], "(0, inf)", lambda v: v > 0.0),
                lambda_step=validate_real("solver.lambda_step", sv["lambda_step"]),
                n_cap=validate_integer("solver.n_cap", sv["n_cap"]),
                bit_cap=None if sv["bit_cap"] is None else validate_integer("solver.bit_cap", sv["bit_cap"]),
                rho=None if sv["rho"] is None else validate_real("solver.rho", sv["rho"]),
            )
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"bad solver section: {exc}") from exc

    # sim ------------------------------------------------------------------

    def _checked_sim(self) -> dict:
        """The sim section, checked: counts and the task."""
        s = dict(self.raw["sim"])
        for key, minimum in SIM_COUNTS.items():
            s[key] = validate_integer(f"sim.{key}", s[key], minimum)
        if s["task"] not in ("logistic", "quadratic"):
            raise ConfigError(f"unknown task {str(s['task'])!r}; expected 'logistic' or 'quadratic'")
        return s


def validate_real(name: str, value, interval: str | None = None, ok=lambda v: True) -> float:
    """``float(value)``; raises :class:`ConfigError` unless that is finite,
    ``value`` is not a boolean, and ``ok`` holds.  By default ``ok`` passes
    every number and the message names no interval: the type built from
    the value, e.g. SystemParams, checks its range.  A string that
    ``float`` reads passes, so the unquoted ``1e-4`` that PyYAML loads as a
    string works, and so do ``"30"`` and ``"1_000"``."""
    try:
        number = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if not (math.isfinite(number) and ok(number)):
        where = "" if interval is None else f" in {interval}"
        raise ConfigError(f"{name} must be a finite number{where}, got {value!r}")
    return number


def validate_db(name: str, value, to_linear) -> float:
    """``value``, a level in dB or dBm, checked by :func:`validate_real` and
    converted by ``to_linear``; raises :class:`ConfigError` where the linear
    value overflows a float."""
    level = validate_real(name, value)
    try:
        return to_linear(level)
    except OverflowError:
        raise ConfigError(f"{name} must be a level whose linear value fits a float, got {value!r}") from None


def validate_integer(name: str, value, minimum: int = 1) -> int:
    """``value`` as an int; raises :class:`ConfigError` unless it passes
    :func:`binomfl.privacy.as_count` (an integer, or an integral float
    such as 12.0, but not a boolean, and at least ``minimum``)."""
    try:
        return as_count(name, value, minimum)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
