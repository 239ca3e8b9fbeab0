"""Channel model: rates, capacity feasibility, minimal power, domains.

Payload sizes compare against Shannon capacity in bits, so everything here
uses ``math.log2``; the privacy module's natural logs never appear.  Powers
are in watts and bandwidth in Hz throughout -- dBm/dB/MHz conversions happen
at the config boundary, not here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityInfeasibleError, ConfigError, EmptyDomainError
from .privacy import as_count


@dataclass(frozen=True)
class SystemParams:
    """Wireless and population constants of one deployment.

    K devices are selected out of a population of M; ``gains`` holds the
    channel gain of each selected device, so it must have length K.
    ``worst_gain`` is ``min(gains)``, stored once at construction for the
    capacity bounds that every solve evaluates many times.
    """

    K: int
    M: int
    d: int
    delta: float
    T: float
    W: float
    omega0: float
    p_min: float
    p_max: float
    gains: tuple[float, ...]

    def __post_init__(self):
        for name in ("K", "M", "d"):
            object.__setattr__(self, name, as_count(name, getattr(self, name), 1))
        if self.K > self.M:
            raise ValueError(f"need 1 <= K <= M, got K={self.K}, M={self.M}")
        if not (0.0 < self.delta < 1.0):
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        for name in ("T", "W", "omega0", "p_min", "p_max"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.p_min > self.p_max:
            raise ValueError(f"p_min={self.p_min} exceeds p_max={self.p_max}")
        if len(self.gains) != self.K:
            raise ValueError(f"gains has length {len(self.gains)}, expected K={self.K}")
        gains = np.fromiter(self.gains, dtype=np.float64, count=self.K)
        worst = gains.min()  # NaN if any gain is NaN
        if not (worst > 0.0 and gains.max() < math.inf):
            raise ValueError("all channel gains must be positive and finite")
        object.__setattr__(self, "gains", tuple(gains.tolist()))
        # not a field: stays out of ==, repr and fields(); replace() recomputes it
        object.__setattr__(self, "worst_gain", float(worst))


@dataclass(frozen=True)
class ChannelSampler:
    """Distance-based channel gain sampler.

    Squared gains are exponential with mean g0*(d0/dist)^4 at a distance
    drawn uniformly from [d_min, d_max].  ``g0`` is the linear reference
    gain (e.g. 1e-4 for -40 dB).  ``semantics`` picks what the sampled
    value feeds into the SNR term P*h/omega0: "amplitude" returns
    h = sqrt(h^2), "power" returns h^2 itself.
    """

    g0: float
    d0: float
    d_min: float
    d_max: float
    seed: int
    semantics: str = "amplitude"

    def __post_init__(self):
        if not (0.0 < self.d_min <= self.d_max):
            raise ValueError(f"need 0 < d_min <= d_max, got [{self.d_min}, {self.d_max}]")
        if self.g0 <= 0.0 or self.d0 <= 0.0:
            raise ValueError("g0 and d0 must be positive")
        if self.semantics not in ("amplitude", "power"):
            raise ValueError(f"semantics must be 'amplitude' or 'power', got {self.semantics!r}")


def sample_gains(sampler: ChannelSampler, count: int) -> list[float]:
    """Draw ``count`` channel gains; bit-identical for a fixed sampler seed.

    The generator is re-created from the sampler's seed on every call, so
    repeated calls with the same arguments return the same gains.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    rng = np.random.default_rng(sampler.seed)
    dist = rng.uniform(sampler.d_min, sampler.d_max, size=count)
    with np.errstate(over="ignore"):  # an overflow to inf fails the caller's finite-gain check
        mean_sq = sampler.g0 * (sampler.d0 / dist) ** 4
    h_sq = rng.exponential(mean_sq)
    if sampler.semantics == "amplitude":
        return np.sqrt(h_sq).tolist()
    return h_sq.tolist()


def shannon_rate(power, gain, sys: SystemParams):
    """Achievable rate in bits/s at the given transmit power.

    ``power`` and ``gain`` broadcast like numpy arrays; two scalars give a
    numpy float64.  The SNR arithmetic runs in numpy, but its log is
    ``math.log2`` per element, because ``np.log2`` differs from it in the
    last bit on some inputs.
    """
    if np.any(np.less_equal(power, 0.0)):
        raise ValueError(f"power must be positive, got {power}")
    with np.errstate(all="ignore"):
        snr = 1.0 + np.multiply(power, gain) / sys.omega0
    log2 = np.fromiter(map(math.log2, snr.ravel().tolist()), np.float64, snr.size)
    return sys.W * log2.reshape(snr.shape)


def payload_bits_real(d: int, q: int, n: int) -> float:
    """Real-valued payload size d*log2(q+n) of one quantized update."""
    return d * math.log2(q + n)


def capacity_feasible(q: int, n: int, powers: list[float], sys: SystemParams) -> bool:
    """Whether every device can push its payload within the slot T.

    Non-strict comparison: a payload exactly at capacity is feasible.
    """
    if len(powers) != sys.K:
        raise ValueError(f"powers has length {len(powers)}, expected K={sys.K}")
    need = payload_bits_real(sys.d, q, n)
    rates = shannon_rate(np.array(powers, dtype=np.float64), np.array(sys.gains), sys)
    return bool(np.all(need <= sys.T * rates))


def assign_powers(q: int, n: int, sys: SystemParams) -> tuple[float, ...]:
    """Smallest admissible power at which each device, in the order of
    ``sys.gains``, carries the (q, n) payload.

    Clamps to [p_min, p_max]; raises :class:`CapacityInfeasibleError` for
    the first device that even p_max cannot serve.  Where rounding leaves a
    device's capacity check failing by one bit of precision, its power is
    nudged up by the bumps 2^-50, 2^-48, ..., 2^-22 in turn, each applied to
    every still-short device at once, and each device keeps its first
    passing power.  A device still short after the last bump raises too, so
    every returned power passes :func:`capacity_feasible`.
    """
    if q + n < 4:
        raise ValueError(f"need q + n >= 4, got q={q}, n={n}")
    try:
        factor = sys.omega0 * ((q + n) ** (sys.d / (sys.T * sys.W)) - 1.0)
    except OverflowError:
        raise CapacityInfeasibleError(
            f"payload at (q={q}, n={n}) needs a power beyond float range on gain {sys.gains[0]:.6g}"
        ) from None
    need = payload_bits_real(sys.d, q, n)
    gains = np.array(sys.gains)
    with np.errstate(all="ignore"):
        unclamped = factor / gains
    over = np.flatnonzero(unclamped > sys.p_max)
    # devices before the first one above p_max raise first, if any does
    first_over = over[0] if over.size else sys.K
    powers = np.maximum(sys.p_min, unclamped)
    short = np.flatnonzero(need > sys.T * shannon_rate(powers, gains, sys))
    short = short[short < first_over]
    base = powers[short]
    for exponent in range(-50, -20, 2):
        if not short.size:
            break
        trial = np.minimum(sys.p_max, base * (1.0 + 2.0**exponent))
        missed = need > sys.T * shannon_rate(trial, gains[short], sys)
        powers[short[~missed]] = trial[~missed]
        short, base = short[missed], base[missed]
    if short.size:
        raise CapacityInfeasibleError(f"payload at (q={q}, n={n}) exceeds capacity on gain {sys.gains[short[0]]:.6g}")
    if over.size:
        raise CapacityInfeasibleError(
            f"payload at (q={q}, n={n}) needs {float(unclamped[first_over]):.6g} W on gain "
            f"{sys.gains[first_over]:.6g}, above the {sys.p_max:.6g} W limit"
        )
    return tuple(powers.tolist())


def min_snr(sys: SystemParams) -> float:
    """Worst-device SNR at full power, the binding term of every capacity bound."""
    return sys.p_max * sys.worst_gain / sys.omega0


def capacity_base(sys: SystemParams) -> float:
    """Real-valued ceiling on q + n implied by the worst channel at full power."""
    try:
        return (1.0 + min_snr(sys)) ** (sys.T * sys.W / sys.d)
    except OverflowError:
        return math.inf


def domain_bound(sys: SystemParams) -> int:
    """Shared integer upper end of the q and n search domains {2, ..., bound}.

    Exact floor of the real-valued ceiling, minus 2; no epsilon fudge.
    Raises :class:`ConfigError` when the ceiling (1 + SNR)^(T*W/d)
    overflows the float range, as it does when T*W/d is large (the built-in
    sim dimension with the full-scale channel) or the power cap makes the
    SNR huge; the message prints both numbers, so either cause shows.
    Beyond 1e100 counts as overflow: the budget envelope cubes the ceiling.
    """
    base = capacity_base(sys)
    if not base <= 1e100:
        raise ConfigError(
            "capacity ceiling (1 + SNR)^(T*W/d) on q + n overflows the float range, "
            f"with worst-device SNR {min_snr(sys):.3g} and T*W/d {sys.T * sys.W / sys.d:.3g}; "
            "check the power cap and the T, W, d units"
        )
    bound = math.floor(base) - 2
    if bound < 2:
        raise EmptyDomainError(
            f"channel supports q + n <= {base:.4g}; no room for the minimal payload"
        )
    return bound


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0) / 1000.0


def watts_to_dbm(watts: float) -> float:
    if watts <= 0.0:
        raise ValueError(f"watts must be positive, got {watts}")
    return 10.0 * math.log10(watts * 1000.0)


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)
