"""Shared instance builders for the test suite."""

import math

import numpy as np
import pytest

from binomfl.privacy import PrivacyContext
from binomfl.solver import eta_and_mu_values
from binomfl.wireless import SystemParams, domain_bound


def make_system(
    K=30,
    M=1000,
    d=10,
    delta=1e-2,
    min_snr=3.0,
    base_target=44.3,
    p_min=1e-3,
    p_max=1.0,
    gain_spread=0.5,
):
    """System whose capacity ceiling on q + n is approximately base_target.

    Gains are an ascending ramp starting at min_snr (with p_max and omega0
    both 1), so the worst-device SNR is exact and the domain bound lands at
    floor(base_target) - 2.
    """
    TW = d * math.log2(base_target) / math.log2(1.0 + min_snr)
    gains = tuple(min_snr + gain_spread * k for k in range(K))
    return SystemParams(
        K=K, M=M, d=d, delta=delta, T=1.0, W=TW, omega0=1.0,
        p_min=p_min, p_max=p_max, gains=gains,
    )


def make_context(system: SystemParams) -> PrivacyContext:
    return PrivacyContext(d=system.d, delta=system.delta, K=system.K)


def random_small_instance(rng):
    """System + context with domain bound <= 64, snug eta, and a known
    feasible point; returns (system, ctx, n_cap, eta, mu)."""
    while True:
        d = int(rng.integers(2, 40))
        delta = 10.0 ** rng.uniform(-4, -1.3)
        base_target = float(rng.uniform(12.0, 66.0))
        n_cap = int(rng.integers(16, 513))
        floor = 23.0 * math.log(10.0 * d / delta)
        eta_target = float(rng.uniform(0.08, 0.23))
        K = max(2, round(floor / (eta_target * n_cap)))
        system = make_system(
            K=K, M=max(2 * K, K + 1), d=d, delta=delta,
            base_target=base_target, gain_spread=float(rng.uniform(0.05, 1.0)),
        )
        ctx = make_context(system)
        try:
            bound = domain_bound(system)
        except Exception:
            continue
        n_max = min(n_cap, bound)
        if math.ceil(floor / (K * 0.25)) > n_max:
            continue  # not even p = 1/2 fits; regenerate
        try:
            eta, mu = eta_and_mu_values(n_cap, ctx)
        except Exception:
            continue
        return system, ctx, n_cap, eta, mu


class FixedGradientTask:
    """Frozen gradient table; the loss is irrelevant, only gradients matter.

    Used to probe the mechanism bias at a controlled gradient population.
    """

    def __init__(self, gradients: np.ndarray, grad_bound: float):
        g = np.asarray(gradients, dtype=np.float64)
        if g.ndim != 2:
            raise ValueError("gradients must have shape (M, d)")
        self.M, self.d = g.shape
        self._g = g
        self.grad_bound = float(grad_bound)
        self.smoothness = 1.0

    def loss(self, w: np.ndarray) -> float:
        return 0.0

    def device_gradients(self, w: np.ndarray, devices) -> np.ndarray:
        return self._g[np.asarray(devices)]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
