"""Shared instance builders for the test suite."""

import math

import numpy as np
import pytest

from binomfl.privacy import PrivacyContext
from binomfl.wireless import SystemParams


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
