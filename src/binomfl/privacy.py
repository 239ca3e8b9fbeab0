"""Closed-form privacy accounting for the quantized Binomial mechanism.

Two (epsilon, delta) budget estimators are provided for a single aggregation
of q-level stochastically quantized gradients with added Binomial(n, p)
noise: the classical estimate (``epsilon_baseline``) and a tighter one
(``epsilon_tight``), tighter wherever the per-device noise variance
n*p*(1-p) is not small (see :func:`epsilon_tight` for where it is not).
Both are certified only while the aggregate noise variance K*n*p*(1-p)
clears a dimension-dependent floor; below that floor they raise
:class:`NotApplicableError` instead of returning a number.
``tight_epsilon_lower`` is the tight estimator's lower bound over every
(n, p) with n*p*(1-p) <= x: the same five terms at the worst noise shape.

All logarithms here are natural logs (``math.log``).  Channel-capacity math
elsewhere in the package uses ``math.log2``; the two must never be mixed.

Everything in this module is a pure function of its arguments and safe to
call from any number of threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NotApplicableError

# Constant of the tight estimator's second and fourth summands, the sharp
# coefficient of the |ln(1+z) - z| <= alpha * z^2 inequality on z >= -1/3.
ALPHA = -3.0 - 9.0 * math.log(2.0 / 3.0)


@dataclass(frozen=True)
class PrivacyContext:
    """Problem-level constants the budget depends on.

    d: gradient dimension, delta: allowed failure probability of the
    privacy guarantee, K: number of devices whose updates are aggregated.
    """

    d: int
    delta: float
    K: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"dimension d must be >= 1, got {self.d}")
        if not (0.0 < self.delta < 1.0):
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        if self.K < 1:
            raise ValueError(f"device count K must be >= 1, got {self.K}")


@dataclass(frozen=True)
class MechanismParams:
    """Quantizer and noise parameters of one mechanism instance.

    q: quantization levels, n/p: Binomial noise parameters, D: magnitude
    cap the gradients are restricted to before quantization.  The noise
    scale s is derived, never passed: s = 2D/(q-1), which ties the noise
    grid to the quantizer grid.
    """

    q: int
    n: int
    p: float
    D: float
    s: float = field(init=False)

    def __post_init__(self):
        if self.q < 2:
            raise ValueError(f"quantization levels q must be >= 2, got {self.q}")
        if self.n < 2:
            raise ValueError(f"trial count n must be >= 2, got {self.n}")
        if not (0.0 < self.p < 1.0):
            raise ValueError(f"probability p must lie in (0, 1), got {self.p}")
        if self.D <= 0.0:
            raise ValueError(f"gradient cap D must be positive, got {self.D}")
        object.__setattr__(self, "s", 2.0 * self.D / (self.q - 1))


def _sqrt(x):
    # math.sqrt keeps scalar arguments plain Python floats; both round
    # correctly, so scalar and array evaluations agree bit for bit
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


def _max(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.maximum(a, b)
    return max(a, b)


def _min(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.minimum(a, b)
    return min(a, b)


def _sensitivity_triple(q, d: int, delta: float):
    # 2D/s == q - 1 exactly, so the bounds depend on (q, d, delta) only.
    ln2d = math.log(2.0 / delta)
    root = _sqrt(2.0 * math.sqrt(d) * (q - 1) * ln2d)
    d1 = math.sqrt(d) * (q - 1) + root + (4.0 / 3.0) * ln2d
    d2 = (q - 1) + _sqrt(d1 + root)
    return d1, d2, q + 1.0


def dp_variance_threshold(q, d: int, delta: float):
    """Floor that K*n*p*(1-p) must reach for either estimator to apply.

    Broadcasts over an array of quantization levels.
    """
    return _max(23.0 * math.log(10.0 * d / delta), 2.0 * (q + 1))


def dp_variance_feasible(mech: MechanismParams, ctx: PrivacyContext) -> bool:
    """Whether the aggregate Binomial variance clears its required floor.

    The comparison is non-strict: exact equality counts as feasible.
    """
    lhs = ctx.K * mech.n * mech.p * (1.0 - mech.p)
    return lhs >= dp_variance_threshold(mech.q, ctx.d, ctx.delta)


def _require_applicable(mech: MechanismParams, ctx: PrivacyContext) -> None:
    if not dp_variance_feasible(mech, ctx):
        raise NotApplicableError(
            "noise variance K*n*p*(1-p) = "
            f"{ctx.K * mech.n * mech.p * (1 - mech.p):.6g} is below the "
            f"required floor {dp_variance_threshold(mech.q, ctx.d, ctx.delta):.6g}; "
            "the budget estimate is not certified here"
        )


def baseline_epsilon_value(q: int, n: int, p: float, d: int, delta: float) -> float:
    """Classical budget estimate, evaluated without the variance-floor gate.

    Callers that need the certified estimate should use
    :func:`epsilon_baseline`; this raw form exists for search loops that
    probe parameters before the floor condition is settled.

    The classical form holds for p <= 1/2 (above, its (1 - 2p) term can
    make it negative); p and 1 - p are equally private, so p is reflected.
    """
    p = min(p, 1.0 - p)
    d1, d2, dinf = _sensitivity_triple(q, d, delta)
    x = n * p * (1.0 - p)
    cp = math.sqrt(2.0) * (3.0 * p**3 + 3.0 * (1.0 - p) ** 3 + 2.0 * p**2 + 2.0 * (1.0 - p) ** 2)
    bp = (2.0 / 3.0) * (p**2 + (1.0 - p) ** 2) + (1.0 - 2.0 * p)
    dp_ = (4.0 / 3.0) * (p**2 + (1.0 - p) ** 2)
    ln125 = math.log(1.25 / delta)
    ln10 = math.log(10.0 / delta)
    ln20d = math.log(20.0 * d / delta)
    return (
        d2 * math.sqrt(2.0 * ln125) / math.sqrt(x)
        + (d2 * cp * math.sqrt(ln10) + d1 * bp) / (x * (1.0 - delta / 10.0))
        + ((2.0 / 3.0) * dinf * ln125 + dinf * dp_ * ln20d * ln10) / x
    )


def _s1(n, p):
    # squares are written as products: numpy squares arrays by multiplying,
    # while a Python float's ** 2 goes through libm pow, which can differ
    # from the product in the last bit
    pq = p * (1.0 - p)
    return (3.0 * (p * p) - 3.0 * p + 1.0) / (n * (n + 1) * (n + 2) * pq * pq) * (
        3.0 * n + 2.0 + 2.0 / pq
    )


def _s2(x, pmax, ln20d: float):
    # x * (2 ln20d) rounds the same exact product as 2x * ln20d, with one
    # array operation fewer
    radius = _sqrt(x * (2.0 * ln20d)) + 1.0 + (2.0 / 3.0) * pmax * ln20d
    return radius * radius


def _tight_terms(q, x, psym, pmax, s1, d: int, delta: float):
    # the five summands from the noise shape: x = n*p*(1-p),
    # psym = p^2 + (1-p)^2, pmax = max(p, 1-p) and the variance factor s1
    d1, d2, dinf = _sensitivity_triple(q, d, delta)
    xx = x * x
    ln125 = math.log(1.25 / delta)
    ln10 = math.log(10.0 / delta)
    ln20d = math.log(20.0 * d / delta)
    one_minus = 1.0 - delta / 10.0
    t1 = d2 * math.sqrt(2.0 * ln125) / _sqrt(x)
    t2 = ALPHA * d1 * (x + 1.0) * psym / (xx * one_minus)
    t3 = d2 / math.sqrt(one_minus) * _sqrt(s1 * (2.0 * ln10))
    t4 = (2.0 / 3.0) * ALPHA * _s2(x, pmax, ln20d) * psym * ln10 * dinf / xx
    t5 = 2.0 * ln125 * dinf / x
    return t1, t2, t3, t4, t5


def tight_epsilon_terms_value(q, n, p, d: int, delta: float):
    """The five summands of the tight estimate, ungated.

    The one implementation of the tight estimator: q, n and p may each be a
    scalar or an array, and arrays broadcast against each other.  Scalars
    stay Python floats throughout, so a scalar call returns plain floats.
    """
    x = n * (p * (1.0 - p))
    psym = p * p + (1.0 - p) * (1.0 - p)
    return _tight_terms(q, x, psym, _max(p, 1.0 - p), _s1(n, p), d, delta)


def tight_epsilon_lower(q, x, d: int, delta: float):
    """Lower bound on each tight summand over every (n, p) with n*p*(1-p) <= x.

    The five terms at the worst noise shape, psym = pmax = 1/2, with s1
    bounded below by min((x+1)/(2x^3), (3x+2)/(4x(x+1/4)(x+1/2))); the
    first form holds for large x only, the second everywhere (1 - 3p(1-p)
    >= 1/4 and p(1-p) <= 1/4).  Every term is non-increasing in x and
    non-decreasing in q.  q and x broadcast like the kernel's arguments.
    """
    s1 = _min((x + 1.0) / (2.0 * x**3), (3.0 * x + 2.0) / (4.0 * x * (x + 0.25) * (x + 0.5)))
    return _tight_terms(q, x, 0.5, 0.5, s1, d, delta)


def tight_epsilon_value(q: int, n: int, p: float, d: int, delta: float) -> float:
    """Tight budget estimate without the variance-floor gate (see caveat on
    :func:`baseline_epsilon_value`)."""
    t1, t2, t3, t4, t5 = tight_epsilon_terms_value(q, n, p, d, delta)
    return t1 + t2 + t3 + t4 + t5


def epsilon_baseline(mech: MechanismParams, ctx: PrivacyContext) -> float:
    """Certified classical privacy budget for one aggregation round."""
    _require_applicable(mech, ctx)
    return baseline_epsilon_value(mech.q, mech.n, mech.p, ctx.d, ctx.delta)


def epsilon_tight(mech: MechanismParams, ctx: PrivacyContext) -> float:
    """Certified tight privacy budget for one aggregation round.

    Symmetric in p around 1/2, strictly decreasing in n and strictly
    increasing in q.  Below :func:`epsilon_baseline` wherever n*p*(1-p)
    alone clears the variance floor; with many devices the floor admits
    smaller n*p*(1-p), where it can exceed it (75,140 against 72,262 at
    q=946, n=64, p=1/2, d=1e7, delta=1e-2, K=1000).
    """
    _require_applicable(mech, ctx)
    return tight_epsilon_value(mech.q, mech.n, mech.p, ctx.d, ctx.delta)


def tight_epsilon_n_array(q, n, p, d: int, delta: float) -> np.ndarray:
    """Tight estimate over broadcast arrays of (q, n, p), ungated.

    q, n and p are scalars or arrays that broadcast against each other,
    e.g. a (Q, 1) column of q values, a scalar n and a (1, P) row of p
    values; factors that depend on one axis only are then computed once per
    axis value.  The result is 1-D, flattened in C order of the broadcast
    shape, and element i is bit-identical to :func:`tight_epsilon_value` at
    the i-th (q, n, p) of that order.
    """
    t1, t2, t3, t4, t5 = tight_epsilon_terms_value(q, np.asarray(n, dtype=np.float64), p, d, delta)
    return (t1 + t2 + t3 + t4 + t5).ravel()
