"""Closed-form privacy accounting for the quantized Binomial mechanism.

Two (epsilon, delta) budget estimators for a single aggregation of q-level
stochastically quantized gradients with added Binomial(n, p) noise: the
classical :func:`epsilon_baseline` and the tighter :func:`epsilon_tight`.
Both are certified only while the aggregate variance K*n*p*(1-p) clears a
dimension-dependent floor, n >= :func:`min_trials`; below it they raise
:class:`NotApplicableError` instead of returning a number.

The tight estimator is written once, as five terms in ``_tight_terms``, in
one numpy code path for scalars and arrays alike.  Its entry points are
``tight_epsilon_factors``, ``tight_epsilon_n_stage``,
``tight_epsilon_at_stage``, ``tight_epsilon_at_n``, ``tight_epsilon_lead``,
``tight_epsilon_lower`` and ``tight_epsilon_value``, each explained by its
own docstring.

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


def is_integral(value) -> bool:
    """Whether ``value`` is an integer, or an integral float such as 8.0.

    The one rule for every count: :func:`as_count` applies it to the
    records' and the config's counts, and the certified budgets to q and n.
    Booleans, fractions, infinities and NaN fail it.
    """
    if isinstance(value, float):
        return value.is_integer()
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def as_count(name: str, value, minimum: int) -> int:
    """``value`` as an int; raises ValueError unless it passes
    :func:`is_integral` and is at least ``minimum``."""
    if not (is_integral(value) and value >= minimum):
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


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
        object.__setattr__(self, "d", as_count("dimension d", self.d, 1))
        if not (0.0 < self.delta < 1.0):
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        object.__setattr__(self, "K", as_count("device count K", self.K, 1))


@dataclass(frozen=True)
class MechanismParams:
    """Quantizer and noise parameters of one mechanism instance.

    q: quantization levels, n/p: Binomial noise parameters, D: l2 norm
    each device gradient is clipped to before quantization.  The noise
    scale s is derived, never passed: s = 2D/(q-1), which ties the noise
    grid to the quantizer grid.
    """

    q: int
    n: int
    p: float
    D: float
    s: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "q", as_count("quantization levels q", self.q, 2))
        object.__setattr__(self, "n", as_count("trial count n", self.n, 2))
        if not (0.0 < self.p < 1.0):
            raise ValueError(f"probability p must lie in (0, 1), got {self.p}")
        if not (math.isfinite(self.D) and self.D > 0.0):
            raise ValueError(f"gradient cap D must be positive and finite, got {self.D}")
        object.__setattr__(self, "s", 2.0 * self.D / (self.q - 1))


def _sensitivity_triple(q, d: int, delta: float):
    # 2D/s == q - 1 exactly, so the bounds depend on (q, d, delta) only.
    ln2d = math.log(2.0 / delta)
    root = np.sqrt(2.0 * math.sqrt(d) * (q - 1) * ln2d)
    d1 = math.sqrt(d) * (q - 1) + root + (4.0 / 3.0) * ln2d
    d2 = (q - 1) + np.sqrt(d1 + root)
    return d1, d2, q + 1.0


def dp_variance_threshold(q, d: int, delta: float):
    """Floor that K*n*p*(1-p) must reach for either estimator to apply.

    Broadcasts over an array of quantization levels.
    """
    return np.maximum(23.0 * math.log(10.0 * d / delta), 2.0 * (q + 1))


def min_trials(q, p, ctx: PrivacyContext):
    """Smallest trial count the variance floor K*n*p*(1-p) >= thr(q) admits.

    The one statement of the floor; every gate on it is ``n >= min_trials(q, p, ctx)``.
    The ceiling of thr(q) / (K*p*(1-p)), plus one where the product K*n*p*(1-p) there
    still rounds below thr(q).  Broadcasts over arrays of q and p; returns float64.
    """
    thr = dp_variance_threshold(q, ctx.d, ctx.delta)
    n = np.ceil(thr / (ctx.K * (p * (1.0 - p))))
    return n + (ctx.K * n * p * (1.0 - p) < thr)


def _gate(q, n, p, ctx: PrivacyContext) -> None:
    if not (is_integral(q) and is_integral(n) and q >= 2 and n >= 2 and 0.0 < p < 1.0):
        raise ValueError(f"need integers q >= 2 and n >= 2 and 0 < p < 1, got q={q}, n={n}, p={p}")
    n_min = min_trials(q, p, ctx)
    if not n >= n_min:
        raise NotApplicableError(f"noise variance below its required floor: n={n} where q={q}, "
                                 f"p={p:.6g} and K={ctx.K} need n >= {n_min:.0f}; no certified budget")


def baseline_epsilon_value(q: int, n: int, p: float, d: int, delta: float) -> float:
    """Classical budget estimate without the variance-floor gate of :func:`epsilon_baseline`.

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
    return float(
        d2 * math.sqrt(2.0 * ln125) / math.sqrt(x)
        + (d2 * cp * math.sqrt(ln10) + d1 * bp) / (x * (1.0 - delta / 10.0))
        + ((2.0 / 3.0) * dinf * ln125 + dinf * dp_ * ln20d * ln10) / x
    )


def tight_epsilon_factors(q, p, d: int, delta: float) -> tuple:
    """The n-free stage of the tight estimate: every factor q, p, d and delta fix.

    Returns a flat tuple for :func:`tight_epsilon_at_n`, in this order:
    d2*sqrt(2 ln(1.25/delta)), ALPHA*d1, d2/sqrt(1 - delta/10), dinf and
    2 ln(1.25/delta)*dinf, shaped like q; p(1-p), p^2 + (1-p)^2,
    3p^2 - 3p + 1, 2/(p(1-p)) and (2/3)*max(p, 1-p)*ln(20d/delta), shaped
    like p; then the scalars 1 - delta/10, ln(10/delta), 2 ln(10/delta) and
    2 ln(20d/delta).  On a (Q, 1) column of q and a (1, P) row of p each
    factor is thus computed once per axis value.  A caller that holds the
    factors of a 1-D array of cells may index every array entry with one
    mask to drop cells.
    """
    d1, d2, dinf = _sensitivity_triple(q, d, delta)
    ln125 = math.log(1.25 / delta)
    ln10 = math.log(10.0 / delta)
    ln20d = math.log(20.0 * d / delta)
    one_minus = 1.0 - delta / 10.0
    # squares are written as products: numpy squares arrays by multiplying,
    # while a Python float's ** 2 goes through libm pow, which can differ
    # from the product in the last bit
    pq = p * (1.0 - p)
    return (
        d2 * math.sqrt(2.0 * ln125),
        ALPHA * d1,
        d2 / math.sqrt(one_minus),
        dinf,
        2.0 * ln125 * dinf,
        pq,
        p * p + (1.0 - p) * (1.0 - p),
        3.0 * (p * p) - 3.0 * p + 1.0,
        2.0 / pq,
        (2.0 / 3.0) * np.maximum(p, 1.0 - p) * ln20d,
        one_minus,
        ln10,
        2.0 * ln10,
        2.0 * ln20d,
    )


def tight_epsilon_n_stage(n) -> tuple:
    """The n-only stage of the tight estimate: n, n*(n+1)*(n+2) and 3n + 2.

    n is a scalar or an array, integer or float.  Every entry is
    elementwise in n, so a slice of each entry is the stage of the same
    slice of n, bit for bit; :func:`tight_epsilon_at_stage` evaluates it.
    """
    # n + 1.0 and n + 2.0 turn an integer n to float before the product, so
    # an int64 array of trial counts cannot overflow and gives the bits of
    # the same counts in float64
    return n, n * (n + 1.0) * (n + 2.0), 3.0 * n + 2.0


def _s1(stage, f):
    # the variance factor at the n stage from the factors f
    _, cubic, linear = stage
    pq, s1_num, two_over_pq = f[5], f[7], f[8]
    return s1_num / (cubic * pq * pq) * (linear + two_over_pq)


def _s2(x, f):
    # x * (2 ln20d) rounds the same exact product as 2x * ln20d, with one
    # array operation fewer
    radius = np.sqrt(x * f[13]) + 1.0 + f[9]
    return radius * radius


def _lead(f, x):
    # the first summand, d2*sqrt(2 ln(1.25/delta))/sqrt(x): the Gaussian-like
    # leading term of the Binomial mechanism's bound
    return f[0] / np.sqrt(x)


def _tight_terms(f, x, s1):
    # the five summands from the factors f, x = n*p*(1-p) and the variance
    # factor s1; the one place the tight formula is written
    _, k2, k3, dinf, k5, _, psym, _, _, _, one_minus, ln10, two_ln10, _ = f
    xx = x * x
    return (
        _lead(f, x),
        k2 * (x + 1.0) * psym / (xx * one_minus),
        k3 * np.sqrt(s1 * two_ln10),
        (2.0 / 3.0) * ALPHA * _s2(x, f) * psym * ln10 * dinf / xx,
        k5 / x,
    )


def _stage_terms(f, stage):
    return _tight_terms(f, stage[0] * f[5], _s1(stage, f))


def tight_epsilon_lead(f, n):
    """The first of the five summands at trial count n, bit for bit.

    ``f`` and n as for :func:`tight_epsilon_at_n`; the result keeps the
    broadcast shape of n against the factors.  The other four summands are
    non-negative and rounding is monotone, so this never exceeds the
    matching :func:`tight_epsilon_at_n` element, and it is non-increasing
    in n: where it exceeds a cap at some n, the budget exceeds that cap at
    every smaller n too.
    """
    return _lead(f, n * f[5])


def tight_epsilon_at_stage(f, stage) -> np.ndarray:
    """The budget from the n-free factors and the n stage.

    ``f`` is the tuple :func:`tight_epsilon_factors` built, ``stage`` the
    tuple :func:`tight_epsilon_n_stage` built, or a slice of each of its
    entries; its entries broadcast against the factors.  The result is 1-D,
    flattened in C order of the broadcast shape.
    """
    t1, t2, t3, t4, t5 = _stage_terms(f, stage)
    return np.ravel(t1 + t2 + t3 + t4 + t5)


def tight_epsilon_at_n(f, n) -> np.ndarray:
    """The budget at trial count n: :func:`tight_epsilon_at_stage` on the stage of n.

    ``f`` is the tuple :func:`tight_epsilon_factors` built, n a scalar or
    an array (integer or float) that broadcasts against its entries.  The
    result is 1-D, flattened in C order of the broadcast shape.
    """
    return tight_epsilon_at_stage(f, tight_epsilon_n_stage(n))


def tight_epsilon_lower(q, x, d: int, delta: float):
    """Lower bound on each tight summand over every (n, p) with n*p*(1-p) <= x.

    The five terms at the worst noise shape, psym = pmax = 1/2, with s1
    bounded below by min((x+1)/(2x^3), (3x+2)/(4x(x+1/4)(x+1/2))); the
    first form holds for large x only, the second everywhere (1 - 3p(1-p)
    >= 1/4 and p(1-p) <= 1/4).  Every term is non-increasing in x and
    non-decreasing in q.  q and x broadcast like the kernel's arguments.
    """
    s1 = np.minimum((x + 1.0) / (2.0 * x**3), (3.0 * x + 2.0) / (4.0 * x * (x + 0.25) * (x + 0.5)))
    return _tight_terms(tight_epsilon_factors(q, 0.5, d, delta), x, s1)


def tight_epsilon_value(q: int, n: int, p: float, d: int, delta: float) -> float:
    """Tight budget estimate without the variance-floor gate of :func:`epsilon_tight`.

    A Python float, bit-identical to the matching :func:`tight_epsilon_at_n`
    element.
    """
    return tight_epsilon_at_n(tight_epsilon_factors(q, p, d, delta), n).item()


def epsilon_baseline(q: int, n: int, p: float, ctx: PrivacyContext) -> float:
    """Certified classical privacy budget for one aggregation round, gated like :func:`epsilon_tight`."""
    _gate(q, n, p, ctx)
    return baseline_epsilon_value(q, n, p, ctx.d, ctx.delta)


def epsilon_tight(q: int, n: int, p: float, ctx: PrivacyContext) -> float:
    """Certified tight privacy budget for one aggregation round.

    Raises :class:`NotApplicableError` where n < :func:`min_trials` (never below the smallest n
    of the float product form K*n*p*(1-p) >= thr(q), at rounding edges one above it), and
    ValueError outside q >= 2, n >= 2, 0 < p < 1.

    Symmetric in p around 1/2, strictly decreasing in n and strictly
    increasing in q.  Below :func:`epsilon_baseline` wherever n*p*(1-p)
    alone clears the variance floor; with many devices the floor admits
    smaller n*p*(1-p), where it can exceed it (75,140 against 72,262 at
    q=946, n=64, p=1/2, d=1e7, delta=1e-2, K=1000).
    """
    _gate(q, n, p, ctx)
    return tight_epsilon_value(q, n, p, ctx.d, ctx.delta)
