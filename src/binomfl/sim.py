"""Desk-scale federated SGD with stochastic quantization and Binomial noise.

One round: the server state is broadcast, each selected device computes a
local gradient, clips it to l2 norm D, stochastically rounds every coordinate
onto the q-level grid, adds Binomial(n, p) counts, and ships the integer
indices; the server averages the de-quantized values and takes a step.
The quantizer is mean-preserving and the noise is mean-shifted, so the
whole pipeline is unbiased.

There is one wire path, on a (K, d) block with one row per device:
``privatize`` builds the int64 payload, ``dequantize`` maps it back to
values, and ``_privatized_mean`` averages those over the rows.  A payload
costs ``payload.size * bits_per_coord(q, n)`` bits.

Randomness: every routine takes an explicit ``numpy.random.Generator``;
two runs with equal generators produce bit-identical traces.

The paper's convergence constants are plain functions of the smoothness L,
the initial optimality gap G_f and the noise sigma^2: ``learning_rate`` is
its step size, ``iterations_estimate`` its round count.

``TRACE_COLUMNS`` is the trace schema: the CLI writes a ``SimTrace`` as one
CSV row per round under that header; this module writes no file.

A round is bit-reproducible, and the trace CSVs are pinned byte for byte,
so a rewrite for speed must keep every value's IEEE operations.  Three
things must not change:

* the draw order: ``choice`` of the devices, then ``random`` for the
  rounding and ``binomial`` for the noise, once per round or bias trial;
* the logistic task's stacked ``X @ w``, one (S, d) block per device:
  flattening the blocks into one (M*S, d) product rounds some logits
  differently whenever S % 4 != 0;
* the ``einsum`` of the logistic gradients: ``matmul`` in its place
  rounds differently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DivergedError
from .privacy import MechanismParams
from .solver import Solution
from .wireless import SystemParams

TRACE_COLUMNS = ("round", "loss", "grad_norm_sq", "bias_sample", "bits")
FLOAT32_BITS = 32


@dataclass
class BiasEstimate:
    mean: float
    stderr: float
    trials: int


@dataclass(frozen=True)
class TheoreticalBounds:
    """Closed-form caps on the sampling variance U and injected bias B."""

    u_hi: float
    u_hi_iid: float
    b_lo: float
    b_hi: float


@dataclass(frozen=True)
class IterationsEstimate:
    exact: float
    order_form: float


@dataclass
class SimTrace:
    """Per-round records of one run; one list entry per round."""

    loss: list[float] = field(default_factory=list)
    grad_norm_sq: list[float] = field(default_factory=list)
    bias_sample: list[float] = field(default_factory=list)
    bits: list[int] = field(default_factory=list)

    @property
    def rounds(self) -> int:
        return len(self.loss)

    @property
    def total_bits(self) -> int:
        return sum(self.bits)

    def append(self, loss: float, grad_norm_sq: float, bias_sample: float, bits: int) -> None:
        self.loss.append(float(loss))
        self.grad_norm_sq.append(float(grad_norm_sq))
        self.bias_sample.append(float(bias_sample))
        self.bits.append(int(bits))


def bits_per_coord(q: int, n: int) -> int:
    """Bits to address one of the q + n possible payload values."""
    return (q + n - 1).bit_length()


def comm_cost(rounds: int, K: int, d: int, q: int, n: int) -> int:
    """Total uplink bits of a run: rounds * K * d * ceil(log2(q + n))."""
    if min(rounds, K, d) < 1:
        raise ValueError("rounds, K and d must all be >= 1")
    return rounds * K * d * bits_per_coord(q, n)


def _quantize_positions(g: np.ndarray, D: float, q: int) -> tuple[np.ndarray, np.ndarray]:
    # grid position t in [0, q-1]; lower level r and carry probability t - r
    t = ((g + D) / (2.0 * D)) * (q - 1)
    r = np.minimum(np.maximum(np.floor(t), 0), q - 2)
    return r, t - r


def privatize(
    grads: np.ndarray,
    mech: MechanismParams,
    rng: np.random.Generator,
    positions: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Integer wire payload of a (K, d) block of capped gradients.

    Every coordinate is rounded onto the q-level grid by a mean-preserving
    coin flip (index j in {0, ..., q-1}) and gets Binomial(n, p) counts z;
    the payload j + z lies in [0, q-1+n], so a block costs
    ``payload.size * bits_per_coord(q, n)`` bits.  Coordinates must be
    finite, and each row clipped to l2 norm D: the solver's epsilon holds
    only for such rows.
    ``positions`` is ``_quantize_positions(grads, mech.D, mech.q)`` when the
    caller already holds it for this block.
    """
    r, frac = _quantize_positions(grads, mech.D, mech.q) if positions is None else positions
    j = r + (rng.random(grads.shape) < frac)
    z = rng.binomial(mech.n, mech.p, size=grads.shape)
    return (j + z).astype(np.int64)


def dequantize(payload: np.ndarray, mech: MechanismParams) -> np.ndarray:
    """Server-side value s*(j + z) - D - s*n*p of every payload entry.

    Its expectation over the rounding and the noise is the capped input.
    """
    return mech.s * payload - mech.D - mech.s * mech.n * mech.p


def _cap_gradients(grads: np.ndarray, D: float) -> np.ndarray:
    # scale each row with ||row||_2 > D down to norm D; a row inside the
    # ball is multiplied by D/D == 1.0 exactly, so it comes back bit-identical
    with np.errstate(over="ignore"):
        norms = np.sqrt(np.add.reduce(grads * grads, axis=1, keepdims=True))
    capped = grads * (D / np.maximum(norms, D))
    # a finite row whose squares overflow has an inf norm: clip it divided
    # by its max-abs instead (np.minimum multiplies a row inside the ball
    # back by its max-abs)
    huge = np.isinf(norms[:, 0])
    if huge.any():
        peak = np.max(np.abs(grads[huge]), axis=1, keepdims=True)
        unit = grads[huge] / peak
        capped[huge] = unit * np.minimum(peak, D / np.sqrt(np.add.reduce(unit * unit, axis=1, keepdims=True)))
    return capped


def _mean_rows(x: np.ndarray) -> np.ndarray:
    # x.mean(axis=0) without its wrapper chain: the same sum and division
    return np.add.reduce(x, axis=0) / len(x)


def _privatized_mean(
    grads: np.ndarray,
    mech: MechanismParams,
    rng: np.random.Generator,
    positions: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Server mean of a privatized (K, d) block: the payload, dequantized."""
    return _mean_rows(dequantize(privatize(grads, mech, rng, positions), mech))


def theoretical_bounds(sys: SystemParams, sol: Solution, G: float) -> TheoreticalBounds:
    """Closed-form bounds on the gradient-sampling variance and the bias, for
    the l2 bound G on a device gradient: ||g||_2^2 <= G^2 in the sampling
    terms, noise on d coordinates at pitch s = 2G/(q-1) in the bias terms."""
    d, K, M = sys.d, sys.K, sys.M
    x = sol.n * sol.p * (1.0 - sol.p)
    denom = K * (sol.q - 1) ** 2
    return TheoreticalBounds(
        u_hi=4.0 * ((M - K) / M) ** 2 * G * G,
        u_hi_iid=8.0 * (M - K) / M**2 * G * G / K,
        b_lo=4.0 * d * G * G * x / denom,
        b_hi=4.0 * d * G * G * (1.0 + x) / denom,
    )


def measure_bias(
    task,
    sol: Solution,
    trials: int,
    rng: np.random.Generator,
    w: np.ndarray | None = None,
) -> BiasEstimate:
    """Monte-Carlo estimate of E||g - g_tilde||^2 at one fixed model state.

    g is the clean mean gradient of the first K devices and g_tilde its
    privatized counterpart; only the mechanism randomness varies across
    trials.
    """
    if trials < 2:
        raise ValueError(f"need at least 2 trials, got {trials}")
    K = len(sol.powers)
    if w is None:
        w = task.initial_point()
    grads = task.device_gradients(w, list(range(K)))
    mech = MechanismParams(q=sol.q, n=sol.n, p=sol.p, D=task.grad_bound())
    capped = _cap_gradients(grads, mech.D)
    clean = _mean_rows(capped)
    # the block is fixed, so its quantizer positions are too
    positions = _quantize_positions(capped, mech.D, mech.q)
    samples = np.empty(trials)
    for t in range(trials):
        noisy = _privatized_mean(capped, mech, rng, positions)
        diff = noisy - clean
        samples[t] = diff @ diff
    mean = float(samples.mean())
    stderr = float(samples.std(ddof=1) / math.sqrt(trials))
    return BiasEstimate(mean=mean, stderr=stderr, trials=trials)


def run_fsgd(
    task,
    sys: SystemParams,
    sol: Solution | None,
    rounds: int,
    rng: np.random.Generator,
    gamma: float | None = None,
) -> SimTrace:
    """Federated SGD loop; privatized when ``sol`` is given, plain otherwise.

    Each round selects K of the task's M devices uniformly without
    replacement, averages their (possibly privatized) gradients and takes
    one step.  The plain branch charges 32 bits per coordinate, the
    privatized one the payload's actual index width.  Raises
    :class:`DivergedError` the moment the loss stops being finite.
    """
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    if task.d != sys.d:
        raise ValueError(f"task dimension {task.d} != system dimension {sys.d}")
    if gamma is None:
        gamma = 1.0 / task.smoothness()
    mech = None
    if sol is not None:
        mech = MechanismParams(q=sol.q, n=sol.n, p=sol.p, D=task.grad_bound())
        round_bits = sys.K * sys.d * bits_per_coord(sol.q, sol.n)
    else:
        round_bits = sys.K * sys.d * FLOAT32_BITS

    w = np.array(task.initial_point(), dtype=np.float64, copy=True)
    trace = SimTrace()
    for _ in range(rounds):
        devices = rng.choice(task.M, size=sys.K, replace=False)
        grads = task.device_gradients(w, devices)
        if mech is not None:
            capped = _cap_gradients(grads, mech.D)
            step_grad = _privatized_mean(capped, mech, rng)
            diff = step_grad - _mean_rows(capped)
            bias_sample = float(diff @ diff)
        else:
            step_grad = _mean_rows(grads)
            bias_sample = 0.0
        w = w - gamma * step_grad
        loss = float(task.loss(w))
        if not math.isfinite(loss):
            raise DivergedError(f"loss became {loss} after round {trace.rounds + 1}")
        trace.append(loss, float(step_grad @ step_grad), bias_sample, round_bits)
    return trace


def learning_rate(L: float, G_f: float, sigma_sq: float, rounds: int) -> float:
    """Step size min{1/L, sqrt(2 G_f)/(sigma sqrt(L rounds))}; 1/L without noise."""
    if sigma_sq > 0.0:
        return min(1.0 / L, math.sqrt(2.0 * G_f) / (math.sqrt(sigma_sq) * math.sqrt(L * rounds)))
    return 1.0 / L


def iterations_estimate(L: float, G_f: float, theta: float, capital_lambda: float,
                        sigma_sq: float) -> IterationsEstimate:
    """Rounds needed for a (theta, capital_lambda)-accurate point.

    ``exact`` is the closed-form count; ``order_form`` is the simplified
    1/(theta*Lambda) + sigma^2/(theta*Lambda)^2 shape for display.
    """
    if sigma_sq < 0.0:
        raise ValueError(f"sigma_sq must be >= 0, got {sigma_sq}")
    sigma = math.sqrt(sigma_sq)
    lg = L * G_f
    tl = theta * capital_lambda
    try:
        exact = ((lg * sigma + math.sqrt(lg * lg * sigma_sq + tl * lg * lg)) / tl) ** 2
        order = 1.0 / tl + sigma_sq / tl**2
    except (OverflowError, ZeroDivisionError):
        raise ConfigError(
            f"theta * capital_lambda = {tl:.3g} is so small that the round count overflows"
        ) from None
    return IterationsEstimate(exact=exact, order_form=order)
