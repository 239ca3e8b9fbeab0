"""Desk-scale federated SGD with stochastic quantization and Binomial noise.

One round: the server state is broadcast, each selected device computes a
local gradient, caps it to [-D, D], stochastically rounds every coordinate
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

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergedError
from .privacy import MechanismParams
from .solver import Solution
from .wireless import SystemParams

TRACE_COLUMNS = ("round", "loss", "grad_norm_sq", "bias_sample", "bits")
FLOAT32_BITS = 32


@dataclass(frozen=True)
class ConvergenceParams:
    """Smoothness/accuracy constants controlling step size and round counts.

    L: smoothness constant, G: per-coordinate gradient bound, G_f: initial
    optimality gap, theta: target squared-gradient accuracy, capital_lambda:
    allowed failure probability of reaching it, gamma: learning rate.
    """

    L: float
    G: float
    G_f: float
    theta: float
    capital_lambda: float
    gamma: float

    def __post_init__(self):
        for name in ("L", "G", "G_f", "gamma"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if not (0.0 < self.theta <= 1.0):
            raise ValueError(f"theta must lie in (0, 1], got {self.theta}")
        if not (0.0 < self.capital_lambda < 1.0):
            raise ValueError(f"capital_lambda must lie in (0, 1), got {self.capital_lambda}")

    @classmethod
    def auto(
        cls,
        L: float,
        G: float,
        G_f: float,
        theta: float,
        capital_lambda: float,
        sigma_sq: float,
        rounds: int,
    ) -> "ConvergenceParams":
        """Set the learning rate to min{1/L, sqrt(2 G_f)/(sigma sqrt(L rounds))}."""
        if sigma_sq > 0.0:
            gamma = min(1.0 / L, math.sqrt(2.0 * G_f) / (math.sqrt(sigma_sq) * math.sqrt(L * rounds)))
        else:
            gamma = 1.0 / L
        return cls(L=L, G=G, G_f=G_f, theta=theta, capital_lambda=capital_lambda, gamma=gamma)


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

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(TRACE_COLUMNS)
            for t in range(self.rounds):
                writer.writerow(
                    [t, repr(self.loss[t]), repr(self.grad_norm_sq[t]),
                     repr(self.bias_sample[t]), self.bits[t]]
                )

    @classmethod
    def from_csv(cls, path) -> "SimTrace":
        trace = cls()
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            if tuple(header) != TRACE_COLUMNS:
                raise ValueError(f"unexpected trace header {header}")
            for row in reader:
                trace.append(float(row[1]), float(row[2]), float(row[3]), int(row[4]))
        return trace


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
    finite; any outside [-D, D] land on the end levels, so cap them first.
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


def _cap_gradients(grads: np.ndarray, D: float, mode: str) -> np.ndarray:
    if mode == "clip":
        return np.minimum(np.maximum(grads, -D), D)
    if mode == "scale":
        # per-device rescale: shrink the whole row only when it overflows the cap
        peak = np.max(np.abs(grads), axis=-1, keepdims=True)
        factor = np.maximum(1.0, peak / D)
        return grads / factor
    raise ValueError(f"rescale mode must be 'clip' or 'scale', got {mode!r}")


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


def theoretical_bounds(
    sys: SystemParams, sol: Solution, conv: ConvergenceParams
) -> TheoreticalBounds:
    """Closed-form bounds on the gradient-sampling variance and the bias."""
    d, G, K, M = sys.d, conv.G, sys.K, sys.M
    x = sol.n * sol.p * (1.0 - sol.p)
    denom = K * (sol.q - 1) ** 2
    return TheoreticalBounds(
        u_hi=4.0 * ((M - K) / M) ** 2 * d * G * G,
        u_hi_iid=8.0 * (M - K) / M**2 * d * G * G / K,
        b_lo=4.0 * d * G * G * x / denom,
        b_hi=4.0 * d * G * G * (1.0 + x) / denom,
    )


def measure_bias(
    task,
    sol: Solution,
    trials: int,
    rng: np.random.Generator,
    w: np.ndarray | None = None,
    rescale: str = "clip",
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
    capped = _cap_gradients(grads, mech.D, rescale)
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
    conv: ConvergenceParams | None = None,
    rescale: str = "clip",
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
        if conv is not None:
            gamma = conv.gamma
        else:
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
            capped = _cap_gradients(grads, mech.D, rescale)
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


def iterations_estimate(conv: ConvergenceParams, sigma_sq: float) -> IterationsEstimate:
    """Rounds needed for a (theta, capital_lambda)-accurate point.

    ``exact`` is the closed-form count; ``order_form`` is the simplified
    1/(theta*Lambda) + sigma^2/(theta*Lambda)^2 shape for display.
    """
    if sigma_sq < 0.0:
        raise ValueError(f"sigma_sq must be >= 0, got {sigma_sq}")
    sigma = math.sqrt(sigma_sq)
    lg = conv.L * conv.G_f
    tl = conv.theta * conv.capital_lambda
    exact = ((lg * sigma + math.sqrt(lg * lg * sigma_sq + tl * lg * lg)) / tl) ** 2
    order = 1.0 / tl + sigma_sq / tl**2
    return IterationsEstimate(exact=exact, order_form=order)
