"""The simulator's round and bias trial against their earlier loop forms.

The ``_ref_*`` functions below are kept verbatim from the version of
``tasks.py`` and ``sim.py`` that computed each FSGD round and bias trial
with masked gathers, ``np.clip`` and ``np.mean``, with two exceptions:
``_ref_cap_gradients`` is the l2 clip written one row at a time, and the
references follow the current task protocol (they start at w = 0, take
the step as an argument and read ``grad_bound`` as an attribute).  The
current code must reproduce them bit for bit and draw from the generator
in the same order, so every comparison here is exact: ``==`` on floats,
``array_equal`` on arrays, and equal generator states after the run.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from binomfl.errors import DivergedError
from binomfl.privacy import MechanismParams
from binomfl.sim import FLOAT32_BITS, SimTrace, bits_per_coord, measure_bias, run_fsgd
from binomfl.solver import Solution, objective
from binomfl.tasks import LogisticRegressionTask, QuadraticBowlTask, _sigmoid
from binomfl.wireless import SystemParams

from conftest import FixedGradientTask

# -- reference forms ---------------------------------------------------------


def _ref_sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _ref_logistic_loss(self, w: np.ndarray) -> float:
    logits = self.X @ w
    # stable log(1 + exp(z)) - y*z
    ce = np.logaddexp(0.0, logits) - self.y * logits
    return float(ce.mean()) + 0.5 * self.l2 * float(w @ w)


def _ref_logistic_gradients(self, w: np.ndarray, devices) -> np.ndarray:
    ks = np.asarray(devices)
    X = self.X[ks]
    resid = _ref_sigmoid(X @ w) - self.y[ks]
    return np.einsum("kij,ki->kj", X, resid) / self.n_per + self.l2 * w[None, :]


class _RefTask:
    """A task whose logistic loss and gradients run the reference forms."""

    def __init__(self, task):
        self._task = task
        self.M, self.d = task.M, task.d

    def __getattr__(self, name):
        return getattr(self._task, name)

    def loss(self, w):
        if isinstance(self._task, LogisticRegressionTask):
            return _ref_logistic_loss(self._task, w)
        return self._task.loss(w)

    def device_gradients(self, w, devices):
        if isinstance(self._task, LogisticRegressionTask):
            return _ref_logistic_gradients(self._task, w, devices)
        return self._task.device_gradients(w, devices)


def _ref_quantize_positions(g: np.ndarray, D: float, q: int) -> tuple[np.ndarray, np.ndarray]:
    # grid position t in [0, q-1]; lower level r and carry probability t - r
    t = ((g + D) / (2.0 * D)) * (q - 1)
    r = np.clip(np.floor(t), 0, q - 2)
    return r, t - r


def _ref_cap_gradients(grads: np.ndarray, D: float) -> np.ndarray:
    capped = grads.copy()
    for row in capped:
        norm = math.sqrt(np.sum(row ** 2))
        if norm > D:
            row *= D / norm
    return capped


def _ref_privatized_mean(
    grads: np.ndarray, mech: MechanismParams, rng: np.random.Generator
) -> np.ndarray:
    """Vectorized privatize + aggregate over a (K, d) gradient block."""
    r, frac = _ref_quantize_positions(grads, mech.D, mech.q)
    j = r + (rng.random(grads.shape) < frac)
    z = rng.binomial(mech.n, mech.p, size=grads.shape)
    values = mech.s * (j + z) - mech.D - mech.s * mech.n * mech.p
    return values.mean(axis=0)


def _ref_measure_bias(task, sol, trials, rng):
    if trials < 2:
        raise ValueError(f"need at least 2 trials, got {trials}")
    K = len(sol.powers)
    grads = task.device_gradients(np.zeros(task.d), list(range(K)))
    mech = MechanismParams(q=sol.q, n=sol.n, p=sol.p, D=task.grad_bound)
    capped = _ref_cap_gradients(grads, mech.D)
    clean = capped.mean(axis=0)
    samples = np.empty(trials)
    for t in range(trials):
        noisy = _ref_privatized_mean(capped, mech, rng)
        diff = noisy - clean
        samples[t] = diff @ diff
    mean = float(samples.mean())
    stderr = float(samples.std(ddof=1) / math.sqrt(trials))
    return mean, stderr, trials


def _ref_run_fsgd(task, sys, sol, rounds, rng, gamma):
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    if task.d != sys.d:
        raise ValueError(f"task dimension {task.d} != system dimension {sys.d}")
    mech = None
    if sol is not None:
        mech = MechanismParams(q=sol.q, n=sol.n, p=sol.p, D=task.grad_bound)
        round_bits = sys.K * sys.d * bits_per_coord(sol.q, sol.n)
    else:
        round_bits = sys.K * sys.d * FLOAT32_BITS

    w = np.zeros(task.d)
    trace = SimTrace()
    for _ in range(rounds):
        devices = rng.choice(task.M, size=sys.K, replace=False)
        grads = task.device_gradients(w, devices)
        clean = grads.mean(axis=0)
        if mech is not None:
            capped = _ref_cap_gradients(grads, mech.D)
            step_grad = _ref_privatized_mean(capped, mech, rng)
            diff = step_grad - capped.mean(axis=0)
            bias_sample = float(diff @ diff)
        else:
            step_grad = clean
            bias_sample = 0.0
        w = w - gamma * step_grad
        loss = float(task.loss(w))
        if not math.isfinite(loss):
            raise DivergedError(f"loss became {loss} after round {trace.rounds + 1}")
        trace.append(loss, float(step_grad @ step_grad), bias_sample, round_bits)
    return trace


# -- instances ---------------------------------------------------------------

TASKS = ("logistic-7", "logistic-20", "logistic-25", "quadratic", "fixed")


def make_task(kind: str, d: int, M: int, seed: int):
    if kind.startswith("logistic"):
        S = int(kind.split("-")[1])
        return LogisticRegressionTask(d=d, M=M, samples_per_device=S, seed=seed)
    if kind == "quadratic":
        return QuadraticBowlTask(d=d, M=M, seed=seed)
    rng = np.random.default_rng(seed)
    bound = float(rng.uniform(0.2, 3.0))
    # most rows overflow the l2 bound (all but some at d = 1), so the clip bites
    return FixedGradientTask(rng.normal(0.0, bound, size=(M, d)), grad_bound=bound)


def make_system(K: int, M: int, d: int) -> SystemParams:
    return SystemParams(K=K, M=M, d=d, delta=1e-5, T=1.0, W=1000.0, omega0=1.0,
                        p_min=1e-6, p_max=10.0, gains=(2.0,) * K)


def make_solution(q: int, n: int, p: float, K: int) -> Solution:
    return Solution(q=q, n=n, p=p, powers=(0.5,) * K,
                    objective=objective(q, n, p), epsilon_achieved=1.0)


def _outcome(fn):
    try:
        trace = fn()
    except DivergedError as exc:
        return "diverged", str(exc)
    return "ok", (trace.loss, trace.grad_norm_sq, trace.bias_sample, trace.bits)


instance = st.fixed_dictionaries({
    "d": st.integers(1, 48),
    "M": st.integers(2, 40),
    "k_frac": st.floats(0.05, 1.0),
    "seed": st.integers(0, 2**32 - 1),
    "q": st.integers(2, 300),
    "n": st.integers(2, 5000),
    "p": st.floats(0.01, 0.99),
})


# -- tests -------------------------------------------------------------------

floats_any = st.floats(allow_nan=True, allow_infinity=True, width=64)
special = st.sampled_from([0.0, -0.0, 709.8, -709.8, 710.0, -710.0, 745.0, -745.0,
                           746.0, -746.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324])


@settings(max_examples=300, deadline=None)
@given(z=hnp.arrays(np.float64, hnp.array_shapes(max_dims=3, max_side=40),
                    elements=st.one_of(floats_any, special)))
def test_sigmoid_matches_masked_form(z):
    got, ref = _sigmoid(z), _ref_sigmoid(z)
    assert got.shape == ref.shape and got.dtype == ref.dtype
    assert np.array_equal(got, ref, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(ref))


@pytest.mark.parametrize("S", [7, 20, 25])
@settings(max_examples=25, deadline=None)
@given(d=st.integers(1, 64), M=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
       scale=st.floats(1e-3, 1e3))
def test_logistic_loss_matches_mean_form(S, d, M, seed, scale):
    task = LogisticRegressionTask(d=d, M=M, samples_per_device=S, seed=seed % 1000)
    w = np.random.default_rng(seed).normal(0.0, scale, size=d)
    assert task.loss(w) == _ref_logistic_loss(task, w)


def test_loss_keeps_per_device_products_at_25_samples():
    # the loss must multiply each device's (S, d) block by w on its own:
    # stacking the blocks into one (M*S, d) product rounds some logits
    # differently whenever S % 4 != 0, which the S = 25 default exposes.
    # The mean over M*S terms hides most of those ulps, and about 1% of
    # these points still move the loss, so many points are needed
    for seed in range(4):
        task = LogisticRegressionTask(d=40, M=60, samples_per_device=25, seed=seed)
        rng = np.random.default_rng(seed)
        points = rng.normal(0.0, 1.0, size=(500, 40)) * rng.uniform(0.01, 1.0, size=(500, 1))
        assert all(task.loss(w) == _ref_logistic_loss(task, w) for w in points)


@pytest.mark.parametrize("kind", TASKS)
@pytest.mark.parametrize("privatized", [False, True])
@settings(max_examples=12, deadline=None)
@given(inst=instance, rounds=st.integers(1, 12), step=st.floats(0.05, 1.5))
def test_run_fsgd_matches_reference(kind, privatized, inst, rounds, step):
    d, M = inst["d"], inst["M"]
    K = max(1, min(M, round(inst["k_frac"] * M)))
    task = make_task(kind, d, M, inst["seed"] % 1000)
    sys = make_system(K, M, d)
    sol = make_solution(inst["q"], inst["n"], inst["p"], K) if privatized else None
    gamma = step / task.smoothness
    rng_new = np.random.default_rng(inst["seed"])
    rng_ref = np.random.default_rng(inst["seed"])
    got = _outcome(lambda: run_fsgd(task, sys, sol, rounds, rng_new, gamma=gamma))
    ref = _outcome(lambda: _ref_run_fsgd(_RefTask(task), sys, sol, rounds, rng_ref, gamma=gamma))
    assert got == ref
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state


@pytest.mark.parametrize("kind", TASKS)
@settings(max_examples=16, deadline=None)
@given(inst=instance, trials=st.integers(2, 40))
def test_measure_bias_matches_reference(kind, inst, trials):
    d, M = inst["d"], inst["M"]
    K = max(1, min(M, round(inst["k_frac"] * M)))
    task = make_task(kind, d, M, inst["seed"] % 1000)
    sol = make_solution(inst["q"], inst["n"], inst["p"], K)
    rng_new = np.random.default_rng(inst["seed"])
    rng_ref = np.random.default_rng(inst["seed"])
    got = measure_bias(task, sol, trials, rng_new)
    ref = _ref_measure_bias(_RefTask(task), sol, trials, rng_ref)
    assert (got.mean, got.stderr, got.trials) == ref
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state
