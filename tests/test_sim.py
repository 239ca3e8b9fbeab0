"""Quantizer, wire payload, server mean, bounds, and the training loop."""

import contextlib
import io
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from binomfl import sim as simmod
from binomfl.cli import main
from binomfl.errors import ConfigError, DivergedError
from binomfl.privacy import MechanismParams
from binomfl.sim import (
    TRACE_COLUMNS,
    _cap_gradients,
    _mean_rows,
    _privatized_mean,
    bits_per_coord,
    comm_cost,
    dequantize,
    iterations_estimate,
    learning_rate,
    measure_bias,
    privatize,
    run_fsgd,
    theoretical_bounds,
)
from binomfl.solver import Solution, objective
from binomfl.tasks import LogisticRegressionTask, QuadraticBowlTask
from binomfl.wireless import SystemParams

from conftest import FixedGradientTask


def flat_system(K, M, d):
    return SystemParams(K=K, M=M, d=d, delta=1e-5, T=1.0, W=1000.0, omega0=1.0,
                        p_min=1e-6, p_max=10.0, gains=tuple([2.0] * K))


def make_solution(q, n, p, K):
    return Solution(q=q, n=n, p=p, powers=(0.5,) * K,
                    objective=objective(q, n, p), epsilon_achieved=1.0)


class _NoiselessBinomial:
    """Generator stand-in whose binomial draws equal their mean exactly."""

    def __init__(self, n, p, seed=0):
        assert (n * p) == int(n * p)
        self._mean = int(n * p)
        self._rng = np.random.default_rng(seed)

    def random(self, size=None):
        return self._rng.random(size)

    def binomial(self, n, p, size=None):
        return np.full(size, self._mean, dtype=np.int64)

    def choice(self, *args, **kwargs):
        return self._rng.choice(*args, **kwargs)


def quantizer_index(g, mech, seed=0):
    """Grid index of every entry of the block g: the payload minus its noise,
    with the noise frozen at its mean n*p."""
    noiseless = _NoiselessBinomial(mech.n, mech.p, seed)
    return privatize(np.asarray(g, dtype=np.float64), mech, noiseless) - noiseless._mean


class TestQuantizeCoord:
    def test_endpoints_deterministic(self):
        mech = MechanismParams(q=3, n=4, p=0.5, D=1.0)
        idx = quantizer_index(np.tile([-1.0, 1.0], (200, 1)), mech)
        assert np.array_equal(idx, np.tile([0, 2], (200, 1)))

    def test_grid_value_never_moves(self):
        # g exactly on level 1 of the 3-level grid over [-1, 1]
        mech = MechanismParams(q=3, n=4, p=0.5, D=1.0)
        assert np.all(quantizer_index(np.zeros((500, 1)), mech) == 1)

    def test_quarter_point_distribution(self):
        # g = 0.25 sits a quarter of the way from level 1 to level 2
        mech = MechanismParams(q=3, n=4, p=0.5, D=1.0)
        draws = quantizer_index(np.full((1, 100_000), 0.25), mech)
        assert set(np.unique(draws)) <= {1, 2}
        values = -1.0 + mech.s * draws
        # mean of the represented value must be g; var = s^2 * 0.25 * 0.75
        stderr = math.sqrt(0.25 * 0.75 * mech.s**2 / draws.size)
        assert abs(values.mean() - 0.25) <= 5.0 * stderr

    def test_uncapped_input_lands_on_end_levels(self):
        mech = MechanismParams(q=5, n=4, p=0.5, D=1.0)
        idx = quantizer_index(np.tile([-7.0, -1.5, 1.5, 7.0], (50, 1)), mech)
        assert np.array_equal(idx, np.tile([0, 0, 4, 4], (50, 1)))

    def test_unbiased_across_random_setups(self, rng):
        # spot unbiasedness over random (g, D, q) at moderate draw counts
        for seed in range(30):
            q = int(rng.integers(2, 17))
            D = float(rng.uniform(0.1, 5.0))
            g = float(rng.uniform(-D, D))
            mech = MechanismParams(q=q, n=4, p=0.5, D=D)
            idx = quantizer_index(np.full((4000, 1), g), mech, seed)
            values = -D + mech.s * idx
            stderr = math.sqrt(mech.s**2 / 4.0 / idx.size)
            assert abs(values.mean() - g) <= 5.0 * stderr


class TestPrivatize:
    def test_payload_range_and_bits(self, rng):
        mech = MechanismParams(q=5, n=12, p=0.5, D=1.0)
        g = rng.uniform(-1, 1, size=(3, 64))
        payload = privatize(g, mech, rng)
        assert payload.dtype == np.int64 and payload.shape == (3, 64)
        assert payload.min() >= 0 and payload.max() <= 5 - 1 + 12
        assert payload.size * bits_per_coord(5, 12) == 3 * 64 * math.ceil(math.log2(5 + 12))

    def test_dequantized_mean_matches_input(self, rng):
        mech = MechanismParams(q=9, n=32, p=0.3, D=2.0)
        g = rng.uniform(-2, 2, size=50)
        trials = 3000
        est = dequantize(privatize(np.tile(g, (trials, 1)), mech, rng), mech).mean(axis=0)
        per_coord_var = mech.s**2 * (0.25 + 32 * 0.3 * 0.7)
        stderr = math.sqrt(per_coord_var / trials)
        assert np.max(np.abs(est - g)) <= 5.0 * stderr * math.sqrt(math.log(50))

    def test_small_trial_counts_rejected_by_type(self):
        with pytest.raises(ValueError):
            MechanismParams(q=5, n=0, p=0.5, D=1.0)
        with pytest.raises(ValueError):
            MechanismParams(q=5, n=1, p=0.5, D=1.0)


class TestAggregate:
    def test_single_device_zero_noise_recovers_grid_gradient(self):
        # dyadic grid (D=1, q=5 -> s=1/2) and a frozen noise draw equal to
        # its mean make the whole pipeline exact
        mech = MechanismParams(q=5, n=4, p=0.5, D=1.0)
        g = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
        out = _privatized_mean(g[None, :], mech, _NoiselessBinomial(4, 0.5))
        assert np.array_equal(out, g)

    def test_identical_updates_average_to_one(self, rng):
        mech = MechanismParams(q=5, n=4, p=0.5, D=1.0)
        payload = privatize(rng.uniform(-1, 1, size=(1, 16)), mech, rng)
        out = _mean_rows(dequantize(np.repeat(payload, 7, axis=0), mech))
        np.testing.assert_allclose(out, dequantize(payload, mech)[0], rtol=1e-12)

    def test_empirical_mean_matches_clean_average(self, rng):
        mech = MechanismParams(q=7, n=16, p=0.5, D=1.0)
        grads = rng.uniform(-1, 1, size=(4, 8))
        clean = grads.mean(axis=0)
        acc = np.zeros(8)
        trials = 10_000
        for _ in range(trials):
            acc += _privatized_mean(grads, mech, rng)
        est = acc / trials
        per_coord_var = mech.s**2 * (0.25 + 16 * 0.25) / 4
        stderr = math.sqrt(per_coord_var / trials)
        assert np.max(np.abs(est - clean)) <= 5.0 * stderr * math.sqrt(math.log(8))


class TestTheoreticalBounds:
    def test_spot_values(self):
        # d=10, G=1, K=5, M=10, (q,n,p) = (3,100,1/2):
        # u_hi = 4*(5/10)^2 = 1, u_iid = 8*5/100/5 = 0.08 (||g||_2 <= G),
        # b_lo = 4*10*25/(5*4) = 50, b_hi = 4*10*26/(5*4) = 52 (noise on each of d coords)
        sys = flat_system(K=5, M=10, d=10)
        b = theoretical_bounds(sys, make_solution(3, 100, 0.5, 5), 1.0)
        assert b.u_hi == pytest.approx(1.0, rel=1e-14)
        assert b.u_hi_iid == pytest.approx(0.08, rel=1e-14)
        assert b.b_lo == pytest.approx(50.0, rel=1e-14)
        assert b.b_hi == pytest.approx(52.0, rel=1e-14)

    def test_full_participation_kills_sampling_variance(self):
        sys = flat_system(K=10, M=10, d=3)
        b = theoretical_bounds(sys, make_solution(3, 100, 0.5, 10), 1.0)
        assert b.u_hi == 0.0 and b.u_hi_iid == 0.0

    def test_bias_bounds_ratio_tends_to_one(self):
        sys = flat_system(K=5, M=10, d=10)
        prev_ratio = math.inf
        for n in (10, 100, 10_000, 1_000_000):
            b = theoretical_bounds(sys, make_solution(3, n, 0.5, 5), 1.0)
            ratio = b.b_hi / b.b_lo
            assert ratio < prev_ratio
            prev_ratio = ratio
        assert prev_ratio == pytest.approx(1.0, abs=1e-5)


class TestMeasureBias:
    def test_doubling_k_halves_bias(self, rng):
        d = 40
        grads = rng.uniform(-1, 1, size=(64, d))
        task = FixedGradientTask(grads, grad_bound=1.0)
        est_small = measure_bias(task, make_solution(9, 64, 0.5, 8), 3000, rng)
        est_big = measure_bias(task, make_solution(9, 64, 0.5, 16), 3000, rng)
        ratio = est_big.mean / est_small.mean
        assert ratio == pytest.approx(0.5, abs=0.1)

    def test_quantization_only_bias_below_unit_term(self, rng):
        # freezing the noise at its mean leaves only rounding error, which
        # stays under the '1' part of the bias upper bound
        d, K, q, n, p = 30, 6, 9, 64, 0.5
        grads = rng.uniform(-1, 1, size=(K, d))
        task = FixedGradientTask(grads, grad_bound=1.0)
        frozen = _NoiselessBinomial(n, p, seed=3)
        est = measure_bias(task, make_solution(q, n, p, K), 2000, frozen)
        unit_term = 4.0 * d * 1.0 / (K * (q - 1) ** 2)
        assert est.mean <= unit_term


class TestRunFsgd:
    def test_full_batch_quadratic_descends_monotonically(self, rng):
        task = QuadraticBowlTask(d=12, M=16, seed=4)
        sys = flat_system(K=16, M=16, d=12)
        trace = run_fsgd(task, sys, None, 80, rng, gamma=0.9 / task.smoothness)
        assert all(b <= a + 1e-12 for a, b in zip(trace.loss, trace.loss[1:]))

    def test_seeded_runs_identical(self):
        task = QuadraticBowlTask(d=8, M=20, seed=4)
        sys = flat_system(K=5, M=20, d=8)
        sol = make_solution(9, 32, 0.5, 5)
        a = run_fsgd(task, sys, sol, 40, np.random.default_rng(11), gamma=1.0 / task.smoothness)
        b = run_fsgd(task, sys, sol, 40, np.random.default_rng(11), gamma=1.0 / task.smoothness)
        assert a.loss == b.loss and a.grad_norm_sq == b.grad_norm_sq
        assert a.bias_sample == b.bias_sample and a.bits == b.bits

    def test_diverged_signals(self, rng):
        task = QuadraticBowlTask(d=8, M=10, seed=4)
        sys = flat_system(K=10, M=10, d=8)
        with np.errstate(over="ignore"), pytest.raises(DivergedError):
            run_fsgd(task, sys, None, 2000, rng, gamma=1e8)

    def test_full_participation_sampling_error_is_zero_exactly(self):
        # integer gradient table and a power-of-two population make the
        # permuted device mean exact, so g equals the full average bitwise
        rng = np.random.default_rng(0)
        grads = rng.integers(-8, 9, size=(8, 6)).astype(np.float64)
        task = FixedGradientTask(grads, grad_bound=8.0)
        full_mean = grads.mean(axis=0)
        sel = rng.permutation(8)
        assert np.array_equal(task.device_gradients(None, sel).mean(axis=0), full_mean)

    def test_payload_accounting_matches_formula(self, rng):
        task = QuadraticBowlTask(d=8, M=20, seed=4)
        sys = flat_system(K=5, M=20, d=8)
        sol = make_solution(9, 32, 0.5, 5)
        trace = run_fsgd(task, sys, sol, 25, rng, gamma=1.0 / task.smoothness)
        assert trace.total_bits == comm_cost(25, 5, 8, 9, 32)

    def test_baseline_counts_float_width(self, rng):
        task = QuadraticBowlTask(d=8, M=20, seed=4)
        sys = flat_system(K=5, M=20, d=8)
        trace = run_fsgd(task, sys, None, 3, rng, gamma=1.0 / task.smoothness)
        assert trace.bits == [5 * 8 * 32] * 3


class TestIterationsEstimate:
    # L, G_f, theta, capital_lambda
    CONV = (2.0, 3.0, 0.1, 0.05)

    def test_zero_noise_closed_form(self):
        # reduces to (L G_f)^2 / (theta Lambda)
        est = iterations_estimate(*self.CONV, 0.0)
        assert est.exact == pytest.approx(7200.0, rel=1e-12)

    def test_reference_value(self):
        est = iterations_estimate(*self.CONV, 1.5**2)
        assert est.exact == pytest.approx(12974396.004438281191, rel=1e-12)

    def test_monotone_in_noise(self):
        prev = 0.0
        for s2 in (0.0, 0.5, 1.0, 4.0, 16.0):
            cur = iterations_estimate(*self.CONV, s2).exact
            assert cur > prev or s2 == 0.0
            prev = cur

    def test_scaling_with_accuracy_product(self):
        tighter = (2.0, 3.0, 0.2, 0.1)
        assert iterations_estimate(*tighter, 1.0).exact < iterations_estimate(*self.CONV, 1.0).exact

    def test_tiny_theta_overflows_the_round_count(self):
        with pytest.raises(ConfigError, match="so small that the round count overflows"):
            iterations_estimate(2.0, 3.0, 1e-300, 0.05, 1.5**2)


class TestCommCost:
    def test_minimal_case(self):
        assert comm_cost(1, 1, 1, 2, 2) == 2

    def test_linear_in_rounds_and_devices(self):
        base = comm_cost(10, 7, 5, 4, 12)
        assert comm_cost(20, 7, 5, 4, 12) == 2 * base
        assert comm_cost(10, 14, 5, 4, 12) == 2 * base

    def test_beats_float_baseline_when_narrow(self, rng):
        for _ in range(20):
            q = int(rng.integers(2, 300))
            n = int(rng.integers(2, 60000))
            if bits_per_coord(q, n) < 32:
                assert comm_cost(5, 3, 11, q, n) < 5 * 3 * 11 * 32

    def test_integral_floats_count_as_ints(self):
        # each once raised AttributeError: 'float' object has no attribute 'bit_length'
        assert comm_cost(1, 1, 1, 8.0, 241) == comm_cost(1, 1, 1, 8, 241) == 8
        assert bits_per_coord(8, 241.0) == bits_per_coord(8, 241) == 8

    # the first once returned 12.0
    @pytest.mark.parametrize("args", [(1.5, 1, 1, 8, 241), (1, 2.5, 1, 8, 241), (1, 1, 0.5, 8, 241),
                                      (1, 1, 1, 8.5, 241), (1, 1, 1, 8, 241.5), (1, 1, 1, True, 241),
                                      (0, 1, 1, 8, 241)])
    def test_fractional_or_boolean_count_rejected(self, args):
        with pytest.raises(ValueError):
            comm_cost(*args)


def _fsgd(rounds=1, gamma=0.1):
    return run_fsgd(QuadraticBowlTask(d=4, M=2, seed=0), flat_system(2, 2, 4), None, rounds,
                    np.random.default_rng(0), gamma=gamma)


def _bias(trials):
    return measure_bias(QuadraticBowlTask(d=4, M=2, seed=0), make_solution(9, 32, 0.5, 2), trials,
                        np.random.default_rng(0))


# each boundary check of the training loop, the bias probe, the round-count
# estimate and the task constructors, with a piece of its message; a
# boolean round count once ran one round, a fractional count or trial
# number raised numpy's or range's TypeError, and a NaN step was reported
# as divergence
@pytest.mark.parametrize("call, message", [
    (lambda: _fsgd(rounds=0), "rounds must be an integer >= 1"),
    (lambda: _fsgd(rounds=True), "rounds must be an integer >= 1"),
    (lambda: _fsgd(rounds=2.5), "rounds must be an integer >= 1"),
    (lambda: _fsgd(gamma=math.nan), "gamma must be finite and > 0"),
    (lambda: _fsgd(gamma=math.inf), "gamma must be finite and > 0"),
    (lambda: _fsgd(gamma=0.0), "gamma must be finite and > 0"),
    (lambda: _fsgd(gamma=-0.1), "gamma must be finite and > 0"),
    (lambda: run_fsgd(QuadraticBowlTask(d=3, M=2, seed=0), flat_system(2, 2, 4), None, 1,
                      np.random.default_rng(0), gamma=0.1), "task dimension 3 != system dimension 4"),
    (lambda: _bias(1), "trials must be an integer >= 2"),
    (lambda: _bias(2.5), "trials must be an integer >= 2"),
    (lambda: _bias(True), "trials must be an integer >= 2"),
    (lambda: iterations_estimate(1.0, 1.0, 0.5, 0.5, -1e-12), "sigma_sq must be >= 0"),
    (lambda: QuadraticBowlTask(d=0, M=2, seed=0), "d and M must be >= 1"),
    (lambda: LogisticRegressionTask(d=4, M=2, samples_per_device=0), "samples_per_device must be >= 1"),
    (lambda: LogisticRegressionTask(d=4, M=2, l2=-0.1), "l2 must be >= 0"),
    (lambda: LogisticRegressionTask(d=4, M=2, l2=math.nan), "l2 must be >= 0 and finite, got nan"),
    (lambda: LogisticRegressionTask(d=4, M=2, l2=math.inf), "l2 must be >= 0 and finite, got inf"),
    (lambda: FixedGradientTask(np.zeros(3), grad_bound=1.0), r"shape \(M, d\)"),
], ids=["fsgd-rounds", "fsgd-rounds-bool", "fsgd-rounds-fraction", "fsgd-gamma-nan", "fsgd-gamma-inf",
        "fsgd-gamma-zero", "fsgd-gamma-negative", "fsgd-dimension", "bias-trials", "bias-trials-fraction",
        "bias-trials-bool", "iterations-sigma", "quadratic-d", "logistic-samples", "logistic-l2", "logistic-l2-nan",
        "logistic-l2-inf", "fixed-shape"])
def test_boundary_argument_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()


DESK_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "desk.yaml"


class TestTraceCsv:
    def test_roundtrip_exact(self, tmp_path, monkeypatch):
        # every trace desk simulate writes reads back to the exact floats
        # and bits it ran with
        traces = []

        def recording_run_fsgd(*args, **kwargs):
            traces.append(run_fsgd(*args, **kwargs))
            return traces[-1]

        monkeypatch.setattr(simmod, "run_fsgd", recording_run_fsgd)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["simulate", "--config", str(DESK_CONFIG), "--out", str(tmp_path)]) == 0
        names = ["baseline", "optimized", "suboptimal"]
        assert len(traces) == len(names)
        for name, trace in zip(names, traces):
            text = (tmp_path / f"trace_{name}.csv").read_bytes().decode("ascii")
            header, *lines = text.split("\n")[:-1]
            rows = [line.split(",") for line in lines]
            assert header == ",".join(TRACE_COLUMNS)
            assert [int(r[0]) for r in rows] == list(range(trace.rounds))
            assert [float(r[1]) for r in rows] == trace.loss
            assert [float(r[2]) for r in rows] == trace.grad_norm_sq
            assert [float(r[3]) for r in rows] == trace.bias_sample
            assert [int(r[4]) for r in rows] == trace.bits


class TestLearningRate:
    def test_caps_at_inverse_smoothness(self):
        assert learning_rate(L=4.0, G_f=1.0, sigma_sq=0.0, rounds=100) == 0.25

    def test_noise_branch(self):
        gamma = learning_rate(L=1.0, G_f=2.0, sigma_sq=400.0, rounds=100)
        assert gamma == pytest.approx(math.sqrt(4.0) / (20.0 * math.sqrt(100.0)))


class TestCapGradients:
    @settings(max_examples=300, deadline=None)
    @given(rows=hnp.arrays(np.float64, st.tuples(st.integers(1, 12), st.integers(1, 48)),
                           elements=st.floats(-1.0, 1.0)),
           scale=st.floats(1e-6, 1e300), D=st.floats(1e-3, 1e3))
    def test_clips_each_row_to_l2_norm(self, rows, scale, D):
        grads = rows * scale
        out = _cap_gradients(grads, D)
        assert out.shape == grads.shape
        for row, capped in zip(grads, out):
            # the output norm in exact sums of the rounded squares; the
            # input's squares may overflow, so its norm comes from hypot
            norm = math.hypot(*row)
            assert math.sqrt(math.fsum(capped * capped)) <= D + 4 * np.spacing(D)
            if norm <= D * (1 - 1e-12):
                # bit-identical, -0.0 included
                assert np.array_equal(capped, row) and np.array_equal(np.signbit(capped), np.signbit(row))
            elif norm > D * (1 + 1e-12):
                # shrunk to the sphere along the same direction
                assert math.fsum(capped * row) / (D * norm) == pytest.approx(1.0, rel=1e-12)

    def test_finite_row_whose_squares_overflow(self):
        # 1e200**2 overflows, yet the row is finite and clips to (1, 3e-200);
        # the row inside the ball keeps its bits
        out = _cap_gradients(np.array([[1e200, 3.0], [0.3, -0.4]]), 1.0)
        assert out.tolist() == [[1.0, 3e-200], [0.3, -0.4]]


class TestGradBound:
    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 24), M=st.integers(1, 12), S=st.integers(1, 30), seed=st.integers(0, 2**32 - 1))
    def test_logistic_bound_holds_at_start_and_at_truth(self, d, M, S, seed):
        task = LogisticRegressionTask(d=d, M=M, samples_per_device=S, seed=seed)
        for w in (np.zeros(d), task.w_true):
            grads = task.device_gradients(w, range(M))
            assert np.all(np.linalg.norm(grads, axis=1) <= task.grad_bound)

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 24), M=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
    def test_quadratic_bound_holds_at_start_and_at_optimum(self, d, M, seed):
        task = QuadraticBowlTask(d=d, M=M, seed=seed)
        for w in (np.zeros(d), task.centers.mean(axis=0)):
            grads = task.device_gradients(w, range(M))
            assert np.all(np.linalg.norm(grads, axis=1) <= task.grad_bound)
