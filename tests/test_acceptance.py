"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints one `ACCEPTANCE <k> <name>: PASS (<elapsed>s < <limit>s)`
line on success (visible with -s; pytest -v shows the per-criterion verdict
either way) and enforces its runtime budget.
"""

import contextlib
import math
import time

import numpy as np
import pytest

from binomfl.config import RunConfig
from binomfl.errors import AllInfeasibleError, InfeasibleError, PrivacyInfeasibleError
from binomfl.privacy import (
    PrivacyContext,
    dp_variance_threshold,
    epsilon_baseline,
    epsilon_tight,
    tight_epsilon_at_n,
    tight_epsilon_factors,
    tight_epsilon_lead,
    tight_epsilon_value,
)
from binomfl.sim import (
    bits_per_coord,
    comm_cost,
    learning_rate,
    measure_bias,
    run_fsgd,
    theoretical_bounds,
)
from binomfl.solver import (
    SolverConfig,
    Solution,
    brute_force_solve,
    check_solution,
    eta_and_mu_values,
    lockstep_min_n,
    objective,
    qbar,
    qbar_envelope,
    solve,
)
from binomfl.tasks import LogisticRegressionTask
from binomfl.wireless import SystemParams, assign_powers, domain_bound

from conftest import FixedGradientTask, make_context, make_system


@contextlib.contextmanager
def budget(number, name, limit_s):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number} ({name}): PASS ({elapsed:.1f}s < {limit_s}s)")
    assert elapsed < limit_s, f"criterion {number} exceeded its {limit_s}s budget"


def feasible_tuples(rng, count, p_lo=0.02, p_hi=0.5):
    """(q, n, p, ctx) tuples whose per-mechanism variance clears the floor."""
    out = []
    for _ in range(count):
        q = int(rng.integers(2, 200))
        d = int(rng.integers(1, 60000))
        delta = 10.0 ** rng.uniform(-12, -1)
        p = float(rng.uniform(p_lo, p_hi))
        K = int(rng.integers(1, 5000))
        floor = dp_variance_threshold(q, d, delta)
        n = int(math.ceil(floor / (p * (1.0 - p)))) + int(rng.integers(0, 4096))
        out.append((q, n, p, PrivacyContext(d=d, delta=delta, K=K)))
    return out


def test_criterion_01_tightness():
    rng = np.random.default_rng(1001)
    with budget(1, "tightness", 10.0):
        for q, n, p, ctx in feasible_tuples(rng, 1000):
            tight = epsilon_tight(q, n, p, ctx)
            base = epsilon_baseline(q, n, p, ctx)
            assert tight <= base * (1.0 + 1e-9)


def test_criterion_02_proposition_one_suite():
    rng = np.random.default_rng(1002)
    with budget(2, "symmetry and monotonicity", 10.0):
        for q, n, p, ctx in feasible_tuples(rng, 300, p_lo=0.02, p_hi=0.98):
            a = epsilon_tight(q, n, p, ctx)
            b = epsilon_tight(q, n, 1.0 - p, ctx)
            assert abs(a - b) <= 1e-12 * a
        for _ in range(5):
            q = int(rng.integers(2, 64))
            p = float(rng.uniform(0.1, 0.9))
            d = int(rng.integers(1, 5000))
            delta = 10.0 ** rng.uniform(-10, -1)
            values = [tight_epsilon_value(q, n, p, d, delta) for n in range(2, 257)]
            assert all(b < a for a, b in zip(values, values[1:]))
            n = int(rng.integers(2, 4096))
            values = [tight_epsilon_value(qq, n, p, d, delta) for qq in range(2, 65)]
            assert all(b > a for a, b in zip(values, values[1:]))


def test_criterion_03_binary_search_equals_linear_scan():
    rng = np.random.default_rng(1003)
    n_cap = 4096
    with budget(3, "trial-count search vs linear scan", 30.0):
        for _ in range(200):
            q = int(rng.integers(2, 64))
            p = float(rng.uniform(0.05, 0.95))
            d = int(rng.integers(1, 2000))
            delta = 10.0 ** rng.uniform(-8, -0.6)
            lo = tight_epsilon_value(q, n_cap, p, d, delta)
            hi = tight_epsilon_value(q, 2, p, d, delta)
            eps_bar = math.exp(rng.uniform(math.log(lo * 0.8), math.log(hi * 1.2)))
            expected = 0  # lockstep_min_n's mark for "n_cap misses the budget"
            for n in range(2, n_cap + 1):
                if tight_epsilon_value(q, n, p, d, delta) <= eps_bar:
                    expected = n
                    break
            n1, _ = lockstep_min_n(
                tight_epsilon_factors(np.array([q]), np.array([p]), d, delta),
                tight_epsilon_at_n, tight_epsilon_lead, eps_bar, n_cap,
            )
            assert n1[0] == expected


def _random_small_instance(rng):
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


def test_criterion_04_relative_error_guarantee():
    rng = np.random.default_rng(1004)
    with budget(4, "relative-error guarantee vs oracle", 300.0):
        instances = [_random_small_instance(rng) for _ in range(50)]
        for system, ctx, n_cap, eta, mu in instances:
            bound = domain_bound(system)
            n_max = min(n_cap, bound)
            eps_floor = tight_epsilon_value(2, n_max, 0.5, ctx.d, ctx.delta)
            eps_bar = eps_floor * float(rng.uniform(1.1, 3.0))
            for rho in (0.05, 0.1, 0.3):
                cfg = SolverConfig.for_target_error(eps_bar, rho, n_cap, ctx)
                lam = cfg.lambda_step
                sol = solve(system, cfg, ctx)
                oracle = brute_force_solve(system, cfg, ctx, fine_factor=3)
                ratio = sol.objective / oracle.objective
                assert ratio <= 1.0 + mu * lam + 1e-12
                assert ratio <= 1.0 + rho + 1e-12
                assert check_solution(sol, system, cfg, ctx) == []
                assert check_solution(oracle, system, cfg, ctx) == []


def _scaled(system, p_max=None, W=None, T=None):
    return SystemParams(
        K=system.K, M=system.M, d=system.d, delta=system.delta,
        T=system.T if T is None else T,
        W=system.W if W is None else W,
        omega0=system.omega0,
        p_min=system.p_min,
        p_max=system.p_max if p_max is None else p_max,
        gains=system.gains,
    )


def test_criterion_05_monotone_trends():
    base = make_system(K=25, d=8, delta=1e-2, base_target=2000.0)
    ctx = make_context(base)
    n_cap = 4096

    def best(system, eps_bar):
        cfg = SolverConfig(eps_bar=eps_bar, lambda_step=0.02, n_cap=n_cap)
        try:
            return solve(system, cfg, ctx).objective
        except (AllInfeasibleError, InfeasibleError, PrivacyInfeasibleError):
            return None

    def assert_trend(values):
        feasible_started = False
        prev = math.inf
        for v in values:
            if v is None:
                assert not feasible_started, "feasibility lost as resources grew"
                continue
            feasible_started = True
            assert v <= prev * (1.0 + 1e-12)
            prev = v

    with budget(5, "monotone objective trends", 120.0):
        assert_trend([best(base, float(eb)) for eb in range(1, 11)])
        assert_trend([best(_scaled(base, p_max=base.p_max * f), 6.0)
                      for f in (1.0, 1.3, 1.8, 2.5, 3.5)])
        assert_trend([best(_scaled(base, W=base.W * f), 6.0)
                      for f in (1.0, 1.2, 1.5, 2.0)])
        assert_trend([best(_scaled(base, T=base.T * f), 6.0)
                      for f in (1.0, 1.2, 1.5, 2.0)])


def test_criterion_06_unbiasedness():
    rng = np.random.default_rng(1006)
    draws = 10_000
    with budget(6, "quantizer and mechanism unbiasedness", 60.0):
        for _ in range(1000):
            q = int(rng.integers(2, 33))
            D = float(rng.uniform(0.1, 4.0))
            g = float(rng.uniform(-D, D))
            s = 2.0 * D / (q - 1)
            t = ((g + D) / (2.0 * D)) * (q - 1)
            r = min(math.floor(t), q - 2)
            idx = r + (rng.random(draws) < (t - r))
            values = -D + s * idx
            stderr = math.sqrt(s * s / 4.0 / draws)
            assert abs(values.mean() - g) <= 5.0 * stderr

            n = int(rng.integers(2, 257))
            p = float(rng.uniform(0.1, 0.9))
            z = rng.binomial(n, p, size=draws)
            mech_values = s * (idx + z) - D - s * n * p
            mech_stderr = math.sqrt(s * s * (0.25 + n * p * (1.0 - p)) / draws)
            assert abs(mech_values.mean() - g) <= 5.0 * mech_stderr


def test_criterion_07_bias_sandwich():
    rng = np.random.default_rng(1007)
    trials = 1500
    targets = np.geomspace(10.0, 1e4, 10)
    with budget(7, "bias bounds sandwich", 300.0):
        for x_target in targets:
            d = int(rng.integers(10, 61))
            K = int(rng.integers(4, 33))
            q = int(rng.integers(3, 34))
            G = float(rng.uniform(0.5, 2.0))
            p = float(rng.uniform(0.35, 0.65))
            n = max(2, round(x_target / (p * (1.0 - p))))
            grads = rng.uniform(-G, G, size=(K, d))
            task = FixedGradientTask(grads, grad_bound=G)
            sol = Solution(q=q, n=n, p=p, powers=(1.0,) * K,
                           objective=objective(q, n, p), epsilon_achieved=0.0)
            system = SystemParams(K=K, M=2 * K, d=d, delta=1e-5, T=1.0, W=1e4,
                                  omega0=1.0, p_min=1e-6, p_max=10.0,
                                  gains=(2.0,) * K)
            bounds = theoretical_bounds(system, sol, G)
            est = measure_bias(task, sol, trials, rng)
            assert bounds.b_lo - 4.0 * est.stderr <= est.mean <= bounds.b_hi + 4.0 * est.stderr
            x = n * p * (1.0 - p)
            normalized = est.mean * K * (q - 1) ** 2 / (4.0 * d * G * G)
            assert 0.9 * x <= normalized <= 1.1 * (1.0 + x)


def _convergence_fixture():
    d, M, K, delta = 100, 100, 20, 1e-5
    task = LogisticRegressionTask(d=d, M=M, samples_per_device=25, seed=11, l2=0.05)
    TW = d * 17.0 / math.log2(4.0)
    system = SystemParams(K=K, M=M, d=d, delta=delta, T=1.0, W=TW, omega0=1.0,
                          p_min=1e-4, p_max=1.0,
                          gains=tuple(3.0 + 0.1 * k for k in range(K)))
    ctx = PrivacyContext(d=d, delta=delta, K=K)
    cfg = SolverConfig(eps_bar=40.0, lambda_step=0.01, n_cap=65534, bit_cap=16)
    return task, system, ctx, cfg


def test_criterion_08_convergence_analogue():
    with budget(8, "training-loss analogue", 300.0):
        task, system, ctx, cfg = _convergence_fixture()
        sol = solve(system, cfg, ctx)
        q_bad = max(2, (sol.q - 1) // 2 + 1)
        bad = Solution(
            q=q_bad, n=sol.n, p=sol.p,
            powers=assign_powers(q_bad, sol.n, system),
            objective=objective(q_bad, sol.n, sol.p),
            epsilon_achieved=tight_epsilon_value(q_bad, sol.n, sol.p, ctx.d, ctx.delta),
        )
        assert bad.objective >= 4.0 * sol.objective
        assert bad.epsilon_achieved <= cfg.eps_bar  # still feasible
        bounds = theoretical_bounds(system, sol, task.grad_bound)
        sigma_sq = bounds.u_hi_iid + bounds.b_hi
        gamma = learning_rate(L=task.smoothness, G_f=task.loss(np.zeros(task.d)),
                              sigma_sq=sigma_sq, rounds=500)
        rounds, wins = 500, 0
        for seed in (0, 1, 2):
            base_loss = run_fsgd(task, system, None, rounds,
                                 np.random.default_rng(seed), gamma=gamma).loss[-1]
            opt_loss = run_fsgd(task, system, sol, rounds,
                                np.random.default_rng(seed), gamma=gamma).loss[-1]
            bad_loss = run_fsgd(task, system, bad, rounds,
                                np.random.default_rng(seed), gamma=gamma).loss[-1]
            assert abs(opt_loss - base_loss) / base_loss <= 0.05
            if opt_loss < bad_loss:
                wins += 1
        assert wins >= 2


def test_criterion_09_quantization_cap():
    rng = np.random.default_rng(1009)
    with budget(9, "quantization-level cap", 60.0):
        for _ in range(100):
            system = make_system(
                K=int(rng.integers(2, 30)),
                d=int(rng.integers(2, 60)),
                delta=10.0 ** rng.uniform(-6, -1),
                base_target=float(rng.uniform(12.0, 500.0)),
            )
            ctx = make_context(system)
            cfg = SolverConfig(eps_bar=float(rng.uniform(3.0, 300.0)),
                               lambda_step=0.1, n_cap=64)
            try:
                qb = qbar(system, cfg.eps_bar, ctx)
            except AllInfeasibleError:
                assert qbar_envelope(2, system, ctx) > cfg.eps_bar
                continue
            assert qbar_envelope(qb, system, ctx) <= cfg.eps_bar
            if qb < domain_bound(system):
                assert qbar_envelope(qb + 1, system, ctx) > cfg.eps_bar

        family = make_system(K=12, d=25, delta=1e-3, base_target=90.0)
        ctx = make_context(family)
        cfg = SolverConfig(eps_bar=50.0, lambda_step=0.1, n_cap=64)
        prev = 0
        for scale in (0.6, 0.8, 1.0, 1.4, 2.0, 3.0):
            try:
                qb = qbar(_scaled(family, p_max=family.p_max * scale), cfg.eps_bar, ctx)
            except AllInfeasibleError:
                qb = 1
            assert qb >= prev
            prev = qb

        # reference preset: d = 47710, 16-bit budget, delta = 1e-10
        preset = RunConfig.defaults()
        system = preset.build_system()
        ctx = preset.build_context(system)
        qb = qbar(system, preset.eps_bar, ctx)
        assert qb <= 2**16 / 10.0


def test_criterion_10_communication_accounting():
    rng = np.random.default_rng(1010)
    with budget(10, "communication accounting", 10.0):
        d, M, K = 30, 40, 10
        grads = rng.uniform(-1, 1, size=(M, d))
        task = FixedGradientTask(grads, grad_bound=1.0)
        system = SystemParams(K=K, M=M, d=d, delta=1e-5, T=1.0, W=1e4, omega0=1.0,
                              p_min=1e-6, p_max=10.0, gains=(2.0,) * K)
        for _ in range(10):
            q = int(rng.integers(2, 200))
            n = int(rng.integers(2, 60000))
            rounds = int(rng.integers(1, 30))
            sol = Solution(q=q, n=n, p=0.5, powers=(1.0,) * K,
                           objective=objective(q, n, 0.5), epsilon_achieved=0.0)
            trace = run_fsgd(task, system, sol, rounds,
                             np.random.default_rng(5), gamma=0.01)
            assert trace.total_bits == comm_cost(rounds, K, d, q, n)
            if bits_per_coord(q, n) < 32:
                assert trace.bits[0] < K * d * 32
