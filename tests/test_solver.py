"""Joint optimizer: search pieces, envelope cap, grid machinery, oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binomfl.errors import (
    AllInfeasibleError,
    ErrorBoundUnavailableError,
    PrivacyInfeasibleError,
)
from binomfl.config import RunConfig
from binomfl.privacy import (
    PrivacyContext,
    dp_variance_threshold,
    tight_epsilon_n_array,
    tight_epsilon_value,
)
from binomfl.solver import (
    SolverConfig,
    brute_force_solve,
    check_solution,
    eta_and_mu_values,
    lambda_for_rho,
    lockstep_min_n,
    mu_from_eta,
    n_from_constraints,
    objective,
    p_grid,
    qbar,
    qbar_envelope,
    solve,
    solve_with_stats,
)
from binomfl.wireless import SystemParams, capacity_base, domain_bound

from conftest import make_context, make_system


def small_cfg(eps_bar=25.0, lam=0.01, n_cap=64, **kw):
    return SolverConfig(eps_bar=eps_bar, lambda_step=lam, n_cap=n_cap, **kw)


def linear_scan_min_n(q, p, eps_bar, d, delta, n_hi):
    """Independent oracle: first trial count meeting the budget, by walking up."""
    for n in range(2, n_hi + 1):
        if tight_epsilon_value(q, n, p, d, delta) <= eps_bar:
            return n
    return None


def single_cell_min_n(q, p, eps_bar, n_cap, eps_fn):
    """Trial count of the one cell (q, p) from lockstep_min_n; 0 when even
    n_cap misses the budget."""
    n1, _ = lockstep_min_n(np.array([q]), np.array([p]), eps_fn, eps_bar, n_cap)
    return int(n1[0])


def tight_eps_fn(d, delta):
    return lambda qs, ns, ps: tight_epsilon_n_array(qs, ns, ps, d, delta)


def curve_eps_fn(curve):
    """Budget kernel of a synthetic curve in n alone, flat over the cells."""
    return lambda qs, ns, ps: np.ravel(curve(ns + 0.0 * qs + 0.0 * ps))


def scalar_search(eps, eps_bar, n_cap):
    """Reference one-cell doubling-plus-bisection search with a memo.

    Returns (n1 or 0 when n_cap misses the budget, distinct n probed).
    """
    memo = {}

    def probe(n):
        if n not in memo:
            memo[n] = eps(n)
        return memo[n]

    if probe(2) <= eps_bar:
        return 2, len(memo)
    if probe(n_cap) > eps_bar:
        return 0, len(memo)
    lo = hi = 2
    while probe(hi) > eps_bar:
        lo, hi = hi, min(2 * hi, n_cap)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if probe(mid) > eps_bar:
            lo = mid
        else:
            hi = mid
    return hi, len(memo)


def tuple_feasible(q, n, p, system, cfg, ctx):
    """Direct re-statement of all original constraints for one tuple."""
    if not (2 <= q and 2 <= n and 0.0 < p < 1.0):
        return False
    if ctx.K * n * p * (1.0 - p) < dp_variance_threshold(q, ctx.d, ctx.delta):
        return False
    if tight_epsilon_value(q, n, p, ctx.d, ctx.delta) > cfg.eps_bar:
        return False
    cap = capacity_base(system)
    if cfg.bit_cap is not None:
        cap = min(cap, float(2**cfg.bit_cap))
    return n <= cap - q and n <= cfg.n_cap


class TestObjective:
    def test_point_values(self):
        assert objective(3, 4, 0.5) == 0.5
        assert objective(2, 10, 0.3) == 1.0 + 10 * (0.3 * 0.7)

    def test_symmetric_in_p(self, rng):
        # 1 - (1 - p) re-rounds, so equality holds to an ulp, not bitwise
        for _ in range(30):
            q = int(rng.integers(2, 50))
            n = int(rng.integers(1, 1000))
            p = float(rng.uniform(0.01, 0.99))
            assert objective(q, n, p) == pytest.approx(objective(q, n, 1.0 - p), rel=1e-15)


class TestMinNForPrivacy:
    """The smallest trial count meeting the budget, one cell of the search."""

    def test_synthetic_hyperbola(self):
        assert single_cell_min_n(2, 0.5, 4.0, 4096, curve_eps_fn(lambda n: 100.0 / n)) == 25

    def test_already_feasible_at_two(self):
        n1, evals = lockstep_min_n(
            np.array([2]), np.array([0.5]), curve_eps_fn(lambda n: 1.0 + 0.0 * n), 4.0, 4096
        )
        assert (int(n1[0]), int(evals[0])) == (2, 1)

    def test_unreachable_budget_signals(self):
        n1, evals = lockstep_min_n(
            np.array([2]), np.array([0.5]), curve_eps_fn(lambda n: 100.0 / n), 0.001, 512
        )
        assert (int(n1[0]), int(evals[0])) == (0, 2)
        # every cell unreachable: the solve raises instead of returning
        system = make_system(K=30, d=10, delta=1e-2, base_target=2000.0)
        ctx = make_context(system)
        eps_bar = 0.9 * tight_epsilon_value(2, 8, 0.5, ctx.d, ctx.delta)
        assert qbar_envelope(2, system, ctx) <= eps_bar
        with pytest.raises(PrivacyInfeasibleError):
            solve_with_stats(system, small_cfg(eps_bar=eps_bar, lam=0.1, n_cap=8), ctx)

    def test_matches_linear_scan(self, rng):
        for _ in range(40):
            q = int(rng.integers(2, 64))
            p = float(rng.uniform(0.05, 0.95))
            d = int(rng.integers(1, 2000))
            delta = 10.0 ** rng.uniform(-8, -0.6)
            lo = tight_epsilon_value(q, 4096, p, d, delta)
            hi = tight_epsilon_value(q, 2, p, d, delta)
            eps_bar = math.exp(rng.uniform(math.log(lo * 0.8), math.log(hi * 1.2)))
            expected = linear_scan_min_n(q, p, eps_bar, d, delta, 4096)
            got = single_cell_min_n(q, p, eps_bar, 4096, tight_eps_fn(d, delta))
            assert got == (0 if expected is None else expected)

    def test_minimality_invariant(self, rng):
        for _ in range(25):
            q = int(rng.integers(2, 32))
            p = float(rng.uniform(0.2, 0.8))
            d = int(rng.integers(1, 500))
            delta = 10.0 ** rng.uniform(-6, -1)
            eps_bar = tight_epsilon_value(q, int(rng.integers(3, 2000)), p, d, delta)
            n1 = single_cell_min_n(q, p, eps_bar, 4096, tight_eps_fn(d, delta))
            assert tight_epsilon_value(q, n1, p, d, delta) <= eps_bar
            if n1 > 2:
                assert tight_epsilon_value(q, n1 - 1, p, d, delta) > eps_bar


def _first_q(above, q):
    """Smallest q' >= q with above(q') true, for above monotone in q."""
    if above(q):
        return q
    lo, hi = q, 2 * q
    while not above(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if above(mid) else (mid, hi)
    return hi


class TestLockstepSearch:
    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(1, 2000),
        log_delta=st.floats(-8.0, -0.7),
        # a power-of-two cap makes the last doubling step land on n_cap itself
        n_cap=st.one_of(st.integers(3, 300), st.sampled_from([4, 16, 128, 256])),
        anchor_frac=st.floats(0.0, 1.0),
        p_anchor=st.floats(0.05, 0.95),
        p_two=st.floats(0.05, 0.95),
        extra=st.lists(st.tuples(st.integers(2, 5000), st.floats(0.02, 0.98)), max_size=6),
        order_seed=st.integers(0, 2**32 - 1),
    )
    def test_every_cell_matches_linear_scan(
        self, d, log_delta, n_cap, anchor_frac, p_anchor, p_two, extra, order_seed
    ):
        delta = 10.0**log_delta

        def eps(q, n, p):
            return tight_epsilon_value(q, n, p, d, delta)

        # anchor cell: its n lies above the last power of two below n_cap,
        # so its doubling phase runs into n_cap
        top_pow = 2 ** ((n_cap - 1).bit_length() - 1)
        n_anchor = top_pow + 1 + int(anchor_frac * (n_cap - top_pow - 1))
        q_anchor = _first_q(lambda q: eps(q, n_anchor, p_anchor) >= eps(2, 2, p_two), 2)
        eps_bar = eps(q_anchor, n_anchor, p_anchor)
        # a cell done at n = 2, and a cell that n_cap cannot bring under eps_bar
        q_blocked = _first_q(lambda q: eps(q, n_cap, p_anchor) > eps_bar, q_anchor)
        cells = [(q_anchor, p_anchor), (2, p_two), (q_blocked, p_anchor)] + extra
        order = np.random.default_rng(order_seed).permutation(len(cells))
        q = np.array([cells[i][0] for i in order])
        p = np.array([cells[i][1] for i in order])

        def kernel(qs, ns, ps):
            return tight_epsilon_n_array(qs, ns, ps, d, delta)

        n1, evals = lockstep_min_n(q, p, kernel, eps_bar, n_cap)
        for i in range(len(cells)):
            qi, pi = int(q[i]), float(p[i])
            expected = linear_scan_min_n(qi, pi, eps_bar, d, delta, n_cap)
            assert n1[i] == (0 if expected is None else expected)
            ref_n, ref_probes = scalar_search(lambda n: eps(qi, n, pi), eps_bar, n_cap)
            assert (n1[i], evals[i]) == (ref_n, ref_probes)
        by_cell = dict(zip(order, n1))
        assert by_cell[0] == n_anchor > top_pow
        assert by_cell[1] == 2
        assert by_cell[2] == 0

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(1, 2000),
        log_delta=st.floats(-8.0, -0.7),
        n_cap=st.one_of(st.integers(3, 300), st.sampled_from([4, 16, 128, 256])),
        q_extra=st.lists(st.integers(2, 5000), max_size=5),
        p_axis=st.lists(st.floats(0.02, 0.98), min_size=1, max_size=6, unique=True),
    )
    def test_axis_grid_matches_flat_cells(self, d, log_delta, n_cap, q_extra, p_axis):
        delta = 10.0**log_delta
        p_axis = np.array(sorted(p_axis))
        # (2, p_axis[0]) is done at n = 2, and (q_blocked, p_axis[0]) is
        # blocked at n_cap
        eps_bar = tight_epsilon_value(2, 2, float(p_axis[0]), d, delta)
        q_blocked = _first_q(
            lambda q: tight_epsilon_value(q, n_cap, float(p_axis[0]), d, delta) > eps_bar, 2
        )
        q_axis = np.array(sorted({2, q_blocked, *q_extra}))
        shapes = []

        def kernel(qs, ns, ps):
            shapes.append((np.shape(qs), np.shape(ns), np.shape(ps)))
            return tight_epsilon_n_array(qs, ns, ps, d, delta)

        grid = lockstep_min_n(q_axis[:, None], p_axis[None, :], kernel, eps_bar, n_cap)
        grid_shapes, shapes[:] = list(shapes), []
        flat = lockstep_min_n(
            np.repeat(q_axis, p_axis.size), np.tile(p_axis, q_axis.size), kernel, eps_bar, n_cap
        )
        assert np.array_equal(grid[0], flat[0]) and np.array_equal(grid[1], flat[1])
        assert grid[0][0] == 2
        assert grid[0][list(q_axis).index(q_blocked) * p_axis.size] == 0
        # both bracket probes run on the axes with a scalar n
        assert grid_shapes[:2] == [((q_axis.size, 1), (), (1, p_axis.size))] * 2
        assert len(grid_shapes) == len(shapes)

    def test_builtin_solve_pinned(self):
        cfg = RunConfig.defaults()
        system = cfg.build_system()
        ctx = cfg.build_context(system)
        scfg = cfg.build_solver(ctx)
        assert scfg.eps_bar == 10.0
        sol, stats = solve_with_stats(system, scfg, ctx)
        assert (sol.q, sol.n, sol.p) == (48, 64592, 0.5)
        assert stats.cells_total == 47_300
        assert stats.cells_feasible == 1_546
        assert stats.eps_evaluations == 137_428
        assert stats.max_evals_per_cell == 31


class TestNFromConstraints:
    def test_floor_term_wins(self):
        ctx = PrivacyContext(d=1000, delta=1e-6, K=5)
        floor = math.ceil(dp_variance_threshold(3, 1000, 1e-6) / (5 * 0.25))
        assert floor > 7
        assert n_from_constraints(3, 0.5, 7, ctx) == floor

    def test_privacy_term_wins(self):
        ctx = PrivacyContext(d=1, delta=0.5, K=100000)
        assert n_from_constraints(3, 0.5, 7, ctx) == 7

    def test_output_satisfies_variance_floor(self, rng):
        for _ in range(200):
            q = int(rng.integers(2, 100))
            p = float(rng.uniform(0.05, 0.95))
            d = int(rng.integers(1, 50000))
            delta = 10.0 ** rng.uniform(-10, -1)
            K = int(rng.integers(1, 3000))
            ctx = PrivacyContext(d=d, delta=delta, K=K)
            n = n_from_constraints(q, p, int(rng.integers(2, 64)), ctx)
            assert K * n * p * (1.0 - p) >= dp_variance_threshold(q, d, delta) * (1 - 1e-12)


class TestQbar:
    def test_envelope_brackets_qbar(self, rng):
        for trial in range(30):
            system = make_system(
                K=int(rng.integers(2, 20)),
                d=int(rng.integers(2, 50)),
                delta=10.0 ** rng.uniform(-6, -1),
                base_target=float(rng.uniform(12, 200)),
            )
            ctx = make_context(system)
            cfg = small_cfg(eps_bar=float(rng.uniform(5, 200)))
            try:
                qb = qbar(system, cfg, ctx)
            except AllInfeasibleError:
                assert qbar_envelope(2, system, ctx) > cfg.eps_bar
                continue
            assert qbar_envelope(qb, system, ctx) <= cfg.eps_bar
            if qb < domain_bound(system):
                assert qbar_envelope(qb + 1, system, ctx) > cfg.eps_bar

    @settings(max_examples=60, deadline=None)
    @given(
        base_target=st.floats(4.1, 40.0),
        d=st.integers(1, 5000),
        log_delta=st.floats(-12.0, -0.5),
        ps=st.lists(st.floats(0.001, 0.999), min_size=1, max_size=8),
    )
    def test_envelope_below_budget_at_small_capacity(self, base_target, d, log_delta, ps):
        # every (n, p) the channel admits at q has n*p*(1-p) <= r = (cap - q)/4,
        # so the envelope must stay at or under the budget of each of them,
        # down to r of about 1/2
        system = make_system(K=5, d=d, delta=10.0**log_delta, base_target=base_target)
        ctx = make_context(system)
        cap = capacity_base(system)
        q = np.arange(2, domain_bound(system) + 1)[:, None, None]
        n = np.arange(2, math.floor(cap) + 1)[None, :, None]
        p = np.array([0.5, *ps])[None, None, :]
        eps = tight_epsilon_n_array(q, n, p, ctx.d, ctx.delta).reshape(q.size, n.size, p.size)
        env = np.array([qbar_envelope(int(qq), system, ctx) for qq in q.ravel()])
        admitted = np.broadcast_to(n <= cap - q, eps.shape)
        assert np.all(env[:, None, None] <= np.where(admitted, eps, np.inf))

    def test_monotone_in_p_max(self):
        ctx = PrivacyContext(d=20, delta=1e-4, K=10)
        cfg = small_cfg(eps_bar=40.0)
        prev = 0
        for p_max in (0.5, 1.0, 2.0, 4.0, 8.0):
            system = make_system(K=10, d=20, delta=1e-4, base_target=60.0, p_max=1.0)
            scaled = SystemParams(
                K=system.K, M=system.M, d=system.d, delta=system.delta,
                T=system.T, W=system.W, omega0=system.omega0,
                p_min=system.p_min, p_max=p_max, gains=system.gains,
            )
            try:
                qb = qbar(scaled, cfg, ctx)
            except AllInfeasibleError:
                qb = 1
            assert qb >= prev
            prev = qb


class TestErrorMachinery:
    def test_mu_reference_points(self):
        assert mu_from_eta(3.0 / 16.0) == 4.0
        assert mu_from_eta(0.09) == pytest.approx(10.0, rel=1e-12)

    def test_mu_approaches_inverse_eta(self):
        eta = 1e-4
        assert mu_from_eta(eta) * eta == pytest.approx(1.0, rel=1e-2)

    def test_eta_above_quarter_signals(self):
        ctx = PrivacyContext(d=1000, delta=1e-8, K=1)
        with pytest.raises(ErrorBoundUnavailableError):
            eta_and_mu_values(2, ctx)

    def test_lambda_strictly_below_target(self, rng):
        for _ in range(30):
            rho = float(rng.uniform(0.01, 1.0))
            mu = float(rng.uniform(2.0, 100.0))
            lam = lambda_for_rho(rho, mu)
            assert lam < rho / mu
        assert lambda_for_rho(0.1, 10.0) == pytest.approx(0.0099)

    def test_grid_size_bound(self, rng):
        # the 1/(2 lambda) + 1 count is off by up to one point (integer
        # counting in an open interval); the +2 form is exact
        for _ in range(20):
            lam = float(rng.uniform(0.001, 0.4))
            grid = p_grid(lam)
            assert grid[0] == 0.5
            assert all(0.5 < p < 1.0 for p in grid[1:])
            assert len(grid) <= 1.0 / (2.0 * lam) + 2.0


class TestSolve:
    def test_solution_passes_independent_recheck(self):
        system = make_system()
        ctx = make_context(system)
        cfg = small_cfg()
        sol = solve(system, cfg, ctx)
        assert check_solution(sol, system, cfg, ctx) == []

    def test_deterministic(self):
        system = make_system()
        ctx = make_context(system)
        cfg = small_cfg()
        assert solve(system, cfg, ctx) == solve(system, cfg, ctx)

    def test_objective_nonincreasing_in_eps_bar(self):
        system = make_system()
        ctx = make_context(system)
        prev = math.inf
        for eps_bar in (15.0, 20.0, 30.0, 45.0, 70.0):
            try:
                sol = solve(system, small_cfg(eps_bar=eps_bar), ctx)
            except AllInfeasibleError:
                assert prev == math.inf  # relaxing the budget never loses feasibility
                continue
            assert sol.objective <= prev * (1 + 1e-12)
            prev = sol.objective

    def test_epsilon_within_budget(self):
        system = make_system()
        ctx = make_context(system)
        cfg = small_cfg()
        sol = solve(system, cfg, ctx)
        assert sol.epsilon_achieved <= cfg.eps_bar

    def test_complexity_counters(self):
        system = make_system()
        ctx = make_context(system)
        cfg = small_cfg()
        _, stats = solve_with_stats(system, cfg, ctx)
        assert stats.p_grid_size <= 1.0 / (2.0 * cfg.lambda_step) + 1.0
        assert stats.max_evals_per_cell <= 2 * math.ceil(math.log2(cfg.n_cap)) + 2

    def test_all_privacy_blocked_signals_distinctly(self):
        # huge capacity so the envelope passes, but a budget no trial count
        # up to the cap can reach
        system = make_system(K=5, d=2, delta=0.5, base_target=1e7)
        ctx = make_context(system)
        cfg = small_cfg(eps_bar=0.01, n_cap=16)
        assert qbar_envelope(2, system, ctx) <= cfg.eps_bar
        with pytest.raises(PrivacyInfeasibleError):
            solve(system, cfg, ctx)

    def test_bit_cap_respected(self):
        system = make_system(K=10, d=6, delta=1e-3, base_target=3000.0)
        ctx = make_context(system)
        cfg = small_cfg(eps_bar=60.0, n_cap=2048, bit_cap=8)
        sol = solve(system, cfg, ctx)
        assert sol.q + sol.n <= 2**8
        assert check_solution(sol, system, cfg, ctx) == []

    def test_mirror_feasibility_equal_value(self, rng):
        # any feasible tuple with p < 1/2 mirrors to a feasible tuple with
        # the same objective and the same budget
        system = make_system()
        ctx = make_context(system)
        cfg = small_cfg(eps_bar=60.0)
        checked = 0
        while checked < 20:
            q = int(rng.integers(2, 8))
            n = int(rng.integers(2, 64))
            p = float(rng.uniform(0.05, 0.5))
            if not tuple_feasible(q, n, p, system, cfg, ctx):
                continue
            checked += 1
            assert tuple_feasible(q, n, 1.0 - p, system, cfg, ctx)
            assert objective(q, n, p) == pytest.approx(objective(q, n, 1.0 - p), rel=1e-15)
            a = tight_epsilon_value(q, n, p, ctx.d, ctx.delta)
            b = tight_epsilon_value(q, n, 1.0 - p, ctx.d, ctx.delta)
            assert abs(a - b) <= 1e-12 * a


class TestBruteForce:
    def test_unique_feasible_tuple_is_found(self):
        # floor sits in (99.0, 100.0], so among the grid only p = 1/2 clears
        # it at K = 200, n_cap pins n = 2, and the budget cap excludes q > 2
        d, delta, K = 7, 0.92, 200
        thr = dp_variance_threshold(2, d, delta)
        assert 99.0 < thr <= 100.0
        system = make_system(K=K, M=400, d=d, delta=delta, base_target=6.5)
        ctx = make_context(system)
        eps2 = tight_epsilon_value(2, 2, 0.5, d, delta)
        eps3 = tight_epsilon_value(3, 2, 0.5, d, delta)
        cfg = SolverConfig(eps_bar=(eps2 + eps3) / 2.0, lambda_step=0.45, n_cap=2)
        sol = brute_force_solve(system, cfg, ctx, fine_factor=2)
        assert (sol.q, sol.n, sol.p) == (2, 2, 0.5)
        assert solve(system, cfg, ctx).objective == sol.objective

    def test_small_capacity_optimum_not_ruled_out(self):
        # at r < 2 the envelope once assumed a variance-shape bound that does
        # not hold there, rejected q = 2 and made this instance exit as
        # infeasible although (2, 4, 1/2) meets the budget
        d, delta, K = 3, 0.0019122037425300508, 424
        system = SystemParams(
            K=K, M=K, d=d, delta=delta, T=1.0, W=3.8811279482728738, omega0=1.0,
            p_min=1e-3, p_max=1.0, gains=(3.0,) * K,
        )
        ctx = make_context(system)
        cfg = SolverConfig(eps_bar=540.06, lambda_step=0.01, n_cap=64)
        oracle = brute_force_solve(system, cfg, ctx)
        sol = solve(system, cfg, ctx)
        assert (oracle.q, oracle.n, oracle.p) == (2, 4, 0.5)
        assert (sol.q, sol.n, sol.p) == (2, 4, 0.5)
        assert sol.objective == oracle.objective
        assert sol.epsilon_achieved == pytest.approx(539.38, abs=0.01)
        assert check_solution(sol, system, cfg, ctx) == []

    def test_exact_agreement_on_dyadic_grid(self):
        # coarse pitch 1/32, fine factor 2: every coarse point is exactly
        # representable on the fine grid
        system = make_system(K=25, d=8, delta=1e-2, base_target=70.0)
        ctx = make_context(system)
        cfg = SolverConfig(eps_bar=30.0, lambda_step=1.0 / 32.0, n_cap=64)
        sol = solve(system, cfg, ctx)
        oracle = brute_force_solve(system, cfg, ctx, fine_factor=2)
        assert oracle.objective <= sol.objective
        if oracle.p in p_grid(cfg.lambda_step) or (1.0 - oracle.p) in p_grid(cfg.lambda_step):
            assert sol.objective == oracle.objective
            assert (sol.q, sol.n) == (oracle.q, oracle.n)
            assert sol.p in (oracle.p, 1.0 - oracle.p)

    def test_guarantee_on_one_instance(self):
        system = make_system(K=40, d=12, delta=1e-3, base_target=50.0)
        ctx = make_context(system)
        eta, mu = eta_and_mu_values(64, ctx)
        assert eta < 0.25
        lam = lambda_for_rho(0.1, mu)
        cfg = SolverConfig(eps_bar=40.0, lambda_step=lam, n_cap=64, rho=0.1)
        sol = solve(system, cfg, ctx)
        oracle = brute_force_solve(system, cfg, ctx, fine_factor=3)
        assert sol.objective <= oracle.objective * (1.0 + mu * lam)
        assert sol.objective <= oracle.objective * 1.1
