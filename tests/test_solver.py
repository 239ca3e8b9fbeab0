"""Joint optimizer: search pieces, envelope cap, grid machinery, oracle."""

import dataclasses
import math
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binomfl.errors import (
    AllInfeasibleError,
    InfeasibleError,
    NotApplicableError,
    PrivacyInfeasibleError,
)
from binomfl import solver as solver_module
from binomfl.config import RunConfig
from binomfl.privacy import (
    PrivacyContext,
    dp_variance_threshold,
    epsilon_tight,
    min_trials,
    tight_epsilon_at_n,
    tight_epsilon_factors,
    tight_epsilon_lead,
    tight_epsilon_value,
)
from binomfl.solver import (
    SUBOPT_FACTOR,
    Solution,
    SolverConfig,
    brute_force_solve,
    check_solution,
    eta_and_mu_values,
    lockstep_min_n,
    mu_from_eta,
    objective,
    p_grid,
    qbar,
    qbar_envelope,
    solve,
    solve_with_stats,
    suboptimal_tuple,
)
from binomfl.wireless import SystemParams, assign_powers, capacity_base, domain_bound

from conftest import make_context, make_system

DESK_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "desk.yaml"


def small_cfg(eps_bar=25.0, lam=0.01, n_cap=64, **kw):
    return SolverConfig(eps_bar=eps_bar, lambda_step=lam, n_cap=n_cap, **kw)


def linear_scan_min_n(q, p, eps_bar, d, delta, n_hi):
    """Independent oracle: first trial count meeting the budget, by walking up."""
    for n in range(2, n_hi + 1):
        if tight_epsilon_value(q, n, p, d, delta) <= eps_bar:
            return n
    return None


def single_cell_min_n(kernel, eps_bar, n_cap):
    """Trial count of a one-cell kernel from lockstep_min_n; 0 when even
    n_cap misses the budget."""
    n1, _ = lockstep_min_n(*kernel, eps_bar, n_cap)
    return int(n1[0])


def tight_kernel(q, p, d, delta):
    """The tight budget's three stages on the cells of q and p, as
    lockstep_min_n takes them."""
    return tight_epsilon_factors(q, p, d, delta), tight_epsilon_at_n, tight_epsilon_lead


def curve_kernel(curve):
    """Three-stage budget of a synthetic curve in n alone, on one cell: the
    n-free stage is a zero, and the curve, non-increasing in n, is its own
    lead."""
    return (
        (np.zeros(1),),
        lambda f, ns: np.ravel(curve(ns + f[0])),
        lambda f, n: curve(n + f[0]),
    )


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


# the objective once returned NaN on each NaN argument, and each config
# constructed; a NaN rho of for_target_error once blamed lambda_step
DESK_CTX = PrivacyContext(d=40, delta=1e-4, K=12)


@pytest.mark.parametrize("call, match", [
    (lambda: objective(8, 241, math.nan), "p must lie"),
    (lambda: objective(math.nan, 241, 0.5), "q must be"),
    (lambda: objective(8, math.nan, 0.5), "n must be"),
    (lambda: small_cfg(rho=math.nan), "rho must be positive and finite"),
    (lambda: small_cfg(rho=math.inf), "rho must be positive and finite"),
    (lambda: small_cfg(n_cap=100.5), "n_cap"),
    (lambda: small_cfg(bit_cap=10.5), "bit_cap"),
    (lambda: small_cfg(eps_bar=0.0), "eps_bar must be positive and finite"),
    (lambda: small_cfg(eps_bar=math.inf), "eps_bar must be positive and finite"),
    (lambda: small_cfg(lam=0.5), "lambda_step must lie"),
    (lambda: small_cfg(lam=0.0), "lambda_step must lie"),
    (lambda: mu_from_eta(0.0), "eta must lie"),
    (lambda: mu_from_eta(math.nextafter(0.25, 1.0)), "eta must lie"),
    (lambda: SolverConfig.for_target_error(30.0, math.nan, 256, DESK_CTX), "^rho must be positive and finite, got nan"),
    (lambda: SolverConfig.for_target_error(30.0, math.inf, 256, DESK_CTX), "^rho must be positive and finite, got inf"),
    (lambda: SolverConfig.for_target_error(30.0, 0.0, 256, DESK_CTX), "^rho must be positive and finite, got 0.0"),
    (lambda: SolverConfig.for_target_error(30.0, -1.0, 256, DESK_CTX), "^rho must be positive and finite, got -1.0"),
    (lambda: brute_force_solve(make_system(), small_cfg(), make_context(make_system()), fine_factor=0),
     "^fine_factor must be >= 1, got 0"),
], ids=["objective-p-nan", "objective-q-nan", "objective-n-nan", "rho-nan", "rho-inf", "n_cap-fraction",
        "bit_cap-fraction", "eps_bar-zero", "eps_bar-inf", "lambda_step-half", "lambda_step-zero", "mu-eta-zero",
        "mu-eta-above-quarter", "target-rho-nan", "target-rho-inf", "target-rho-zero", "target-rho-negative",
        "oracle-fine_factor-zero"])
def test_non_finite_or_fractional_argument_rejected(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_solver_config_stores_integral_caps_as_int():
    cfg = small_cfg(n_cap=100.0, bit_cap=10.0)
    assert (cfg.n_cap, cfg.bit_cap) == (100, 10)
    assert type(cfg.n_cap) is int and type(cfg.bit_cap) is int


class TestMinNForPrivacy:
    """The smallest trial count meeting the budget, one cell of the search."""

    def test_synthetic_hyperbola(self):
        assert single_cell_min_n(curve_kernel(lambda n: 100.0 / n), 4.0, 4096) == 25

    # n_cap 2 probes 2 as n_cap itself; above it a cell met at n = 2 stops
    # before it probes n_cap
    @pytest.mark.parametrize("n_cap", [2, 3, 4, 4096])
    def test_already_feasible_at_two(self, n_cap):
        n1, evals = lockstep_min_n(*curve_kernel(lambda n: 1.0 + 0.0 * n), 4.0, n_cap)
        assert (int(n1[0]), int(evals[0])) == (2, 1)

    @pytest.mark.parametrize("n_cap", [2, 3, 512])
    def test_unreachable_budget_signals(self, n_cap):
        n1, evals = lockstep_min_n(*curve_kernel(lambda n: 100.0 / n), 0.001, n_cap)
        assert (int(n1[0]), int(evals[0])) == (0, 1 if n_cap == 2 else 2)
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
            kernel = tight_kernel(np.array([q]), np.array([p]), d, delta)
            got = single_cell_min_n(kernel, eps_bar, 4096)
            assert got == (0 if expected is None else expected)

    def test_minimality_invariant(self, rng):
        for _ in range(25):
            q = int(rng.integers(2, 32))
            p = float(rng.uniform(0.2, 0.8))
            d = int(rng.integers(1, 500))
            delta = 10.0 ** rng.uniform(-6, -1)
            eps_bar = tight_epsilon_value(q, int(rng.integers(3, 2000)), p, d, delta)
            kernel = tight_kernel(np.array([q]), np.array([p]), d, delta)
            n1 = single_cell_min_n(kernel, eps_bar, 4096)
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

        n1, evals = lockstep_min_n(*tight_kernel(q, p, d, delta), eps_bar, n_cap)
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
        probed, led = [], []

        def eps_fn(factors, ns):
            probed.append((factors, ns))
            return tight_epsilon_at_n(factors, ns)

        def lead_fn(factors, n):
            led.append((factors, n))
            return tight_epsilon_lead(factors, n)

        axes = tight_epsilon_factors(q_axis[:, None], p_axis[None, :], d, delta)
        grid = lockstep_min_n(axes, eps_fn, lead_fn, eps_bar, n_cap)
        grid_probed, grid_led = list(probed), list(led)
        probed[:] = []
        q_flat, p_flat = np.repeat(q_axis, p_axis.size), np.tile(p_axis, q_axis.size)
        flat = lockstep_min_n(
            tight_epsilon_factors(q_flat, p_flat, d, delta), eps_fn, lead_fn, eps_bar, n_cap
        )
        assert np.array_equal(grid[0], flat[0]) and np.array_equal(grid[1], flat[1])
        assert grid[0][0] == 2
        assert grid[0][list(q_axis).index(q_blocked) * p_axis.size] == 0
        # the factors are built once, on the axes: the lead runs on them with
        # the scalar n_cap, and the cells it keeps get their factors gathered,
        # bit for bit those a build on the cells' own q and p gives
        assert (grid_led[0][0] is axes, grid_led[0][1]) == (True, n_cap)
        kept = ~(tight_epsilon_lead(axes, n_cap) > eps_bar)
        iq, ip = np.nonzero(np.broadcast_to(kept, (q_axis.size, p_axis.size)))
        cells = grid_led[1][0]
        rebuilt = tight_epsilon_factors(q_axis[iq], p_axis[ip], d, delta)
        assert len(cells) == len(rebuilt)
        assert all(np.array_equal(c, r) and np.ndim(c) == np.ndim(r) for c, r in zip(cells, rebuilt))
        # then the lead runs on the gathered 1-D cells at n = 2, 4, ... below
        # n_cap, until no cell is above eps_bar
        ladder = [n for _, n in grid_led[1:]]
        assert all(f is cells for f, _ in grid_led[1:])
        assert ladder == [2**k for k in range(1, len(ladder) + 1)] and ladder[-1] < n_cap
        assert 2 * ladder[-1] >= n_cap or not (tight_epsilon_lead(cells, ladder[-1]) > eps_bar).any()
        # every budget evaluation runs on 1-D cells: one call with the scalar
        # n_cap on every gathered cell, then only calls with an array of n
        assert (grid_probed[0][0] is cells, grid_probed[0][1]) == (True, n_cap)
        assert [np.ndim(ns) for _, ns in grid_probed] == [0] + [1] * (len(grid_probed) - 1)
        for factors, _ in grid_probed:
            assert all(np.ndim(f) in (0, 1) for f in factors)
            assert np.ndim(factors[0]) == 1
        assert len(grid_probed) == len(probed)

    @staticmethod
    def whole_grid_bracket(q_axis, p_axis, d, delta, eps_bar, n_cap):
        """Reference (n1, evals) on the (q, p) grid: both bracket probes on the
        full kernel of every cell, then the one-cell search on each cell they
        leave open."""
        axes = tight_epsilon_factors(q_axis[:, None], p_axis[None, :], d, delta)
        met = tight_epsilon_at_n(axes, 2) <= eps_bar
        reached = tight_epsilon_at_n(axes, n_cap) <= eps_bar
        n1 = np.where(met, 2, 0)
        evals = np.where(met | (n_cap == 2), 1, 2)
        for i in np.flatnonzero(reached & ~met):
            q, p = int(q_axis[i // p_axis.size]), float(p_axis[i % p_axis.size])
            n1[i], evals[i] = scalar_search(
                lambda n: tight_epsilon_value(q, n, p, d, delta), eps_bar, n_cap
            )
        return n1, evals

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(1, 2000),
        log_delta=st.floats(-8.0, -0.7),
        n_cap=st.integers(3, 300),
        anchor_frac=st.floats(0.0, 1.0),
        p_anchor=st.floats(0.05, 0.95),
        p_two=st.floats(0.05, 0.95),
        q_extra=st.lists(st.integers(2, 5000), max_size=4),
        p_extra=st.lists(st.floats(0.02, 0.98), max_size=3),
    )
    def test_lead_pass_matches_whole_grid_bracket(
        self, d, log_delta, n_cap, anchor_frac, p_anchor, p_two, q_extra, p_extra
    ):
        delta = 10.0**log_delta

        def eps(q, n, p):
            return tight_epsilon_value(q, n, p, d, delta)

        def lead(q, n, p):
            return tight_epsilon_lead(tight_epsilon_factors(q, p, d, delta), n)

        # (q_anchor, p_anchor) searches, (2, p_two) is met at n = 2,
        # (q_blocked, p_anchor) is blocked at n_cap, and the lead alone rules
        # out (q_far, p_anchor)
        n_anchor = 3 + int(anchor_frac * (n_cap - 3))
        q_anchor = _first_q(lambda q: eps(q, n_anchor, p_anchor) >= eps(2, 2, p_two), 2)
        eps_bar = eps(q_anchor, n_anchor, p_anchor)
        q_blocked = _first_q(lambda q: eps(q, n_cap, p_anchor) > eps_bar, q_anchor)
        q_far = _first_q(lambda q: lead(q, n_cap, p_anchor) > eps_bar, q_blocked)
        q_axis = np.array(sorted({2, q_anchor, q_blocked, q_far, *q_extra}))
        p_axis = np.array(sorted({p_anchor, p_two, *p_extra}))

        n1, evals = lockstep_min_n(
            *tight_kernel(q_axis[:, None], p_axis[None, :], d, delta), eps_bar, n_cap
        )
        ref_n1, ref_evals = self.whole_grid_bracket(q_axis, p_axis, d, delta, eps_bar, n_cap)
        assert n1.tolist() == ref_n1.tolist() and evals.tolist() == ref_evals.tolist()

        def cell(q, p):
            return list(q_axis).index(q) * p_axis.size + list(p_axis).index(p)

        assert n1[cell(q_anchor, p_anchor)] == n_anchor
        assert n1[cell(2, p_two)] == 2
        assert n1[cell(q_blocked, p_anchor)] == 0
        assert (n1[cell(q_far, p_anchor)], evals[cell(q_far, p_anchor)]) == (0, 2)

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(1, 10**6),
        log_delta=st.floats(-12.0, -0.7),
        n_cap=st.one_of(st.integers(2, 300), st.sampled_from([2, 2**16, 2**40])),
        q_axis=st.lists(st.integers(2, 5000), min_size=1, max_size=5, unique=True),
        p_axis=st.lists(st.floats(0.02, 0.98), min_size=1, max_size=5, unique=True),
        below=st.floats(0.0, 1.0),
    )
    def test_no_candidates_matches_whole_grid_bracket(
        self, d, log_delta, n_cap, q_axis, p_axis, below
    ):
        # eps_bar under every cell's lead at n_cap: the lead rules out all
        delta = 10.0**log_delta
        q_axis, p_axis = np.array(sorted(q_axis)), np.array(sorted(p_axis))
        axes = tight_epsilon_factors(q_axis[:, None], p_axis[None, :], d, delta)
        least = float(tight_epsilon_lead(axes, n_cap).min())
        eps_bar = below * math.nextafter(least, 0.0)
        n1, evals = lockstep_min_n(
            *tight_kernel(q_axis[:, None], p_axis[None, :], d, delta), eps_bar, n_cap
        )
        ref_n1, ref_evals = self.whole_grid_bracket(q_axis, p_axis, d, delta, eps_bar, n_cap)
        assert n1.tolist() == ref_n1.tolist() == [0] * n1.size
        assert evals.tolist() == ref_evals.tolist() == [1 if n_cap == 2 else 2] * n1.size

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(1, 10**6),
        log_delta=st.floats(-12.0, -0.7),
        # deep ladders: n_cap up to 2^62, at and next to powers of two
        n_cap=st.one_of(
            st.integers(3, 2**62),
            st.builds(lambda k, off: 2**k + off, st.integers(2, 61), st.integers(-1, 1)),
            st.just(2**62),
        ),
        target=st.floats(0.0, 1.0),
        q_anchor=st.integers(2, 5000),
        p_anchor=st.floats(0.05, 0.95),
        extra=st.lists(st.tuples(st.integers(2, 5000), st.floats(0.02, 0.98)), max_size=6),
    )
    def test_deep_searches_match_scalar_search(
        self, d, log_delta, n_cap, target, q_anchor, p_anchor, extra
    ):
        delta = 10.0**log_delta

        def eps(q, n, p):
            return tight_epsilon_value(q, n, p, d, delta)

        # eps_bar is the anchor cell's budget at a trial count drawn
        # log-uniformly from [3, n_cap], so its search runs that deep
        n_target = min(n_cap, max(3, int(3 * (n_cap / 3) ** target)))
        eps_bar = eps(q_anchor, n_target, p_anchor)
        cells = [(q_anchor, p_anchor)] + extra
        q = np.array([c[0] for c in cells])
        p = np.array([c[1] for c in cells])
        n1, evals = lockstep_min_n(*tight_kernel(q, p, d, delta), eps_bar, n_cap)
        for i, (qi, pi) in enumerate(cells):
            ref = scalar_search(lambda n: eps(qi, n, pi), eps_bar, n_cap)
            assert (n1[i], evals[i]) == ref
        assert n1[0] > 2

    def test_memory_is_linear_in_cells_not_in_the_ladder(self):
        # ~10^5 candidate cells; a cells x log2(n_cap) table of leads would
        # hold ~4x as much at n_cap 2^62 as at 2^16
        d, delta = 1000, 1e-6
        q = np.arange(2, 1002)[:, None]
        p = np.linspace(0.5, 0.99, 100)[None, :]
        kernel = tight_kernel(q, p, d, delta)
        eps_bar = float(tight_epsilon_at_n(kernel[0], 2**12).max())

        def peak(n_cap):
            lockstep_min_n(*kernel, eps_bar, n_cap)  # numpy's one-time allocations
            tracemalloc.start()
            try:
                n1, _ = lockstep_min_n(*kernel, eps_bar, n_cap)
                return tracemalloc.get_traced_memory()[1], n1
            finally:
                tracemalloc.stop()

        low, n1_low = peak(2**16)
        high, n1_high = peak(2**62)
        assert np.array_equal(n1_low, n1_high) and n1_low.min() >= 2 and n1_low.max() > 2
        assert high <= 1.5 * low

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

    @pytest.mark.parametrize(
        "eps_bar, tuple_, cells_total, cells_feasible, eps_evaluations, max_evals",
        [
            (5.0, (17, 64978, 0.5), 20_200, 497, 54_361, 31),
            (7.5, (31, 63369, 0.5), 33_450, 983, 94_286, 31),
        ],
    )
    def test_builtin_solve_pinned_at_eps_bar(
        self, eps_bar, tuple_, cells_total, cells_feasible, eps_evaluations, max_evals
    ):
        # a change to the probe sequence moves these work counts
        cfg = RunConfig.defaults()
        system = cfg.build_system()
        ctx = cfg.build_context(system)
        sol, stats = solve_with_stats(system, cfg.build_solver(ctx, eps_bar=eps_bar), ctx)
        assert (sol.q, sol.n, sol.p) == tuple_
        assert stats.cells_total == cells_total
        assert stats.cells_feasible == cells_feasible
        assert stats.eps_evaluations == eps_evaluations
        assert stats.max_evals_per_cell == max_evals


    @pytest.mark.parametrize("eps_bar, calls, elements", [
        (5.0, 17, 8_262),
        (7.5, 18, 16_433),
        (10.0, 18, 25_947),
    ])
    def test_builtin_full_kernel_work_pinned(self, eps_bar, calls, elements, monkeypatch):
        # the lead decides the doubling probes it puts above eps_bar, so the
        # full kernel runs on fewer elements than the counters above count
        work = []

        def counted(factors, n):
            out = tight_epsilon_at_n(factors, n)
            work.append(out.size)
            return out

        monkeypatch.setattr(solver_module, "tight_epsilon_at_n", counted)
        cfg = RunConfig.defaults()
        system = cfg.build_system()
        ctx = cfg.build_context(system)
        solve_with_stats(system, cfg.build_solver(ctx, eps_bar=eps_bar), ctx)
        assert (len(work), sum(work)) == (calls, elements)

    def test_builtin_solve_builds_the_factors_once(self, monkeypatch):
        # on the (Q, 1) q column and the (1, P) p row; the search gathers
        # the factors of the cells it keeps from those
        built = []

        def counted(q, p, d, delta):
            built.append((np.shape(q), np.shape(p)))
            return tight_epsilon_factors(q, p, d, delta)

        monkeypatch.setattr(solver_module, "tight_epsilon_factors", counted)
        cfg = RunConfig.defaults()
        system = cfg.build_system()
        ctx = cfg.build_context(system)
        _, stats = solve_with_stats(system, cfg.build_solver(ctx), ctx)
        assert built == [((stats.q_hi - 1, 1), (1, stats.p_grid_size))]


class TestHalfColumnDecides:
    """In the search's (q, p) grid the p = 1/2 column bounds every row: a row
    that reaches the budget at some p reaches it at 1/2, and no reached cell
    needs fewer trials than the row's 1/2 cell.  Asserted exactly."""

    @staticmethod
    def assert_half_column_decides(n1):
        # n1 on the (Q, P) grid, its first column p = 1/2
        reached = n1 > 0
        assert np.all(n1[reached.any(axis=1), 0] > 0)
        assert np.all(n1[reached] >= np.broadcast_to(n1[:, :1], n1.shape)[reached])

    @settings(max_examples=100, deadline=None)
    @given(
        q_hi=st.integers(2, 200),
        d=st.integers(1, 2**24),
        log_delta=st.floats(-14.0, -1.0),
        n_cap=st.integers(2, 2**30),
        # eps_bar this many times the budget at q = 2, p = 1/2 and n_cap, so
        # that row is reached and others may be
        log_slack=st.floats(0.0, 2.0),
        lam=st.one_of(st.integers(4, 250).map(lambda k: 1.0 / k), st.floats(0.004, 0.25)),
    )
    def test_lockstep_output(self, q_hi, d, log_delta, n_cap, log_slack, lam):
        delta = 10.0**log_delta
        eps_bar = tight_epsilon_value(2, n_cap, 0.5, d, delta) * 10.0**log_slack
        q = np.arange(2, q_hi + 1)[:, None]
        p = p_grid(lam)[None, :]
        n1, _ = lockstep_min_n(tight_epsilon_factors(q, p, d, delta), tight_epsilon_at_n, tight_epsilon_lead,
                               eps_bar, n_cap)
        n1 = n1.reshape(q.size, p.size)
        assert n1[0, 0] > 0
        self.assert_half_column_decides(n1)

    @pytest.mark.parametrize("config, eps_bar", [
        (DESK_CONFIG, 20.0), (DESK_CONFIG, 30.0), (DESK_CONFIG, 45.0), (DESK_CONFIG, 100.0),
        (None, 5.0), (None, 7.5), (None, 10.0),
    ], ids=["desk-20", "desk-30", "desk-45", "desk-100", "defaults-5", "defaults-7.5", "defaults-10"])
    def test_solve_grid(self, config, eps_bar, monkeypatch):
        grids = []

        def recorded(factors, *args):
            n1, evals = lockstep_min_n(factors, *args)
            grids.append(n1.reshape(np.broadcast_shapes(*map(np.shape, factors))))
            return n1, evals

        monkeypatch.setattr(solver_module, "lockstep_min_n", recorded)
        cfg = (RunConfig.from_yaml(config) if config else RunConfig.defaults()).merged({"solver": {"eps_bar": eps_bar}})
        system = cfg.build_system()
        ctx = cfg.build_context(system)
        _, stats = solve_with_stats(system, cfg.build_solver(ctx), ctx)
        [n1] = grids
        assert n1.shape == (stats.q_hi - 1, stats.p_grid_size)
        self.assert_half_column_decides(n1)


class TestNFromConstraints:
    def test_floor_term_wins(self):
        ctx = PrivacyContext(d=1000, delta=1e-6, K=5)
        floor = math.ceil(dp_variance_threshold(3, 1000, 1e-6) / (5 * 0.25))
        assert floor > 7
        assert min_trials(3, 0.5, ctx) == floor

    def test_privacy_term_wins(self):
        ctx = PrivacyContext(d=1, delta=0.5, K=100000)
        assert min_trials(3, 0.5, ctx) <= 7

    def test_output_satisfies_variance_floor(self, rng):
        for _ in range(200):
            q = int(rng.integers(2, 100))
            p = float(rng.uniform(0.05, 0.95))
            d = int(rng.integers(1, 50000))
            delta = 10.0 ** rng.uniform(-10, -1)
            K = int(rng.integers(1, 3000))
            ctx = PrivacyContext(d=d, delta=delta, K=K)
            n = max(int(min_trials(q, p, ctx)), int(rng.integers(2, 64)))
            # exact: the product form holds at n, the gate accepts the floor and
            # rejects one less
            thr = dp_variance_threshold(q, d, delta)
            assert K * n * p * (1.0 - p) >= thr
            floor = int(min_trials(q, p, ctx))
            assert n >= floor and K * floor * p * (1.0 - p) >= thr
            epsilon_tight(q, max(floor, 2), p, ctx)
            if floor > 2:
                with pytest.raises(NotApplicableError):
                    epsilon_tight(q, floor - 1, p, ctx)


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
                qb = qbar(system, cfg.eps_bar, ctx)
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
        factors = tight_epsilon_factors(q, p, ctx.d, ctx.delta)
        eps = tight_epsilon_at_n(factors, n).reshape(q.size, n.size, p.size)
        env = np.array([qbar_envelope(int(qq), system, ctx) for qq in q.ravel()])
        admitted = np.broadcast_to(n <= cap - q, eps.shape)
        assert np.all(env[:, None, None] <= np.where(admitted, eps, np.inf))

    def test_whole_domain_when_the_envelope_allows_it(self):
        system = make_system(K=5, d=10, delta=1e-2, base_target=30.0)
        ctx = make_context(system)
        cfg = small_cfg(eps_bar=1e6)
        bound = domain_bound(system)
        assert qbar_envelope(bound, system, ctx) <= cfg.eps_bar
        assert qbar(system, cfg.eps_bar, ctx) == bound

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
                qb = qbar(scaled, cfg.eps_bar, ctx)
            except AllInfeasibleError:
                qb = 1
            assert qb >= prev
            prev = qb


class TestErrorMachinery:
    def test_mu_reference_points(self):
        assert mu_from_eta(3.0 / 16.0) == 4.0
        assert mu_from_eta(0.25) == 2.0
        assert mu_from_eta(0.09) == pytest.approx(10.0, rel=1e-12)

    @pytest.mark.parametrize("eta", [1e-19, 1e-9, 1.27e-5, 0.1138, 0.2499])
    def test_mu_matches_50_digit_reference(self, eta):
        # 2 / (1 - sqrt(1 - 4*eta)) as written cancels: 2.6e-8 off at 1e-9,
        # a division by zero at 1e-19
        with mpmath.workdps(50):
            ref = 2 / (1 - mpmath.sqrt(1 - 4 * mpmath.mpf(eta)))
            assert abs(mu_from_eta(eta) - ref) / ref <= 2.0**-52

    def test_n_cap_bounded_by_the_int64_search(self):
        # lockstep_min_n forms lo + hi in int64
        with pytest.raises(ValueError, match="n_cap"):
            small_cfg(n_cap=2**62 + 1)
        cfg = RunConfig.defaults().merged({"solver": {"n_cap": 2**62}})
        system = cfg.build_system()
        ctx = cfg.build_context(system)
        sol = solve(system, cfg.build_solver(ctx), ctx)
        assert (sol.q, sol.n, sol.p) == (48, 64592, 0.5)

    def test_mu_approaches_inverse_eta(self):
        eta = 1e-4
        assert mu_from_eta(eta) * eta == pytest.approx(1.0, rel=1e-2)

    def test_eta_above_quarter_signals(self):
        ctx = PrivacyContext(d=1000, delta=1e-8, K=1)
        with pytest.raises(InfeasibleError, match="variance floor"):
            eta_and_mu_values(2, ctx)

    @settings(max_examples=40, deadline=None)
    @given(K=st.integers(1, 40), d=st.integers(2, 40), delta=st.floats(1e-4, 0.05),
           n_cap=st.integers(8, 512), base_target=st.floats(12.0, 200.0), eps_bar=st.floats(5.0, 80.0))
    def test_a_returned_solve_has_eta_at_most_a_quarter(self, K, d, delta, n_cap, base_target, eps_bar):
        # eta > 1/4 means the floor needs more than n_cap trials even at q = 2,
        # p = 1/2, so no cell is feasible and the solve raises instead
        system = make_system(K=K, M=K, d=d, delta=delta, base_target=base_target)
        ctx = make_context(system)
        floor_fits = min_trials(2, 0.5, ctx) <= n_cap
        try:
            solve_with_stats(system, small_cfg(eps_bar=eps_bar, lam=0.05, n_cap=n_cap), ctx)
        except InfeasibleError:
            return
        assert floor_fits
        eta, mu = eta_and_mu_values(n_cap, ctx)
        assert type(eta) is float and type(mu) is float
        assert 0.0 < eta <= 0.25 and mu >= 2.0

    def test_lambda_strictly_below_target(self, rng):
        checked = 0
        while checked < 30:
            ctx = PrivacyContext(d=int(rng.integers(2, 200)), delta=float(rng.uniform(1e-6, 0.05)),
                                 K=int(rng.integers(1, 100)))
            n_cap = int(rng.integers(2, 10_000))
            rho = float(rng.uniform(0.01, 1.0))
            if min_trials(2, 0.5, ctx) > n_cap:
                continue
            cfg = SolverConfig.for_target_error(10.0, rho, n_cap, ctx)
            _, mu = eta_and_mu_values(n_cap, ctx)
            assert cfg.lambda_step < rho / mu
            assert cfg.lambda_step / (rho / mu) == pytest.approx(0.99)
            checked += 1

    def test_grid_size_bound(self, rng):
        # the 1/(2 lambda) + 1 count is off by up to one point (integer
        # counting in an open interval); the +2 form is exact
        for _ in range(20):
            lam = float(rng.uniform(0.001, 0.4))
            grid = p_grid(lam)
            assert grid[0] == 0.5
            assert all(0.5 < p < 1.0 for p in grid[1:])
            assert len(grid) <= 1.0 / (2.0 * lam) + 2.0

    @staticmethod
    def loop_grid(lam):
        # reference form: step i up from past 1/2 until i * lam reaches 1
        grid = [0.5]
        i = math.floor(0.5 / lam) + 1
        while True:
            p = i * lam
            if p >= 1.0:
                break
            if p > 0.5:
                grid.append(p)
            i += 1
        return grid

    @settings(max_examples=300, deadline=None)
    @given(lam=st.one_of(st.floats(1e-5, 0.5, exclude_max=True),
                         st.integers(3, 100_000).map(lambda k: 1.0 / k)))
    def test_grid_equals_the_loop_form(self, lam):
        grid = p_grid(lam)
        assert grid.dtype == np.float64
        assert grid.tolist() == self.loop_grid(lam)


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

    def test_scalar_results_are_python_floats(self):
        # the budget kernel runs on numpy for scalars too; what a solve
        # reports stays plain Python, which the CSV writer prints with repr()
        cfg = RunConfig.from_yaml(DESK_CONFIG)
        system = cfg.build_system()
        ctx = cfg.build_context(system)
        scfg = cfg.build_solver(ctx)
        sol, _ = solve_with_stats(system, scfg, ctx)
        assert type(sol.epsilon_achieved) is float
        eta, mu = eta_and_mu_values(scfg.n_cap, ctx)
        assert type(eta) is float and type(mu) is float

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

    def test_suboptimal_tuple_doubles_n_at_q_2(self):
        # q = 2 cannot shrink, so the worse tuple inflates n instead; K = 30
        # puts the variance floor at 34 trials, under n = 40
        system = make_system(K=30, d=6, delta=1e-3, base_target=1000.0)
        ctx = make_context(system)
        cfg = small_cfg(n_cap=1024)
        sol = solver_module._solution(2, 40, 0.5, system, ctx)
        bad = suboptimal_tuple(sol, system, cfg, ctx)
        assert (bad.q, bad.n, bad.p) == (2, 320, 0.5)
        assert bad.objective >= SUBOPT_FACTOR * sol.objective
        assert bad == solver_module._solution(2, 320, 0.5, system, ctx)

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

    def test_independent_of_the_search(self, monkeypatch):
        # the oracle may call the budget kernel, never the search it checks
        system = make_system(K=40, d=12, delta=1e-3, base_target=50.0)
        ctx = make_context(system)
        cfg = SolverConfig.for_target_error(40.0, 0.1, 64, ctx)
        expected = brute_force_solve(system, cfg, ctx, fine_factor=3)

        def forbidden(*args, **kwargs):
            raise AssertionError("search code called")

        for name in ("lockstep_min_n", "qbar", "qbar_envelope", "p_grid", "min_trials"):
            monkeypatch.setattr(solver_module, name, forbidden)
        with pytest.raises(AssertionError, match="search code called"):
            solve(system, cfg, ctx)
        assert brute_force_solve(system, cfg, ctx, fine_factor=3) == expected

    @staticmethod
    def exhaustive_scan(system, cfg, ctx, fine_factor):
        """Reference oracle: every (q, p, n) of the oracle's grid, no row
        skipped.  Returns the least (objective, q, p, n) over the feasible
        tuples, or None, and how many (q, p) rows admit no n under the
        floor and the caps."""
        lam = cfg.lambda_step / fine_factor
        ps, i = {0.5}, 1
        while i * lam < 1.0:
            ps.add(i * lam)
            i += 1
        cap = capacity_base(system)
        if cfg.bit_cap is not None:
            cap = min(cap, float(2**cfg.bit_cap))
        best, floor_rows = None, 0
        for q in range(2, domain_bound(system) + 1):
            thr = dp_variance_threshold(q, ctx.d, ctx.delta)
            ns = range(2, min(cfg.n_cap, math.floor(cap - q)) + 1)
            for p in sorted(ps):
                if not any(ctx.K * n * p * (1.0 - p) >= thr for n in ns):
                    floor_rows += 1
                for n in range(2, cfg.n_cap + 1):
                    if tuple_feasible(q, n, p, system, cfg, ctx):
                        cand = (objective(q, n, p), q, p, n)
                        if best is None or cand < best:
                            best = cand
        return best, floor_rows

    @pytest.mark.parametrize(
        "K, d, delta, base_target, eps_bar, lam, n_cap, bit_cap, fine_factor",
        [
            pytest.param(40, 4, 1.5e-3, 28.8, 505.0, 0.1, 48, None, 2, id="most-rows-fail-the-floor"),
            pytest.param(150, 12, 2e-3, 37.8, 472.0, 0.07, 24, 5, 2, id="bit-cap-cuts-n"),
            pytest.param(300, 7, 0.018, 34.0, 132.7, 0.07, 16, None, 3, id="off-half"),
            pytest.param(80, 8, 9e-3, 31.7, 367.0, 0.1, 16, 4, 1, id="bit-cap-binds"),
        ],
    )
    def test_matches_an_unpruned_scan(
        self, K, d, delta, base_target, eps_bar, lam, n_cap, bit_cap, fine_factor
    ):
        system = make_system(K=K, d=d, delta=delta, base_target=base_target)
        ctx = make_context(system)
        cfg = SolverConfig(eps_bar=eps_bar, lambda_step=lam, n_cap=n_cap, bit_cap=bit_cap)
        best, floor_rows = self.exhaustive_scan(system, cfg, ctx, fine_factor)
        assert best is not None and floor_rows > 0
        phi, q, p, n = best
        if bit_cap is not None:
            # the bit cap, not the channel, cuts n at the optimum's q
            assert 2**bit_cap < capacity_base(system) and 2**bit_cap - q < n_cap
        assert brute_force_solve(system, cfg, ctx, fine_factor=fine_factor) == Solution(
            q=q, n=n, p=p, powers=assign_powers(q, n, system), objective=phi,
            epsilon_achieved=tight_epsilon_value(q, n, p, d, delta),
        )

    def test_nothing_feasible_raises(self):
        system = make_system(K=5, d=10, delta=1e-2, base_target=30.0)
        ctx = make_context(system)
        with pytest.raises(InfeasibleError, match="exhaustive scan"):
            brute_force_solve(system, small_cfg(eps_bar=1e-3), ctx)

    def test_guarantee_on_one_instance(self):
        system = make_system(K=40, d=12, delta=1e-3, base_target=50.0)
        ctx = make_context(system)
        eta, mu = eta_and_mu_values(64, ctx)
        assert eta < 0.25
        cfg = SolverConfig.for_target_error(40.0, 0.1, 64, ctx)
        lam = cfg.lambda_step
        sol = solve(system, cfg, ctx)
        oracle = brute_force_solve(system, cfg, ctx, fine_factor=3)
        assert sol.objective <= oracle.objective * (1.0 + mu * lam)
        assert sol.objective <= oracle.objective * 1.1


@pytest.mark.parametrize("config, eps_bar", [(None, 5.0), (None, 7.5), (None, 10.0), (DESK_CONFIG, None)])
def test_solutions_pass_the_gate_and_certify_bit_for_bit(config, eps_bar):
    cfg = RunConfig.from_yaml(config) if config else RunConfig.defaults()
    if eps_bar is not None:
        cfg = cfg.merged({"solver": {"eps_bar": eps_bar}})
    system = cfg.build_system()
    ctx = cfg.build_context(system)
    sol, _ = solve_with_stats(system, cfg.build_solver(ctx), ctx)
    assert sol.n >= min_trials(sol.q, sol.p, ctx)
    eps = tight_epsilon_value(sol.q, sol.n, sol.p, ctx.d, ctx.delta)
    assert epsilon_tight(sol.q, sol.n, sol.p, ctx) == eps == sol.epsilon_achieved


@pytest.fixture(scope="module")
def desk_instance():
    cfg = RunConfig.from_yaml(DESK_CONFIG)
    system = cfg.build_system()
    ctx = cfg.build_context(system)
    scfg = cfg.build_solver(ctx)
    sol = solve(system, scfg, ctx)
    assert (sol.q, sol.n, sol.p) == (8, 241, 0.5)
    return sol, system, scfg, ctx


@pytest.mark.parametrize("broken, config, message", [
    # one field of the desk solution changed, or one setting the tuple must meet
    ({"q": 1}, {}, "q=1 outside"),
    ({"q": 289}, {}, "q=289 outside {2..288}"),
    ({"n": 0}, {}, "n=0 outside"),
    ({"n": 289}, {}, "n=289 outside {2..288}"),
    ({}, {"n_cap": 240}, "n=241 above n_cap=240"),
    ({"p": 0.0}, {}, "p=0.0 outside (0, 1)"),
    ({"p": 1.0}, {}, "p=1.0 outside (0, 1)"),
    ({"p": 1.5}, {}, "p=1.5 outside (0, 1)"),
    ({"p": math.nan}, {}, "p=nan outside (0, 1)"),
    ({"p": 1e-3}, {}, "noise variance below its required floor"),
    ({}, {"eps_bar": 29.0}, "budget 29.9672 exceeds eps_bar=29.0"),
    ({"epsilon_achieved": math.inf}, {}, "non-finite budget"),
    ({"epsilon_achieved": 29.9}, {}, "stored epsilon_achieved disagrees"),
    ({}, {"bit_cap": 7}, "q + n = 249 breaks the 7-bit cap"),
    ({"powers": "drop one"}, {}, "11 powers for K=12 devices"),
    ({"powers": "add one"}, {}, "13 powers for K=12 devices"),
    ({"powers": "first at zero"}, {}, "power of device 0 outside [p_min, p_max]"),
    ({"powers": "first above p_max"}, {}, "power of device 0 outside [p_min, p_max]"),
    ({"powers": "all at p_min"}, {}, "capacity constraint violated"),
    ({"objective": 1.5}, {}, "stored objective disagrees"),
    # a fractional q with the matching objective and budget once passed clean
    ({"q": 7.5, "objective": objective(7.5, 241, 0.5),
      "epsilon_achieved": tight_epsilon_value(7.5, 241, 0.5, 40, 1e-4)}, {}, "q=7.5 outside {2..288}"),
])
def test_check_solution_reports_each_broken_constraint(desk_instance, broken, config, message):
    sol, system, scfg, ctx = desk_instance
    assert check_solution(sol, system, scfg, ctx) == []
    powers = {
        "drop one": sol.powers[:-1],
        "add one": sol.powers + (sol.powers[-1],),
        "first at zero": (0.0,) + sol.powers[1:],
        "first above p_max": (2.0 * system.p_max,) + sol.powers[1:],
        "all at p_min": (system.p_min,) * system.K,
    }
    if "powers" in broken:
        broken = {"powers": powers[broken["powers"]]}
    problems = check_solution(
        dataclasses.replace(sol, **broken), system, dataclasses.replace(scfg, **config), ctx
    )
    assert any(message in problem for problem in problems), problems
