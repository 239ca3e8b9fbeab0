"""Joint optimization of quantization level, Binomial noise, and power.

The search minimizes (1 + n*p*(1-p)) / (q-1)^2 over integer q and n, a
probability grid of pitch lambda for p, and per-device powers, subject to
the privacy-budget cap, the noise-variance floor, channel capacity and the
power limits.  The cells form a Cartesian grid, a column of q values
against a row of p values, and every (q, p) cell needs the smallest trial
count whose (monotone in n) budget estimate meets the cap.
``lockstep_min_n`` runs the doubling-plus-bisection search for all cells at
once, about 2*log2(n_cap) calls of the broadcast budget kernel per solve.
Its two bracket probes (n = 2 and n = n_cap) each make one call on the q
and p axes with a scalar n, so the q-only and p-only factors are computed
once per axis value and only the terms that mix the axes run on every
cell; each later step is one call on the cells still searching.  The
variance-floor ceiling, the trial-count, capacity and bit caps broadcast
over the same axes, and the tie-break is an argmin over the cells in
q-major order.  The q range is pre-pruned by a monotone lower envelope of
the budget, and p is restricted to [1/2, 1) because every constraint and
the objective are symmetric around 1/2.  ``payload_caps`` is the one place
that turns the channel and the bit cap into limits on q and on q + n.

``brute_force_solve`` is the test oracle: an exhaustive scan over a denser
p grid and every single n, sharing nothing with the search logic above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    AllInfeasibleError,
    ConfigError,
    ErrorBoundUnavailableError,
    InfeasibleError,
    PrivacyInfeasibleError,
)
from .privacy import (
    ALPHA,
    PrivacyContext,
    _sensitivity_triple,
    dp_variance_threshold,
    tight_epsilon_n_array,
    tight_epsilon_value,
)
from .wireless import (
    SystemParams,
    assign_powers,
    capacity_base,
    capacity_feasible,
    domain_bound,
)


# the search holds a few float arrays over every (q, p) cell at once; at
# this many cells one solve peaks near 300 MiB
MAX_GRID_CELLS = 2**22


@dataclass(frozen=True)
class SolverConfig:
    """Search configuration.

    eps_bar: privacy budget cap; rho: target relative error the pitch was
    derived from (informational once lambda_step is fixed); lambda_step:
    pitch of the p grid; n_cap: largest trial count the search will ever
    probe; bit_cap: optional hard cap b on payload bits per coordinate,
    enforcing q + n <= 2^b.
    """

    eps_bar: float
    lambda_step: float
    n_cap: int
    rho: float | None = None
    bit_cap: int | None = None

    def __post_init__(self):
        if not (math.isfinite(self.eps_bar) and self.eps_bar > 0.0):
            raise ValueError(f"eps_bar must be positive and finite, got {self.eps_bar}")
        if not (0.0 < self.lambda_step < 0.5):
            raise ValueError(f"lambda_step must lie in (0, 1/2), got {self.lambda_step}")
        if self.n_cap < 2:
            raise ValueError(f"n_cap must be >= 2, got {self.n_cap}")
        if self.rho is not None and self.rho <= 0.0:
            raise ValueError(f"rho must be positive, got {self.rho}")
        if self.bit_cap is not None and not (2 <= self.bit_cap <= 63):
            raise ValueError(f"bit_cap must lie in [2, 63] (an int64 payload), got {self.bit_cap}")

    @classmethod
    def for_target_error(
        cls,
        eps_bar: float,
        rho: float,
        n_cap: int,
        ctx: PrivacyContext,
        bit_cap: int | None = None,
    ) -> "SolverConfig":
        """Build a config whose grid pitch guarantees relative error < rho."""
        _, mu = eta_and_mu_values(n_cap, ctx)
        return cls(
            eps_bar=eps_bar,
            lambda_step=lambda_for_rho(rho, mu),
            n_cap=n_cap,
            rho=rho,
            bit_cap=bit_cap,
        )


@dataclass(frozen=True)
class Solution:
    """One feasible point of the joint problem, with its score."""

    q: int
    n: int
    p: float
    powers: tuple[float, ...]
    objective: float
    epsilon_achieved: float


@dataclass
class SolveStats:
    """Bookkeeping of one solve run, for reports and complexity checks."""

    eta: float | None
    mu: float | None
    lambda_step: float
    p_grid_size: int
    q_lo: int
    q_hi: int
    cells_total: int = 0
    cells_feasible: int = 0
    eps_evaluations: int = 0
    max_evals_per_cell: int = 0


def objective(q, n, p):
    """Convergence-rate surrogate (1 + n*p*(1-p)) / (q-1)^2; lower is faster.

    Broadcasts over arrays of q, n and p.
    """
    if np.any(q < 2):
        raise ValueError(f"q must be >= 2, got {q}")
    if np.any(n < 1):
        raise ValueError(f"n must be >= 1, got {n}")
    if np.any((p <= 0.0) | (p >= 1.0)):
        raise ValueError(f"p must lie in (0, 1), got {p}")
    pq = p * (1.0 - p)
    return (1.0 + n * pq) / (q - 1) ** 2


def lockstep_min_n(
    q,
    p,
    eps_fn: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    eps_bar: float,
    n_cap: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Smallest trial count meeting eps_bar, for every (q, p) cell at once.

    q and p broadcast against each other to the cell grid, e.g. a (Q, 1)
    column of q values and a (1, P) row of p values; cells are numbered in
    C order of the broadcast shape.  Per cell this is the doubling-plus-
    bisection search on the budget estimate, which must be non-increasing
    in n: probe n = 2, then n_cap, then double from 2 until the budget is
    met (n_cap ends the doubling), then bisect.  The two bracket probes are
    one call ``eps_fn(q, n, p)`` each, on q and p as given and a scalar n;
    every later step is one call on 1-D arrays of the cells still
    searching.  ``eps_fn`` returns the budget flattened in C order of the
    broadcast shape of its arguments.

    Returns ``(n1, evals)``, both flat over the cells: n1[i] is the trial
    count, or 0 where even n_cap misses the budget; evals[i] counts the
    distinct trial counts probed.
    """
    shape = np.broadcast_shapes(np.shape(q), np.shape(p))
    size = math.prod(shape)
    met = eps_fn(q, 2, p) <= eps_bar
    n1 = np.zeros(size, dtype=np.int64)
    n1[met] = 2
    if n_cap == 2 or met.all():
        return n1, np.ones(size, dtype=np.int64)
    evals = np.where(met, 1, 2)
    cells = np.flatnonzero((eps_fn(q, n_cap, p) <= eps_bar) & ~met)
    at = np.unravel_index(cells, shape)
    q, p = np.broadcast_to(q, shape)[at], np.broadcast_to(p, shape)[at]
    # eps(lo) > eps_bar >= eps(hi) holds for every searching cell
    lo = np.full(cells.size, 2, dtype=np.int64)
    hi = np.full(cells.size, n_cap, dtype=np.int64)
    doubling = 2 * lo < n_cap
    while True:
        done = hi - lo <= 1
        n1[cells[done]] = hi[done]
        keep = ~done
        cells, q, p = cells[keep], q[keep], p[keep]
        lo, hi, doubling = lo[keep], hi[keep], doubling[keep]
        if cells.size == 0:
            return n1, evals
        probe = np.where(doubling, 2 * lo, (lo + hi) // 2)
        evals[cells] += 1
        above = eps_fn(q, probe, p) > eps_bar
        lo = np.where(above, probe, lo)
        hi = np.where(above, hi, probe)
        doubling &= above & (2 * lo < n_cap)


def n_from_constraints(q, p, n1, ctx: PrivacyContext):
    """Final trial count: the variance-floor ceiling joined with n1.

    Broadcasts over arrays of q, p and n1.
    """
    pq = p * (1.0 - p)
    n_floor = np.ceil(dp_variance_threshold(q, ctx.d, ctx.delta) / (ctx.K * pq))
    return np.maximum(n_floor, n1).astype(np.int64)


def mu_from_eta(eta: float) -> float:
    """Error amplification 2 / (1 - sqrt(1 - 4*eta)); ~1/eta for small eta."""
    if not (0.0 < eta < 0.25):
        raise ErrorBoundUnavailableError(
            f"eta = {eta:.4g} outside (0, 1/4): no relative-error factor can be quoted"
        )
    return 2.0 / (1.0 - math.sqrt(1.0 - 4.0 * eta))


def eta_and_mu_values(n_cap: int, ctx: PrivacyContext) -> tuple[float, float]:
    """Grid-error parameters (eta, mu) for a given trial-count cap.

    eta lower-bounds p*(1-p) at any feasible optimum; mu then converts a
    grid pitch into a relative-error factor.  Raises
    :class:`ErrorBoundUnavailableError` at eta >= 1/4, where no feasible
    point exists even at p = 1/2 with n = n_cap and the machinery breaks.
    """
    eta = max(23.0 * math.log(10.0 * ctx.d / ctx.delta), 6.0) / (ctx.K * n_cap)
    return eta, mu_from_eta(eta)


def lambda_for_rho(rho: float, mu: float) -> float:
    """Grid pitch that keeps the relative-error guarantee under rho.

    Any pitch strictly below rho/mu qualifies; a 0.99 safety factor keeps
    the returned value clear of the boundary.
    """
    if rho <= 0.0 or mu <= 0.0:
        raise ValueError("rho and mu must be positive")
    return 0.99 * rho / mu


def p_grid(lambda_step: float) -> list[float]:
    """Probability grid {1/2} plus every multiple of the pitch in (1/2, 1)."""
    grid = [0.5]
    i = math.floor(0.5 / lambda_step) + 1
    while True:
        p = i * lambda_step
        if p >= 1.0:
            break
        if p > 0.5:
            grid.append(p)
        i += 1
    return grid


def qbar_envelope(q: int, sys: SystemParams, ctx: PrivacyContext) -> float:
    """Monotone-in-q lower envelope of the budget over all feasible (n, p).

    Built from the worst-case noise variance the channel allows at this q;
    wherever the envelope already exceeds eps_bar, no (n, p, P_k) can be
    feasible.
    """
    r = 0.25 * (capacity_base(sys) - q)
    if r <= 0.0:
        return math.inf
    d1, d2, dinf = _sensitivity_triple(q, ctx.d, ctx.delta)
    ln125 = math.log(1.25 / ctx.delta)
    ln10 = math.log(10.0 / ctx.delta)
    ln20d = math.log(20.0 * ctx.d / ctx.delta)
    one_minus = 1.0 - ctx.delta / 10.0
    g1 = d2 * math.sqrt(2.0 * ln125) / math.sqrt(r)
    g2 = ALPHA * d1 * (r + 1.0) / (2.0 * one_minus * r * r)
    # 2*s1 >= (r+1)/r^3 holds only for large r; (3r+2)/(2r(r+1/4)(r+1/2))
    # holds for every r (1 - 3pq >= 1/4, pq <= 1/4), and the min keeps the
    # first form, bit for bit, wherever it is the smaller
    s1_twice = min((r + 1.0) / r**3, (3.0 * r + 2.0) / (2.0 * r * (r + 0.25) * (r + 0.5)))
    g3 = d2 / math.sqrt(one_minus) * math.sqrt(s1_twice * ln10)
    g4 = (ALPHA / 3.0) * ln10 * dinf * (
        math.sqrt(2.0 * ln20d / r) + (3.0 + ln20d) / (3.0 * r)
    ) ** 2
    g5 = 2.0 * ln125 * dinf / r
    return g1 + g2 + g3 + g4 + g5


def qbar(sys: SystemParams, cfg: SolverConfig, ctx: PrivacyContext) -> int:
    """Largest quantization level the budget cap leaves any room for.

    Bisection for the largest q in {2, ..., domain bound} whose lower
    envelope stays at or under eps_bar.  Raises
    :class:`AllInfeasibleError` when already q = 2 is ruled out.
    """
    bound = domain_bound(sys)
    if qbar_envelope(2, sys, ctx) > cfg.eps_bar:
        raise AllInfeasibleError(
            f"budget envelope at q=2 already exceeds eps_bar={cfg.eps_bar}"
        )
    if qbar_envelope(bound, sys, ctx) <= cfg.eps_bar:
        return bound
    lo, hi = 2, bound  # envelope(lo) <= eps_bar < envelope(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if qbar_envelope(mid, sys, ctx) <= cfg.eps_bar:
            lo = mid
        else:
            hi = mid
    return lo


def payload_caps(sys: SystemParams, bit_cap: int | None) -> tuple[int, float]:
    """Largest admissible q and the real-valued ceiling on q + n.

    The channel's capacity ceiling and the shared q/n domain bound, each
    further limited by the optional bit cap q + n <= 2^b (which leaves
    room for n >= 2).
    """
    q_max = domain_bound(sys)
    cap_real = capacity_base(sys)
    if bit_cap is not None:
        cap_real = min(cap_real, float(2**bit_cap))
        q_max = min(q_max, 2**bit_cap - 2)
    return q_max, cap_real


def _solution(q: int, n: int, p: float, sys: SystemParams, ctx: PrivacyContext) -> Solution:
    """The tuple (q, n, p) with its powers, objective and tight budget."""
    return Solution(
        q=q, n=n, p=p, powers=assign_powers(q, n, sys),
        objective=objective(q, n, p),
        epsilon_achieved=tight_epsilon_value(q, n, p, ctx.d, ctx.delta),
    )


def solve_with_stats(
    sys: SystemParams, cfg: SolverConfig, ctx: PrivacyContext
) -> tuple[Solution, SolveStats]:
    """Grid search over (q, p) cells; see :func:`solve`."""
    q_max, cap_real = payload_caps(sys, cfg.bit_cap)
    q_hi = min(qbar(sys, cfg, ctx), q_max)
    cells = (q_hi - 1) * (0.5 / cfg.lambda_step)
    if cells > MAX_GRID_CELLS:
        raise ConfigError(
            f"the (q, p) search grid has about {cells:.3g} cells, above the "
            f"{MAX_GRID_CELLS} one solve may hold; set solver.bit_cap, or a "
            "coarser lambda_step or rho"
        )
    grid = p_grid(cfg.lambda_step)
    try:
        eta, mu = eta_and_mu_values(cfg.n_cap, ctx)
    except ErrorBoundUnavailableError:
        eta = mu = None

    # a (Q, 1) column of q values against a (1, P) row of p values; cells
    # are numbered q-major over the ascending p grid
    q = np.arange(2, q_hi + 1)[:, None]
    p = np.array(grid)[None, :]
    n1, evals = lockstep_min_n(
        q, p, lambda qs, ns, ps: tight_epsilon_n_array(qs, ns, ps, ctx.d, ctx.delta),
        cfg.eps_bar, cfg.n_cap,
    )
    n1 = n1.reshape(q.size, p.size)
    n = n_from_constraints(q, p, n1, ctx)
    feasible = np.flatnonzero((n1 > 0) & (n <= cfg.n_cap) & (n <= cap_real - q))
    stats = SolveStats(
        eta=eta, mu=mu, lambda_step=cfg.lambda_step,
        p_grid_size=len(grid), q_lo=2, q_hi=q_hi,
        cells_total=int(n1.size),
        cells_feasible=int(feasible.size),
        eps_evaluations=int(evals.sum()),
        max_evals_per_cell=int(evals.max()),
    )

    if feasible.size == 0:
        if not n1.any():
            raise PrivacyInfeasibleError(
                f"budget {cfg.eps_bar} unreachable within n_cap={cfg.n_cap} "
                "at every grid point"
            )
        raise InfeasibleError("no feasible grid point")
    iq, ip = np.unravel_index(feasible, n1.shape)
    q_f, n_f, p_f = q[iq, 0], n[iq, ip], p[0, ip]
    # cells run q-major over the ascending p grid and hold one n each, so the
    # first minimum is the (objective, q, p, n) tie-break
    best = np.argmin(objective(q_f, n_f, p_f))
    sol = _solution(int(q_f[best]), int(n_f[best]), float(p_f[best]), sys, ctx)
    if not capacity_feasible(sol.q, sol.n, list(sol.powers), sys):
        raise InfeasibleError("final power assignment failed the capacity re-check")
    return sol, stats


def solve(sys: SystemParams, cfg: SolverConfig, ctx: PrivacyContext) -> Solution:
    """Best feasible (q, n, p, P_k) on the configured grid.

    Deterministic: ties are broken by smallest objective, then smallest q,
    then smallest p, then smallest n.  Raises :class:`EmptyDomainError`,
    :class:`AllInfeasibleError` or :class:`InfeasibleError` depending on
    which stage ruled everything out.
    """
    sol, _ = solve_with_stats(sys, cfg, ctx)
    return sol


def suboptimal_tuple(
    sol: Solution, sys: SystemParams, cfg: SolverConfig, ctx: PrivacyContext, factor: float
) -> Solution | None:
    """A deliberately worse feasible tuple with >= factor x the objective."""
    # shrinking q inflates the objective ~quadratically and relaxes every
    # constraint, so prefer it; fall back to inflating n within capacity
    if sol.q >= 3:
        q_bad = max(2, (sol.q - 1) // 2 + 1)
        if objective(q_bad, sol.n, sol.p) >= factor * sol.objective:
            return _solution(q_bad, sol.n, sol.p, sys, ctx)
    _, cap_real = payload_caps(sys, cfg.bit_cap)
    n_bad = sol.n
    while objective(sol.q, n_bad, sol.p) < factor * sol.objective:
        n_bad *= 2
        if n_bad > cfg.n_cap or not (n_bad <= cap_real - sol.q):
            return None
    return _solution(sol.q, n_bad, sol.p, sys, ctx)


def brute_force_solve(
    sys: SystemParams, cfg: SolverConfig, ctx: PrivacyContext, fine_factor: int = 3
) -> Solution:
    """Exhaustive oracle: scans every n and a fine p grid, no binary search.

    The p grid is ``fine_factor`` times denser than the solver's and spans
    all of (0, 1) plus the point 1/2; q runs over the full channel domain
    with no envelope pruning.  Intended for small instances only.
    """
    if fine_factor < 1:
        raise ValueError(f"fine_factor must be >= 1, got {fine_factor}")
    q_hi, cap_real = payload_caps(sys, cfg.bit_cap)

    lam = cfg.lambda_step / fine_factor
    ps = []
    i = 1
    while True:
        p = i * lam
        if p >= 1.0:
            break
        ps.append(p)
        i += 1
    if 0.5 not in ps:
        ps.append(0.5)
        ps.sort()

    n_hi = min(cfg.n_cap, domain_bound(sys))
    if n_hi < 2:
        raise InfeasibleError("no admissible trial count")
    n_all = np.arange(2, n_hi + 1, dtype=np.float64)

    best: tuple[float, int, float, int] | None = None
    for q in range(2, q_hi + 1):
        cap_mask = n_all <= cap_real - q
        if not cap_mask.any():
            continue
        thr = dp_variance_threshold(q, ctx.d, ctx.delta)
        denom_sq = (q - 1) ** 2
        for p in ps:
            pq = p * (1.0 - p)
            mask = cap_mask & (ctx.K * n_all * p * (1.0 - p) >= thr)
            if not mask.any():
                continue
            n_sub = n_all[mask]
            eps = tight_epsilon_n_array(q, n_sub, p, ctx.d, ctx.delta)
            ok = eps <= cfg.eps_bar
            if not ok.any():
                continue
            n_feas = n_sub[ok]
            obj = (1.0 + n_feas * pq) / denom_sq
            i_best = int(np.argmin(obj))
            cand = (float(obj[i_best]), q, p, int(n_feas[i_best]))
            if best is None or cand < best:
                best = cand

    if best is None:
        raise InfeasibleError("no feasible tuple in the exhaustive scan")
    phi, q, p, n = best
    powers = assign_powers(q, n, sys)
    eps_val = tight_epsilon_value(q, n, p, ctx.d, ctx.delta)
    return Solution(q=q, n=n, p=p, powers=powers, objective=phi, epsilon_achieved=eps_val)


def check_solution(
    sol: Solution, sys: SystemParams, cfg: SolverConfig, ctx: PrivacyContext
) -> list[str]:
    """Independent re-check of every original constraint; empty list = clean."""
    problems = []
    bound = domain_bound(sys)
    if not (2 <= sol.q <= bound):
        problems.append(f"q={sol.q} outside {{2..{bound}}}")
    if not (2 <= sol.n <= bound):
        problems.append(f"n={sol.n} outside {{2..{bound}}}")
    if sol.n > cfg.n_cap:
        problems.append(f"n={sol.n} above n_cap={cfg.n_cap}")
    if not (0.0 < sol.p < 1.0):
        problems.append(f"p={sol.p} outside (0, 1)")
    lhs = ctx.K * sol.n * sol.p * (1.0 - sol.p)
    if lhs < dp_variance_threshold(sol.q, ctx.d, ctx.delta):
        problems.append("noise variance below its required floor")
    eps = tight_epsilon_value(sol.q, sol.n, sol.p, ctx.d, ctx.delta)
    if not all(math.isfinite(v) for v in (eps, sol.epsilon_achieved, cfg.eps_bar)):
        problems.append(
            f"non-finite budget: evaluated {eps}, stored {sol.epsilon_achieved}, "
            f"eps_bar {cfg.eps_bar}"
        )
    elif eps > cfg.eps_bar:
        problems.append(f"budget {eps:.6g} exceeds eps_bar={cfg.eps_bar}")
    if abs(sol.epsilon_achieved - eps) > 1e-12 * max(1.0, eps):
        problems.append("stored epsilon_achieved disagrees with a fresh evaluation")
    if cfg.bit_cap is not None and sol.q + sol.n > 2**cfg.bit_cap:
        problems.append(f"q + n = {sol.q + sol.n} breaks the {cfg.bit_cap}-bit cap")
    if len(sol.powers) != sys.K:
        problems.append(f"{len(sol.powers)} powers for K={sys.K} devices")
    for k, p_k in enumerate(sol.powers):
        if not (sys.p_min <= p_k <= sys.p_max):
            problems.append(f"power of device {k} outside [p_min, p_max]")
            break
    if not capacity_feasible(sol.q, sol.n, list(sol.powers), sys):
        problems.append("capacity constraint violated at the stored powers")
    expected = objective(sol.q, sol.n, sol.p)
    if sol.objective != expected:
        problems.append("stored objective disagrees with a fresh evaluation")
    return problems
