"""Joint optimization of quantization level, Binomial noise, and power.

The problem: minimize :func:`objective` over integer q and n, a p grid and
per-device powers, subject to the privacy-budget cap, the variance floor,
channel capacity and the power limits.  Each part is explained where it
is written:

* :func:`solve` states what the search returns and its tie-break, and
  :func:`solve_with_stats` runs it on the grid of :func:`p_grid` and the
  q range of :func:`qbar`;
* :func:`lockstep_min_n` finds every cell's smallest trial count;
* :func:`payload_caps` turns the channel and the bit cap into limits on q
  and on q + n;
* :func:`brute_force_solve` is the exhaustive test oracle, and
  :func:`check_solution` re-checks a tuple against every constraint;
* :func:`suboptimal_tuple` is simulate's deliberately worse arm.

:func:`solve_with_stats`, :func:`brute_force_solve` and :func:`qbar` raise
``ValueError`` on a context that disagrees with the system on d, delta or
K, and :func:`check_solution` reports one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    AllInfeasibleError,
    ConfigError,
    InfeasibleError,
    NotApplicableError,
    PrivacyInfeasibleError,
)
from .privacy import (
    PrivacyContext,
    as_count,
    dp_variance_threshold,
    epsilon_tight,
    is_integral,
    min_trials,
    tight_epsilon_at_n,
    tight_epsilon_at_stage,
    tight_epsilon_factors,
    tight_epsilon_lead,
    tight_epsilon_lower,
    tight_epsilon_n_stage,
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

# how much worse than the optimum the simulate command's third arm is
SUBOPT_FACTOR = 4.0


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
        object.__setattr__(self, "n_cap", as_count("n_cap", self.n_cap, 2))
        if self.n_cap > 2**62:  # lockstep_min_n forms lo + hi in int64
            raise ValueError(f"n_cap must lie in [2, 2^62], got {self.n_cap}")
        if self.rho is not None and not (math.isfinite(self.rho) and self.rho > 0.0):
            raise ValueError(f"rho must be positive and finite, got {self.rho}")
        if self.bit_cap is not None:
            object.__setattr__(self, "bit_cap", as_count("bit_cap", self.bit_cap, 2))
            if self.bit_cap > 63:
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
        """Build a config whose grid pitch guarantees relative error < rho: any
        pitch strictly below rho/mu does, and a margin keeps it clear of rho/mu."""
        if not (math.isfinite(rho) and rho > 0.0):  # before a NaN reaches the pitch check
            raise ValueError(f"rho must be positive and finite, got {rho}")
        _, mu = eta_and_mu_values(n_cap, ctx)
        margin = 0.99
        lambda_step = margin * rho / mu
        if lambda_step >= 0.5:
            raise ValueError(f"rho = {rho} gives a grid pitch {lambda_step:.4g} >= 1/2; "
                             f"rho must be below {0.5 * mu / margin:.4g} here")
        return cls(eps_bar=eps_bar, lambda_step=lambda_step, n_cap=n_cap, rho=rho, bit_cap=bit_cap)


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
    """What one solve's search counted; its q range runs from 2 to q_hi."""

    p_grid_size: int
    q_hi: int
    cells_total: int
    cells_feasible: int
    eps_evaluations: int
    max_evals_per_cell: int


def objective(q, n, p):
    """Convergence-rate surrogate (1 + n*p*(1-p)) / (q-1)^2; lower is faster.

    Broadcasts over arrays of q, n and p.
    """
    # negated, so that NaN fails each check
    if not np.all(q >= 2):
        raise ValueError(f"q must be >= 2, got {q}")
    if not np.all(n >= 1):
        raise ValueError(f"n must be >= 1, got {n}")
    if not np.all((p > 0.0) & (p < 1.0)):
        raise ValueError(f"p must lie in (0, 1), got {p}")
    pq = p * (1.0 - p)
    return (1.0 + n * pq) / (q - 1) ** 2


def lockstep_min_n(
    factors: tuple,
    eps_fn: Callable[[tuple, np.ndarray], np.ndarray],
    lead_fn: Callable[[tuple, int], np.ndarray],
    eps_bar: float,
    n_cap: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Smallest trial count meeting eps_bar, for every (q, p) cell at once.

    The budget comes in three stages.  ``factors`` holds the n-free
    factors, e.g. :func:`privacy.tight_epsilon_factors` on a (Q, 1) column
    of q values and a (1, P) row of p values; its array entries broadcast
    to the cell grid, and cells are numbered in C order of that shape.
    ``eps_fn(factors, n)`` evaluates the budget at n, flattened in C order
    of the broadcast shape, and must be non-increasing in n.
    ``lead_fn(factors, n)`` is a lower bound on it, broadcast like the
    factors, that is non-increasing in n as computed (the tight budget's
    first summand, cpSGD's Gaussian-like leading term).

    Per cell this is the doubling-plus-bisection search: probe n = 2, then
    n_cap, then double from 2 until the budget is met (n_cap ends the
    doubling), then bisect.  It runs in four passes over the cells:

    1. The lead at n = n_cap, one call on the factors as given, rules out
       every cell it puts above eps_bar: such a cell misses the budget at
       n_cap and, the lead being non-increasing, at n = 2 too.  A NaN lead
       keeps its cell.  The factors of the cells left are gathered into 1-D
       arrays, one ``np.broadcast_to(f, shape)[at]`` per array entry, since
       every factor is elementwise.
    2. The lead walks the doubling rungs n = 2, 4, 8, ... below n_cap, one
       call with a scalar n per rung, until it puts no cell above eps_bar.
       Each rung where it does is decided without ``eps_fn``.
    3. ``eps_fn`` runs n_cap on every cell left, one call with a scalar n;
       the cells it leaves above eps_bar are done with n1 = 0.
    4. Each cell left enters the bisection loop at lo = the last rung its
       lead decided, or lo = 1 when the lead leaves n = 2 open, so that its
       first doubling probe is 2.  Every step is one ``eps_fn`` call on the
       cells still searching with an int64 array of n.  Cells that finish
       leave the arrays, factors included, on the step they finish, so the
       arrays are compacted only on steps where some cell does.

    The probes and their outcomes are those of the search with every probe
    on ``eps_fn``.  At the built-in scale pass 1 rules out 95-97% of the
    cells, and at eps_bar 10 ``eps_fn`` runs 18 calls on 25,947 elements
    per solve, where running every probe on it takes 31 calls on 47,314.

    Returns ``(n1, evals)``, both flat over the cells: n1[i] is the trial
    count, or 0 where even n_cap misses the budget; evals[i] counts the
    distinct trial counts probed, a probe the lead decided included, so it
    counts budget values compared against eps_bar, not kernel evaluations.
    That is the rungs the lead decided, plus the loop steps, plus 1 for
    n_cap, except that a cell met at n = 2 counts 1: the search stops there
    before it probes n_cap.
    """
    shape = np.broadcast_shapes(*map(np.shape, factors))
    # ~(lead > eps_bar), not lead <= eps_bar, so a NaN cell stays in
    cand = np.flatnonzero(np.broadcast_to(~(lead_fn(factors, n_cap) > eps_bar), shape))
    at = np.unravel_index(cand, shape)
    factors = tuple(
        np.broadcast_to(f, shape)[at] if isinstance(f, np.ndarray) else f for f in factors
    )
    # depth[i] counts the rungs n = 2, 4, 8, ... below n_cap at which cell
    # i's lead, and so its budget, is still above eps_bar, up to the first
    # n where it is not
    depth = np.zeros(cand.size, dtype=np.int64)
    above = np.ones(cand.size, dtype=bool)
    n = 2
    while n < n_cap and above.any():
        above &= lead_fn(factors, n) > eps_bar
        depth += above
        n *= 2
    reached = eps_fn(factors, n_cap) <= eps_bar
    n1 = np.zeros(math.prod(shape), dtype=np.int64)
    evals = np.full(n1.size, 1 if n_cap == 2 else 2, dtype=np.int64)
    cells = cand[reached]
    factors = _take(factors, reached)
    # eps(lo) > eps_bar >= eps(hi) holds for every searching cell, lo = 1
    # standing in for the unprobed n = 2
    depth = depth[reached]
    lo = np.left_shift(1, depth)
    hi = np.full(cells.size, n_cap, dtype=np.int64)
    doubling = 2 * lo < n_cap
    evals[cells] = depth + 1
    steps = 0
    while True:
        done = hi - lo <= 1
        # keep the compaction: a fixed cell set evaluates finished cells until
        # the slowest one ends.  At the built-in scale (eps_bar 5 to 10) the
        # 497-1,546 searching cells finish within 7 probes of each other (3-5%
        # more elements, 0-5% more time), but the spread grows with n_cap: 15%
        # and 28% more time per solve at n_cap 2^20 (bit_cap 24) and 2^40 (no
        # bit cap), measured on 2 vCPUs
        if done.any():
            finished = cells[done]
            n1[finished] = hi[done]
            evals[finished] += steps
            keep = ~done
            cells, lo, hi, doubling = cells[keep], lo[keep], hi[keep], doubling[keep]
            factors = _take(factors, keep)
        if cells.size == 0:
            # a cell met at n = 2 stops there, before it probes n_cap
            evals[n1 == 2] = 1
            return n1, evals
        probe = np.where(doubling, 2 * lo, (lo + hi) // 2)
        above = eps_fn(factors, probe) > eps_bar
        lo = np.where(above, probe, lo)
        hi = np.where(above, hi, probe)
        doubling &= above & (2 * lo < n_cap)
        steps += 1


def _take(factors, mask):
    """The factors of the cells a mask keeps; scalar entries stay as they are."""
    return tuple(f[mask] if isinstance(f, np.ndarray) else f for f in factors)


def mu_from_eta(eta: float) -> float:
    """Error amplification 2 / (1 - sqrt(1 - 4*eta)) ~ 1/eta, in a form free of cancellation.

    Defined on (0, 1/4], where mu(1/4) = 2; raises ``ValueError`` outside it.
    """
    if not (0.0 < eta <= 0.25):
        raise ValueError(f"eta must lie in (0, 1/4], got {eta}")
    return (1.0 + math.sqrt(1.0 - 4.0 * eta)) / (2.0 * eta)


def eta_and_mu_values(n_cap: int, ctx: PrivacyContext) -> tuple[float, float]:
    """Grid-error parameters (eta, mu) for a given trial-count cap.

    eta = thr(2) / (K*n_cap) lower-bounds p*(1-p) at any feasible optimum;
    mu then converts a grid pitch into a relative-error factor.  Raises
    :class:`InfeasibleError` when :func:`privacy.min_trials` at q = 2,
    p = 1/2 is above n_cap: then no point is feasible (and eta > 1/4).
    """
    n_min = min_trials(2, 0.5, ctx)
    if n_min > n_cap:
        raise InfeasibleError(
            f"the variance floor needs n >= {n_min:.0f} even at q = 2, p = 1/2, above n_cap = {n_cap}"
        )
    eta = float(dp_variance_threshold(2, ctx.d, ctx.delta)) / (ctx.K * n_cap)
    return eta, mu_from_eta(eta)


def p_grid(lambda_step: float) -> np.ndarray:
    """Probability grid {1/2} plus every multiple of the pitch in (1/2, 1), as float64.

    Every constraint and the objective are symmetric around 1/2.
    """
    # i * lambda_step from the first multiple past 1/2 to the first at or
    # past 1: each the same IEEE product as Python's int * float
    p = np.arange(math.floor(0.5 / lambda_step) + 1, math.floor(1.0 / lambda_step) + 2) * lambda_step
    return np.concatenate(([0.5], p[(p > 0.5) & (p < 1.0)]))


def _check_context(sys: SystemParams, ctx: PrivacyContext) -> None:
    # a budget certified for another d, delta or K certifies nothing about
    # this system, so the two must agree
    ours, theirs = (sys.d, sys.delta, sys.K), (ctx.d, ctx.delta, ctx.K)
    if theirs != ours:
        raise ValueError(f"privacy context (d, delta, K) = {theirs} disagrees with the system's {ours}")


def qbar_envelope(q: int, sys: SystemParams, ctx: PrivacyContext) -> float:
    """Lower bound of the budget at q over every (n, p) the channel admits.

    Any admitted n has n <= cap - q, so n*p*(1-p) <= (cap - q)/4, and the
    bound is :func:`tight_epsilon_lower` there; wherever it already exceeds
    eps_bar, no (n, p, P_k) can be feasible.  Non-decreasing in q.
    """
    r = 0.25 * (capacity_base(sys) - q)
    if r <= 0.0:
        return math.inf
    t1, t2, t3, t4, t5 = tight_epsilon_lower(q, r, ctx.d, ctx.delta)
    return t1 + t2 + t3 + t4 + t5


def qbar(sys: SystemParams, eps_bar: float, ctx: PrivacyContext) -> int:
    """Largest quantization level the cap eps_bar leaves any room for, on the channel alone.

    Bisection for the largest q in {2, ..., domain bound} whose lower
    envelope stays at or under eps_bar.  Raises
    :class:`AllInfeasibleError` when already q = 2 is ruled out.
    """
    _check_context(sys, ctx)
    bound = domain_bound(sys)
    if qbar_envelope(2, sys, ctx) > eps_bar:
        raise AllInfeasibleError(
            f"budget envelope at q=2 already exceeds eps_bar={eps_bar}"
        )
    if qbar_envelope(bound, sys, ctx) <= eps_bar:
        return bound
    lo, hi = 2, bound  # envelope(lo) <= eps_bar < envelope(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if qbar_envelope(mid, sys, ctx) <= eps_bar:
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
        epsilon_achieved=epsilon_tight(q, n, p, ctx),
    )


def solve_with_stats(
    sys: SystemParams, cfg: SolverConfig, ctx: PrivacyContext
) -> tuple[Solution, SolveStats]:
    """Grid search over (q, p) cells; see :func:`solve`."""
    _check_context(sys, ctx)
    q_max, cap_real = payload_caps(sys, cfg.bit_cap)
    q_hi = min(qbar(sys, cfg.eps_bar, ctx), q_max)
    cells = (q_hi - 1) * (0.5 / cfg.lambda_step)
    if cells > MAX_GRID_CELLS:
        raise ConfigError(
            f"the (q, p) search grid has about {cells:.3g} cells, above the "
            f"{MAX_GRID_CELLS} one solve may hold; set solver.bit_cap, or a "
            "coarser lambda_step or rho"
        )
    # a (Q, 1) column of q values against a (1, P) row of p values; cells
    # are numbered q-major over the ascending p grid
    q = np.arange(2, q_hi + 1)[:, None]
    p = p_grid(cfg.lambda_step)[None, :]
    n1, evals = lockstep_min_n(
        tight_epsilon_factors(q, p, ctx.d, ctx.delta),
        tight_epsilon_at_n, tight_epsilon_lead, cfg.eps_bar, cfg.n_cap,
    )
    # only cells whose budget n_cap reaches (n1 > 0) can be feasible; the
    # floor, n_cap and capacity checks run on those alone
    reached = np.flatnonzero(n1)
    iq, ip = np.unravel_index(reached, (q.size, p.size))
    q_r, p_r = q[iq, 0], p[0, ip]
    n_r = np.maximum(min_trials(q_r, p_r, ctx), n1[reached]).astype(np.int64)
    feasible = (n_r <= cfg.n_cap) & (n_r <= cap_real - q_r)
    q_f, n_f, p_f = q_r[feasible], n_r[feasible], p_r[feasible]
    if q_f.size == 0:
        if reached.size == 0:
            raise PrivacyInfeasibleError(
                f"budget {cfg.eps_bar} unreachable within n_cap={cfg.n_cap} "
                "at every grid point"
            )
        raise InfeasibleError("no feasible grid point")
    stats = SolveStats(
        p_grid_size=p.size, q_hi=q_hi,
        cells_total=int(n1.size),
        cells_feasible=int(q_f.size),
        eps_evaluations=int(evals.sum()),
        max_evals_per_cell=int(evals.max()),
    )
    # cells run q-major over the ascending p grid and hold one n each, so the
    # first minimum is the (objective, q, p, n) tie-break
    best = np.argmin(objective(q_f, n_f, p_f))
    return _solution(int(q_f[best]), int(n_f[best]), float(p_f[best]), sys, ctx), stats


def solve(sys: SystemParams, cfg: SolverConfig, ctx: PrivacyContext) -> Solution:
    """Best feasible (q, n, p, P_k) on the configured grid.

    Deterministic: ties are broken by smallest objective, then smallest q,
    then smallest p, then smallest n.  Raises :class:`InfeasibleError` when
    nothing is feasible, as the subclass that names the stage which ruled
    everything out: :class:`EmptyDomainError`, :class:`AllInfeasibleError`,
    :class:`PrivacyInfeasibleError`, or :class:`CapacityInfeasibleError`
    when the chosen tuple's powers cannot carry its payload.
    """
    sol, _ = solve_with_stats(sys, cfg, ctx)
    return sol


def suboptimal_tuple(sol: Solution, sys: SystemParams, cfg: SolverConfig, ctx: PrivacyContext) -> Solution | None:
    """A deliberately worse feasible tuple with >= SUBOPT_FACTOR x the objective."""
    # shrinking q inflates the objective ~quadratically and relaxes every
    # constraint, so prefer it; fall back to inflating n within capacity
    if sol.q >= 3:
        q_bad = max(2, (sol.q - 1) // 2 + 1)
        if objective(q_bad, sol.n, sol.p) >= SUBOPT_FACTOR * sol.objective:
            return _solution(q_bad, sol.n, sol.p, sys, ctx)
    _, cap_real = payload_caps(sys, cfg.bit_cap)
    n_bad = sol.n
    while objective(sol.q, n_bad, sol.p) < SUBOPT_FACTOR * sol.objective:
        n_bad *= 2
        if n_bad > cfg.n_cap or not (n_bad <= cap_real - sol.q):
            return None
    return _solution(sol.q, n_bad, sol.p, sys, ctx)


def brute_force_solve(
    sys: SystemParams, cfg: SolverConfig, ctx: PrivacyContext, fine_factor: int = 3
) -> Solution:
    """Exhaustive oracle: every n and a fine p grid, sharing nothing with the search.

    The p grid is ``fine_factor`` (an integer >= 1) times denser than the
    solver's and spans all of (0, 1) plus the point 1/2; q runs over the
    full channel domain with no envelope pruning, and n over every count
    the caps admit.  Nothing is assumed about how the budget varies with
    n.  The oracle calls none of :func:`lockstep_min_n`, :func:`qbar`,
    :func:`qbar_envelope`, :func:`p_grid` or :func:`privacy.min_trials`;
    it keeps its own product form K*n*p*(1-p) of the variance floor.
    Intended for small instances only.

    Per q it scans in three steps:

    1. Rows.  The floor product is non-decreasing in n as computed (each
       factor is a positive constant, and rounding is monotone), and the
       cap keeps a prefix of the ascending n.  So a (q, p) row admits some
       n exactly when the product at the largest admitted n reaches the
       floor, one product per p decides which rows are skipped, and the n
       a kept row admits are a suffix of the q's n.  One count per row,
       over the kept rows' (p x n) block, gives each suffix's start; it
       rounds the same operations in the same order as the row test.
    2. Budgets.  The kernel's n stage (:func:`privacy.tight_epsilon_n_stage`)
       is built once on the q's n, and its n-free factors once on the kept
       p axis.  Each kept row is one :func:`privacy.tight_epsilon_at_stage`
       call on its suffix of the stage, with every scalar operand (its
       p-axis factors, the shared factors and eps_bar) a 0-d float64 array,
       because on a row's few n NumPy combines an array with a 0-d array
       faster than with a Python float or a NumPy scalar, and to the same
       bits.  The kernel runs once per row, not once over the q's rows:
       such a per-q batch served ~16x the certify-small benchmark ops (184
       against 11.8 ops/s), but until the benchmark evicts the blocks of
       the ops it has served, its peak RSS grows with them past the 10%
       bound (62.3 against 45.9 MiB).
    3. Pick.  The objective is non-decreasing in n at fixed (q, p) as
       computed, so a row's best cell is its first feasible n, and one
       argmin over those cells in p order picks the q's best.  q ascends,
       so a later q wins only on a strictly smaller objective: the
       (objective, q, p, n) tie-break.
    """
    _check_context(sys, ctx)
    fine_factor = as_count("fine_factor", fine_factor, 1)
    q_hi, cap_real = payload_caps(sys, cfg.bit_cap)

    lam = cfg.lambda_step / fine_factor
    # i * lam for i = 1, 2, ... below 1, and the point 1/2, ascending
    ps = np.arange(1, math.floor(1.0 / lam) + 2) * lam
    ps = np.concatenate((ps[ps < 0.5], [0.5], ps[(ps > 0.5) & (ps < 1.0)]))
    # n_cap >= 2 (SolverConfig) and domain_bound >= 2 (payload_caps)
    n_all = np.arange(2, min(cfg.n_cap, domain_bound(sys)) + 1, dtype=np.float64)

    def floor_product(n, p):
        return ctx.K * n * p * (1.0 - p)

    eps_bar = np.array(cfg.eps_bar, dtype=np.float64)
    best: tuple[float, int, float, int] | None = None
    for q in range(2, q_hi + 1):
        n_cap_q = n_all[n_all <= cap_real - q]  # never empty: q <= cap_real - 2 admits n = 2
        thr = dp_variance_threshold(q, ctx.d, ctx.delta)
        p_kept = ps[floor_product(n_cap_q[-1], ps) >= thr]
        if p_kept.size == 0:
            continue
        starts = np.count_nonzero(floor_product(n_cap_q, p_kept[:, None]) < thr, axis=1).tolist()
        n_st, cubic, linear = tight_epsilon_n_stage(n_cap_q)
        factors = tight_epsilon_factors(q, p_kept, ctx.d, ctx.delta)
        rows = zip(*(
            map(np.array, f.tolist()) if isinstance(f, np.ndarray) else itertools.repeat(np.array(f))
            for f in factors
        ))
        # each kept row's first feasible n
        ip, jn = [], []
        for i, (start, row_factors) in enumerate(zip(starts, rows)):
            suffix = (n_st[start:], cubic[start:], linear[start:])
            feasible = tight_epsilon_at_stage(row_factors, suffix) <= eps_bar
            j = int(feasible.argmax())
            if feasible[j]:
                ip.append(i)
                jn.append(start + j)
        if not ip:
            continue
        obj = objective(q, n_cap_q[jn], p_kept[ip])
        k = int(np.argmin(obj))
        if best is None or obj[k] < best[0]:
            best = (float(obj[k]), q, float(p_kept[ip[k]]), int(n_cap_q[jn[k]]))

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
    try:
        _check_context(sys, ctx)
    except ValueError as exc:
        problems.append(str(exc))
    bound = domain_bound(sys)
    if not (is_integral(sol.q) and 2 <= sol.q <= bound):
        problems.append(f"q={sol.q} outside {{2..{bound}}}")
    if not (is_integral(sol.n) and 2 <= sol.n <= bound):
        problems.append(f"n={sol.n} outside {{2..{bound}}}")
    if sol.n > cfg.n_cap:
        problems.append(f"n={sol.n} above n_cap={cfg.n_cap}")
    if not (0.0 < sol.p < 1.0):
        problems.append(f"p={sol.p} outside (0, 1)")
    # the objective and the payload size need integers q >= 2 and n >= 1 and
    # 0 < p < 1, the certified budget n >= 2 as well; a tuple outside is
    # reported above
    in_domain = is_integral(sol.q) and is_integral(sol.n) and sol.q >= 2 and sol.n >= 1 and 0.0 < sol.p < 1.0
    if in_domain and sol.n >= 2:
        try:
            eps = epsilon_tight(sol.q, sol.n, sol.p, ctx)
        except NotApplicableError:
            problems.append("noise variance below its required floor")
        else:
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
    out_of_range = [k for k, p_k in enumerate(sol.powers) if not sys.p_min <= p_k <= sys.p_max]
    if out_of_range:
        problems.append(f"power of device {out_of_range[0]} outside [p_min, p_max]")
    powers_ok = len(sol.powers) == sys.K and not out_of_range
    if in_domain and powers_ok and not capacity_feasible(sol.q, sol.n, list(sol.powers), sys):
        problems.append("capacity constraint violated at the stored powers")
    if in_domain and sol.objective != objective(sol.q, sol.n, sol.p):
        problems.append("stored objective disagrees with a fresh evaluation")
    return problems
