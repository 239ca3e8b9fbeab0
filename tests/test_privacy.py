"""Privacy-budget estimators: frozen reference values and structural laws.

Golden numbers were computed with an independent 50-digit mpmath evaluation
of the closed forms, not with the code under test.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binomfl.errors import NotApplicableError
from binomfl.privacy import (
    ALPHA,
    MechanismParams,
    PrivacyContext,
    _s1,
    _s2,
    _sensitivity_triple,
    _stage_terms,
    baseline_epsilon_value,
    dp_variance_threshold,
    epsilon_baseline,
    epsilon_tight,
    min_trials,
    tight_epsilon_at_n,
    tight_epsilon_at_stage,
    tight_epsilon_factors,
    tight_epsilon_lead,
    tight_epsilon_lower,
    tight_epsilon_n_stage,
    tight_epsilon_value,
)

GOLDEN = dict(q=4, n=2048, p=0.5, d=47710, delta=1e-10, K=1000)
GOLDEN_BASELINE = 18.258364775040909349
GOLDEN_TIGHT = 16.542618792127600127
GOLDEN_TIGHT_TERMS = (
    10.620334514925739251,
    0.54832094570386885159,
    0.42429814410126677564,
    4.4955832639347200425,
    0.45408192346200520695,
)
# second point, chosen close to the crossover so the ordering is stressed;
# the classical form is evaluated at the reflected p = 1 - 0.7
GOLDEN2 = dict(q=5, n=300, p=0.7, d=100, delta=1e-6, K=50)
GOLDEN2_BASELINE = 40.817531243392050057
GOLDEN2_TIGHT = 39.133276861495438629


def tight_terms(q, n, p, d, delta):
    """The five summands of the tight estimate, ungated."""
    return _stage_terms(tight_epsilon_factors(q, p, d, delta), tight_epsilon_n_stage(n))


def tight_at(q, n, p, d, delta):
    """The tight estimate over broadcast (q, n, p), flat in C order."""
    return tight_epsilon_at_n(tight_epsilon_factors(q, p, d, delta), n)


def mech_ctx(q, n, p, d, delta, K, D=1.0):
    return MechanismParams(q=q, n=n, p=p, D=D), PrivacyContext(d=d, delta=delta, K=K)


def sample_feasible(rng, count, p_lo=0.02, p_hi=0.98, unscaled_floor=False):
    """Random parameter tuples satisfying the noise-variance floor.

    With ``unscaled_floor`` the per-mechanism variance n*p*(1-p) itself
    clears the floor (the regime the estimators' tail machinery is built
    for); otherwise only the K-aggregated variance does.
    """
    out = []
    while len(out) < count:
        q = int(rng.integers(2, 200))
        d = int(rng.integers(1, 60000))
        delta = 10.0 ** rng.uniform(-12, -1)
        p = float(rng.uniform(p_lo, p_hi))
        K = int(rng.integers(1, 5000))
        scale = 1 if unscaled_floor else K
        n_min = dp_variance_threshold(q, d, delta) / (scale * p * (1.0 - p))
        n = int(math.ceil(n_min)) + int(rng.integers(0, 4096))
        if n < 2:
            n = 2
        mech, ctx = mech_ctx(q, n, p, d, delta, K)
        if mech.n >= min_trials(q, p, ctx):
            out.append((mech, ctx))
    return out


class TestTypes:
    def test_delta_above_one_rejected(self):
        # and a d or K that is not an integer
        for kwargs in (dict(d=1, delta=2.0, K=10), dict(d=2.5, delta=0.1, K=10), dict(d=2, delta=0.1, K=1.5),
                       dict(d=math.inf, delta=0.1, K=10), dict(d=2, delta=0.1, K=True)):
            with pytest.raises(ValueError):
                PrivacyContext(**kwargs)

    def test_integral_floats_accepted(self):
        as_floats = PrivacyContext(d=47710.0, delta=1e-10, K=1000.0)
        ctx = PrivacyContext(d=47710, delta=1e-10, K=1000)
        assert epsilon_tight(4.0, 2048.0, 0.5, as_floats) == epsilon_tight(4, 2048, 0.5, ctx)
        assert MechanismParams(q=5.0, n=16.0, p=0.5, D=2.0).s == 1.0

    def test_noise_scale_is_derived(self):
        mech = MechanismParams(q=5, n=16, p=0.5, D=2.0)
        assert mech.s == 2.0 * 2.0 / 4

    @pytest.mark.parametrize("kwargs", [
        dict(q=1, n=16, p=0.5, D=1.0),
        dict(q=5, n=1, p=0.5, D=1.0),
        dict(q=5, n=16, p=0.0, D=1.0),
        dict(q=5, n=16, p=1.0, D=1.0),
        dict(q=5, n=16, p=0.5, D=0.0),
        dict(q=4.5, n=3.2, p=0.5, D=1.0),
        dict(q=5, n=16.5, p=0.5, D=1.0),
        dict(q=math.inf, n=16, p=0.5, D=1.0),
        # each once constructed with s = nan or s = inf
        dict(q=8, n=241, p=0.5, D=math.nan),
        dict(q=8, n=241, p=0.5, D=math.inf),
        dict(q=8, n=241, p=math.nan, D=1.0),
    ])
    def test_bad_mechanism_params_rejected(self, kwargs):
        with pytest.raises(ValueError):
            MechanismParams(**kwargs)

    @pytest.mark.parametrize("q, n, p", [(1, 16, 0.5), (5, 0, 0.5), (5, 1, 0.5), (5, 16, 0.0), (5, 16, 1.0),
                                         (5, 16, 1.5), (5, 16, math.nan),
                                         # each once got a budget: 16.54, 17.92, 0.0 and NaN at GOLDEN
                                         (4, 2048.5, 0.5), (4.5, 2048, 0.5), (4, math.inf, 0.5),
                                         (math.inf, 2048, 0.5)])
    def test_certified_entry_points_reject_bad_arguments(self, q, n, p):
        ctx = PrivacyContext(d=1, delta=0.5, K=10**6)
        for estimate in (epsilon_tight, epsilon_baseline):
            with pytest.raises(ValueError):
                estimate(q, n, p, ctx)


class TestSensitivityBounds:
    """The (L1, L2, Linf) sensitivity triple of the quantized, noise-shifted sum."""

    def test_linf_is_q_plus_one(self, rng):
        for _ in range(50):
            q = int(rng.integers(2, 10000))
            assert _sensitivity_triple(q, 10, 1e-4)[2] == q + 1

    def test_reference_point(self):
        # q=5, d=4, delta=0.02: 8 + sqrt(16 ln 100) + (4/3) ln 100
        d1, d2, _ = _sensitivity_triple(5, 4, 0.02)
        assert d1 == pytest.approx(22.724091019808177449, rel=1e-14)
        assert d2 == pytest.approx(9.5953512065790442577, rel=1e-14)

    def test_positive_everywhere(self, rng):
        for mech, ctx in sample_feasible(rng, 25):
            assert all(b > 0 for b in _sensitivity_triple(mech.q, ctx.d, ctx.delta))


class TestVarianceFloor:
    def test_reference_network_is_infeasible(self):
        # K n p (1-p) = 500 while the floor is about 830.33
        mech, ctx = mech_ctx(2, 2, 0.5, 47710, 1e-10, 1000)
        assert dp_variance_threshold(2, 47710, 1e-10) == pytest.approx(830.33064339322707, rel=1e-14)
        assert mech.n < min_trials(mech.q, mech.p, ctx) == 4.0

    def test_boundary_equality_counts_as_feasible(self):
        # with q = 35, d = 1, delta = 0.5 the floor is the 2(q+1) branch = 72
        # exactly; K n p (1-p) = 32*9/4 = 72 exactly as well
        assert dp_variance_threshold(35, 1, 0.5) == 72.0
        mech, ctx = mech_ctx(35, 9, 0.5, 1, 0.5, 32)
        assert ctx.K * mech.n * mech.p * (1 - mech.p) == 72.0
        assert mech.n == min_trials(mech.q, mech.p, ctx)
        epsilon_tight(mech.q, mech.n, mech.p, ctx)
        just_below, _ = mech_ctx(35, 9, 0.5, 1, 0.5, 31)
        assert just_below.n < min_trials(35, 0.5, PrivacyContext(d=1, delta=0.5, K=31))

    def test_rounding_edge_is_never_admitted(self):
        # the ceiling of 2016 / (150 * 0.21) is 64, yet 150 * 64 * 0.3 * 0.7
        # falls below 2016 both in floats and exactly, so 64 is refused
        ctx = PrivacyContext(d=20, delta=1e-5, K=150)
        assert dp_variance_threshold(1007, 20, 1e-5) == 2016.0
        assert 150 * 64 * 0.3 * (1.0 - 0.3) < 2016.0
        assert 150 * 64 * Fraction(0.3) * (1 - Fraction(0.3)) < 2016
        assert min_trials(1007, 0.3, ctx) == 65.0
        with pytest.raises(NotApplicableError):
            epsilon_tight(1007, 64, 0.3, ctx)
        epsilon_tight(1007, 65, 0.3, ctx)

    def test_vanishing_p_is_infeasible(self):
        mech, ctx = mech_ctx(2, 2, 1e-9, 1, 0.5, 5)
        assert mech.n < min_trials(mech.q, mech.p, ctx)


class TestBaseline:
    def test_golden_value(self):
        mech, ctx = mech_ctx(**GOLDEN)
        assert epsilon_baseline(mech.q, mech.n, mech.p, ctx) == pytest.approx(GOLDEN_BASELINE, rel=1e-13)

    def test_second_golden_value(self):
        mech, ctx = mech_ctx(**GOLDEN2)
        assert epsilon_baseline(mech.q, mech.n, mech.p, ctx) == pytest.approx(GOLDEN2_BASELINE, rel=1e-13)

    def test_strictly_positive(self, rng):
        for mech, ctx in sample_feasible(rng, 25):
            assert epsilon_baseline(mech.q, mech.n, mech.p, ctx) > 0.0

    def test_doubling_n_shrinks_budget(self, rng):
        for mech, ctx in sample_feasible(rng, 25):
            doubled = epsilon_baseline(mech.q, 2 * mech.n, mech.p, ctx)
            assert doubled < epsilon_baseline(mech.q, mech.n, mech.p, ctx)

    def test_not_applicable_below_floor(self):
        mech, ctx = mech_ctx(2, 2, 0.5, 47710, 1e-10, 1000)
        with pytest.raises(NotApplicableError):
            epsilon_baseline(mech.q, mech.n, mech.p, ctx)

    def test_reflected_above_half(self):
        # unreflected, the (1-2p) term made this certified budget -231,421
        mech, ctx = mech_ctx(946, 2, 0.75, 10**7, 1e-2, 10**4)
        mirrored, _ = mech_ctx(946, 2, 0.25, 10**7, 1e-2, 10**4)
        assert mech.n >= min_trials(mech.q, mech.p, ctx)
        base = epsilon_baseline(mech.q, mech.n, mech.p, ctx)
        assert base > 0.0
        assert base == epsilon_baseline(mirrored.q, mirrored.n, mirrored.p, ctx)

    @settings(max_examples=200, deadline=None)
    @given(
        q=st.integers(2, 2**16),
        log_n=st.floats(math.log(2.0), math.log(2.0**24)),
        p=st.floats(1e-3, 1.0 - 1e-3),
        log_d=st.floats(0.0, math.log(1e9)),
        log_delta=st.floats(-15.0, -0.1),
    )
    def test_positive_and_symmetric_in_p(self, q, log_n, p, log_d, log_delta):
        n, d, delta = int(math.exp(log_n)), int(math.exp(log_d)), 10.0**log_delta
        base = baseline_epsilon_value(q, n, p, d, delta)
        assert base > 0.0
        assert baseline_epsilon_value(q, n, 1.0 - p, d, delta) == pytest.approx(base, rel=1e-12)


class TestTight:
    def test_golden_value_and_terms(self):
        mech, ctx = mech_ctx(**GOLDEN)
        assert epsilon_tight(mech.q, mech.n, mech.p, ctx) == pytest.approx(GOLDEN_TIGHT, rel=1e-13)
        assert mech.n >= min_trials(mech.q, mech.p, ctx)
        terms = tight_terms(mech.q, mech.n, mech.p, ctx.d, ctx.delta)
        for got, want in zip(terms, GOLDEN_TIGHT_TERMS):
            assert got == pytest.approx(want, rel=1e-13)

    def test_second_golden_value(self):
        mech, ctx = mech_ctx(**GOLDEN2)
        assert epsilon_tight(mech.q, mech.n, mech.p, ctx) == pytest.approx(GOLDEN2_TIGHT, rel=1e-13)

    def test_not_applicable_below_floor(self):
        mech, ctx = mech_ctx(2, 2, 0.5, 47710, 1e-10, 1000)
        with pytest.raises(NotApplicableError):
            epsilon_tight(mech.q, mech.n, mech.p, ctx)

    def test_never_above_baseline(self, rng):
        # comparison domain p <= 1/2: the classical estimator's printed form
        # covers one representative of each reflection-equivalent mechanism
        # pair, and its (1-2p) term leaves the valid range above 1/2
        for mech, ctx in sample_feasible(rng, 60, p_hi=0.5, unscaled_floor=True):
            tight = epsilon_tight(mech.q, mech.n, mech.p, ctx)
            base = epsilon_baseline(mech.q, mech.n, mech.p, ctx)
            assert tight <= base * (1.0 + 1e-9)

    @settings(max_examples=200, deadline=None)
    @given(
        log_q=st.floats(math.log(2.0), math.log(2.0**24)),
        log_d=st.floats(0.0, math.log(1e9)),
        log_delta=st.floats(-15.0, -0.05),
        p=st.floats(1e-4, 0.5),
        log_excess=st.floats(0.0, math.log(1e4)),
    )
    def test_below_baseline_where_per_device_variance_clears_floor(
        self, log_q, log_d, log_delta, p, log_excess
    ):
        # the region the epsilon_tight docstring states: n*p*(1-p) alone
        # clears the variance floor
        q, d, delta = int(math.exp(log_q)), int(math.exp(log_d)), 10.0**log_delta
        x = dp_variance_threshold(q, d, delta) * math.exp(log_excess)
        n = math.ceil(x / (p * (1.0 - p)))
        assert tight_epsilon_value(q, n, p, d, delta) < baseline_epsilon_value(q, n, p, d, delta)

    def test_can_exceed_baseline_at_small_per_device_variance(self):
        # with K = 1000 the floor admits n*p*(1-p) = 16, where the tight
        # form is the larger one
        mech, ctx = mech_ctx(946, 64, 0.5, 10**7, 1e-2, 1000)
        assert mech.n >= min_trials(mech.q, mech.p, ctx)
        tight = epsilon_tight(mech.q, mech.n, mech.p, ctx)
        base = epsilon_baseline(mech.q, mech.n, mech.p, ctx)
        assert tight == pytest.approx(75_140.49250026426, rel=1e-12)
        assert base == pytest.approx(72_261.75322085415, rel=1e-12)
        with mpmath.workdps(50):
            assert tight == pytest.approx(float(mp_tight(946, 64, 0.5, 10**7, 1e-2)), rel=1e-12)
            assert base == pytest.approx(float(mp_baseline(946, 64, 0.5, 10**7, 1e-2)), rel=1e-12)

    def test_symmetric_in_p(self, rng):
        for mech, ctx in sample_feasible(rng, 40):
            a = epsilon_tight(mech.q, mech.n, mech.p, ctx)
            b = epsilon_tight(mech.q, mech.n, 1.0 - mech.p, ctx)
            assert abs(a - b) <= 1e-12 * a

    def test_strictly_decreasing_in_n(self, rng):
        # integer steps only
        for mech, ctx in sample_feasible(rng, 15):
            prev = epsilon_tight(mech.q, mech.n, mech.p, ctx)
            for step in range(1, 4):
                cur = epsilon_tight(mech.q, mech.n + step, mech.p, ctx)
                assert cur < prev
                prev = cur

    def test_strictly_increasing_in_q(self, rng):
        for mech, ctx in sample_feasible(rng, 15):
            prev = epsilon_tight(mech.q, mech.n, mech.p, ctx)
            for step in range(1, 4):
                if mech.n < min_trials(mech.q + step, mech.p, ctx):
                    break
                cur = epsilon_tight(mech.q + step, mech.n, mech.p, ctx)
                assert cur > prev
                prev = cur

    def test_all_five_terms_positive(self, rng):
        for mech, ctx in sample_feasible(rng, 40):
            terms = tight_terms(mech.q, mech.n, mech.p, ctx.d, ctx.delta)
            assert all(t > 0.0 for t in terms)

    def test_alpha_constant(self):
        # exact formula, checked against the independent evaluation
        assert ALPHA == pytest.approx(0.6491859729734794378, rel=1e-15)
        assert ALPHA > 0.0

    def test_vectorized_matches_scalar_bitwise(self, rng):
        for mech, ctx in sample_feasible(rng, 20):
            ns = np.arange(mech.n, mech.n + 17, dtype=np.float64)
            vec = tight_at(mech.q, ns, mech.p, ctx.d, ctx.delta)
            for i, n in enumerate(range(mech.n, mech.n + 17)):
                assert vec[i] == tight_epsilon_value(mech.q, n, mech.p, ctx.d, ctx.delta)
        # array q and p as well; 2000 random p include the ~0.1% where libm
        # pow(v, 2) and v * v round differently
        count = 2000
        qs = rng.integers(2, 1000, size=count)
        ns = rng.integers(2, 65535, size=count)
        ps = rng.uniform(0.01, 0.99, size=count)
        for d, delta in ((47710, 1e-10), (12, 1e-3)):
            vec = tight_at(qs, ns, ps, d, delta)
            for i in range(count):
                assert vec[i] == tight_epsilon_value(int(qs[i]), int(ns[i]), float(ps[i]), d, delta)
        # a (Q, 1) column of q, a scalar n and a (1, P) row of p: the result
        # is flat in C order, q-major
        q_axis = rng.integers(2, 1000, size=30)
        p_axis = rng.uniform(0.01, 0.99, size=40)
        for d, delta in ((47710, 1e-10), (12, 1e-3)):
            for n in (2, 65534, int(rng.integers(3, 65534))):
                vec = tight_at(q_axis[:, None], n, p_axis[None, :], d, delta)
                assert vec.shape == (q_axis.size * p_axis.size,)
                for i, (qi, pi) in enumerate((qi, pi) for qi in q_axis for pi in p_axis):
                    assert vec[i] == tight_epsilon_value(int(qi), n, float(pi), d, delta)


class TestSplitKernel:
    """The n-free factors built once, then evaluated at any n."""

    @settings(max_examples=200, deadline=None)
    @given(
        d=st.integers(1, 10**7),
        log_delta=st.floats(-15.0, -0.1),
        qs=st.lists(st.integers(2, 70_000), min_size=1, max_size=5),
        # both sides of 1/2, 1/2 itself, and within 1e-9 of 0 and of 1
        ps=st.lists(
            st.one_of(
                st.floats(0.01, 0.99),
                st.sampled_from([0.5]),
                st.floats(1e-9, 1e-4),
                st.floats(1e-9, 1e-4).map(lambda v: 1.0 - v),
            ),
            min_size=1, max_size=5,
        ),
        # up to 2^62, the int64 counts whose products the n stage forms in
        # float64; past 2^53 every path rounds n to float64 the same way
        ns=st.lists(st.one_of(st.integers(2, 10**7), st.integers(2, 2**62)), min_size=1, max_size=4),
    )
    def test_matches_scalar_bitwise(self, d, log_delta, qs, ps, ns):
        delta = 10.0**log_delta
        q_axis, p_axis = np.array(qs), np.array(ps)
        cells = [(q, p) for q in qs for p in ps]
        axes = tight_epsilon_factors(q_axis[:, None], p_axis[None, :], d, delta)
        flat = tight_epsilon_factors(
            np.array([q for q, _ in cells]), np.array([p for _, p in cells]), d, delta
        )
        for n in ns:
            expected = [tight_epsilon_value(q, n, p, d, delta) for q, p in cells]
            for f in (axes, flat):
                assert tight_epsilon_at_n(f, n).tolist() == expected
            # an int64 array of n, one count per flat cell
            at = tight_epsilon_at_n(flat, np.full(len(cells), n, dtype=np.int64))
            assert at.tolist() == expected
        # one factor tuple per cell, evaluated at scalar n, with every n at
        # once, and on each suffix of one n stage of float64 and of int64 n;
        # on each suffix the factors come in three containers, which must not
        # move a bit: as tight_epsilon_factors returns them for a Python-int q
        # (NumPy scalars and Python floats), as Python floats and as 0-d arrays
        for q, p in cells:
            one = tight_epsilon_factors(q, p, d, delta)
            containers = (one, tuple(map(float, one)), tuple(map(np.array, one)))
            expected = [tight_epsilon_value(q, n, p, d, delta) for n in ns]
            assert [float(tight_epsilon_at_n(one, n)[0]) for n in ns] == expected
            for dtype in (np.float64, np.int64):
                along = np.array(ns, dtype=dtype)
                stage = tight_epsilon_n_stage(along)
                for j in range(len(ns)):
                    assert tight_epsilon_at_n(one, along[j:]).tolist() == expected[j:]
                    suffix = tuple(s[j:] for s in stage)
                    for f in containers:
                        assert tight_epsilon_at_stage(f, suffix).tolist() == expected[j:]


class TestHalfIsTheMostPrivateShape:
    """p = 1/2 gives the smallest tight budget, asserted exactly in float.

    Each example evaluates a row p = 1/2 +- k * pitch, k = 0..63, with a
    pitch of at least 2^-20 (the 1.25e-6 grid pitch that rho 0.1 asks for at
    the built-in scale lies above it).  The search's p grid starts at 1/2
    and relies on both facts.  Between points closer to 1/2 (within ~3e-7)
    the float kernel can reverse them by one ulp; the last test pins such a
    point a few ulps past 1/2.
    """

    ROW = dict(
        q=st.integers(2, 5000),
        n=st.one_of(st.integers(2, 2000), st.integers(2, 2**40)),
        d=st.integers(1, 2**24),
        log_delta=st.floats(-14.0, -1.0),
        pitch=st.floats(2.0**-20, 2.0**-7),
        side=st.sampled_from([1.0, -1.0]),
    )

    @staticmethod
    def row(pitch, side):
        # p moves away from 1/2 as k grows; 63 * 2^-7 keeps it inside (0, 1)
        return 0.5 + side * pitch * np.arange(64)

    @settings(max_examples=300, deadline=None)
    @given(**ROW)
    def test_non_decreasing_in_distance_from_half_at_fixed_n(self, q, n, d, log_delta, pitch, side):
        p = self.row(pitch, side)
        eps = tight_epsilon_at_n(tight_epsilon_factors(q, p, d, 10.0**log_delta), n)
        assert np.all(np.diff(eps) >= 0.0)

    @settings(max_examples=300, deadline=None)
    @given(**ROW, log_x=st.floats(0.0, 12.0))
    def test_smallest_at_half_at_fixed_variance(self, q, n, d, log_delta, pitch, side, log_x):
        # x = n*p*(1-p) held fixed, with the real n = x/(p*(1-p)); n = 4x at 1/2
        p = self.row(pitch, side)
        x = 10.0**log_x
        eps = tight_epsilon_at_n(tight_epsilon_factors(q, p, d, 10.0**log_delta), x / (p * (1.0 - p)))
        assert np.all(eps >= eps[0])

    def test_rounding_edge_within_ulps_of_half(self):
        # 49 ulps above 1/2 the float kernel sits one ulp below its value at
        # 1/2, so the facts hold exactly only away from 1/2
        d, delta = 4412434, 0.0038662301594136086
        near = tight_epsilon_value(1472, 1765, 0.5000000000000054, d, delta)
        assert near == np.nextafter(tight_epsilon_value(1472, 1765, 0.5, d, delta), 0.0)


class TestLead:
    """The first summand alone, which the search compares against eps_bar to
    rule out cells before it builds their factors.  That is sound because of
    two facts, as floats: the lead never exceeds the budget, and it is
    non-increasing in n."""

    @settings(max_examples=300, deadline=None)
    @given(
        d=st.integers(1, 10**7),
        log_delta=st.floats(-15.0, -0.1),
        qs=st.lists(st.integers(2, 2**20), min_size=1, max_size=4),
        ps=st.lists(
            st.one_of(st.floats(1e-9, 1.0 - 1e-9), st.sampled_from([0.5])), min_size=1, max_size=4
        ),
        # n and n + 1, where rounding decides the order, and counts up to 2^62
        ns=st.lists(st.one_of(st.integers(2, 10**6), st.integers(2, 2**62)), min_size=1, max_size=3),
    )
    def test_below_the_budget_and_non_increasing_in_n(self, d, log_delta, qs, ps, ns):
        delta = 10.0**log_delta
        ns = sorted({m for n in ns for m in (n, min(n + 1, 2**62))})
        shape = (len(qs), len(ps))
        axes = tight_epsilon_factors(np.array(qs)[:, None], np.array(ps)[None, :], d, delta)
        leads = []
        for n in ns:
            lead = tight_epsilon_lead(axes, n)
            assert np.shape(lead) == shape
            assert np.all(lead.ravel() <= tight_epsilon_at_n(axes, n))
            t1, *rest = _stage_terms(axes, tight_epsilon_n_stage(n))
            assert np.array_equal(lead, np.broadcast_to(t1, shape))
            for t in rest:
                assert np.all(t >= 0.0)
            leads.append(lead)
        assert np.all(np.diff(leads, axis=0) <= 0.0)
        # scalar calls, and one cell's factors at an int64 array of n
        for q in qs:
            for p in ps:
                one = tight_epsilon_factors(q, p, d, delta)
                for n in ns:
                    assert tight_epsilon_lead(one, n) <= tight_epsilon_value(q, n, p, d, delta)
                along = tight_epsilon_lead(one, np.array(ns, dtype=np.int64))
                assert np.all(along <= tight_epsilon_at_n(one, np.array(ns, dtype=np.int64)))
                assert np.all(np.diff(along) <= 0.0)


class TestSTerms:
    """The variance-shape factor s1 and the squared tail radius s2."""

    # s1 depends on n and p only and s2 on x, p, d and delta, so the
    # factors' q is arbitrary
    @staticmethod
    def factors(p):
        return tight_epsilon_factors(2, p, 12, 1e-6)

    def test_s1_symmetric(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 10000))
            p = float(rng.uniform(0.01, 0.99))
            stage = tight_epsilon_n_stage(n)
            assert _s1(stage, self.factors(p)) == pytest.approx(_s1(stage, self.factors(1.0 - p)), rel=1e-12)

    def test_s1_hand_value(self):
        assert _s1(tight_epsilon_n_stage(2), self.factors(0.5)) == pytest.approx(8.0 / 3.0, rel=1e-15)

    def test_s2_above_one(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 10000))
            p = float(rng.uniform(0.01, 0.99))
            assert _s2(n * p * (1.0 - p), self.factors(p)) > 1.0


class TestTightLower:
    """The x-only lower bound against the kernel it bounds."""

    # the bound holds in exact arithmetic; in floats a term that ties (p at
    # or near 1/2, where p^2 + (1-p)^2 can round to just under 1/2) may land
    # a few ulps above the kernel's
    ULPS = 1.0 + 2.0**-50

    @settings(max_examples=300, deadline=None)
    @given(
        q=st.integers(2, 2**16),
        log_n=st.floats(math.log(2.0), math.log(2.0**24)),
        p=st.one_of(st.just(0.5), st.floats(1e-4, 1.0 - 1e-4)),
        log_slack=st.one_of(st.just(0.0), st.floats(0.0, math.log(1e3))),
        log_d=st.floats(0.0, math.log(1e9)),
        log_delta=st.floats(-15.0, -0.05),
    )
    def test_each_term_below_kernel_term(self, q, log_n, p, log_slack, log_d, log_delta):
        n, d, delta = int(math.exp(log_n)), int(math.exp(log_d)), 10.0**log_delta
        # at x = n*p*(1-p) itself, and at any larger x
        x = n * (p * (1.0 - p)) * math.exp(log_slack)
        kernel = tight_terms(q, n, p, d, delta)
        lower = tight_epsilon_lower(q, x, d, delta)
        for i, (lo, k) in enumerate(zip(lower, kernel)):
            assert 0.0 < lo <= k * self.ULPS, (i, lo, k)

    @pytest.mark.parametrize("d, delta", [(1, 1e-15), (47_710, 1e-10), (10**7, 1e-2)])
    def test_monotone_in_x_and_q(self, d, delta):
        x = np.geomspace(1e-3, 1e8, 400)[None, :]
        q = np.unique(np.geomspace(2, 2**20, 60).astype(np.int64))[:, None]
        terms = np.array(np.broadcast_arrays(*tight_epsilon_lower(q, x, d, delta)))
        assert np.all(np.diff(terms, axis=2) <= 0.0)  # non-increasing in x
        assert np.all(np.diff(terms, axis=1) >= 0.0)  # non-decreasing in q

    def test_arrays_match_scalar_calls(self, rng):
        qs = rng.integers(2, 1000, size=200)
        xs = 10.0 ** rng.uniform(-2, 7, size=200)
        vec = tight_epsilon_lower(qs, xs, 47_710, 1e-10)
        for i in range(qs.size):
            one = tight_epsilon_lower(int(qs[i]), float(xs[i]), 47_710, 1e-10)
            for got, want in zip(vec, one):
                assert got[i] == pytest.approx(want, rel=2.0**-50)


def _mp_sensitivity(q, d, delta):
    ln2d = mpmath.log(2 / delta)
    root = mpmath.sqrt(2 * mpmath.sqrt(d) * (q - 1) * ln2d)
    d1 = mpmath.sqrt(d) * (q - 1) + root + mpmath.mpf(4) / 3 * ln2d
    return d1, (q - 1) + mpmath.sqrt(d1 + root), q + 1


def mp_tight(q, n, p, d, delta):
    """Tight estimate from its printed closed form, in mpmath arithmetic."""
    q, n, p, d, delta = (mpmath.mpf(v) for v in (q, n, p, d, delta))
    d1, d2, dinf = _mp_sensitivity(q, d, delta)
    alpha = -3 - 9 * mpmath.log(mpmath.mpf(2) / 3)
    pq = p * (1 - p)
    x = n * pq
    psym = p**2 + (1 - p) ** 2
    ln125, ln10, ln20d = mpmath.log(1.25 / delta), mpmath.log(10 / delta), mpmath.log(20 * d / delta)
    om = 1 - delta / 10
    s1 = (3 * p**2 - 3 * p + 1) / (n * (n + 1) * (n + 2) * pq**2) * (3 * n + 2 + 2 / pq)
    s2 = (mpmath.sqrt(2 * x * ln20d) + 1 + mpmath.mpf(2) / 3 * max(p, 1 - p) * ln20d) ** 2
    return (
        d2 * mpmath.sqrt(2 * ln125) / mpmath.sqrt(x)
        + alpha * d1 * (x + 1) * psym / (x**2 * om)
        + d2 / mpmath.sqrt(om) * mpmath.sqrt(2 * s1 * ln10)
        + mpmath.mpf(2) / 3 * alpha * s2 * psym * ln10 * dinf / x**2
        + 2 * ln125 * dinf / x
    )


def mp_tight_lower(q, x, d, delta):
    """The five terms of the x-only lower bound from its printed closed form
    (psym = max(p, 1-p) = 1/2, s1 at its lower bound), in mpmath arithmetic."""
    q, x, d, delta = (mpmath.mpf(v) for v in (q, x, d, delta))
    d1, d2, dinf = _mp_sensitivity(q, d, delta)
    alpha = -3 - 9 * mpmath.log(mpmath.mpf(2) / 3)
    half = mpmath.mpf(1) / 2
    ln125, ln10, ln20d = mpmath.log(1.25 / delta), mpmath.log(10 / delta), mpmath.log(20 * d / delta)
    om = 1 - delta / 10
    s1 = min((x + 1) / (2 * x**3), (3 * x + 2) / (4 * x * (x + half / 2) * (x + half)))
    s2 = (mpmath.sqrt(2 * x * ln20d) + 1 + ln20d / 3) ** 2
    return (
        d2 * mpmath.sqrt(2 * ln125) / mpmath.sqrt(x),
        alpha * d1 * (x + 1) * half / (x**2 * om),
        d2 / mpmath.sqrt(om) * mpmath.sqrt(2 * s1 * ln10),
        mpmath.mpf(2) / 3 * alpha * s2 * half * ln10 * dinf / x**2,
        2 * ln125 * dinf / x,
    )


def mp_baseline(q, n, p, d, delta):
    """Classical estimate from its printed closed form, in mpmath arithmetic,
    at the reflected p <= 1/2 the form is valid for."""
    q, n, p, d, delta = (mpmath.mpf(v) for v in (q, n, p, d, delta))
    p = min(p, 1 - p)
    d1, d2, dinf = _mp_sensitivity(q, d, delta)
    x = n * p * (1 - p)
    psym = p**2 + (1 - p) ** 2
    cp = mpmath.sqrt(2) * (3 * p**3 + 3 * (1 - p) ** 3 + 2 * psym)
    bp = mpmath.mpf(2) / 3 * psym + (1 - 2 * p)
    dp_ = mpmath.mpf(4) / 3 * psym
    ln125, ln10, ln20d = mpmath.log(1.25 / delta), mpmath.log(10 / delta), mpmath.log(20 * d / delta)
    return (
        d2 * mpmath.sqrt(2 * ln125) / mpmath.sqrt(x)
        + (d2 * cp * mpmath.sqrt(ln10) + d1 * bp) / (x * (1 - delta / 10))
        + (mpmath.mpf(2) / 3 * dinf * ln125 + dinf * dp_ * ln20d * ln10) / x
    )


class TestHighPrecisionReference:
    """Both estimators against 50-digit evaluations at extreme inputs.

    The grid is every combination of the listed d, delta, n, p and q (162
    points), well outside the variance floor for many of them: the closed
    forms are checked as functions, ungated.  The bound 2^-40 on the
    relative error was fixed before the first run.
    """

    REL = 2.0**-40
    GRID = [
        (q, n, p, d, delta)
        for d in (1, 47_710, 10**7)
        for delta in (1e-15, 1e-2)
        for n in (2, 65_534, 2**24)
        for p in (0.5, 0.75, 0.999)
        for q in (2, 946, 2**16)
    ]

    def test_reference_reproduces_golden_values(self):
        # the transcription above agrees with the frozen golden numbers
        with mpmath.workdps(50):
            for point, tight, base in ((GOLDEN, GOLDEN_TIGHT, GOLDEN_BASELINE),
                                       (GOLDEN2, GOLDEN2_TIGHT, GOLDEN2_BASELINE)):
                args = (point["q"], point["n"], point["p"], point["d"], point["delta"])
                assert abs(mp_tight(*args) / tight - 1) < 1e-15
                assert abs(mp_baseline(*args) / base - 1) < 1e-15

    def test_scalar_and_array_paths_within_bound(self):
        worst = 0.0
        with mpmath.workdps(50):
            for q, n, p, d, delta in self.GRID:
                ref_tight = mp_tight(q, n, p, d, delta)
                ref_base = mp_baseline(q, n, p, d, delta)
                got = {
                    "tight scalar": (tight_epsilon_value(q, n, p, d, delta), ref_tight),
                    "tight array": (tight_at(q, np.array([n]), p, d, delta)[0], ref_tight),
                    "baseline scalar": (baseline_epsilon_value(q, n, p, d, delta), ref_base),
                }
                for path, (value, ref) in got.items():
                    rel = float(abs(mpmath.mpf(float(value)) / ref - 1))
                    assert rel <= self.REL, (path, q, n, p, d, delta, value, ref)
                    worst = max(worst, rel)
        assert worst > 0.0  # the grid does reach float rounding


    # x runs across the s1 bound's switch near 1.95 and down to 1/100
    LOWER_GRID = [
        (q, x, d, delta)
        for d in (1, 47_710, 10**7)
        for delta in (1e-15, 1e-2)
        for x in (0.01, 0.5, 1.95, 2.0, 16_383.5, 4.2e6)
        for q in (2, 946, 2**16)
    ]

    def test_lower_bound_within_bound(self):
        worst = 0.0
        with mpmath.workdps(50):
            for q, x, d, delta in self.LOWER_GRID:
                refs = mp_tight_lower(q, x, d, delta)
                for i, (value, ref) in enumerate(zip(tight_epsilon_lower(q, x, d, delta), refs)):
                    rel = float(abs(mpmath.mpf(float(value)) / ref - 1))
                    assert rel <= self.REL, (i, q, x, d, delta, value, ref)
                    worst = max(worst, rel)
        assert worst > 0.0


def test_scalar_calls_return_python_types():
    # one numpy code path serves scalars and arrays; scalar inputs still
    # give plain Python values, which the CSV writer prints with repr()
    for point in (GOLDEN, GOLDEN2):
        mech, ctx = mech_ctx(**point)
        args = (mech.q, mech.n, mech.p, ctx.d, ctx.delta)
        certified = (mech.q, mech.n, mech.p, ctx)
        for value in (tight_epsilon_value(*args), baseline_epsilon_value(*args),
                      epsilon_tight(*certified), epsilon_baseline(*certified)):
            assert type(value) is float
        assert mech.n >= min_trials(mech.q, mech.p, ctx)
    with pytest.raises(NotApplicableError):
        epsilon_tight(2, 2, 0.5, PrivacyContext(d=47710, delta=1e-10, K=1000))


def test_baseline_uses_unscaled_middle_denominator():
    # the two estimators split the 1/(1 - delta/10) factor differently and
    # must each follow their own printed form; at delta near 1 the factor
    # is material, so a swap would show up here
    q, n, p, d, delta = 3, 4000, 0.5, 2, 0.9
    base = baseline_epsilon_value(q, n, p, d, delta)
    t = tight_epsilon_value(q, n, p, d, delta)
    assert base > 0 and t > 0
