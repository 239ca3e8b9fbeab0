"""Privacy-budget estimators: frozen reference values and structural laws.

Golden numbers were computed with an independent 50-digit mpmath evaluation
of the closed forms, not with the code under test.
"""

import math

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
    baseline_epsilon_value,
    dp_variance_feasible,
    dp_variance_threshold,
    epsilon_baseline,
    epsilon_tight,
    epsilon_tight_terms,
    s1_term,
    s2_value,
    sensitivity_bounds,
    tight_epsilon_n_array,
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
        if dp_variance_feasible(mech, ctx):
            out.append((mech, ctx))
    return out


class TestTypes:
    def test_delta_above_one_rejected(self):
        with pytest.raises(ValueError):
            PrivacyContext(d=1, delta=2.0, K=10)

    def test_noise_scale_is_derived(self):
        mech = MechanismParams(q=5, n=16, p=0.5, D=2.0)
        assert mech.s == 2.0 * 2.0 / 4

    @pytest.mark.parametrize("kwargs", [
        dict(q=1, n=16, p=0.5, D=1.0),
        dict(q=5, n=1, p=0.5, D=1.0),
        dict(q=5, n=16, p=0.0, D=1.0),
        dict(q=5, n=16, p=1.0, D=1.0),
        dict(q=5, n=16, p=0.5, D=0.0),
    ])
    def test_bad_mechanism_params_rejected(self, kwargs):
        with pytest.raises(ValueError):
            MechanismParams(**kwargs)


class TestSensitivityBounds:
    def test_linf_is_q_plus_one(self, rng):
        for _ in range(50):
            q = int(rng.integers(2, 10000))
            mech, ctx = mech_ctx(q, 64, 0.5, 10, 1e-4, 100)
            assert sensitivity_bounds(mech, ctx).delta_inf == q + 1

    def test_reference_point(self):
        # q=5, d=4, delta=0.02: 8 + sqrt(16 ln 100) + (4/3) ln 100
        mech, ctx = mech_ctx(5, 64, 0.5, 4, 0.02, 100)
        b = sensitivity_bounds(mech, ctx)
        assert b.delta_1 == pytest.approx(22.724091019808177449, rel=1e-14)
        assert b.delta_2 == pytest.approx(9.5953512065790442577, rel=1e-14)

    def test_positive_everywhere(self, rng):
        for mech, ctx in sample_feasible(rng, 25):
            b = sensitivity_bounds(mech, ctx)
            assert b.delta_1 > 0 and b.delta_2 > 0 and b.delta_inf > 0


class TestVarianceFloor:
    def test_reference_network_is_infeasible(self):
        # K n p (1-p) = 500 while the floor is about 830.33
        mech, ctx = mech_ctx(2, 2, 0.5, 47710, 1e-10, 1000)
        assert dp_variance_threshold(2, 47710, 1e-10) == pytest.approx(830.33064339322707, rel=1e-14)
        assert not dp_variance_feasible(mech, ctx)

    def test_boundary_equality_counts_as_feasible(self):
        # with q = 35, d = 1, delta = 0.5 the floor is the 2(q+1) branch = 72
        # exactly; K n p (1-p) = 32*9/4 = 72 exactly as well
        assert dp_variance_threshold(35, 1, 0.5) == 72.0
        mech, ctx = mech_ctx(35, 9, 0.5, 1, 0.5, 32)
        assert ctx.K * mech.n * mech.p * (1 - mech.p) == 72.0
        assert dp_variance_feasible(mech, ctx)
        just_below, _ = mech_ctx(35, 9, 0.5, 1, 0.5, 31)
        assert not dp_variance_feasible(just_below, PrivacyContext(d=1, delta=0.5, K=31))

    def test_vanishing_p_is_infeasible(self):
        mech, ctx = mech_ctx(2, 2, 1e-9, 1, 0.5, 5)
        assert not dp_variance_feasible(mech, ctx)


class TestBaseline:
    def test_golden_value(self):
        mech, ctx = mech_ctx(**GOLDEN)
        assert epsilon_baseline(mech, ctx) == pytest.approx(GOLDEN_BASELINE, rel=1e-13)

    def test_second_golden_value(self):
        mech, ctx = mech_ctx(**GOLDEN2)
        assert epsilon_baseline(mech, ctx) == pytest.approx(GOLDEN2_BASELINE, rel=1e-13)

    def test_strictly_positive(self, rng):
        for mech, ctx in sample_feasible(rng, 25):
            assert epsilon_baseline(mech, ctx) > 0.0

    def test_doubling_n_shrinks_budget(self, rng):
        for mech, ctx in sample_feasible(rng, 25):
            doubled = MechanismParams(q=mech.q, n=2 * mech.n, p=mech.p, D=mech.D)
            assert epsilon_baseline(doubled, ctx) < epsilon_baseline(mech, ctx)

    def test_not_applicable_below_floor(self):
        mech, ctx = mech_ctx(2, 2, 0.5, 47710, 1e-10, 1000)
        with pytest.raises(NotApplicableError):
            epsilon_baseline(mech, ctx)

    def test_reflected_above_half(self):
        # unreflected, the (1-2p) term made this certified budget -231,421
        mech, ctx = mech_ctx(946, 2, 0.75, 10**7, 1e-2, 10**4)
        mirrored, _ = mech_ctx(946, 2, 0.25, 10**7, 1e-2, 10**4)
        assert dp_variance_feasible(mech, ctx)
        base = epsilon_baseline(mech, ctx)
        assert base > 0.0
        assert base == epsilon_baseline(mirrored, ctx)

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
        assert epsilon_tight(mech, ctx) == pytest.approx(GOLDEN_TIGHT, rel=1e-13)
        terms = epsilon_tight_terms(mech, ctx)
        for got, want in zip(terms, GOLDEN_TIGHT_TERMS):
            assert got == pytest.approx(want, rel=1e-13)

    def test_second_golden_value(self):
        mech, ctx = mech_ctx(**GOLDEN2)
        assert epsilon_tight(mech, ctx) == pytest.approx(GOLDEN2_TIGHT, rel=1e-13)

    def test_not_applicable_below_floor(self):
        mech, ctx = mech_ctx(2, 2, 0.5, 47710, 1e-10, 1000)
        with pytest.raises(NotApplicableError):
            epsilon_tight(mech, ctx)

    def test_never_above_baseline(self, rng):
        # comparison domain p <= 1/2: the classical estimator's printed form
        # covers one representative of each reflection-equivalent mechanism
        # pair, and its (1-2p) term leaves the valid range above 1/2
        for mech, ctx in sample_feasible(rng, 60, p_hi=0.5, unscaled_floor=True):
            tight = epsilon_tight(mech, ctx)
            base = epsilon_baseline(mech, ctx)
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
        assert dp_variance_feasible(mech, ctx)
        tight, base = epsilon_tight(mech, ctx), epsilon_baseline(mech, ctx)
        assert tight == pytest.approx(75_140.49250026426, rel=1e-12)
        assert base == pytest.approx(72_261.75322085415, rel=1e-12)
        with mpmath.workdps(50):
            assert tight == pytest.approx(float(mp_tight(946, 64, 0.5, 10**7, 1e-2)), rel=1e-12)
            assert base == pytest.approx(float(mp_baseline(946, 64, 0.5, 10**7, 1e-2)), rel=1e-12)

    def test_symmetric_in_p(self, rng):
        for mech, ctx in sample_feasible(rng, 40):
            mirrored = MechanismParams(q=mech.q, n=mech.n, p=1.0 - mech.p, D=mech.D)
            a = epsilon_tight(mech, ctx)
            b = epsilon_tight(mirrored, ctx)
            assert abs(a - b) <= 1e-12 * a

    def test_strictly_decreasing_in_n(self, rng):
        # integer steps only
        for mech, ctx in sample_feasible(rng, 15):
            prev = epsilon_tight(mech, ctx)
            for step in range(1, 4):
                cur = epsilon_tight(
                    MechanismParams(q=mech.q, n=mech.n + step, p=mech.p, D=mech.D), ctx
                )
                assert cur < prev
                prev = cur

    def test_strictly_increasing_in_q(self, rng):
        for mech, ctx in sample_feasible(rng, 15):
            prev = epsilon_tight(mech, ctx)
            for step in range(1, 4):
                bigger = MechanismParams(q=mech.q + step, n=mech.n, p=mech.p, D=mech.D)
                if not dp_variance_feasible(bigger, ctx):
                    break
                cur = epsilon_tight(bigger, ctx)
                assert cur > prev
                prev = cur

    def test_all_five_terms_positive(self, rng):
        for mech, ctx in sample_feasible(rng, 40):
            assert all(t > 0.0 for t in epsilon_tight_terms(mech, ctx))

    def test_alpha_constant(self):
        # exact formula, checked against the independent evaluation
        assert ALPHA == pytest.approx(0.6491859729734794378, rel=1e-15)
        assert ALPHA > 0.0

    def test_vectorized_matches_scalar_bitwise(self, rng):
        for mech, ctx in sample_feasible(rng, 20):
            ns = np.arange(mech.n, mech.n + 17, dtype=np.float64)
            vec = tight_epsilon_n_array(mech.q, ns, mech.p, ctx.d, ctx.delta)
            for i, n in enumerate(range(mech.n, mech.n + 17)):
                assert vec[i] == tight_epsilon_value(mech.q, n, mech.p, ctx.d, ctx.delta)
        # array q and p as well; 2000 random p include the ~0.1% where libm
        # pow(v, 2) and v * v round differently
        count = 2000
        qs = rng.integers(2, 1000, size=count)
        ns = rng.integers(2, 65535, size=count)
        ps = rng.uniform(0.01, 0.99, size=count)
        for d, delta in ((47710, 1e-10), (12, 1e-3)):
            vec = tight_epsilon_n_array(qs, ns, ps, d, delta)
            for i in range(count):
                assert vec[i] == tight_epsilon_value(int(qs[i]), int(ns[i]), float(ps[i]), d, delta)
        # a (Q, 1) column of q, a scalar n and a (1, P) row of p: the result
        # is flat in C order, q-major
        q_axis = rng.integers(2, 1000, size=30)
        p_axis = rng.uniform(0.01, 0.99, size=40)
        for d, delta in ((47710, 1e-10), (12, 1e-3)):
            for n in (2, 65534, int(rng.integers(3, 65534))):
                vec = tight_epsilon_n_array(q_axis[:, None], n, p_axis[None, :], d, delta)
                assert vec.shape == (q_axis.size * p_axis.size,)
                for i, (qi, pi) in enumerate((qi, pi) for qi in q_axis for pi in p_axis):
                    assert vec[i] == tight_epsilon_value(int(qi), n, float(pi), d, delta)


class TestSTerms:
    def test_s1_symmetric(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 10000))
            p = float(rng.uniform(0.01, 0.99))
            assert s1_term(n, p) == pytest.approx(s1_term(n, 1.0 - p), rel=1e-12)

    def test_s1_hand_value(self):
        assert s1_term(2, 0.5) == pytest.approx(8.0 / 3.0, rel=1e-15)

    def test_s2_above_one(self, rng):
        ctx = PrivacyContext(d=12, delta=1e-6, K=10)
        for _ in range(50):
            n = int(rng.integers(2, 10000))
            p = float(rng.uniform(0.01, 0.99))
            assert s2_value(n, p, ctx.d, ctx.delta) > 1.0


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
                    "tight array": (tight_epsilon_n_array(q, np.array([n]), p, d, delta)[0], ref_tight),
                    "baseline scalar": (baseline_epsilon_value(q, n, p, d, delta), ref_base),
                }
                for path, (value, ref) in got.items():
                    rel = float(abs(mpmath.mpf(float(value)) / ref - 1))
                    assert rel <= self.REL, (path, q, n, p, d, delta, value, ref)
                    worst = max(worst, rel)
        assert worst > 0.0  # the grid does reach float rounding


def test_baseline_uses_unscaled_middle_denominator():
    # the two estimators split the 1/(1 - delta/10) factor differently and
    # must each follow their own printed form; at delta near 1 the factor
    # is material, so a swap would show up here
    q, n, p, d, delta = 3, 4000, 0.5, 2, 0.9
    base = baseline_epsilon_value(q, n, p, d, delta)
    t = tight_epsilon_value(q, n, p, d, delta)
    assert base > 0 and t > 0
