"""Channel model: rates, feasibility, minimal power, domains, sampling."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binomfl import wireless
from binomfl.errors import CapacityInfeasibleError, ConfigError, EmptyDomainError
from binomfl.wireless import (
    ChannelSampler,
    SystemParams,
    assign_powers,
    capacity_base,
    capacity_feasible,
    dbm_to_watts,
    db_to_linear,
    domain_bound,
    min_snr,
    payload_bits_real,
    sample_gains,
    shannon_rate,
    watts_to_dbm,
)


def flat_system(K=2, d=4, T=2.0, W=4.0, omega0=1.0, gain=1.0, p_min=1e-6, p_max=100.0):
    return SystemParams(
        K=K, M=K, d=d, delta=1e-3, T=T, W=W, omega0=omega0,
        p_min=p_min, p_max=p_max, gains=tuple([gain] * K),
    )


class TestSystemParams:
    def test_rejects_gain_count_mismatch(self):
        with pytest.raises(ValueError):
            SystemParams(K=3, M=5, d=1, delta=0.5, T=1, W=1, omega0=1,
                         p_min=0.1, p_max=1.0, gains=(1.0, 2.0))

    def test_rejects_k_above_m(self):
        with pytest.raises(ValueError):
            SystemParams(K=6, M=5, d=1, delta=0.5, T=1, W=1, omega0=1,
                         p_min=0.1, p_max=1.0, gains=(1.0,) * 6)

    def test_rejects_inverted_power_limits(self):
        with pytest.raises(ValueError):
            SystemParams(K=1, M=1, d=1, delta=0.5, T=1, W=1, omega0=1,
                         p_min=2.0, p_max=1.0, gains=(1.0,))

    @pytest.mark.parametrize("name", ["T", "W", "omega0", "p_min", "p_max", "gains"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -0.0, -1e-300, -2.0])
    def test_rejects_non_finite_channel_parameters(self, name, value):
        fields = dict(K=3, M=3, d=1, delta=0.5, T=1.0, W=1.0, omega0=1.0,
                      p_min=0.1, p_max=1.0, gains=(1.0, 2.0, 3.0))
        if name == "gains":
            for gains in ((value, 2.0, 3.0), (1.0, value, 3.0), (1.0, 2.0, value)):
                with pytest.raises(ValueError, match="^all channel gains must be positive and finite$"):
                    SystemParams(**{**fields, "gains": gains})
            return
        fields[name] = value
        with pytest.raises(ValueError, match="must be positive and finite"):
            SystemParams(**fields)

    def test_worst_gain_is_stored_outside_the_fields(self):
        kw = dict(K=3, M=3, d=1, delta=0.5, T=1.0, W=1.0, omega0=2.0, p_min=0.1, p_max=4.0)
        sys = SystemParams(**kw, gains=(3.0, 1.0, 2.0))
        assert sys.worst_gain == 1.0
        assert sys.gains == (3.0, 1.0, 2.0) and all(type(g) is float for g in sys.gains)
        assert "worst_gain" not in {f.name for f in dataclasses.fields(sys)}
        assert "worst_gain" not in repr(sys)
        twin = SystemParams(**kw, gains=(3.0, 1.0, 2.0))
        object.__setattr__(twin, "worst_gain", 5.0)
        assert twin == sys and hash(twin) == hash(sys)  # == and hash see the fields only
        assert dataclasses.replace(sys, gains=(4.0, 0.5, 9.0)).worst_gain == 0.5

    def test_capacity_bounds_match_the_min_gain_formulas(self, rng):
        def check(sys):
            snr = sys.p_max * min(sys.gains) / sys.omega0
            assert min_snr(sys) == snr
            base = (1.0 + snr) ** (sys.T * sys.W / sys.d)
            assert capacity_base(sys) == base
            if base > 1e100:
                with pytest.raises(ConfigError):
                    domain_bound(sys)
            elif math.floor(base) - 2 < 2:
                with pytest.raises(EmptyDomainError):
                    domain_bound(sys)
            else:
                assert domain_bound(sys) == math.floor(base) - 2

        for _ in range(200):
            K = int(rng.integers(1, 40))
            sys = SystemParams(
                K=K, M=K, d=int(rng.integers(1, 10)), delta=0.5, T=float(rng.uniform(0.5, 2.0)),
                W=float(rng.uniform(1.0, 30.0)), omega0=float(rng.uniform(0.1, 10.0)), p_min=1e-6,
                p_max=float(rng.uniform(1.0, 100.0)), gains=tuple(rng.lognormal(0.0, 2.0, K).tolist()),
            )
            check(sys)
            check(dataclasses.replace(sys, gains=tuple(rng.lognormal(0.0, 2.0, K).tolist())))
            check(dataclasses.replace(sys, p_max=float(rng.uniform(1.0, 100.0))))


class TestShannonRate:
    def test_unit_snr(self):
        sys = flat_system(W=8.0)
        assert shannon_rate(1.0, 1.0, sys) == 8.0

    def test_snr_three(self):
        sys = flat_system(W=1.0, omega0=2.0)
        # power * gain / omega0 = 3 -> log2(4) = 2
        assert shannon_rate(6.0, 1.0, sys) == 2.0

    def test_monotone_in_gain(self, rng):
        sys = flat_system(W=5.0)
        for _ in range(20):
            p = float(rng.uniform(0.1, 10))
            g = float(rng.uniform(0.1, 10))
            assert shannon_rate(p, 2 * g, sys) > shannon_rate(p, g, sys)

    def test_rejects_nonpositive_power(self):
        with pytest.raises(ValueError):
            shannon_rate(0.0, 1.0, flat_system())
        with pytest.raises(ValueError):
            shannon_rate(np.array([1.0, 0.0]), np.array([1.0, 1.0]), flat_system())

    def test_array_matches_scalar_calls_bitwise(self, rng):
        # np.log2 differs from math.log2 in the last bit on some of these
        # SNRs; every element must carry the bits of the scalar formula
        sys = flat_system(W=3.0, omega0=0.7)
        powers = rng.uniform(1e-3, 1e3, 20_000) * 10.0 ** rng.uniform(-6, 6, 20_000)
        gains = rng.uniform(0.01, 10.0, 20_000)

        def scalar(p, g):
            return sys.W * math.log2(1.0 + p * g / sys.omega0)

        expected = [scalar(p, g) for p, g in zip(powers.tolist(), gains.tolist())]
        assert shannon_rate(powers, gains, sys).tolist() == expected
        # one gain against a column of powers
        grid = shannon_rate(powers[:50, None], 2.5, sys)
        assert grid.shape == (50, 1)
        assert grid.ravel().tolist() == [scalar(p, 2.5) for p in powers[:50].tolist()]


class TestCapacityFeasible:
    def test_exact_equality_is_feasible(self):
        # payload 4*log2(4) = 8 vs T*W*log2(2) = 8
        sys = flat_system(K=2, d=4, T=2.0, W=4.0)
        assert capacity_feasible(2, 2, [1.0, 1.0], sys)

    def test_snr_point_nine_fails(self):
        sys = flat_system(K=2, d=4, T=2.0, W=4.0)
        assert not capacity_feasible(2, 2, [0.9, 0.9], sys)

    def test_more_time_or_bandwidth_never_breaks(self, rng):
        for _ in range(50):
            d = int(rng.integers(1, 30))
            T = float(rng.uniform(0.5, 4))
            W = float(rng.uniform(0.5, 8))
            q = int(rng.integers(2, 20))
            n = int(rng.integers(2, 40))
            power = float(rng.uniform(0.1, 20))
            sys = flat_system(K=1, d=d, T=T, W=W)
            if capacity_feasible(q, n, [power], sys):
                grown = flat_system(K=1, d=d, T=T * rng.uniform(1, 3), W=W * rng.uniform(1, 3))
                assert capacity_feasible(q, n, [power], grown)


class TestRequiredPower:
    """The power one device needs, through :func:`assign_powers` at K = 1."""

    def test_closed_form_point(self):
        # (q+n)^(d/TW) - 1 = 4^0.5 - 1 = 1 at omega0 = gain = 1
        sys = flat_system(K=1, d=1, T=1.0, W=2.0)
        assert assign_powers(2, 2, sys) == (1.0,)

    def test_clamps_to_p_min(self):
        sys = flat_system(K=1, d=1, T=1.0, W=2.0, p_min=5.0, p_max=100.0)
        assert assign_powers(2, 2, sys) == (5.0,)

    def test_signals_above_p_max(self):
        sys = flat_system(K=1, d=1, T=1.0, W=2.0, p_max=0.5)
        with pytest.raises(CapacityInfeasibleError):
            assign_powers(2, 2, sys)

    def test_signals_when_the_bump_cannot_meet_capacity(self, monkeypatch):
        # every rate one ulp short of the payload, so no nudge closes the gap
        sys = flat_system(K=1, d=1, T=1.0, W=2.0)
        need = payload_bits_real(1, 2, 2)
        monkeypatch.setattr(wireless, "shannon_rate",
                            lambda power, gain, s: np.full(np.shape(power), math.nextafter(need, 0.0) / s.T))
        with pytest.raises(CapacityInfeasibleError, match="exceeds capacity"):
            assign_powers(2, 2, sys)

    @pytest.mark.parametrize("device_1_passes, message", [
        (False, r"exceeds capacity on gain 0\.5$"),
        (True, r"needs 10 W on gain 0\.1, above the 5 W limit$"),
    ])
    def test_nudge_failure_order(self, monkeypatch, device_1_passes, message):
        # device 0 passes at its second bump, device 1 never or at once, and
        # device 2 at its first, above its 10 W and p_max 5.  A device short
        # after every bump raises before any p_max error, and that error
        # comes before any nudge of a device above p_max
        sys = SystemParams(K=3, M=3, d=1, delta=0.5, T=1.0, W=2.0, omega0=1.0,
                           p_min=1e-6, p_max=5.0, gains=(1.0, 0.5, 0.1))
        need = payload_bits_real(1, 2, 2)

        def rate(power, gain, s):
            power, gain = np.broadcast_arrays(np.asarray(power, float), np.asarray(gain, float))
            passes = ((gain == 1.0) & (power >= 1.0 + 2.0**-48)) | ((gain == 0.1) & (power > 10.0))
            if device_1_passes:
                passes |= gain == 0.5
            return np.where(passes, need, math.nextafter(need, 0.0)) / s.T

        monkeypatch.setattr(wireless, "shannon_rate", rate)
        with pytest.raises(CapacityInfeasibleError, match=message):
            assign_powers(2, 2, sys)
        if device_1_passes:
            # below p_max 20 each device keeps its first passing power
            assert assign_powers(2, 2, dataclasses.replace(sys, p_max=20.0)) == \
                (1.0 + 2.0**-48, 2.0, 10.0 * (1.0 + 2.0**-50))

    def test_output_always_passes_capacity(self, rng):
        # randomized cross-check between the two operations
        for _ in range(300):
            d = int(rng.integers(1, 40))
            T = float(rng.uniform(0.2, 3))
            W = float(rng.uniform(0.5, 50))
            gain = float(rng.uniform(0.01, 10))
            omega0 = float(rng.uniform(0.01, 2))
            q = int(rng.integers(2, 50))
            n = int(rng.integers(2, 100))
            sys = SystemParams(K=1, M=1, d=d, delta=0.5, T=T, W=W, omega0=omega0,
                               p_min=1e-9, p_max=1e6, gains=(gain,))
            try:
                powers = assign_powers(q, n, sys)
            except CapacityInfeasibleError:
                continue
            assert capacity_feasible(q, n, list(powers), sys)


def _ref_required_power(q, n, gain, sys):
    # the per-device form every power assignment used to loop over
    if q + n < 4:
        raise ValueError(f"need q + n >= 4, got q={q}, n={n}")
    try:
        unclamped = sys.omega0 * ((q + n) ** (sys.d / (sys.T * sys.W)) - 1.0) / gain
    except OverflowError:
        raise CapacityInfeasibleError(
            f"payload at (q={q}, n={n}) needs a power beyond float range on gain {gain:.6g}"
        ) from None
    if unclamped > sys.p_max:
        raise CapacityInfeasibleError(
            f"payload at (q={q}, n={n}) needs {unclamped:.6g} W on gain "
            f"{gain:.6g}, above the {sys.p_max:.6g} W limit"
        )
    power = max(sys.p_min, unclamped)
    need = payload_bits_real(sys.d, q, n)
    bump = 2.0**-50
    while need > sys.T * shannon_rate(power, gain, sys) and power < sys.p_max and bump < 2.0**-20:
        power = min(sys.p_max, max(sys.p_min, unclamped) * (1.0 + bump))
        bump *= 4.0
    return power


def _outcome(fn):
    try:
        return fn()
    except (CapacityInfeasibleError, ValueError) as exc:
        return type(exc), str(exc)


class TestAssignPowers:
    @settings(max_examples=400, deadline=None)
    @given(
        K=st.integers(1, 30), d=st.integers(1, 400), T=st.floats(0.2, 3.0), W=st.floats(0.5, 50.0),
        omega0=st.floats(0.01, 2.0), p_min=st.floats(1e-9, 1.0), p_span=st.floats(1.0, 1e6),
        q=st.integers(1, 300), n=st.integers(1, 300), seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_per_device_loop(self, K, d, T, W, omega0, p_min, p_span, q, n, seed):
        gains = tuple(np.random.default_rng(seed).uniform(0.01, 10.0, size=K).tolist())
        sys = SystemParams(K=K, M=K, d=d, delta=0.5, T=T, W=W, omega0=omega0,
                           p_min=p_min, p_max=p_min * p_span, gains=gains)

        def loop():
            return tuple(_ref_required_power(q, n, h, sys) for h in sys.gains)

        # same powers bit for bit, or the same error for the first failing
        # device in gain order
        assert _outcome(lambda: assign_powers(q, n, sys)) == _outcome(loop)
        # the last device alone, which the loop above may never reach
        last = dataclasses.replace(sys, K=1, M=1, gains=gains[-1:])
        assert _outcome(lambda: assign_powers(q, n, last)) == \
            _outcome(lambda: (_ref_required_power(q, n, gains[-1], sys),))

    def test_power_overflow_raises_no_warning(self):
        # factor / gain overflows to inf on the tiny gain; that is a capacity
        # error naming it, never a RuntimeWarning
        sys = SystemParams(K=2, M=2, d=1, delta=0.5, T=1.0, W=1.0, omega0=1.0,
                           p_min=1e-3, p_max=1.0, gains=(4.0, 1e-308))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CapacityInfeasibleError, match="needs inf W on gain 1e-308,"):
                assign_powers(2, 2, sys)

    def test_overflow_names_the_first_gain(self):
        sys = SystemParams(K=2, M=2, d=10**6, delta=0.5, T=1.0, W=1.0, omega0=1.0,
                           p_min=1e-3, p_max=1.0, gains=(3.0, 0.5))
        with pytest.raises(CapacityInfeasibleError, match="beyond float range on gain 3$"):
            assign_powers(2, 2, sys)


class TestDomainBound:
    def test_floor_minus_two(self):
        # base (1 + 65.3)^1 = 66.3 -> bound 64
        sys = flat_system(K=1, d=1, T=1.0, W=1.0, p_max=65.3)
        assert capacity_base(sys) == pytest.approx(66.3)
        assert domain_bound(sys) == 64

    def test_empty_domain_signals(self):
        sys = flat_system(K=1, d=1, T=1.0, W=1.0, p_max=2.0)
        with pytest.raises(EmptyDomainError):
            domain_bound(sys)

    @pytest.mark.parametrize("axis", ["p_max", "T", "W"])
    def test_monotone_in_resources(self, axis, rng):
        for _ in range(50):
            kw = dict(K=1, d=2, T=1.0, W=3.0, p_max=float(rng.uniform(10, 100)))
            sys = flat_system(**kw)
            kw[axis] = kw[axis] * float(rng.uniform(1, 4))
            grown = flat_system(**kw)
            try:
                b0 = domain_bound(sys)
            except EmptyDomainError:
                continue
            assert domain_bound(grown) >= b0

    def test_required_power_never_signals_inside_domain(self, rng):
        # any q + n up to bound + 2 is carryable by the worst device
        for _ in range(100):
            sys = flat_system(K=3, d=int(rng.integers(1, 10)), T=1.0,
                              W=float(rng.uniform(2, 20)),
                              gain=float(rng.uniform(0.5, 4.0)),
                              p_max=float(rng.uniform(5, 200)))
            try:
                bound = domain_bound(sys)
            except EmptyDomainError:
                continue
            hi = min(bound + 2, 10**6)
            total = int(rng.integers(4, hi + 1))
            q = int(rng.integers(2, total - 1))
            assign_powers(q, total - q, sys)

    def test_min_snr_uses_worst_gain(self):
        sys = SystemParams(K=3, M=3, d=1, delta=0.5, T=1, W=1, omega0=2.0,
                           p_min=0.1, p_max=4.0, gains=(3.0, 1.0, 2.0))
        assert min_snr(sys) == 4.0 * 1.0 / 2.0


class TestSampleGains:
    def test_bit_identical_under_fixed_seed(self):
        sampler = ChannelSampler(g0=1e-4, d0=1.0, d_min=2.0, d_max=200.0, seed=99)
        a = sample_gains(sampler, 64)
        b = sample_gains(sampler, 64)
        assert a == b

    def test_squared_gain_mean_matches_pathloss(self):
        # fixed distance: 1e5 draws of h^2 ~ Exp(mean g0 (d0/D)^4)
        sampler = ChannelSampler(g0=1e-4, d0=1.0, d_min=50.0, d_max=50.0, seed=5)
        h = np.array(sample_gains(sampler, 100_000))
        h_sq = h * h
        mean = 1e-4 * (1.0 / 50.0) ** 4
        stderr = mean / math.sqrt(h_sq.size)  # exponential: sd == mean
        assert abs(h_sq.mean() - mean) <= 3.0 * stderr

    def test_power_semantics_returns_square(self):
        amp = ChannelSampler(g0=1e-2, d0=1.0, d_min=3.0, d_max=3.0, seed=1)
        pwr = ChannelSampler(g0=1e-2, d0=1.0, d_min=3.0, d_max=3.0, seed=1, semantics="power")
        a = np.array(sample_gains(amp, 256))
        p = np.array(sample_gains(pwr, 256))
        np.testing.assert_allclose(a * a, p, rtol=1e-12)

    def test_degenerate_distance_interval(self):
        sampler = ChannelSampler(g0=1e-4, d0=1.0, d_min=7.0, d_max=7.0, seed=3)
        gains = sample_gains(sampler, 10)
        assert len(gains) == 10 and all(g > 0 for g in gains)


class TestUnitConversions:
    def test_dbm_watts_roundtrip(self, rng):
        for _ in range(20):
            dbm = float(rng.uniform(-30, 40))
            assert watts_to_dbm(dbm_to_watts(dbm)) == pytest.approx(dbm, abs=1e-9)

    def test_reference_points(self):
        assert dbm_to_watts(0.0) == pytest.approx(1e-3)
        assert dbm_to_watts(20.0) == pytest.approx(0.1)
        assert db_to_linear(-40.0) == pytest.approx(1e-4)
