"""Property suite for the workload generators, run against BOTH the
vectorized (numpy) and scalar (reference) implementations, plus
statistical scalar↔vectorized equivalence checks.

The two methods draw through different bit engines (PCG64 vs Mersenne
Twister), so they produce different realizations; equivalence means the
same invariants hold and the same distributions emerge, not identical
streams.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.sim.rng import RandomSource
from repro.units import DAY, HOUR
from repro.workload import methods
from repro.workload.arrivals import (
    ArrivalConfig,
    ExpirationDistribution,
    generate_arrival_columns,
)
from repro.workload.diurnal import DiurnalProfile, generate_diurnal_arrival_columns
from repro.workload.outages import OutageConfig, generate_outage_columns
from repro.workload.ranks import RankChangeConfig, generate_rank_change_columns
from repro.workload.reads import ReadConfig, generate_read_columns

METHODS = (methods.VECTORIZED, methods.SCALAR)


def _sorted(array: np.ndarray) -> bool:
    return array.size < 2 or bool((np.diff(array) >= 0.0).all())


class TestMethodSwitch:
    def test_default_is_vectorized(self):
        assert methods.resolve(None) == methods.VECTORIZED

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown generation method"):
            methods.resolve("simd")

    def test_explicit_method_overrides_default(self):
        def times(method):
            return generate_arrival_columns(
                ArrivalConfig(events_per_day=8.0), 10 * DAY, RandomSource(3),
                method=method,
            ).times

        assert np.array_equal(times(None), times(methods.VECTORIZED))
        assert not np.array_equal(times(methods.SCALAR), times(None))


@pytest.mark.parametrize("method", METHODS)
class TestInvariantsBothMethods:
    """The same structural invariants must hold on either path."""

    # Rates below ~1e-3/day make the scalar path's 1/rate mean overflow
    # to inf (a stdlib expovariate limitation), so jump from 0 to 1e-3.
    @given(
        seed=st.integers(0, 2**31),
        rate=st.one_of(st.just(0.0), st.floats(1e-3, 64.0)),
    )
    @settings(max_examples=25, deadline=None)
    def test_arrivals(self, method, seed, rate):
        config = ArrivalConfig(
            events_per_day=rate,
            expiring_fraction=0.5,
            expiration_mean=6 * HOUR,
        )
        cols = generate_arrival_columns(
            config, 5 * DAY, RandomSource(seed), first_event_id=10, method=method
        )
        assert _sorted(cols.times)
        assert cols.times.size == 0 or (
            cols.times.min() >= 0.0 and cols.times.max() < 5 * DAY
        )
        assert np.array_equal(
            cols.event_ids, np.arange(10, 10 + cols.times.size)
        )
        assert ((cols.ranks >= 0.0) & (cols.ranks < 5.0)).all()
        expiring = ~np.isnan(cols.expires_at)
        assert (cols.expires_at[expiring] > cols.times[expiring]).all()

    @given(seed=st.integers(0, 2**31), frequency=st.floats(0.0, 12.0))
    @settings(max_examples=25, deadline=None)
    def test_reads(self, method, seed, frequency):
        config = ReadConfig(reads_per_day=frequency, read_count=8)
        cols = generate_read_columns(config, 7 * DAY, RandomSource(seed), method=method)
        assert _sorted(cols.times)
        assert cols.times.size == 0 or (
            cols.times.min() >= 0.0 and cols.times.max() < 7 * DAY
        )
        assert (cols.counts == 8).all()

    @given(
        seed=st.integers(0, 2**31),
        fraction=st.floats(0.0, 1.0),
        sigma=st.floats(0.0, 2.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_outages(self, method, seed, fraction, sigma):
        duration = 20 * DAY
        config = OutageConfig(
            downtime_fraction=fraction, outages_per_day=2.0, duration_sigma=sigma
        )
        cols = generate_outage_columns(config, duration, RandomSource(seed), method=method)
        assert _sorted(cols.starts)
        assert (cols.ends > cols.starts).all()
        assert cols.starts.size == 0 or (
            cols.starts.min() >= 0.0 and cols.ends.max() <= duration
        )
        # Non-overlapping after merge.
        if cols.starts.size > 1:
            assert (cols.starts[1:] > cols.ends[:-1]).all()
        if 0.05 < fraction < 0.95:
            realized = (cols.ends - cols.starts).sum() / duration
            assert realized == pytest.approx(fraction, abs=0.15)

    @given(seed=st.integers(0, 2**31), drop=st.floats(0.0, 0.5))
    @settings(max_examples=25, deadline=None)
    def test_rank_changes(self, method, seed, drop):
        duration = 10 * DAY
        rng = RandomSource(seed)
        arrivals = generate_arrival_columns(
            ArrivalConfig(events_per_day=16.0), duration, rng.spawn("arrivals"),
            method=method,
        )
        config = RankChangeConfig(drop_fraction=drop, boost_fraction=0.2)
        cols = generate_rank_change_columns(
            config, arrivals, duration, rng.spawn("rank-changes"), method=method
        )
        assert _sorted(cols.times)
        assert cols.times.size == 0 or cols.times.max() < duration
        assert np.isin(cols.event_ids, arrivals.event_ids).all()
        assert ((cols.new_ranks >= 0.0) & (cols.new_ranks <= 5.0)).all()

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=15, deadline=None)
    def test_diurnal(self, method, seed):
        duration = 10 * DAY
        cols = generate_diurnal_arrival_columns(
            ArrivalConfig(events_per_day=24.0),
            DiurnalProfile.rush_hours(),
            duration,
            RandomSource(seed),
            method=method,
        )
        assert _sorted(cols.times)
        assert cols.times.size == 0 or (
            cols.times.min() >= 0.0 and cols.times.max() < duration
        )
        assert np.array_equal(cols.event_ids, np.arange(cols.times.size))


class TestStatisticalEquivalence:
    """Same distributions through either engine (large-sample means)."""

    def _per_method(self, generate):
        out = {}
        for method in METHODS:
            out[method] = generate(method)
        return out

    def test_arrival_rate(self):
        duration = 400 * DAY
        got = self._per_method(
            lambda m: generate_arrival_columns(
                ArrivalConfig(events_per_day=32.0), duration, RandomSource(11), method=m
            ).times.size
        )
        expected = 32.0 * 400
        for count in got.values():
            assert count == pytest.approx(expected, rel=0.05)

    def test_exponential_lifetime_mean(self):
        duration = 400 * DAY
        got = self._per_method(
            lambda m: generate_arrival_columns(
                ArrivalConfig(
                    events_per_day=32.0,
                    expiring_fraction=1.0,
                    expiration_mean=6 * HOUR,
                ),
                duration,
                RandomSource(11),
                method=m,
            )
        )
        for cols in got.values():
            lifetimes = cols.expires_at - cols.times
            assert lifetimes.mean() == pytest.approx(6 * HOUR, rel=0.05)

    def test_read_rate(self):
        duration = 400 * DAY
        got = self._per_method(
            lambda m: generate_read_columns(
                ReadConfig(reads_per_day=4.0), duration, RandomSource(11), method=m
            ).times.size
        )
        for count in got.values():
            assert count == pytest.approx(4.0 * 400, rel=0.05)

    def test_outage_downtime(self):
        duration = 400 * DAY
        for fraction in (0.2, 0.7):
            got = self._per_method(
                lambda m: generate_outage_columns(
                    OutageConfig(downtime_fraction=fraction, outages_per_day=4.0),
                    duration,
                    RandomSource(11),
                    method=m,
                )
            )
            for cols in got.values():
                realized = (cols.ends - cols.starts).sum() / duration
                assert realized == pytest.approx(fraction, abs=0.02)

    def test_rank_change_fractions(self):
        duration = 400 * DAY

        def generate(method):
            rng = RandomSource(11)
            arrivals = generate_arrival_columns(
                ArrivalConfig(events_per_day=32.0),
                duration,
                rng.spawn("arrivals"),
                method=method,
            )
            changes = generate_rank_change_columns(
                RankChangeConfig(drop_fraction=0.2, drop_to_high=0.5),
                arrivals,
                duration,
                rng.spawn("rank-changes"),
                method=method,
            )
            return arrivals, changes

        for arrivals, changes in self._per_method(generate).values():
            # Delay truncation at the trace end loses a negligible share.
            assert changes.times.size / arrivals.times.size == pytest.approx(
                0.2, abs=0.02
            )
            assert (changes.new_ranks < 0.5).all()

    def test_uniform_lifetime_mean_tiny_band(self):
        """Both lifetime samplers must realize the configured mean even
        when the band reaches near zero (the clamped-low-edge bias
        regression). Measured through the samplers directly: lifetimes
        this small vanish in float64 rounding once added to trace times.
        """
        from repro.workload.arrivals import _draw_lifetime, _vector_lifetimes

        mean = 1e-6
        config = ArrivalConfig(
            expiration_mean=mean,
            expiration_distribution=ExpirationDistribution.UNIFORM,
            expiration_spread=1.0,
        )
        rng = RandomSource(11)
        scalar = np.array([_draw_lifetime(config, rng) for _ in range(20_000)])
        vectorized = _vector_lifetimes(config, rng.spawn_numpy("lifetimes"), 20_000)
        for lifetimes in (scalar, vectorized):
            assert (lifetimes > 0.0).all()
            assert lifetimes.mean() == pytest.approx(mean, rel=0.05)

    def test_diurnal_profile_shape(self):
        duration = 200 * DAY
        profile = DiurnalProfile.working_day()

        def histogram(method):
            cols = generate_diurnal_arrival_columns(
                ArrivalConfig(events_per_day=48.0),
                profile,
                duration,
                RandomSource(11),
                method=method,
            )
            hours = ((cols.times % DAY) // HOUR).astype(int)
            return np.bincount(hours, minlength=24)

        for counts in self._per_method(histogram).values():
            active = counts[8:20].mean()
            quiet = np.concatenate([counts[:8], counts[20:]]).mean()
            assert active / quiet == pytest.approx(2.0 / 0.3, rel=0.2)
