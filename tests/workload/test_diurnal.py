"""Unit tests for diurnal arrival generation."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.sim.rng import RandomSource
from repro.units import DAY, HOUR
from repro.workload.arrivals import ArrivalConfig
from repro.workload.diurnal import DiurnalProfile, generate_diurnal_arrivals


def hourly_histogram(arrivals):
    """Count arrivals per hour of day."""
    histogram = [0] * 24
    for arrival in arrivals:
        histogram[int(math.fmod(arrival.time, DAY) // HOUR)] += 1
    return histogram


class TestProfile:
    def test_flat_profile_is_uniform(self):
        profile = DiurnalProfile.flat()
        profile.validate()
        assert profile.peak_multiplier == 1.0
        assert profile.relative_intensity(12345.0) == 1.0

    def test_rush_hours_peaks_in_morning(self):
        profile = DiurnalProfile.rush_hours()
        profile.validate()
        morning = profile.relative_intensity(8.5 * 3600)
        night = profile.relative_intensity(3.0 * 3600)
        assert morning > 5 * night

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            DiurnalProfile(hourly=(1.0,) * 23).validate()
        with pytest.raises(ConfigurationError):
            DiurnalProfile(hourly=(-1.0,) + (1.0,) * 23).validate()
        with pytest.raises(ConfigurationError):
            DiurnalProfile(hourly=(0.0,) * 24).validate()


class TestGeneration:
    def test_daily_rate_preserved(self, rng):
        arrivals = generate_diurnal_arrivals(
            ArrivalConfig(events_per_day=32.0),
            DiurnalProfile.rush_hours(),
            duration=200 * DAY,
            rng=rng,
        )
        assert len(arrivals) / 200 == pytest.approx(32.0, rel=0.07)

    def test_flat_profile_matches_homogeneous_statistics(self, rng):
        arrivals = generate_diurnal_arrivals(
            ArrivalConfig(events_per_day=24.0),
            DiurnalProfile.flat(),
            duration=300 * DAY,
            rng=rng,
        )
        histogram = hourly_histogram(arrivals)
        mean = sum(histogram) / 24
        assert all(abs(count - mean) < 0.25 * mean for count in histogram)

    def test_rush_hours_shape_visible(self, rng):
        arrivals = generate_diurnal_arrivals(
            ArrivalConfig(events_per_day=48.0),
            DiurnalProfile.rush_hours(),
            duration=200 * DAY,
            rng=rng,
        )
        histogram = hourly_histogram(arrivals)
        assert histogram[8] > 4 * histogram[3]
        assert histogram[17] > 2 * histogram[12]

    def test_sorted_unique_ids(self, rng):
        arrivals = generate_diurnal_arrivals(
            ArrivalConfig(events_per_day=32.0),
            DiurnalProfile.working_day(),
            duration=30 * DAY,
            rng=rng,
            first_event_id=500,
        )
        times = [a.time for a in arrivals]
        assert times == sorted(times)
        ids = [a.event_id for a in arrivals]
        assert ids == list(range(500, 500 + len(ids)))

    def test_expirations_attached(self, rng):
        arrivals = generate_diurnal_arrivals(
            ArrivalConfig(events_per_day=32.0, expiring_fraction=1.0,
                          expiration_mean=3600.0),
            DiurnalProfile.flat(),
            duration=30 * DAY,
            rng=rng,
        )
        assert all(a.expires_at is not None and a.expires_at > a.time for a in arrivals)

    def test_deterministic(self):
        config = ArrivalConfig(events_per_day=16.0)
        profile = DiurnalProfile.rush_hours()
        a = generate_diurnal_arrivals(config, profile, 30 * DAY, RandomSource(9))
        b = generate_diurnal_arrivals(config, profile, 30 * DAY, RandomSource(9))
        assert a == b
