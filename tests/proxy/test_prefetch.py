"""Unit tests for the prefetching strategies."""

import pytest

from repro.proxy.policies import PolicyConfig
from repro.proxy.prefetch import BufferPrefetcher, RatePrefetcher
from repro.proxy.state import TopicState
from repro.types import TopicId


def state(ma_window=10):
    return TopicState(TopicId("t"), ma_window=ma_window)


class TestBufferPrefetcher:
    def test_pure_policies_have_zero_limit(self):
        for policy in (PolicyConfig.online(), PolicyConfig.on_demand(),
                       PolicyConfig.rate()):
            assert BufferPrefetcher(policy).effective_limit(state()) == 0

    def test_static_limit(self):
        prefetcher = BufferPrefetcher(PolicyConfig.buffer(prefetch_limit=42))
        assert prefetcher.effective_limit(state()) == 42

    def test_adaptive_initial_limit(self):
        prefetcher = BufferPrefetcher(
            PolicyConfig.unified(initial_prefetch_limit=9)
        )
        assert prefetcher.effective_limit(state()) == 9

    def test_adaptive_limit_is_twice_mean_read(self):
        prefetcher = BufferPrefetcher(PolicyConfig.unified())
        s = state()
        s.old_reads.push(8.0)
        assert prefetcher.effective_limit(s) == 16
        s.old_reads.push(4.0)
        assert prefetcher.effective_limit(s) == 12

    def test_adaptive_limit_floor_of_one(self):
        prefetcher = BufferPrefetcher(PolicyConfig.unified())
        s = state()
        s.old_reads.push(0.0)
        assert prefetcher.effective_limit(s) == 1

    def test_custom_multiplier(self):
        policy = PolicyConfig(adaptive_limit_multiplier=3.0)
        prefetcher = BufferPrefetcher(policy)
        s = state()
        s.old_reads.push(10.0)
        assert prefetcher.effective_limit(s) == 30


class TestRatePrefetcher:
    def test_initial_ratio_used_before_estimates(self):
        prefetcher = RatePrefetcher(PolicyConfig.rate(initial_ratio=0.25))
        assert prefetcher.ratio(state()) == 0.25

    def test_ratio_from_rates(self):
        prefetcher = RatePrefetcher(PolicyConfig.rate())
        s = state()
        # Arrivals every 10 s -> production 0.1/s.
        for t in (0.0, 10.0, 20.0, 30.0):
            prefetcher.observe_arrival(t)
        # Reads of 4 messages every 100 s -> consumption 0.04/s.
        s.old_reads.push(4.0)
        s.old_times.push(0.0)
        s.old_times.push(100.0)
        assert prefetcher.ratio(s) == pytest.approx(0.4)

    def test_ratio_clamped_to_one(self):
        prefetcher = RatePrefetcher(PolicyConfig.rate())
        s = state()
        for t in (0.0, 100.0):
            prefetcher.observe_arrival(t)
        s.old_reads.push(50.0)
        s.old_times.push(0.0)
        s.old_times.push(10.0)
        assert prefetcher.ratio(s) == 1.0

    def test_credit_accumulates_fractions(self):
        """With ratio 0.2, forwarding happens at every 5th arrival."""
        prefetcher = RatePrefetcher(PolicyConfig.rate(initial_ratio=0.2))
        s = state()
        spend = [prefetcher.earn(s) for _ in range(10)]
        assert sum(spend) == 2
        assert spend == [0, 0, 0, 0, 1, 0, 0, 0, 0, 1]

    def test_full_ratio_forwards_every_arrival(self):
        prefetcher = RatePrefetcher(PolicyConfig.rate(initial_ratio=1.0))
        s = state()
        assert [prefetcher.earn(s) for _ in range(3)] == [1, 1, 1]
