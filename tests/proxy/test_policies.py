"""Unit tests for forwarding-policy configuration."""

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.proxy.policies import PolicyConfig
from repro.types import PolicyKind


class TestConstructors:
    def test_online(self):
        policy = PolicyConfig.online()
        policy.validate()
        assert policy.kind is PolicyKind.ONLINE

    def test_on_demand(self):
        policy = PolicyConfig.on_demand()
        policy.validate()
        assert policy.kind is PolicyKind.ON_DEMAND
        assert policy.prefetch_limit == 0

    def test_buffer(self):
        policy = PolicyConfig.buffer(prefetch_limit=16)
        policy.validate()
        assert policy.kind is PolicyKind.BUFFER
        assert policy.prefetch_limit == 16

    def test_rate(self):
        policy = PolicyConfig.rate(initial_ratio=0.5)
        policy.validate()
        assert policy.kind is PolicyKind.RATE
        assert policy.initial_rate_ratio == 0.5

    def test_unified_defaults_adaptive(self):
        policy = PolicyConfig.unified()
        policy.validate()
        assert policy.kind is PolicyKind.UNIFIED
        assert policy.prefetch_limit is None          # adaptive
        assert policy.expiration_threshold is None    # adaptive
        assert policy.delay == 0.0                    # off by default

    def test_unified_with_static_threshold(self):
        policy = PolicyConfig.unified(expiration_threshold=3600.0)
        policy.validate()
        assert policy.expiration_threshold == 3600.0


class TestValidation:
    def test_buffer_requires_limit(self):
        with pytest.raises(ConfigurationError):
            PolicyConfig(kind=PolicyKind.BUFFER, prefetch_limit=None).validate()

    def test_negative_limit_rejected(self):
        with pytest.raises(ConfigurationError):
            PolicyConfig(prefetch_limit=-1).validate()

    def test_negative_threshold_rejected(self):
        with pytest.raises(ConfigurationError):
            PolicyConfig(expiration_threshold=-1.0).validate()

    def test_negative_delay_rejected(self):
        with pytest.raises(ConfigurationError):
            PolicyConfig(delay=-1.0).validate()

    def test_bad_multiplier_rejected(self):
        with pytest.raises(ConfigurationError):
            PolicyConfig(adaptive_limit_multiplier=0.0).validate()

    def test_bad_initial_ratio_rejected(self):
        with pytest.raises(ConfigurationError):
            PolicyConfig(initial_rate_ratio=1.5).validate()

    def test_bad_window_rejected(self):
        with pytest.raises(ConfigurationError):
            PolicyConfig(ma_window=0).validate()

    @pytest.mark.parametrize(
        "name", ["delay", "expiration_threshold", "initial_expiration_threshold"]
    )
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, True])
    def test_non_finite_times_rejected(self, name, value):
        # An infinite delay would fail mid-run when its timer is armed;
        # a NaN one would silently disable the stage.
        with pytest.raises(ConfigurationError, match=name):
            PolicyConfig(**{name: value}).validate()

    @pytest.mark.parametrize(
        "name", ["ma_window", "prefetch_limit", "initial_prefetch_limit"]
    )
    @pytest.mark.parametrize("value", [2.5, 4.0, True, math.nan])
    def test_non_integral_counts_rejected(self, name, value):
        with pytest.raises(ConfigurationError, match=name):
            PolicyConfig(**{name: value}).validate()

    def test_numpy_scalars_accepted(self):
        PolicyConfig(
            ma_window=np.int64(4), prefetch_limit=np.int32(8),
            delay=np.float64(60.0),
        ).validate()


class TestDescribe:
    def test_describe_buffer(self):
        assert "16" in PolicyConfig.buffer(16).describe()

    def test_describe_unified_adaptive(self):
        assert "adaptive" in PolicyConfig.unified().describe()

    def test_describe_unified_static(self):
        assert "3600" in PolicyConfig.unified(expiration_threshold=3600.0).describe()

    def test_describe_plain_kinds(self):
        assert PolicyConfig.online().describe() == "online"
        assert PolicyConfig.on_demand().describe() == "on-demand"
