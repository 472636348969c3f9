"""Fleet runner correctness: the 1-device differential and fleet basics.

The load-bearing guarantee: a 1-device fleet replays *exactly* the event
sequence of the single-device ``run_scenario`` on that device's trace —
same seed, same faults, same metrics to the last bit. Everything the
fleet path optimizes (merged streams, shared proxy, streaming
aggregation) must be invisible at the level of one device's outcome.
"""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.runner import run_scenario
from repro.fleet import FleetScenarioConfig, build_fleet_workload, run_fleet
from repro.fleet.runner import device_topic
from repro.proxy.policies import PolicyConfig
from repro.units import DAY
from repro.workload.outages import OutageConfig


def _metrics(acc):
    return {
        "events_processed": acc.events_processed,
        "forwarded": acc.forwarded,
        "messages_read": acc.messages_read,
        "wasted": acc.wasted,
        "read_delay_sum": acc.counters["read_delay_sum"],
        "bytes_sent": acc.counters["bytes_sent"],
        "delivery_drops": acc.counters["delivery_drops"],
        "proxy_crashes": acc.counters["proxy_crashes"],
        "final_proxy_queued": acc.final_proxy_queued,
        "final_device_queued": acc.final_device_queued,
    }


class TestOneDeviceDifferential:
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_matches_run_scenario_exactly(self, seed):
        config = FleetScenarioConfig(
            devices=1, duration=2 * DAY, seed=seed, threshold=0.5,
            outages=OutageConfig(downtime_fraction=0.3, outages_per_day=4.0),
        )
        workload = build_fleet_workload(config)
        policy = PolicyConfig.unified()

        fleet = run_fleet(config, policy)
        single = run_scenario(
            workload.device_trace(0), policy, threshold=config.threshold
        )

        acc, stats = fleet.accumulator, single.stats
        assert acc.devices == 1
        assert _metrics(acc) == {
            "events_processed": single.events_processed,
            "forwarded": stats.forwarded,
            "messages_read": stats.messages_read,
            "wasted": stats.wasted,
            "read_delay_sum": stats.read_delay_sum,
            "bytes_sent": stats.bytes_sent,
            "delivery_drops": stats.delivery_drops,
            "proxy_crashes": stats.proxy_crashes,
            "final_proxy_queued": single.final_proxy_queued,
            "final_device_queued": single.final_device_queued,
        }

    @pytest.mark.parametrize("policy_name", ["online", "on_demand", "rate"])
    def test_matches_across_policies(self, policy_name):
        config = FleetScenarioConfig(devices=1, duration=2 * DAY, seed=7)
        workload = build_fleet_workload(config)
        policy = getattr(PolicyConfig, policy_name)()
        fleet = run_fleet(config, policy)
        single = run_scenario(workload.device_trace(0), policy)
        assert fleet.accumulator.forwarded == single.stats.forwarded
        assert fleet.accumulator.messages_read == single.stats.messages_read
        assert fleet.accumulator.events_processed == single.events_processed


class TestRunFleet:
    def test_every_device_participates(self):
        config = FleetScenarioConfig(devices=25, duration=DAY, seed=1)
        result = run_fleet(config, PolicyConfig.unified())
        acc = result.accumulator
        assert acc.devices == 25
        assert result.devices == 25
        assert acc.forwarded > 0
        assert acc.device_reads.count == 25
        # Every read age that was summed also landed in the sketch.
        assert acc.read_delay_sketch.count == acc.messages_read
        assert acc.read_delay_moments.count == acc.messages_read

    def test_deterministic_across_runs(self):
        config = FleetScenarioConfig(devices=12, duration=DAY, seed=5)
        first = run_fleet(config, PolicyConfig.unified())
        second = run_fleet(config, PolicyConfig.unified())
        assert first.accumulator.signature() == second.accumulator.signature()

    def test_heterogeneity_is_realized(self):
        """Devices must actually differ: volume limits and activity."""
        config = FleetScenarioConfig(devices=60, duration=DAY, seed=2)
        workload = build_fleet_workload(config)
        assert len(set(workload.limits.tolist())) > 1
        assert len(set(workload.arrival_counts.tolist())) > 1

    def test_describe_mentions_fleet_size(self):
        config = FleetScenarioConfig(devices=8, duration=DAY, seed=0)
        result = run_fleet(config, PolicyConfig.unified())
        assert "devices" in result.describe()
        assert "8" in result.describe()

    def test_device_topic_is_stable(self):
        assert device_topic(17) == "device/17"

    def test_workload_reuse_matches_rebuild(self):
        config = FleetScenarioConfig(devices=10, duration=DAY, seed=9)
        workload = build_fleet_workload(config)
        with_reuse = run_fleet(config, PolicyConfig.unified(), workload=workload)
        without = run_fleet(config, PolicyConfig.unified())
        assert with_reuse.accumulator.signature() == without.accumulator.signature()

    def test_workload_from_another_config_is_refused(self):
        """A reused workload must be the one ``config`` builds: running
        20 devices under a result that claims 50 is a silent lie."""
        config = FleetScenarioConfig(devices=50, seed=1)
        other = build_fleet_workload(
            FleetScenarioConfig(devices=20, seed=9, duration=DAY / 2)
        )
        with pytest.raises(ConfigurationError, match="different config"):
            run_fleet(config, PolicyConfig.unified(), workload=other)
