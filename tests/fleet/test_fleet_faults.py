"""Fleet fault injection: per-device plans from derived seeds.

A fleet ``--faults`` spec applies to every device, but each device
realizes its *own* plan, seeded ``derive_seed(campaign_seed,
"device-<global id>")`` — so plans are independent across devices yet a
pure function of the campaign config, and a device's plan does not
depend on which shard runs it.
"""

import json

import pytest

from repro import obs
from repro.experiments import fleet_cli
from repro.experiments.runner import run_scenario
from repro.faults import PRESETS, FaultPlan
from repro.fleet import FleetScenarioConfig, build_fleet_workload, run_fleet
from repro.fleet.runner import _execute_shard, device_topic
from repro.metrics.streaming import FleetAccumulator
from repro.proxy.policies import PolicyConfig
from repro.sim.rng import derive_seed
from repro.units import DAY
from repro.workload.arrivals import ArrivalConfig
from repro.workload.outages import OutageConfig
from repro.workload.reads import ReadConfig


#: Every integer RunStats counter a fleet signature carries.
INT_COUNTERS = sorted(FleetAccumulator().signature()["int_counters"])


def _per_device_sum(workload, policy, spec):
    """The accumulator of ``run_scenario`` over each device's own trace,
    each on the single-device runner's default topic."""
    acc = FleetAccumulator()
    for index in range(workload.devices):
        single = run_scenario(
            workload.device_trace(index),
            policy,
            threshold=workload.config.threshold,
            faults=spec,
        )
        acc.add_device(
            single.stats, single.final_proxy_queued, single.final_device_queued
        )
        acc.events_processed += single.events_processed
    return acc


class TestOneDeviceFaultDifferential:
    @pytest.mark.parametrize(
        "policy", [PolicyConfig.unified(), PolicyConfig.rate()], ids=["unified", "rate"]
    )
    @pytest.mark.parametrize("preset", ["lossy", "chaos"])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_matches_run_scenario_under_faults(self, policy, preset, seed):
        """Same derived seed -> same plan -> bit-identical metrics."""
        spec = PRESETS[preset]
        config = FleetScenarioConfig(devices=1, duration=2 * DAY, seed=seed)
        workload = build_fleet_workload(config)

        fleet = run_fleet(config, policy, faults=spec)
        single = run_scenario(workload.device_trace(0), policy, faults=spec)

        acc, stats = fleet.accumulator, single.stats
        assert acc.forwarded == stats.forwarded
        assert acc.messages_read == stats.messages_read
        for name in INT_COUNTERS:
            assert acc.counters[name] == getattr(stats, name), name
        assert acc.counters["read_delay_sum"] == stats.read_delay_sum
        assert acc.events_processed == single.events_processed


class TestShardIsPerDeviceReplays:
    """An N-device shard is N single-device runs: its integer counters,
    event count and final queues are the sums of ``run_scenario`` over
    each device's own trace, whatever the fleet around a device — under
    faults that corrupt read reports too."""

    @pytest.mark.parametrize("preset", [None, "lossy", "chaos"])
    @pytest.mark.parametrize(
        "policy",
        [PolicyConfig.unified(), PolicyConfig.rate(), PolicyConfig.buffer(4)],
        ids=["unified", "rate", "buffer"],
    )
    def test_shard_counters_are_per_device_sums(self, policy, preset):
        spec = None if preset is None else PRESETS[preset]
        config = FleetScenarioConfig(
            devices=12,
            duration=3 * DAY,
            seed=3,
            arrivals=ArrivalConfig(events_per_day=32),
            reads=ReadConfig(reads_per_day=4),
            outages=OutageConfig(downtime_fraction=0.3),
        )
        workload = build_fleet_workload(config)
        expected = _per_device_sum(workload, policy, spec).signature()
        for use_batch in (True, False):
            got = _execute_shard(workload, policy, spec, use_batch).signature()
            for key in (
                "devices",
                "events_processed",
                "forwarded",
                "messages_read",
                "wasted",
                "final_proxy_queued",
                "final_device_queued",
                "int_counters",
            ):
                assert got[key] == expected[key], (use_batch, key)
        if preset == "chaos":
            assert expected["int_counters"]["report_entries_corrupted"] > 0


class TestPerDevicePlans:
    def test_plans_differ_across_devices(self):
        spec = PRESETS["chaos"]
        plans = [
            FaultPlan.build(
                spec, seed=derive_seed(0, f"device-{d}"), duration=7 * DAY
            )
            for d in range(4)
        ]
        crash_times = [tuple(plan.crash_times) for plan in plans]
        assert len(set(crash_times)) > 1

    def test_device_seed_follows_global_id(self):
        """The trace a shard hands device d carries d's derived seed."""
        config = FleetScenarioConfig(devices=10, duration=DAY, seed=5)
        workload = build_fleet_workload(config)
        piece = workload.shard(6, 9)
        assert piece.device_trace(0).metadata["seed"] == derive_seed(5, "device-6")
        assert piece.device_trace(2).metadata["seed"] == derive_seed(5, "device-8")

    def test_faults_change_fleet_outcome(self):
        config = FleetScenarioConfig(devices=15, duration=DAY, seed=2)
        clean = run_fleet(config, PolicyConfig.unified())
        lossy = run_fleet(config, PolicyConfig.unified(), faults=PRESETS["lossy"])
        assert clean.accumulator.counters["delivery_drops"] == 0
        assert lossy.accumulator.counters["delivery_drops"] > 0

    def test_null_spec_is_identity(self):
        config = FleetScenarioConfig(devices=6, duration=DAY, seed=1)
        plain = run_fleet(config, PolicyConfig.unified())
        none = run_fleet(config, PolicyConfig.unified(), faults=PRESETS["none"])
        assert plain.accumulator.signature() == none.accumulator.signature()


class TestCrashRecordsNameTheDevice:
    def test_crash_and_recover_records_carry_the_binding_topic(self):
        """A crash in the trace ring says which device's binding it hit."""
        config = FleetScenarioConfig(devices=20, duration=2 * DAY, seed=1)
        context = obs.configure(obs.ObsConfig(trace_capacity=100_000))
        try:
            result = run_fleet(
                config, PolicyConfig.unified(), faults=PRESETS["chaos"]
            )
            records = [
                record for record in context.recorder.records()
                if record.kind in ("crash", "recover")
            ]
        finally:
            obs.configure(None)
        assert context.recorder.dropped == 0
        crashes = [record for record in records if record.kind == "crash"]
        assert len(crashes) == result.accumulator.counters["proxy_crashes"] > 0
        topics = {record.topic for record in records}
        assert topics <= {device_topic(d) for d in range(config.devices)}
        assert len(topics) > 1


class TestExplicitSpecOnly:
    """The fleet CLIs hand the ``--faults`` spec to the campaign as an
    argument: it shows in every row, and ``--faults none`` keys like no
    flag at all."""

    @pytest.mark.parametrize("command", ["fleet", "sweep", "tune"])
    def test_cli_applies_faults_without_installing_them(
        self, command, tmp_path, capsys
    ):
        argv = ["--devices", "6", "--faults", "lossy", "--quiet"]
        if command == "fleet":
            argv += ["--format", "json"]
        else:
            argv = [command, "--store", str(tmp_path / "s.sqlite"),
                    "--seeds", "0", "--dump-rows", *argv]
        if command == "tune":
            argv += ["--int-param", "ma_window=2:8", "--samples", "2",
                     "--survivors", "1", "--refine-rounds", "0"]
        assert fleet_cli.main(argv) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        if command == "fleet":
            assert json.loads("".join(lines))["counters"]["delivery_drops"] > 0
        else:
            assert all(
                json.loads(line)["metrics"]["int_counters"]["delivery_drops"] > 0
                for line in lines
            )

    @pytest.mark.parametrize("command", ["sweep", "tune"])
    def test_cli_faults_none_keys_like_no_flag(self, command, tmp_path, capsys):
        argv = [command, "--devices", "6", "--seeds", "0", "--dump-rows",
                "--quiet"]
        if command == "tune":
            argv += ["--int-param", "ma_window=2:8", "--samples", "2",
                     "--survivors", "1", "--refine-rounds", "0"]
        dumps = []
        for store, extra in (("plain", []), ("none", ["--faults", "none"])):
            store_path = str(tmp_path / f"{store}.sqlite")
            assert fleet_cli.main([*argv, "--store", store_path, *extra]) == 0
            dumps.append(capsys.readouterr().out)
        assert dumps[0] == dumps[1]
