"""``run_scenario`` is a one-device fleet shard.

Its one code path is the batch pump over a one-row binding table; a
binding the row cannot express (rank changes, RATE credit, observers,
crash specs, an ON-LINE topic type or a delivery schedule) is
materialized at wiring and never mid-run. Expiring arrivals (Figs. 4-6)
and, under a crash-free fault spec, queued arrivals and offline reads
stay on the row. The reference is the
shard's scalar oracle on the same one-device workload, which
materializes the binding at wiring and schedules the trace one
``schedule_at`` per record: the two must return the same ``RunResult``
field for field — the identity sets, the bits of ``read_delay_sum``,
``events_processed`` and both final queues.
"""

import json

import numpy as np
import pytest

from repro import obs
from repro.experiments.figures.common import scenario
from repro.experiments.runner import run_paired, run_scenario, trace_seed
from repro.experiments.trace_cli import main as trace_main
from repro.faults import PRESETS, FaultSpec
from repro.fleet import batch as batch_mod
from repro.fleet import runner as runner_mod
from repro.fleet.batch import ShardBatchDispatcher
from repro.fleet.runner import _execute_shard, _run_device_shard, _run_shard
from repro.fleet.workload import FleetWorkload
from repro.metrics.streaming import FleetAccumulator, device_stats
from repro.proxy.policies import PolicyConfig
from repro.proxy.schedule import DeliverySchedule
from repro.sim.trace import ArrivalRecord, OutageRecord, ReadRecord, Trace
from repro.sim.trace_io import load_trace
from repro.types import TopicType
from repro.units import DAY
from repro.workload.arrivals import ArrivalConfig
from repro.workload.ranks import RankChangeConfig
from repro.workload.scenario import ScenarioConfig, build_trace
from tests.conftest import expiring_outcomes

pytestmark = pytest.mark.usefixtures("materialize_only_at_wiring")

POLICIES = {
    "online": PolicyConfig.online(),
    "on_demand": PolicyConfig.on_demand(),
    "buffer": PolicyConfig.buffer(prefetch_limit=8),
    "unified": PolicyConfig.unified(),
    "unified-pinned": PolicyConfig.unified(expiration_threshold=4096.0),
    "rate": PolicyConfig.rate(),
    "unified-delay60": PolicyConfig.unified(delay=60.0),
}

#: The fig2 shape (overflow through outages), two expiring shapes (half
#: the arrivals expiring; a fig6 cell with 4.3 h lifetimes at 90 %
#: outage), a rank-change shape (ablation-delay), and the fig2 trace on
#: a scheduled ON-LINE topic (ablation-schedule).
SHAPES = {
    "fig2": scenario(duration=5 * DAY, user_frequency=2.0, outage_fraction=0.5),
    "expiring": ScenarioConfig(
        duration=5 * DAY, arrivals=ArrivalConfig(expiring_fraction=0.5)
    ),
    "fig6": scenario(
        duration=5 * DAY, user_frequency=2.0, outage_fraction=0.9,
        expiration_mean=15360.0,
    ),
    "rank-change": ScenarioConfig(
        duration=5 * DAY,
        rank_changes=RankChangeConfig(drop_fraction=0.1, boost_fraction=0.05),
    ),
}
SCHEDULED_ONLINE = {
    "topic_type": TopicType.ONLINE,
    "schedule": DeliverySchedule(max_pushes_per_day=4, urgent_threshold=4.0),
}


@pytest.fixture(scope="module")
def traces():
    return {name: build_trace(config, seed=3) for name, config in SHAPES.items()}


def _materialized_share(monkeypatch, action):
    """Run ``action`` and report the share of its shard's bindings that
    left the row."""
    seen = {}
    dismantle = runner_mod._dismantle_shard

    def snapshot_then_dismantle(*args):
        seen["share"] = args[-1].materialized_share
        dismantle(*args)

    monkeypatch.setattr(runner_mod, "_dismantle_shard", snapshot_then_dismantle)
    action()
    return seen["share"]


@pytest.mark.parametrize("fault", [None, "lossy", "chaos"])
@pytest.mark.parametrize("policy", list(POLICIES))
@pytest.mark.parametrize("shape", [*SHAPES, "scheduled-online"])
def test_run_scenario_matches_scalar_oracle(traces, shape, policy, fault):
    _check_against_oracle(traces, shape, policy, fault)


@pytest.mark.parametrize("block", [1, 7])
@pytest.mark.parametrize("fault", [None, "lossy", "chaos"])
@pytest.mark.parametrize("policy", list(POLICIES))
@pytest.mark.parametrize("shape", [*SHAPES, "scheduled-online"])
def test_run_scenario_matches_scalar_oracle_across_blocks(
    monkeypatch, traces, shape, policy, fault, block
):
    """The same, with the pump boxing its stream one or seven items at
    a time: expiry timers preempt it on and across block edges."""
    monkeypatch.setattr(batch_mod, "BLOCK", block)
    _check_against_oracle(traces, shape, policy, fault)


def _check_against_oracle(traces, shape, policy, fault):
    trace = traces["fig2" if shape == "scheduled-online" else shape]
    kwargs = SCHEDULED_ONLINE if shape == "scheduled-online" else {}
    spec = None if fault is None else PRESETS[fault]
    result = run_scenario(trace, POLICIES[policy], faults=spec, **kwargs)
    oracle = _run_device_shard(
        FleetWorkload.from_traces([trace]),
        POLICIES[policy],
        spec,
        use_batch=False,
        **kwargs,
    )
    assert result == oracle
    assert type(result.stats) is type(oracle.stats)
    assert result.stats.read_delay_sum.hex() == oracle.stats.read_delay_sum.hex()


class TestWhatStaysOnTheRow:
    @pytest.mark.parametrize("policy", ["online", "on_demand", "buffer"])
    def test_fig2_shape_never_leaves_its_row(self, monkeypatch, traces, policy):
        share = _materialized_share(
            monkeypatch, lambda: run_scenario(traces["fig2"], POLICIES[policy])
        )
        assert share == 0.0

    @pytest.mark.parametrize("shape", ["expiring", "fig6"])
    @pytest.mark.parametrize(
        "policy", ["online", "on_demand", "unified", "unified-pinned"]
    )
    def test_expiring_shapes_never_leave_their_row(
        self, monkeypatch, traces, shape, policy
    ):
        share = _materialized_share(
            monkeypatch, lambda: run_scenario(traces[shape], POLICIES[policy])
        )
        assert share == 0.0

    def test_fig6_cell_reaches_every_expiring_outcome(self, traces):
        """Non-vacuity of the expiring cases: on its row the fig6 cell
        under a pinned threshold forwards expiring arrivals at once,
        holds short-lived ones until they expire at the proxy, and lets
        forwarded ones expire on the device."""
        with expiring_outcomes() as seen:
            result = run_scenario(traces["fig6"], POLICIES["unified-pinned"])
        assert seen["forwarded at once"] > 0, seen
        assert seen["died in holding"] > 0, seen
        assert seen["expired on the device"] > 0, seen
        assert result.stats.expired_on_device == seen["expired on the device"]

    @pytest.mark.parametrize(
        "shape, policy, kwargs",
        [
            ("rank-change", "unified", {}),
            ("fig2", "unified", SCHEDULED_ONLINE),
            ("fig2", "rate", {}),
        ],
        ids=["rank-change", "scheduled-online", "rate"],
    )
    def test_escapes_materialize_the_binding(
        self, monkeypatch, traces, shape, policy, kwargs
    ):
        """What a row does not model is wired as objects before any
        stream registers."""
        seen = []
        register = ShardBatchDispatcher.register_streams

        def note_share(dispatcher):
            seen.append(dispatcher.cols.materialized_share)
            register(dispatcher)

        monkeypatch.setattr(ShardBatchDispatcher, "register_streams", note_share)
        share = _materialized_share(
            monkeypatch,
            lambda: run_scenario(traces[shape], POLICIES[policy], **kwargs),
        )
        assert seen == [share] == [1.0]

    def test_one_run_is_one_run_and_no_fleet_shard(self, traces):
        obs.PROBES.enabled = True
        obs.PROBES.reset()
        try:
            result = run_scenario(traces["fig2"], PolicyConfig.on_demand())
            counters = obs.PROBES.counters()
        finally:
            obs.PROBES.enabled = False
            obs.PROBES.reset()
        assert counters == {"runs": 1, "events": result.events_processed}


class TestFromTraces:
    def test_single_device_carries_the_run_scenario_inputs(self, traces):
        trace = traces["fig2"]
        workload = FleetWorkload.from_traces([trace], threshold=1.5)
        assert workload.devices == 1
        assert workload.config.duration == trace.duration
        assert workload.config.threshold == 1.5
        assert workload.fault_seed(0) == trace_seed(trace) == 3
        assert workload.device_trace(0).metadata["seed"] == 3
        assert workload.limits.tolist() == [8]

    def test_traces_of_different_durations_are_refused(self, traces):
        short = build_trace(SHAPES["fig2"].with_changes(duration=DAY), seed=3)
        with pytest.raises(Exception, match="one duration"):
            FleetWorkload.from_traces([traces["fig2"], short])

    def test_stacked_traces_resolve_rank_changes_per_device(self, traces):
        """Both traces number their events from 0, so a change's event id
        names an arrival on each device; the shard must resolve it on its
        own. At threshold 2.5 a boost can lift a filtered arrival over
        the threshold, and the proxy then takes the update as a new event
        published when the original was — so the resolved arrival's
        fields reach the read ages. Each device folds exactly as its own
        run_scenario."""
        first = traces["rank-change"]
        second = build_trace(SHAPES["rank-change"], seed=4)
        assert first.columns.arrivals.event_ids[0] == 0
        assert second.columns.arrivals.event_ids[0] == 0
        workload = FleetWorkload.from_traces([first, second], threshold=2.5)
        assert workload.shard(1, 2).fault_seed(0) == trace_seed(second) == 4
        spec = PRESETS["lossy"]
        policy = PolicyConfig.unified()
        stacked = _execute_shard(workload, policy, spec)
        expected = FleetAccumulator()
        for trace in (first, second):
            single = run_scenario(trace, policy, threshold=2.5, faults=spec)
            expected.add_device(
                single.stats, single.final_proxy_queued, single.final_device_queued
            )
            expected.events_processed += single.events_processed
        got, want = stacked.signature(), expected.signature()
        assert got["int_counters"] == want["int_counters"]
        for key in ("forwarded", "messages_read", "wasted", "events_processed",
                    "final_proxy_queued", "final_device_queued",
                    "read_delay_sum"):
            assert got[key] == want[key], key


@pytest.mark.parametrize(
    "policy, spec",
    [
        (PolicyConfig.unified(), None),
        (PolicyConfig.online(), PRESETS["lossy"]),
        # Half the attempts lost and one retry: resident rows end with
        # abandoned deliveries in flight.
        (PolicyConfig.online(), FaultSpec(loss_rate=0.5, max_retries=1)),
    ],
    ids=["unified", "online-lossy", "online-abandoning"],
)
def test_device_stats_folds_as_add_shard(policy, spec):
    """``add_device(device_stats(table, d))`` over every binding folds
    bit-identically to ``add_shard(table)``: the per-device mapping and
    the column-at-a-time fold cannot drift. The shard mixes bindings
    that stayed on their rows (expiring arrivals included; under faults,
    queued arrivals and offline reads too) and bindings materialized at
    wiring (rank changes)."""
    configs = [
        scenario(duration=3 * DAY),
        ScenarioConfig(
            duration=3 * DAY, arrivals=ArrivalConfig(expiring_fraction=0.05)
        ),
        ScenarioConfig(
            duration=3 * DAY, rank_changes=RankChangeConfig(drop_fraction=0.05)
        ),
    ]
    workload = FleetWorkload.from_traces(
        [build_trace(configs[seed % 3], seed=seed) for seed in range(9)]
    )
    _acc, _sim, proxy, cols = _run_shard(workload, policy, spec, True, read_ids=True)
    assert 0.0 < cols.materialized_share < 1.0
    if spec is not None and spec.max_retries == 1:
        assert any(cols.resident[d] and cols.inflight[d] for d in range(cols.devices))
    assert cols.verify_sync() == []
    queued = runner_mod._final_queues(proxy, cols)
    by_shard = FleetAccumulator()
    by_shard.add_shard(cols, *queued)
    by_device = FleetAccumulator()
    for d in range(cols.devices):
        by_device.add_device(device_stats(cols, d))
    by_device.final_proxy_queued, by_device.final_device_queued = queued
    assert by_device.signature() == by_shard.signature()
    assert by_device.counters == by_shard.counters
    for name in ("device_reads", "device_waste"):
        mine, theirs = getattr(by_device, name), getattr(by_shard, name)
        assert (mine.count, mine.sum, mine.mean, mine.variance) == (
            theirs.count, theirs.sum, theirs.mean, theirs.variance
        )


#: A hand-written trace: arrival ids descend with time, and three rank
#: changes (one demotion below the threshold) name them.
HAND_TRACE = {
    "format": 2,
    "duration": 172800.0,
    "metadata": {"seed": 7},
    "arrivals": {
        "time": [100.0, 2000.0, 5000.0, 9000.0, 20000.0, 40000.0, 70000.0,
                 100000.0, 130000.0, 160000.0],
        "event_id": [90, 80, 70, 60, 50, 40, 30, 20, 10, 0],
        "rank": [3.0, 2.0, 4.0, 1.5, 0.5, 2.5, 3.5, 4.5, 1.0, 2.0],
        "expires_at": [None] * 10,
    },
    "reads": {
        "time": [10000.0, 50000.0, 110000.0, 150000.0, 170000.0],
        "count": [2, 2, 1, 3, 2],
    },
    "outages": {"start": [30000.0, 120000.0], "end": [60000.0, 140000.0]},
    "rank_changes": {
        "time": [3000.0, 45000.0, 101000.0],
        "event_id": [80, 40, 20],
        "new_rank": [0.5, 4.8, 0.2],
    },
}


class TestHandWrittenTrace:
    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "hand.json"
        path.write_text(json.dumps(HAND_TRACE))
        return path

    def test_trace_run_reports_the_object_path_numbers(self, path, capsys):
        assert trace_main(
            ["run", str(path), "--policy", "buffer:2", "--threshold", "1.0"]
        ) == 0
        out = capsys.readouterr().out
        assert "forwarded           8 (pushed 5, pulled 3)" in out
        assert "read                7 over 5 reads (1 empty, 1 during outage)" in out
        assert "retractions sent    1" in out
        assert "bytes sent          4096" in out

    @pytest.mark.parametrize(
        "policy, fault, forwarded, read, delay_sum, events, queued",
        [
            (PolicyConfig.unified(), None, [0, 10, 20, 30, 40, 60, 70, 80, 90],
             [0, 10, 30, 40, 60, 70, 90], "0x1.ccbe000000000p+17", 22, (0, 0)),
            (PolicyConfig.on_demand(), "lossy", [0, 30, 40, 60, 70, 90],
             [30, 40, 60, 70, 90], "0x1.c6fb000000000p+18", 29, (1, 1)),
            (PolicyConfig.unified(delay=600.0), "lossy",
             [0, 10, 20, 30, 40, 60, 70, 80, 90], [0, 10, 30, 40, 60, 70, 90],
             "0x1.ccbe000000000p+17", 41, (0, 0)),
        ],
        ids=["unified", "on_demand-lossy", "delay-lossy"],
    )
    def test_run_paired_keeps_its_numbers(
        self, path, policy, fault, forwarded, read, delay_sum, events, queued
    ):
        trace = load_trace(path)
        assert (np.diff(trace.columns.arrivals.event_ids) < 0).all()
        result = run_paired(
            trace, policy, threshold=1.0,
            faults=None if fault is None else PRESETS[fault],
        )
        stats = result.policy.stats
        assert sorted(stats.forwarded_ids) == forwarded
        assert sorted(stats.read_ids) == read
        assert stats.read_delay_sum.hex() == delay_sum
        assert result.policy.events_processed == events
        assert (
            result.policy.final_proxy_queued, result.policy.final_device_queued
        ) == queued
        assert result.baseline.stats.messages_read == 7


def test_an_outage_from_the_end_of_the_run_is_never_replayed():
    """An unvalidated trace may carry an outage starting at its end;
    ``Trace.network_transitions`` drops it, so the row's stream must
    too (a DOWN at ``t == duration`` would still fire)."""
    trace = Trace(
        duration=1000.0,
        arrivals=[ArrivalRecord(time=10.0 * k, event_id=k, rank=1.0) for k in range(5)],
        reads=[ReadRecord(time=500.0, count=2), ReadRecord(time=1000.0, count=2)],
        outages=[OutageRecord(start=600.0, end=700.0), OutageRecord(start=1000.0, end=1100.0)],
    )
    result = run_scenario(trace, PolicyConfig.on_demand())
    oracle = _run_device_shard(
        FleetWorkload.from_traces([trace]), PolicyConfig.on_demand(), use_batch=False
    )
    assert result == oracle
    assert result.events_processed == 5 + 2 + 2
    assert result.stats.reads_during_outage == 0


def _timed_trace(arrivals, reads, outages=()):
    return Trace(
        duration=1000.0,
        arrivals=[
            ArrivalRecord(time=t, event_id=k, rank=rank, expires_at=expires_at)
            for k, (t, rank, expires_at) in enumerate(arrivals)
        ],
        reads=[ReadRecord(time=t, count=n) for t, n in reads],
        outages=[OutageRecord(start=a, end=b) for a, b in outages],
    )


#: Hand-written traces whose expiries fall on the very time of a stream
#: event, so the timer is still pending when the event fires: an UP
#: that finds a queued entry due, a READ that finds one queued or held
#: at the proxy (its prune), and a READ whose top slot on the device is
#: due (the consume skips it but spends the slot).
DUE_NOW = {
    "up-flush": _timed_trace(
        [(10.0, 2.0, 100.0), (20.0, 1.0, 500.0)], [(300.0, 4)], [(5.0, 100.0)]
    ),
    "read-prune": _timed_trace(
        [(10.0, 2.0, 100.0), (20.0, 1.0, 500.0), (30.0, 3.0, 60.0)],
        [(60.0, 1), (100.0, 1), (400.0, 2)],
    ),
    "device-skip": _timed_trace(
        [(10.0, 3.0, 100.0), (20.0, 1.0, 500.0)], [(100.0, 1), (200.0, 1)]
    ),
}


@pytest.mark.parametrize("name", sorted(DUE_NOW))
@pytest.mark.parametrize(
    "policy",
    ["online", "on_demand", "buffer", "unified", "unified-pinned"],
)
def test_an_expiry_due_at_a_stream_event_matches_the_oracle(name, policy):
    trace = DUE_NOW[name]
    # The traces' lifetimes are tens of seconds: pin the threshold there.
    if policy == "unified-pinned":
        policy = PolicyConfig.unified(expiration_threshold=50.0)
    else:
        policy = POLICIES[policy]
    result = run_scenario(trace, policy)
    oracle = _run_device_shard(
        FleetWorkload.from_traces([trace]), policy, use_batch=False
    )
    assert result == oracle
    assert result.stats.read_delay_sum.hex() == oracle.stats.read_delay_sum.hex()


def test_due_now_traces_reach_each_edge():
    """Non-vacuity of ``DUE_NOW``: the flush expires the queued entry
    instead of forwarding it; the READ at 60 s prunes event 2 — the
    highest-ranked, due at that instant — from the queue (on-demand) and
    from the holding queue (pinned threshold) instead of reading it; and
    the device's read spends its one slot on the entry due and reads
    nothing."""
    flushed = run_scenario(DUE_NOW["up-flush"], PolicyConfig.online()).stats
    assert (flushed.expired_at_proxy, flushed.forwarded) == (1, 1)
    for policy in (
        PolicyConfig.on_demand(), PolicyConfig.unified(expiration_threshold=50.0)
    ):
        pruned = run_scenario(DUE_NOW["read-prune"], policy).stats
        assert pruned.expired_at_proxy == 1 and 2 not in pruned.read_ids
    skipped = run_scenario(DUE_NOW["device-skip"], PolicyConfig.online()).stats
    assert (skipped.empty_reads, skipped.expired_on_device) == (1, 1)


def test_a_lifetime_at_the_threshold_is_prefetched():
    """``_handle_new_event`` holds only a lifetime strictly below the
    expiration threshold: at exactly 50 s the arrival is forwarded."""
    trace = _timed_trace([(10.0, 1.0, 60.0), (20.0, 1.0, 69.0)], [(500.0, 2)])
    policy = PolicyConfig.unified(expiration_threshold=50.0)
    result = run_scenario(trace, policy)
    assert result == _run_device_shard(
        FleetWorkload.from_traces([trace]), policy, use_batch=False
    )
    assert result.stats.forwarded_ids == {0}
    assert result.stats.expired_at_proxy == 1


@pytest.mark.parametrize("shape", ["expiring", "fig6"])
@pytest.mark.parametrize("policy", ["online", "unified-pinned", "unified-delay60"])
def test_rows_draw_the_objects_sequence_numbers(monkeypatch, traces, shape, policy):
    """The row arms the objects' timers, drawing their sequence numbers —
    the proxy's expiration timer of an arrival forwarded at once
    included — so both runs end with the engine at one sequence number."""
    ends = []
    dismantle = runner_mod._dismantle_shard

    def note_then_dismantle(sim, *args):
        ends.append(sim._seq_next)
        dismantle(sim, *args)

    monkeypatch.setattr(runner_mod, "_dismantle_shard", note_then_dismantle)
    run_scenario(traces[shape], POLICIES[policy])
    _run_device_shard(
        FleetWorkload.from_traces([traces[shape]]), POLICIES[policy], use_batch=False
    )
    assert ends[0] == ends[1]
