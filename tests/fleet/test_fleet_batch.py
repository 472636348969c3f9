"""Differential suite: the batch pump vs the scalar oracle.

``_execute_shard(..., use_batch=True)`` — what every public entry point
runs — routes a shard through :class:`ShardBatchDispatcher` (one merged
batch stream; array-resident bindings handled on their rows of the
binding table, materialized ones on the scalar callbacks);
``use_batch=False`` is the oracle: it materializes every binding at
wiring and replays the identical workload through the scalar per-event
callbacks. The two must be *bit-identical* on every integer metric —
the pump is an optimization, never an approximation — and, with
identical sharding, on the float sums too (same devices folded in the
same order).

The matrix here sweeps (policy x fault preset x seed), an expiring
shape the rows take themselves (their expiration timers and holding
queue), the rich workload features the runner materializes at wiring
(rank changes) or the rows take (thresholds), partitioning knobs,
CLI-shaped campaigns compared on their rendered JSON, and — via
hypothesis — randomly drawn heterogeneity configs.
``TestMaterializationInvisible`` pins that *which* bindings run as
objects is unobservable: any subset materialized at wiring reproduces
the untouched run, and a materialized binding's row is never read. A
final class pins the table's invariants with
:meth:`FleetColumns.verify_sync` at end of run, per tier, and the rows
against a per-device scalar replay. No binding is ever materialized
while its simulator runs (the ``materialize_only_at_wiring`` guard).
"""

import dataclasses
import functools
import itertools
from contextlib import contextmanager
from typing import NamedTuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.fleet.batch as batch_mod
import repro.fleet.runner as runner_mod
from repro import faults
from repro.errors import SimulationError
from repro.experiments import fleet_cli, fleet_tune_cli
from repro.experiments.fleet_sweep_cli import scenario_from_args
from repro.fleet import FleetScenarioConfig, build_fleet_workload, run_fleet
from repro.fleet.batch import ShardBatchDispatcher
from repro.fleet.runner import FleetResult, _execute_shard
from repro.fleet.sweep import SWEEP_POLICY_PRESETS
from repro.proxy.policies import PolicyConfig
from repro.units import DAY, HOUR
from repro.workload.arrivals import ArrivalConfig
from repro.workload.outages import OutageConfig
from repro.workload.ranks import RankChangeConfig
from repro.workload.reads import ReadConfig
from tests.conftest import expiring_outcomes

pytestmark = pytest.mark.usefixtures("materialize_only_at_wiring")

POLICIES = {
    "buffer": lambda: PolicyConfig.buffer(prefetch_limit=4),
    "on_demand": PolicyConfig.on_demand,
    "online": PolicyConfig.online,
    "rate": PolicyConfig.rate,
    "unified": PolicyConfig.unified,
}

#: A fixed positive §3.4 delay: the rows arm the delay stage's timers
#: themselves. Kept apart from ``POLICIES`` so only the cases that
#: exercise the stage pay for it.
DELAY_POLICIES = {
    "buffer-delay60": lambda: PolicyConfig.buffer(prefetch_limit=4, delay=60.0),
    "unified-delay60": lambda: PolicyConfig.unified(delay=60.0),
}

#: Every named policy, for the cases parametrized over both lists.
ALL_POLICIES = {**POLICIES, **DELAY_POLICIES}

PRESETS = [None, "lossy", "chaos", "reliable", "slow-ladder", "corrupt-reports"]

#: A crash-free spec whose ack–retry ladder outlasts outages: with a
#: 600 s backoff and 30 s of mean jitter, rows regularly end an outage
#: with deliveries still in flight and retries parked while the link is
#: down (``lossy`` almost never does).
SLOW_LADDER = (
    '{"loss_rate": 0.7, "max_retries": 2, "retry_base": 600, '
    '"retry_cap": 3600, "jitter_mean": 30}'
)

#: A crash-free spec that also corrupts the offline read reports: rows
#: queue and log under it, and on UP inject the plan's stale duplicates
#: into their logs and sort them by time before the replay.
CORRUPT_REPORTS = (
    '{"loss_rate": 0.3, "duplicate_rate": 0.1, "jitter_mean": 30, '
    '"report_duplicate_rate": 0.3}'
)

_NAMED_SPECS = {"slow-ladder": SLOW_LADDER, "corrupt-reports": CORRUPT_REPORTS}


def _spec(preset):
    """The fault spec a ``PRESETS`` entry names (None = fault-free)."""
    if preset is None:
        return None
    return faults.FaultSpec.parse(_NAMED_SPECS.get(preset, preset))


#: The benchmark's canonical campaign shape (``bench/workloads.py``).
LIGHT = dict(
    arrivals=ArrivalConfig(events_per_day=2),
    reads=ReadConfig(reads_per_day=0.5),
    outages=OutageConfig(downtime_fraction=0.1),
    duration=DAY,
)

#: The benchmark's ``fleet_deep`` shape over three days: every binding
#: queues arrivals through its outages and full buffers and reads while
#: its link is down, all on its row.
DEEP = dict(
    arrivals=ArrivalConfig(events_per_day=32),
    reads=ReadConfig(reads_per_day=4),
    outages=OutageConfig(downtime_fraction=0.3),
    duration=3 * DAY,
)

#: The policies whose rows queue and log (a RATE shard runs as objects).
QUEUEING_POLICIES = ["buffer", "on_demand", "online", "unified"]

#: An expiring shape (Figs. 4-6 on a fleet): most arrivals expire
#: within hours, so rows forward expiring entries at once, queue them
#: through outages, hold the short-lived ones at the proxy and see them
#: expire there and on the device.
EXPIRING = dict(
    arrivals=ArrivalConfig(
        events_per_day=8.0, expiring_fraction=0.6, expiration_mean=6 * HOUR
    ),
    reads=ReadConfig(reads_per_day=2.0),
    outages=OutageConfig(downtime_fraction=0.3),
    duration=2 * DAY,
)

#: The policies the expiring shape runs: ONLINE, on-demand (threshold
#: 0, so nothing is held), and unified with a pinned threshold and with
#: the adaptive one (the read-interval average).
EXPIRING_POLICIES = {
    "online": PolicyConfig.online,
    "on_demand": PolicyConfig.on_demand,
    "unified-pinned": lambda: PolicyConfig.unified(expiration_threshold=4 * HOUR),
    "unified": PolicyConfig.unified,
}


def _both_signatures(config, policy, *, spec=None):
    """The pump's and the oracle's accumulators for one unsharded run."""
    workload = build_fleet_workload(config)
    return tuple(
        _execute_shard(workload, policy, spec, use_batch)
        for use_batch in (True, False)
    )


def _assert_identical(batch, scalar):
    # Same partitioning, same device order: even the float sums must
    # agree bitwise, not just the integer counters.
    assert batch.signature() == scalar.signature()
    assert batch.describe() == scalar.describe()


class TestDifferentialMatrix:
    """(policy x fault preset x seed): bit-for-bit equality."""

    @pytest.mark.parametrize(
        "policy_name,preset,seed",
        list(itertools.product(sorted(POLICIES), PRESETS, [0, 7])),
    )
    def test_batch_matches_scalar(self, policy_name, preset, seed):
        spec = _spec(preset)
        config = FleetScenarioConfig(devices=120, duration=DAY, seed=seed)
        batch, scalar = _both_signatures(
            config, POLICIES[policy_name](), spec=spec
        )
        _assert_identical(batch, scalar)

    @pytest.mark.parametrize(
        "policy_name,preset,seed",
        list(itertools.product(sorted(DELAY_POLICIES), PRESETS, [0, 7])),
    )
    def test_delay_stage_matches_scalar(self, policy_name, preset, seed):
        config = FleetScenarioConfig(devices=120, duration=DAY, seed=seed)
        batch, scalar = _both_signatures(
            config, DELAY_POLICIES[policy_name](), spec=_spec(preset)
        )
        _assert_identical(batch, scalar)
        assert batch.events_processed == scalar.events_processed

    @pytest.mark.parametrize(
        "policy_name,preset,seed",
        list(itertools.product(sorted(EXPIRING_POLICIES), PRESETS, [0, 7])),
    )
    def test_expiring_shape_matches_scalar(self, policy_name, preset, seed):
        config = FleetScenarioConfig(devices=60, seed=seed, **EXPIRING)
        batch, scalar = _both_signatures(
            config, EXPIRING_POLICIES[policy_name](), spec=_spec(preset)
        )
        _assert_identical(batch, scalar)
        assert batch.events_processed == scalar.events_processed

    @pytest.mark.parametrize("preset", [None, "lossy"])
    def test_online_kind_skips_the_delay_stage(self, preset):
        """ONLINE sends an arrival before the delay stage, so a delay
        set on it must arm no row timer either."""
        config = FleetScenarioConfig(devices=120, duration=DAY, seed=0)
        policy = dataclasses.replace(PolicyConfig.online(), delay=60.0)
        batch, scalar = _both_signatures(config, policy, spec=_spec(preset))
        _assert_identical(batch, scalar)
        assert batch.events_processed == scalar.events_processed

    @pytest.mark.parametrize(
        "policy_name,seed",
        list(
            itertools.product(
                QUEUEING_POLICIES + sorted(DELAY_POLICIES), [0, 7]
            )
        ),
    )
    def test_deep_clean_shape_matches_scalar(self, policy_name, seed):
        config = FleetScenarioConfig(devices=30, seed=seed, **DEEP)
        batch, scalar = _both_signatures(config, ALL_POLICIES[policy_name]())
        _assert_identical(batch, scalar)


def _rich_config(**overrides):
    base = dict(
        devices=100,
        duration=DAY,
        seed=3,
        threshold=1.5,
        arrivals=ArrivalConfig(events_per_day=6.0, expiring_fraction=0.5),
        reads=ReadConfig(reads_per_day=2.0),
        outages=OutageConfig(downtime_fraction=0.3),
        rank_changes=RankChangeConfig(drop_fraction=0.2, boost_fraction=0.2),
    )
    base.update(overrides)
    return FleetScenarioConfig(**base)


class TestRichWorkloads:
    """Workload features the runner materializes at wiring (rank
    changes) beside those the rows take."""

    @pytest.mark.parametrize("policy_name", sorted(POLICIES))
    def test_expiring_changes_threshold(self, policy_name):
        batch, scalar = _both_signatures(
            _rich_config(), POLICIES[policy_name]()
        )
        _assert_identical(batch, scalar)

    def test_rank_churn_with_faults(self):
        batch, scalar = _both_signatures(
            _rich_config(),
            PolicyConfig.unified(),
            spec=faults.FaultSpec.parse("chaos"),
        )
        _assert_identical(batch, scalar)

    def test_change_without_its_arrival_is_rejected(self):
        """A rank change whose event id names no arrival of the slice
        cannot be resolved, and the pump says so before it runs."""
        workload = build_fleet_workload(_rich_config(devices=10))
        changes = workload.rank_changes
        assert changes.event_ids.size
        workload.rank_changes = changes._replace(
            event_ids=changes.event_ids + workload.arrivals.event_ids.max() + 1
        )
        with pytest.raises(SimulationError, match="no arrival"):
            _execute_shard(workload, PolicyConfig.unified())


class TestPartitioning:
    """Sharding and worker pools compose with the pump transparently."""

    @pytest.mark.parametrize("shards,jobs", [(3, 1), (4, 2)])
    def test_sharded_batch_matches_unsharded_scalar(self, shards, jobs):
        config = FleetScenarioConfig(devices=60, duration=DAY, seed=11)
        reference = _execute_shard(
            build_fleet_workload(config), PolicyConfig.unified(), use_batch=False
        ).signature()
        sharded = run_fleet(
            config, PolicyConfig.unified(), shards=shards, jobs=jobs
        ).accumulator.signature()
        ref_float = reference.pop("read_delay_sum")
        cand_float = sharded.pop("read_delay_sum")
        assert sharded == reference
        assert abs(cand_float - ref_float) <= 1e-9 * max(
            1.0, abs(ref_float)
        )


class TestCampaignEquivalence:
    """``fleet --format json`` campaigns, rendered by the CLI's own
    renderer, byte-identical between the pump and the oracle. Each
    campaign is spelled as ``fleet`` CLI flags so the config, policy and
    spec are exactly what the CLI would run.

    Clean: the plain rows. Lossy: the rows running the ack–retry ladder
    (drops, retries, jittered and duplicate landings). Slow ladder:
    backoffs and jitter long enough that rows carry deliveries in flight
    and retries parked by an outage.
    Deep: the ``fleet_deep`` shape under on_demand, where every row
    queues arrivals at the proxy, runs READ exchanges against that queue
    and logs reads while its link is down.
    """

    CAMPAIGNS = {
        "clean": ["--devices", "1500"],
        "lossy": ["--devices", "1500", "--faults", "lossy"],
        "slow-ladder": ["--devices", "1500", "--faults", SLOW_LADDER],
        "deep": [
            "--devices", "60", "--days", "14", "--events-per-day", "32",
            "--reads-per-day", "4", "--downtime", "0.3",
            "--policy", "on_demand",
        ],
    }

    #: The ``tune-smoke`` CI campaign: half its cells run ``delay=60``.
    TUNE_SMOKE = [
        "--devices", "200", "--int-param", "ma_window=2:16",
        "--choice", "delay=0,60", "--seeds", "0", "1", "--screen-seeds", "1",
        "--samples", "3", "--survivors", "2", "--refine-rounds", "1",
        "--shards", "2", "--dump-rows", "--quiet",
    ]

    def test_tune_smoke_rows_identical(self, tmp_path):
        """The tune's store rows, byte for byte, with every shard on the
        pump and with every shard on the scalar oracle."""
        dumps = []
        for use_batch in (True, False):
            shard = functools.partial(
                runner_mod._execute_shard, use_batch=use_batch
            )
            out = tmp_path / f"rows-{use_batch}.jsonl"
            with _patched(runner_mod, "_execute_shard", shard):
                rc = fleet_tune_cli.main(
                    ["--store", str(tmp_path / f"{use_batch}.sqlite"),
                     "--output", str(out), *self.TUNE_SMOKE]
                )
            assert rc == 0
            dumps.append(out.read_text())
        assert '"delay":60' in dumps[0].replace(" ", "")
        assert dumps[0] == dumps[1]

    @pytest.mark.parametrize("name", sorted(CAMPAIGNS))
    def test_rendered_json_identical(self, name):
        args = fleet_cli.build_parser().parse_args(self.CAMPAIGNS[name])
        config = scenario_from_args(args, FleetScenarioConfig(seed=args.seed))
        policy = SWEEP_POLICY_PRESETS[args.policy]()
        spec = None if args.faults is None else faults.FaultSpec.parse(args.faults)
        workload = build_fleet_workload(config)
        batch, scalar = (
            fleet_cli._render_json(
                FleetResult(
                    config=config,
                    policy=policy,
                    accumulator=_execute_shard(workload, policy, spec, use_batch),
                    shards=1,
                    jobs=1,
                ),
                None,
            )
            for use_batch in (True, False)
        )
        assert batch == scalar


@pytest.fixture(params=[1, 7])
def small_blocks(request, monkeypatch):
    """Box the merged stream one or seven items at a time, so timer
    preemptions, cancelled-timer discards and ``run(until)`` land on
    and across the pump's block edges."""
    monkeypatch.setattr(batch_mod, "BLOCK", request.param)


@pytest.mark.usefixtures("small_blocks")
class TestDifferentialMatrixAcrossBlocks(TestDifferentialMatrix):
    """The differential matrix with small pump blocks."""


@pytest.mark.usefixtures("small_blocks")
class TestCampaignEquivalenceAcrossBlocks(TestCampaignEquivalence):
    """The rendered campaigns with small pump blocks."""


def test_drained_stream_is_freed():
    """Row timers left in the heap keep the dispatcher alive after the
    run, so the pump drops the stream's columns and block once drained."""
    shard = _run_shard(
        FleetScenarioConfig(devices=60, seed=3, **EXPIRING), PolicyConfig.unified()
    )
    assert any(
        getattr(event.callback, "__self__", None) is shard.dispatcher
        for _time, _seq, event in shard.dispatcher.sim._heap
    )
    assert shard.dispatcher.m_columns == () and shard.dispatcher.block == ()


# One strategy per heterogeneity axis; hypothesis shrinks toward the
# plain config, so failures minimize to the single feature that broke.
_CONFIGS = st.fixed_dictionaries(
    {
        "events_per_day": st.floats(min_value=0.5, max_value=8.0),
        "expiring_fraction": st.floats(min_value=0.0, max_value=1.0),
        "reads_per_day": st.floats(min_value=0.1, max_value=4.0),
        "downtime": st.floats(min_value=0.0, max_value=0.9),
        "threshold": st.floats(min_value=0.0, max_value=3.0),
        "drop_fraction": st.floats(min_value=0.0, max_value=0.4),
        "boost_fraction": st.floats(min_value=0.0, max_value=0.4),
        "seed": st.integers(min_value=0, max_value=10_000),
        "policy": st.sampled_from(sorted(POLICIES)),
    }
)


class TestHypothesisHeterogeneity:
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(_CONFIGS)
    def test_random_heterogeneity_batch_matches_scalar(self, drawn):
        config = FleetScenarioConfig(
            devices=25,
            duration=DAY,
            seed=drawn["seed"],
            threshold=drawn["threshold"],
            arrivals=ArrivalConfig(
                events_per_day=drawn["events_per_day"],
                expiring_fraction=drawn["expiring_fraction"],
            ),
            reads=ReadConfig(reads_per_day=drawn["reads_per_day"]),
            outages=OutageConfig(downtime_fraction=drawn["downtime"]),
            rank_changes=RankChangeConfig(
                drop_fraction=drawn["drop_fraction"],
                boost_fraction=drawn["boost_fraction"],
            ),
        )
        batch, scalar = _both_signatures(config, POLICIES[drawn["policy"]]())
        _assert_identical(batch, scalar)


class Shard(NamedTuple):
    """One captured shard run: the accumulator plus the live table."""

    accumulator: object
    cols: object
    proxy: object
    dispatcher: object  # None under the scalar oracle


@contextmanager
def _patched(owner, name, replacement):
    original = getattr(owner, name)
    setattr(owner, name, replacement)
    try:
        yield original
    finally:
        setattr(owner, name, original)


def _run_shard(config, policy, *, spec=None, use_batch=True, materialize=()):
    """Run one shard in-process, keeping its table for inspection.

    ``materialize`` names local device ids to wire as objects by hand,
    right after the streams register (before ``sim.run``). The teardown
    that would clear the object graph is skipped.
    """
    captured = {}
    register = ShardBatchDispatcher.register_streams

    def capture_register(dispatcher):
        captured["dispatcher"] = dispatcher
        register(dispatcher)
        for d in materialize:
            captured["wiring"](d)

    wiring_init = runner_mod.ShardWiring.__init__

    def capture_wiring(wiring, *args):
        wiring_init(wiring, *args)
        captured["wiring"] = wiring.materialize

    def keep(sim, proxy, cols):
        captured["cols"] = cols
        captured["proxy"] = proxy

    with _patched(ShardBatchDispatcher, "register_streams", capture_register), \
            _patched(runner_mod.ShardWiring, "__init__", capture_wiring), \
            _patched(runner_mod, "_dismantle_shard", keep):
        accumulator = _execute_shard(
            build_fleet_workload(config), policy, spec, use_batch
        )
    return Shard(
        accumulator, captured["cols"], captured["proxy"],
        captured.get("dispatcher"),
    )


def _outputs(accumulator):
    return (
        accumulator.signature(),
        accumulator.metrics_row(),
        accumulator.describe(),
    )


MATRIX_CONFIG = dict(devices=120, duration=DAY)


def _matrix_case(policy_name, preset, seed, shape="matrix"):
    spec = _spec(preset)
    if shape == "expiring":
        config = FleetScenarioConfig(devices=60, seed=seed, **EXPIRING)
        return config, EXPIRING_POLICIES[policy_name](), spec
    config = FleetScenarioConfig(seed=seed, **MATRIX_CONFIG)
    return config, ALL_POLICIES[policy_name](), spec


@functools.lru_cache(maxsize=None)
def _matrix_reference(policy_name, preset, seed, shape="matrix"):
    """Untouched batched run (checked against scalar) of a matrix cell."""
    config, policy, spec = _matrix_case(policy_name, preset, seed, shape)
    untouched = _outputs(_run_shard(config, policy, spec=spec).accumulator)
    scalar = _run_shard(config, policy, spec=spec, use_batch=False)
    assert untouched == _outputs(scalar.accumulator)
    return untouched


RICH = {
    "expiring-churn-threshold": dict(),
    "chaos": dict(preset="chaos"),
}


def _rich_case(name):
    overrides = dict(RICH[name])
    preset = overrides.pop("preset", None)
    config = _rich_config(**overrides)
    spec = faults.FaultSpec.parse(preset) if preset else None
    return config, spec


@functools.lru_cache(maxsize=None)
def _rich_reference(name, policy_name):
    config, spec = _rich_case(name)
    policy = POLICIES[policy_name]()
    untouched = _outputs(_run_shard(config, policy, spec=spec).accumulator)
    scalar = _run_shard(config, policy, spec=spec, use_batch=False)
    assert untouched == _outputs(scalar.accumulator)
    return untouched


def _draw_subset(data, config):
    """A hypothesis-drawn subset of bindings to materialize at wiring."""
    subset = data.draw(
        st.sets(st.integers(0, config.devices - 1)), label="materialized"
    )
    return sorted(subset)


#: The matrix cells the materialization tests redo: every policy on both
#: seeds, the delay policies (whose rows ``TestDifferentialMatrix``
#: already pins on both) on one.
INVISIBLE_CASES = list(
    itertools.product(sorted(POLICIES), PRESETS, [0, 7])
) + list(itertools.product(sorted(DELAY_POLICIES), PRESETS, [0]))

#: The expiring shape's cells the materialization tests redo: every
#: kind, clean and under the two crash-free ladders.
EXPIRING_INVISIBLE_CASES = list(
    itertools.product(sorted(EXPIRING_POLICIES), [None, "lossy", "slow-ladder"])
)

#: LIGHT with 5 % of its arrivals demoted later: the runner materializes
#: the bindings whose input carries a change at wiring and keeps the
#: rest on their rows, so one run covers both tiers.
LIGHT_CHANGING = dict(LIGHT, rank_changes=RankChangeConfig(drop_fraction=0.05))


class TestMaterializationInvisible:
    """Which bindings run as objects cannot be observed."""

    @pytest.mark.parametrize("policy_name,preset,seed", INVISIBLE_CASES)
    def test_all_materialized_before_run_is_the_object_path(
        self, policy_name, preset, seed
    ):
        """Every binding wired before ``sim.run`` = the pre-table path."""
        config, policy, spec = _matrix_case(policy_name, preset, seed)
        eager = _run_shard(
            config, policy, spec=spec, materialize=range(config.devices)
        )
        assert eager.cols.materialized_share == 1.0
        assert _outputs(eager.accumulator) == _matrix_reference(
            policy_name, preset, seed
        )

    @pytest.mark.parametrize("policy_name,preset,seed", INVISIBLE_CASES)
    @settings(
        max_examples=4,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_drawn_subset_matrix(self, policy_name, preset, seed, data):
        config, policy, spec = _matrix_case(policy_name, preset, seed)
        forced = _run_shard(
            config, policy, spec=spec, materialize=_draw_subset(data, config)
        )
        assert _outputs(forced.accumulator) == _matrix_reference(
            policy_name, preset, seed
        )
        assert forced.cols.verify_sync() == []

    @pytest.mark.parametrize("policy_name,preset", EXPIRING_INVISIBLE_CASES)
    @settings(
        max_examples=4,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_drawn_subset_expiring(self, policy_name, preset, data):
        """Expiring rows (their expiration timers, delayed and held
        entries) beside bindings wired as objects; every binding wired
        before the run is the object path too."""
        config, policy, spec = _matrix_case(policy_name, preset, 0, "expiring")
        reference = _matrix_reference(policy_name, preset, 0, "expiring")
        eager = _run_shard(
            config, policy, spec=spec, materialize=range(config.devices)
        )
        assert _outputs(eager.accumulator) == reference
        forced = _run_shard(
            config, policy, spec=spec, materialize=_draw_subset(data, config)
        )
        assert _outputs(forced.accumulator) == reference
        assert forced.cols.verify_sync() == []

    @pytest.mark.parametrize(
        "name,policy_name",
        [("expiring-churn-threshold", p) for p in sorted(POLICIES)]
        + [("chaos", "unified")],
    )
    @settings(
        max_examples=4,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_drawn_subset_rich_workloads(self, name, policy_name, data):
        config, spec = _rich_case(name)
        forced = _run_shard(
            config,
            POLICIES[policy_name](),
            spec=spec,
            materialize=_draw_subset(data, config),
        )
        assert _outputs(forced.accumulator) == _rich_reference(name, policy_name)

    def test_light_shard_exercises_both_tiers(self):
        """The canonical LIGHT shape with a few expiring arrivals and a
        few rank changes keeps most bindings resident, expiring ones
        included, and materializes those whose input carries a change at
        wiring, so one run covers both tiers."""
        config = FleetScenarioConfig(
            devices=600,
            seed=1,
            **dict(
                LIGHT_CHANGING,
                arrivals=ArrivalConfig(events_per_day=2, expiring_fraction=0.05),
            ),
        )
        batch = _run_shard(config, PolicyConfig.unified())
        assert 0.0 < batch.cols.materialized_share < 0.5
        scalar = _run_shard(config, PolicyConfig.unified(), use_batch=False)
        assert scalar.cols.materialized_share == 1.0
        assert _outputs(batch.accumulator) == _outputs(scalar.accumulator)

    @pytest.mark.parametrize(
        "shape", ["light-expiring", "rate-light", "rich"]
    )
    def test_materialized_rows_are_never_read(self, shape):
        """A materialized binding's row link status, queue-size estimate
        and prefetch limit are resident-only state: garbage written
        there right after its wiring changes nothing. (Under ``lossy``
        the LIGHT shape with expiring arrivals keeps its rows but for
        the bindings whose input carries a rank change.)"""
        spec = None
        if shape == "light-expiring":
            config = FleetScenarioConfig(
                devices=600,
                seed=1,
                **dict(
                    LIGHT_CHANGING,
                    arrivals=ArrivalConfig(
                        events_per_day=2, expiring_fraction=0.05
                    ),
                ),
            )
            policy = PolicyConfig.unified()
            spec = _spec("lossy")
        elif shape == "rate-light":
            config = FleetScenarioConfig(devices=300, seed=1, **LIGHT)
            policy = PolicyConfig.rate()
        else:
            config = _rich_config()
            policy = PolicyConfig.unified()
        materialize = runner_mod.ShardWiring.materialize
        scribbled = []

        def scribble(wiring, index):
            cols = wiring.cols
            fresh = cols.resident[index]
            materialize(wiring, index)
            if fresh:
                cols.network[index] ^= 1
                cols.queue_size[index] = 10**6
                cols.prefetch_limit[index] = -1
                scribbled.append(index)

        with _patched(runner_mod.ShardWiring, "materialize", scribble):
            batch = _run_shard(config, policy, spec=spec)
        assert scribbled
        scalar = _run_shard(config, policy, spec=spec, use_batch=False)
        assert _outputs(batch.accumulator) == _outputs(scalar.accumulator)

    @pytest.mark.parametrize("preset", ["lossy", "reliable"])
    def test_light_faulted_shard_exercises_both_tiers(self, preset):
        """A crash-free fault spec keeps every binding on its row whose
        input the row models — the ack–retry ladder, the queue and the
        offline log included; the rank changes give the second tier."""
        config = FleetScenarioConfig(devices=600, seed=1, **LIGHT_CHANGING)
        batch = _run_shard(config, PolicyConfig.unified(), spec=_spec(preset))
        changing = int((build_fleet_workload(config).change_counts > 0).sum())
        assert 0 < changing < config.devices // 2
        assert config.devices - sum(batch.cols.resident) == changing
        assert batch.cols.verify_sync() == []
        scalar = _run_shard(
            config, PolicyConfig.unified(), spec=_spec(preset), use_batch=False
        )
        assert scalar.cols.materialized_share == 1.0
        assert _outputs(batch.accumulator) == _outputs(scalar.accumulator)

    def test_crash_spec_materializes_at_wiring(self):
        """Crash timers draw their sequence numbers at wiring, so a spec
        that arms proxy crashes keeps no binding on its row."""
        config = FleetScenarioConfig(devices=200, seed=1, **LIGHT)
        materialized_at_wiring = []
        register = ShardBatchDispatcher.register_streams

        def note_share(dispatcher):
            materialized_at_wiring.append(dispatcher.cols.materialized_share)
            register(dispatcher)

        with _patched(ShardBatchDispatcher, "register_streams", note_share):
            shard = _run_shard(config, PolicyConfig.unified(), spec=_spec("chaos"))
        assert shard.dispatcher.keeps_rows is False
        assert materialized_at_wiring == [1.0]
        assert shard.cols.verify_sync() == []

    @pytest.mark.parametrize("preset", ["slow-ladder", "corrupt-reports"])
    def test_faulted_rows_queue_log_and_carry_the_ladder(self, preset):
        """Non-vacuity of the faulted rows: on the slow ladder and under
        corrupted reports every binding stays on its row while rows
        queue arrivals, log offline reads and carry deliveries in flight
        (on the slow ladder also retries parked by an outage; with
        corruption, stale duplicates in their reports); per device the
        rows equal the scalar oracle's objects."""
        config = FleetScenarioConfig(
            devices=150,
            duration=2 * DAY,
            seed=4,
            arrivals=ArrivalConfig(events_per_day=4.0, expiring_fraction=0.1),
            reads=ReadConfig(reads_per_day=2.0),
            outages=OutageConfig(downtime_fraction=0.3),
        )
        spec = _spec(preset)
        seen = {"queued": 0, "logged": 0, "in_flight": 0, "parked": 0}
        pump = ShardBatchDispatcher._pump

        def count_at_pump_exit(dispatcher, *args):
            done = pump(dispatcher, *args)
            cols = dispatcher.cols
            for d in range(cols.devices):
                seen["queued"] += bool(cols.proxy_queue[d])
                seen["logged"] += bool(cols.read_log[d])
                seen["in_flight"] += bool(cols.inflight[d])
                seen["parked"] += bool(cols.parked[d])
            return done

        with _patched(ShardBatchDispatcher, "_pump", count_at_pump_exit):
            batch = _run_shard(config, PolicyConfig.unified(), spec=spec)
        if preset != "slow-ladder":
            del seen["parked"]  # a short ladder rarely outlasts an outage
        assert all(seen.values()), seen
        assert batch.cols.materialized_share == 0.0
        assert batch.cols.verify_sync() == []
        corrupted = batch.accumulator.counters["report_entries_corrupted"]
        assert (corrupted > 0) == (preset == "corrupt-reports"), corrupted
        scalar = _run_shard(config, PolicyConfig.unified(), spec=spec, use_batch=False)
        assert _outputs(batch.accumulator) == _outputs(scalar.accumulator)
        for d in range(config.devices):
            assert _device_view(batch, d) == _device_view(scalar, d), d


def _device_view(shard, d):
    """Everything one binding did and holds, from its row if it stayed
    resident, else from its objects."""
    cols = shard.cols
    stats = cols.stats[d]
    if stats is None:
        view = {
            "up": bool(cols.network[d]),
            "queue_size": cols.queue_size[d],
            "prefetch_limit": cols.prefetch_limit[d],
            "arrivals": cols.accepted[d] + cols.filtered[d] + cols.dead[d],
            "accepted": cols.accepted[d],
            "filtered": cols.filtered[d],
            "expired_at_proxy": cols.dead[d] + cols.expired[d],
            "expired_on_device": cols.expired_on_device[d],
            "pushed": cols.forwarded[d] - cols.pulled[d],
            "pulled": cols.pulled[d],
            "reads": cols.reads[d],
            "read_requests": cols.reads[d] - cols.outage_reads[d],
            "reads_during_outage": cols.outage_reads[d],
            "empty_reads": cols.empty_reads[d],
            "read_delay_sum": cols.read_delay_sum[d],
            "messages_read": cols.consumed[d],
            "held": sorted(entry[2] for entry in cols.held[d] or ()),
            "queued": sorted(
                entry[2]
                for column in (cols.proxy_queue, cols.proxy_holding)
                for entry in column[d] or ()
            ),
            "read_log": list(cols.read_log[d] or ()),
            "timers": sorted(cols.timers[d] or ()),
        }
        sizes, gaps = cols.old_reads[d], cols.old_times[d]
    else:
        view = {
            name: getattr(stats, name)
            for name in (
                "arrivals", "accepted", "filtered", "expired_at_proxy",
                "expired_on_device", "pushed", "pulled", "reads",
                "read_requests", "reads_during_outage", "empty_reads",
                "read_delay_sum",
            )
        }
        view["messages_read"] = len(stats.read_ids)
        client, topic = cols.clients[d], cols.topics[d]
        state = shard.proxy.topic_state(topic)
        view["held"] = sorted(item.event_id for item in client.unread(topic))
        view["queued"] = sorted(
            item.event_id
            for queue in (state.outgoing, state.prefetch, state.holding)
            for item in queue
        )
        view["read_log"] = list(client._offline_reads.get(topic, ()))
        view["timers"] = sorted(
            [*state.expiration_handles, *client._expiry_handles]
        )
        view["up"] = cols.links[d].up
        view["queue_size"] = state.queue_size
        view["prefetch_limit"] = state.prefetch_limit
        sizes, gaps = state.old_reads, state.old_times
    view["read_sizes"] = None if sizes is None or not sizes.count else sizes._ordered()
    view["read_gaps"] = (
        None if gaps is None or gaps.last is None
        else (gaps.last, gaps._gaps._ordered())
    )
    return view


class TestColumnSync:
    """The binding table must be consistent with itself and agree with a
    scalar replay."""

    CONFIG = FleetScenarioConfig(
        devices=80,
        duration=DAY,
        seed=2,
        arrivals=ArrivalConfig(events_per_day=4.0, expiring_fraction=0.4),
        reads=ReadConfig(reads_per_day=1.0),
        outages=OutageConfig(downtime_fraction=0.3),
    )

    def test_columns_in_sync_at_end_of_run(self):
        """Every third binding wired as objects: both tiers keep their
        invariants to the end, and each resident row's held entries are
        what the device of the scalar oracle holds."""
        shard = _run_shard(
            self.CONFIG,
            PolicyConfig.unified(),
            materialize=range(0, self.CONFIG.devices, 3),
        )
        cols = shard.cols
        assert 0.0 < cols.materialized_share < 1.0
        assert cols.verify_sync() == []
        scalar = _run_shard(self.CONFIG, PolicyConfig.unified(), use_batch=False)
        assert _outputs(shard.accumulator) == _outputs(scalar.accumulator)
        for d in range(cols.devices):
            assert _device_view(shard, d) == _device_view(scalar, d), d

    @pytest.mark.parametrize("policy_name", sorted(ALL_POLICIES))
    def test_rows_match_scalar_replay_per_device(self, policy_name):
        """Per device, the row (or the objects) = what the scalar
        oracle's objects say, down to the held and queued ids, the read
        log and the read-size and read-interval windows."""
        policy = ALL_POLICIES[policy_name]()
        batch = _run_shard(self.CONFIG, policy)
        assert batch.cols.verify_sync() == []
        scalar = _run_shard(self.CONFIG, policy, use_batch=False)
        for d in range(self.CONFIG.devices):
            assert _device_view(batch, d) == _device_view(scalar, d), d

    @pytest.mark.parametrize(
        "policy_name", QUEUEING_POLICIES + sorted(DELAY_POLICIES)
    )
    def test_deep_rows_match_scalar_replay_per_device(self, policy_name):
        """The deep shape never leaves the rows, and every row — its
        proxy queue and read log included — is what the scalar oracle's
        objects hold."""
        config = FleetScenarioConfig(devices=30, seed=3, **DEEP)
        policy = ALL_POLICIES[policy_name]()
        batch = _run_shard(config, policy)
        assert batch.cols.materialized_share == 0.0
        assert batch.cols.verify_sync() == []
        scalar = _run_shard(config, policy, use_batch=False)
        for d in range(config.devices):
            assert _device_view(batch, d) == _device_view(scalar, d), d

    def test_expiring_columns_are_shared_only_without_expiring_arrivals(self):
        """A shard with no expiring arrival points its holding queue and
        both timer columns at one list that stays None; an expiring
        shard keeps three, and both stay in sync (delay stage included)."""
        policy = PolicyConfig.unified(delay=60.0)
        clean = _run_shard(FleetScenarioConfig(devices=30, seed=3, **DEEP), policy)
        cols = clean.cols
        assert cols.proxy_holding is cols.timers is cols.delay_timers
        assert cols.timers == [None] * cols.devices
        assert cols.verify_sync() == []
        expiring = _run_shard(
            FleetScenarioConfig(devices=60, seed=3, **EXPIRING), policy
        )
        cols = expiring.cols
        columns = (cols.proxy_holding, cols.timers, cols.delay_timers)
        assert len({id(column) for column in columns}) == 3
        assert cols.verify_sync() == []

    @pytest.mark.parametrize("policy_name", sorted(EXPIRING_POLICIES))
    def test_expiring_rows_match_scalar_replay_per_device(self, policy_name):
        """The expiring shape never leaves a clean shard's rows, and every
        row — its holding queue and pending timers included — is what the
        scalar oracle's objects hold. Rows that push forward expiring
        arrivals at once and see them expire on the device; on-demand
        rows keep every one at the proxy; unified rows also let some
        expire in the holding queue."""
        config = FleetScenarioConfig(devices=60, seed=3, **EXPIRING)
        policy = EXPIRING_POLICIES[policy_name]()
        with expiring_outcomes() as seen:
            batch = _run_shard(config, policy)
        assert batch.cols.materialized_share == 0.0
        assert batch.cols.verify_sync() == []
        pushes = policy_name != "on_demand"
        assert (seen["forwarded at once"] > 0) == pushes, seen
        assert (seen["expired on the device"] > 0) == pushes, seen
        assert (seen["died in holding"] > 0) == policy_name.startswith("unified"), seen
        assert batch.accumulator.counters["expired_at_proxy"] > 0
        scalar = _run_shard(config, policy, use_batch=False)
        assert _outputs(batch.accumulator) == _outputs(scalar.accumulator)
        for d in range(config.devices):
            assert _device_view(batch, d) == _device_view(scalar, d), d
