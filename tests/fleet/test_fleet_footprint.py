"""Host-noise-free footprint gate: live traced bytes per fleet binding.

Peak RSS is the benchmark's memory metric, but it carries the
interpreter, the allocator's high-water mark and the host. This gate
counts what the shard itself keeps alive — ``tracemalloc`` started after
the workload columns exist, read just before the shard is torn down,
divided by the device count — so a per-binding allocation creeping back
into the resident tier fails here at 1 % resolution on any host.

The shape is the benchmark's ``fleet_wide`` / ``fleet_lossy`` at a tenth
of the size (3 000 LIGHT devices, seed 1, unified policy). Reference
figures, measured with this exact protocol on CPython 3.11:

* clean shard — 8 367 B/device with one object graph per binding (the
  commit before the binding table became array-resident); 2 421 B/device
  with ~14.7 % of the bindings materialized by arrivals during outages
  and offline reads; 1 419 B/device since a clean row keeps its proxy
  queue and offline read log, with no binding materialized. The gate is
  4 KB.
* ``faults=lossy`` shard — 8 590 B/device while every binding of a
  faulted shard was materialized at wiring; 2 653 B/device once the
  ack–retry ladder ran on the rows, with the same ~14.7 % materialized
  (a faulted row still escaped on a queued arrival or an offline read);
  2 696 B/device with the clean rows' queue, log and three count
  columns allocated beside it (2 010 B/device when last measured
  beside the other figures here); 949 B/device since a faulted row
  queues, logs and forwards its queue through the ladder itself, with
  no binding materialized. The gate is the clean one.
* ``unified(delay=60)`` clean shard — 8 558 B/device while a fixed
  positive delay materialized every binding at wiring; 1 394 B/device
  once the rows armed the delay stage's timers themselves, with no
  binding materialized. The gate is the clean one.
* a clean shard with 5 % of its arrivals expiring — 1 448 B/device
  while each expiring arrival materialized its binding (share 0.093);
  1 503 B/device once the rows arm the expiration timers themselves
  (the pending timers' engine events and each such row's timer map),
  with no binding materialized. The gate is the clean one. The columns
  that takes raised the clean shard from 647 to 743 B/device (both
  measured at once on one host: six more per-row columns and a fourth
  field, ``expires_at``, in every entry); 735 B/device once the unread
  lifetime column went (743 before it, measured at once); 719 B/device
  once a shard with no expiring arrival points its holding queue and
  both timer columns at one shared list (735 before it, measured at
  once). The 5 %-expiring shard read 1 475 B/device while its drained
  merged stream stayed alive with the dispatcher its pending timers
  hold; 767 B/device since the pump frees the stream once drained.

The deep gate reads the traced *peak* instead, per processed event, on
``fleet_deep``'s per-device load (40 devices x 14 days, 32 arrivals + 4
reads per device-day, 30 % downtime, seed 1, unified): 295 B/event
while the merged stream was boxed into Python lists whole, at
registration, its peak set there; 153 B/event since the stream stays in
numpy columns and the pump boxes one block at a time. The gate is
200 B/event.
"""

import gc
import tracemalloc

import repro.fleet.runner as runner_mod
from repro.faults import FaultSpec
from repro.fleet import FleetScenarioConfig, build_fleet_workload
from repro.proxy.policies import PolicyConfig
from repro.units import DAY
from repro.workload.arrivals import ArrivalConfig
from repro.workload.outages import OutageConfig
from repro.workload.reads import ReadConfig

DEVICES = 3_000

CLEAN_GATE_BYTES = 4 * 1024


def _live_bytes_per_device(monkeypatch, spec=None, policy=None, expiring=0.0):
    config = FleetScenarioConfig(
        devices=DEVICES,
        seed=1,
        duration=DAY,
        arrivals=ArrivalConfig(events_per_day=2, expiring_fraction=expiring),
        reads=ReadConfig(reads_per_day=0.5),
        outages=OutageConfig(downtime_fraction=0.1),
    )
    workload = build_fleet_workload(config)
    seen = {}
    dismantle = runner_mod._dismantle_shard

    def snapshot_then_dismantle(*args):
        seen["live"], _peak = tracemalloc.get_traced_memory()
        seen["materialized"] = args[-1].materialized_share
        dismantle(*args)

    monkeypatch.setattr(runner_mod, "_dismantle_shard", snapshot_then_dismantle)
    gc.collect()
    tracemalloc.start()
    try:
        runner_mod._execute_shard(
            workload, policy or PolicyConfig.unified(), spec
        )
    finally:
        tracemalloc.stop()
    return seen["live"] / DEVICES, seen["materialized"]


def test_clean_light_shard_stays_under_4_kb_per_device(monkeypatch):
    per_device, materialized = _live_bytes_per_device(monkeypatch)
    assert materialized < 0.02
    assert per_device <= CLEAN_GATE_BYTES, f"{per_device:.0f} B/device"


def test_lossy_shard_stays_on_its_rows(monkeypatch):
    per_device, materialized = _live_bytes_per_device(
        monkeypatch, FaultSpec.parse("lossy")
    )
    assert materialized < 0.02
    assert per_device <= CLEAN_GATE_BYTES, f"{per_device:.0f} B/device"


def test_delay_shard_stays_on_its_rows(monkeypatch):
    per_device, materialized = _live_bytes_per_device(
        monkeypatch, policy=PolicyConfig.unified(delay=60.0)
    )
    assert materialized < 0.02
    assert per_device <= CLEAN_GATE_BYTES, f"{per_device:.0f} B/device"


def test_expiring_shard_stays_on_its_rows(monkeypatch):
    per_device, materialized = _live_bytes_per_device(monkeypatch, expiring=0.05)
    assert materialized < 0.02
    assert per_device <= CLEAN_GATE_BYTES, f"{per_device:.0f} B/device"


#: The deep shape: ``fleet_deep``'s per-device load on 40 devices.
DEEP_CONFIG = FleetScenarioConfig(
    devices=40,
    seed=1,
    duration=14 * DAY,
    arrivals=ArrivalConfig(events_per_day=32),
    reads=ReadConfig(reads_per_day=4),
    outages=OutageConfig(downtime_fraction=0.3),
)

DEEP_PEAK_GATE_BYTES = 200


def test_deep_shard_peak_stays_under_200_b_per_event():
    """The traced peak over a deep shard, per processed event: the
    merged stream stays in numpy columns and is boxed a block at a
    time, so the peak no longer carries every event as boxed lists."""
    workload = build_fleet_workload(DEEP_CONFIG)
    gc.collect()
    tracemalloc.start()
    try:
        accumulator = runner_mod._execute_shard(workload, PolicyConfig.unified())
        _live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    per_event = peak / accumulator.events_processed
    assert per_event <= DEEP_PEAK_GATE_BYTES, f"{per_event:.0f} B/event"
