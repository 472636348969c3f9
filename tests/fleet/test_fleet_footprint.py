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
  lifetime column went (743 before it, measured at once).
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
