"""Mergeable streaming accumulators for fleet-scale aggregation.

A fleet campaign runs millions of devices across shards; collecting one
:class:`~repro.metrics.accounting.RunStats` per device in the parent
would make aggregation memory O(devices). The accumulators here are the
alternative: each shard folds its devices into O(1) state, shards merge
pairwise, and the merged result is independent of how devices were
partitioned.

Three pieces:

* :class:`StreamingMoments` — count/sum/min/max/M2 (Welford), merged
  with Chan et al.'s parallel update. Counts and extrema merge exactly;
  the float sum and M2 merge up to reassociation (~1e-9 relative).
* :class:`QuantileSketch` — fixed-bin histogram with integer counts.
  Merging two sketches with identical bins is **exact**: integer bin
  counts add, so the merged sketch equals the sketch of the
  concatenated data regardless of shard count or order. The only
  approximation is the binning itself: nearest-rank percentiles are
  reported as bin midpoints, so the absolute error is at most half the
  bin width for values below ``upper`` (values at or above ``upper``
  clamp to the overflow bin, reported as ``upper``).
* :class:`FleetAccumulator` — folds per-device ``RunStats`` into summed
  counters plus the two sketch types above. Integer counters are
  bit-identical across any sharding; float sums carry the documented
  reassociation tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from operator import itemgetter
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.errors import ConfigurationError
from repro.metrics.accounting import DELIVERY_FAULT_FIELDS, RunStats
from repro.units import DAY

if TYPE_CHECKING:  # pragma: no cover - annotation-only (fleet imports metrics)
    from repro.fleet.columns import FleetColumns

#: RunStats fields folded by summation (everything scalar; the identity
#: sets are reduced to their sizes via ``forwarded``/``messages_read``).
_SUMMED_FIELDS = tuple(
    f.name
    for f in fields(RunStats)
    if f.name not in ("forwarded_ids", "read_ids")
)
#: The summed fields that are floats: their sums are order-sensitive.
_FLOAT_FIELDS = frozenset(
    f.name for f in fields(RunStats) if isinstance(f.default, float)
)


class StreamingMoments:
    """Streaming count/sum/min/max/variance (Welford's algorithm)."""

    __slots__ = ("count", "sum", "minimum", "maximum", "_mean", "_m2")

    def __init__(self) -> None:
        self.count = 0
        self.sum = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        self._mean = 0.0
        self._m2 = 0.0

    def push(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)

    def merge(self, other: "StreamingMoments") -> None:
        """Chan's parallel moments update; exact for count/min/max."""
        if other.count == 0:
            return
        if self.count == 0:
            self.count = other.count
            self.sum = other.sum
            self.minimum = other.minimum
            self.maximum = other.maximum
            self._mean = other._mean
            self._m2 = other._m2
            return
        total = self.count + other.count
        delta = other._mean - self._mean
        self._mean += delta * other.count / total
        self._m2 += other._m2 + delta * delta * self.count * other.count / total
        self.count = total
        self.sum += other.sum
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)

    @property
    def mean(self) -> float:
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        """Population variance (0 with fewer than two observations)."""
        return self._m2 / self.count if self.count > 1 else 0.0

    @property
    def std(self) -> float:
        return math.sqrt(max(0.0, self.variance))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StreamingMoments(n={self.count}, mean={self.mean:.3g})"


class QuantileSketch:
    """Fixed-bin quantile sketch with exact merging.

    ``bins`` equal-width bins cover ``[0, upper)``; one overflow bin
    catches everything at or above ``upper`` (and reports as ``upper``).
    Bin counts are integers, so merging sketches built over the same
    ``(upper, bins)`` grid is exact — the merged sketch is
    indistinguishable from one fed the concatenated observations, in
    any order. The discretization error of :meth:`percentile` is
    therefore fixed at sketch construction: at most half the bin width
    (``upper / bins / 2``) for in-range values, independent of how many
    sketches were merged. Merging sketches with different grids is
    refused rather than approximated.
    """

    __slots__ = ("upper", "bins", "count", "_counts", "_width")

    def __init__(self, upper: float = DAY, bins: int = 1024) -> None:
        if not (upper > 0 and math.isfinite(upper)):
            raise ConfigurationError(f"upper must be finite and positive, got {upper}")
        if bins < 1:
            raise ConfigurationError(f"bins must be at least 1, got {bins}")
        self.upper = float(upper)
        self.bins = int(bins)
        self.count = 0
        self._counts = [0] * (self.bins + 1)
        self._width = self.upper / self.bins

    @property
    def bin_width(self) -> float:
        """Worst-case percentile error is half this value."""
        return self._width

    def push(self, value: float) -> None:
        index = int(value / self._width) if value < self.upper else self.bins
        if index < 0:
            index = 0
        self._counts[index] += 1
        self.count += 1

    def merge(self, other: "QuantileSketch") -> None:
        if (self.upper, self.bins) != (other.upper, other.bins):
            raise ConfigurationError(
                f"cannot merge sketches with different grids: "
                f"({self.upper}, {self.bins}) vs ({other.upper}, {other.bins})"
            )
        counts = self._counts
        for index, n in enumerate(other._counts):
            counts[index] += n
        self.count += other.count

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile, reported as the bin midpoint.

        0.0 with no observations. Error bound: ``bin_width / 2`` for
        values below ``upper``; values beyond clamp to ``upper``.
        """
        if not 0.0 < p <= 1.0:
            raise ConfigurationError(f"percentile must be in (0, 1], got {p}")
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(p * self.count))
        seen = 0
        for index, n in enumerate(self._counts):
            seen += n
            if seen >= rank:
                if index == self.bins:
                    return self.upper
                return (index + 0.5) * self._width
        return self.upper  # pragma: no cover - unreachable (counts sum)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"QuantileSketch(n={self.count}, upper={self.upper}, bins={self.bins})"


class SketchedStats(RunStats):
    """A device's :class:`RunStats` that also feeds shared fleet sketches.

    The fleet runner hands every device in a shard the same
    :class:`QuantileSketch`/:class:`StreamingMoments` pair; read ages
    stream into them as they happen, so per-read detail never has to be
    retained per device.
    """

    def __init__(
        self,
        delay_sketch: Optional[QuantileSketch] = None,
        delay_moments: Optional[StreamingMoments] = None,
    ) -> None:
        super().__init__()
        self.delay_sketch = delay_sketch
        self.delay_moments = delay_moments

    def record_read(self, event_id, age: float) -> None:  # type: ignore[override]
        super().record_read(event_id, age)
        if self.delay_sketch is not None:
            self.delay_sketch.push(age)
        if self.delay_moments is not None:
            self.delay_moments.push(age)


def device_stats(table: "FleetColumns", d: int) -> RunStats:
    """Binding ``d``'s :class:`RunStats`: its stats object's if it was
    materialized, else its row's.

    The per-device form of :meth:`FleetAccumulator.add_shard`'s
    arithmetic, so ``add_device(device_stats(table, d))`` over every
    ``d`` folds exactly as ``add_shard(table)`` does. It needs a table
    that recorded its read and expired ids: a resident row forwarded
    exactly what it read, saw expire on the device, still holds, or
    (under faults) has not landed, since nothing else leaves a row.
    """
    result = RunStats()
    stats = table.stats[d]
    if stats is not None:
        for name in _SUMMED_FIELDS:
            setattr(result, name, getattr(stats, name))
        result.forwarded_ids.update(stats.forwarded_ids)
        result.read_ids.update(stats.read_ids)
        return result
    result.read_delay_sum = table.read_delay_sum[d]
    accepted = table.accepted[d]
    sent = table.forwarded[d]
    pulled = table.pulled[d]
    reads = table.reads[d]
    outage_reads = table.outage_reads[d]
    result.arrivals = accepted + table.filtered[d] + table.dead[d]
    result.accepted = accepted
    result.filtered = table.filtered[d]
    result.expired_at_proxy = table.dead[d] + table.expired[d]
    result.expired_on_device = table.expired_on_device[d]
    result.pushed = sent - pulled
    result.pulled = pulled
    result.bytes_sent = sent * table.forward_bytes
    result.reads = reads
    result.read_requests = reads - outage_reads
    result.reads_during_outage = outage_reads
    result.empty_reads = table.empty_reads[d]
    read = table.read_ids[d]
    result.read_ids.update(read)
    result.forwarded_ids.update(read)
    result.forwarded_ids.update(table.expired_ids[d])
    result.forwarded_ids.update(entry[2] for entry in table.held[d] or ())
    if table.plans is not None:
        for name in DELIVERY_FAULT_FIELDS:
            setattr(result, name, getattr(table, name)[d])
        result.forwarded_ids.update(table.inflight[d] or ())
    return result


@dataclass
class FleetAccumulator:
    """O(1)-memory fold of per-device run results.

    ``add_device`` consumes one device's :class:`RunStats`; ``merge``
    folds another accumulator (one shard's worth) in. All integer
    counters and sketch bins are exact under any partitioning; float
    sums (``read_delay_sum``, ``bytes``) merge up to
    reassociation (~1e-9 relative), which the shard-invariance tests
    pin. Merge shards in a fixed order for bit-level determinism.
    """

    devices: int = 0
    #: Simulator events fired across all shards.
    events_processed: int = 0
    #: Distinct notifications forwarded (summed ``len(forwarded_ids)``).
    forwarded: int = 0
    #: Distinct notifications read (summed ``len(read_ids)``).
    messages_read: int = 0
    #: Forwarded-but-never-read, summed per device.
    wasted: int = 0
    #: Notifications still queued proxy-side / device-side at the end.
    final_proxy_queued: int = 0
    final_device_queued: int = 0
    #: Every scalar RunStats counter, summed across devices.
    counters: Dict[str, float] = field(
        default_factory=lambda: {name: 0 for name in _SUMMED_FIELDS}
    )
    #: Read-age distribution (merged exactly; see QuantileSketch).
    read_delay_sketch: QuantileSketch = field(default_factory=QuantileSketch)
    #: Read-age moments across every read in the fleet.
    read_delay_moments: StreamingMoments = field(default_factory=StreamingMoments)
    #: Per-device distribution of messages read (one push per device).
    device_reads: StreamingMoments = field(default_factory=StreamingMoments)
    #: Per-device distribution of wasted messages.
    device_waste: StreamingMoments = field(default_factory=StreamingMoments)

    def add_device(
        self,
        stats: RunStats,
        final_proxy_queued: int = 0,
        final_device_queued: int = 0,
    ) -> None:
        self.devices += 1
        self.forwarded += stats.forwarded
        self.messages_read += stats.messages_read
        self.wasted += stats.wasted
        self.final_proxy_queued += final_proxy_queued
        self.final_device_queued += final_device_queued
        counters = self.counters
        # RunStats is a plain (non-slotted) dataclass, so every summed
        # field lives in the instance dict; one dict lookup per field
        # beats getattr's descriptor protocol on the fleet fold path,
        # which runs once per device.
        values = stats.__dict__
        for name in _SUMMED_FIELDS:
            counters[name] += values[name]
        self.device_reads.push(float(stats.messages_read))
        self.device_waste.push(float(stats.wasted))

    def add_shard(
        self,
        table: "FleetColumns",
        final_proxy_queued: int,
        final_device_queued: int,
    ) -> None:
        """Fold a whole shard's binding table in one pass.

        Bit-identical to calling :meth:`add_device` once per device in
        local-id order on the ``RunStats`` a fully object-backed shard
        would have produced. Each binding contributes its row if it
        stayed array-resident, its stats object if it was materialized
        (whose row then holds only zeros). The integer columns are
        order-free sums, so the two tiers simply add; under a fault spec
        that includes the rows' fault counters, and a resident row's
        waste is everything it forwarded and did not see read — held,
        expired on the device, in flight, or abandoned. The float
        columns must associate exactly as the sequential fold does: per
        device, then left to right over local ids inside ``sum`` —
        ``read_delay_sum`` comes from the row or the stats object, and a
        resident binding's other floats are the 0.0 a never-touched
        ``RunStats`` holds, which adds nothing wherever it falls in the
        order. The per-device moment pushes stay
        sequential — Welford's update is order-sensitive, and the batch
        pump and the scalar oracle must describe() identically.
        :func:`device_stats` is the same arithmetic for one binding; a
        test folds both ways and pins them equal.
        """
        self.devices += table.devices
        self.final_proxy_queued += final_proxy_queued
        self.final_device_queued += final_device_queued
        counters = self.counters
        stats_list = table.stats
        accepted = sum(table.accepted)
        sent = sum(table.forwarded)
        pulled = sum(table.pulled)
        filtered = sum(table.filtered)
        dead = sum(table.dead)
        expired = sum(table.expired)
        reads = sum(table.reads)
        outage_reads = sum(table.outage_reads)
        # While resident, a forward was pulled inside a READ or pushed
        # otherwise, and a read was a READ request unless the link was
        # down.
        counters["arrivals"] += accepted + filtered + dead
        counters["accepted"] += accepted
        counters["filtered"] += filtered
        counters["expired_at_proxy"] += dead + expired
        counters["expired_on_device"] += sum(table.expired_on_device)
        counters["pushed"] += sent - pulled
        counters["pulled"] += pulled
        counters["bytes_sent"] += sent * table.forward_bytes
        counters["reads"] += reads
        counters["read_requests"] += reads - outage_reads
        counters["reads_during_outage"] += outage_reads
        counters["empty_reads"] += sum(table.empty_reads)
        if table.plans is not None:
            for name in DELIVERY_FAULT_FIELDS:
                counters[name] += sum(getattr(table, name))
        # Column-at-a-time over the materialized bindings: itemgetter
        # over the instance dicts keeps the whole per-field reduction in
        # C (RunStats is a plain dataclass, so every summed field lives
        # in __dict__). A resident binding would contribute the 0 / 0.0
        # of an untouched RunStats, which no left-to-right sum notices;
        # the float start only keeps the float fields float.
        dicts = [stats.__dict__ for stats in stats_list if stats is not None]
        for name in _SUMMED_FIELDS:
            if name != "read_delay_sum":
                counters[name] += sum(
                    map(itemgetter(name), dicts),
                    0.0 if name in _FLOAT_FIELDS else 0,
                )
        counters["read_delay_sum"] += sum(
            [
                partial if stats is None else stats.read_delay_sum
                for stats, partial in zip(stats_list, table.read_delay_sum)
            ]
        )
        forwarded = 0
        messages_read = 0
        wasted = 0
        push_reads = self.device_reads.push
        push_waste = self.device_waste.push
        for stats, n_forwarded, n_read in zip(
            stats_list, table.forwarded, table.consumed
        ):
            if stats is None:
                # Held, expired on the device, in flight, or abandoned
                # on the ladder.
                n_wasted = n_forwarded - n_read
            else:
                n_forwarded = stats.forwarded
                n_read = stats.messages_read
                n_wasted = stats.wasted
            forwarded += n_forwarded
            messages_read += n_read
            wasted += n_wasted
            push_reads(float(n_read))
            push_waste(float(n_wasted))
        self.forwarded += forwarded
        self.messages_read += messages_read
        self.wasted += wasted

    def merge(self, other: "FleetAccumulator") -> None:
        self.devices += other.devices
        self.events_processed += other.events_processed
        self.forwarded += other.forwarded
        self.messages_read += other.messages_read
        self.wasted += other.wasted
        self.final_proxy_queued += other.final_proxy_queued
        self.final_device_queued += other.final_device_queued
        counters = self.counters
        for name, value in other.counters.items():
            counters[name] = counters.get(name, 0) + value
        self.read_delay_sketch.merge(other.read_delay_sketch)
        self.read_delay_moments.merge(other.read_delay_moments)
        self.device_reads.merge(other.device_reads)
        self.device_waste.merge(other.device_waste)

    # ------------------------------------------------------------------
    # Derived fleet-level metrics
    # ------------------------------------------------------------------
    @property
    def waste(self) -> float:
        """Fraction of forwarded notifications never read (paper §3.1)."""
        return self.wasted / self.forwarded if self.forwarded else 0.0

    @property
    def mean_read_age(self) -> float:
        if not self.messages_read:
            return 0.0
        return self.counters["read_delay_sum"] / self.messages_read

    def describe(self) -> str:
        """Multi-line human-readable fleet summary."""
        c = self.counters
        lines = [
            f"devices             {self.devices}",
            f"events processed    {self.events_processed}",
            f"arrivals            {int(c['arrivals'])}",
            f"accepted            {int(c['accepted'])}",
            f"forwarded           {self.forwarded} "
            f"(pushed {int(c['pushed'])}, pulled {int(c['pulled'])})",
            f"read                {self.messages_read} over {int(c['reads'])} reads "
            f"({int(c['empty_reads'])} empty, "
            f"{int(c['reads_during_outage'])} during outage)",
            f"wasted              {self.wasted} (waste {self.waste:.3f})",
            f"expired on device   {int(c['expired_on_device'])}",
            f"expired at proxy    {int(c['expired_at_proxy'])}",
            f"bytes sent          {int(c['bytes_sent'])}",
            f"mean read age       {self.mean_read_age:.0f} s "
            f"(p50 {self.read_delay_sketch.percentile(0.5):.0f} s, "
            f"p95 {self.read_delay_sketch.percentile(0.95):.0f} s, "
            f"p99 {self.read_delay_sketch.percentile(0.99):.0f} s)",
            f"reads per device    mean {self.device_reads.mean:.2f} "
            f"± {self.device_reads.std:.2f}",
        ]
        if (
            c["delivery_drops"]
            or c["delivery_retries"]
            or c["delivery_failures"]
            or c["duplicates_delivered"]
            or c["proxy_crashes"]
            or c["lost_in_crash"]
            or c["report_entries_corrupted"]
        ):
            lines += [
                f"delivery drops      {int(c['delivery_drops'])} "
                f"({int(c['delivery_retries'])} retries, "
                f"{int(c['delivery_failures'])} abandoned)",
                f"duplicates          {int(c['duplicates_delivered'])} delivered, "
                f"{int(c['duplicates_deduped'])} deduplicated",
                f"crashed bindings    {int(c['proxy_crashes'])} "
                f"({c['crash_downtime']:.0f} s down, "
                f"{int(c['lost_in_crash'])} arrivals lost)",
                # report_entries_corrupted gates this block, so it must
                # also be printed: a corruption-only faulty run would
                # otherwise emit an all-zero fault block with the actual
                # signal missing.
                f"corrupted reports   {int(c['report_entries_corrupted'])}",
            ]
        return "\n".join(lines)

    def signature(self) -> Dict[str, object]:
        """Deterministic summary used by the shard-invariance tests.

        Integer entries must be bit-identical across any ``(shards,
        jobs)``; the single float entry (``read_delay_sum``) carries the
        documented reassociation tolerance.
        """
        sketch_counts: List[int] = list(self.read_delay_sketch._counts)
        return {
            "devices": self.devices,
            "events_processed": self.events_processed,
            "forwarded": self.forwarded,
            "messages_read": self.messages_read,
            "wasted": self.wasted,
            "final_proxy_queued": self.final_proxy_queued,
            "final_device_queued": self.final_device_queued,
            "int_counters": {
                name: int(self.counters[name])
                for name in _SUMMED_FIELDS
                if name not in _FLOAT_FIELDS
            },
            "read_delay_sum": self.counters["read_delay_sum"],
            "sketch_counts": sketch_counts,
        }

    def metrics_row(self) -> Dict[str, object]:
        """:meth:`signature` plus the derived fleet-level metrics.

        This is the payload the sweep results store persists per cell
        (:mod:`repro.fleet.store`): every integer entry is bit-identical
        across any ``(shards, jobs)`` partitioning, and the float
        entries (``read_delay_sum`` plus everything derived from it and
        the sketch) carry only the documented reassociation tolerance —
        so re-running a cell reproduces its stored row.
        """
        row = self.signature()
        sketch = self.read_delay_sketch
        row["waste"] = self.waste
        row["mean_read_age"] = self.mean_read_age
        row["read_age_p50"] = sketch.percentile(0.5)
        row["read_age_p95"] = sketch.percentile(0.95)
        row["read_age_p99"] = sketch.percentile(0.99)
        return row
