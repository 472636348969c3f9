"""Vectorized fleet workload generation.

One pass of batched numpy draws produces the traces of every device in
the fleet at once, stored as device-major concatenated columns plus
per-device counts. The cost is O(total events) in a handful of vector
operations — no per-device generator loop — which is what makes 100k+
device fleets affordable (single-device :func:`~repro.workload.scenario.
build_trace` costs ~0.6 ms per device in generator overhead alone).

The distributions mirror the single-device generators in shape:

* arrivals — per-device homogeneous Poisson processes whose rates are
  the population mean scaled by lognormal mean-1 multipliers; ranks,
  expirations, and lifetimes drawn exactly like
  :mod:`repro.workload.arrivals`;
* reads — per-device Poisson read counts placed inside daily awake
  windows (paper §5: 16–17 h, jittered wake), with per-device wake-hour
  offsets and a per-device volume limit (Max) from the configured mix;
* outages — per-device alternating-renewal-style down periods with
  lognormal durations around a per-device downtime fraction;
* rank changes — per-arrival demotion/boost rolls with exponential
  detection delays, exactly like :mod:`repro.workload.ranks`.

Every device's slice is a valid, self-consistent
:class:`~repro.sim.trace.Trace` (:meth:`FleetWorkload.device_trace`),
so the fleet runner replays devices through the same stream-registration
code as the single-device runner. Sharding (:meth:`FleetWorkload.shard`)
slices the columns; generation happens once in the parent, so results
cannot depend on the shard count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.fleet.config import FleetScenarioConfig
from repro.sim.rng import RandomSource, derive_seed
from repro.sim.trace import (
    ArrivalColumns,
    NEVER_EXPIRES,
    OutageColumns,
    RankChangeColumns,
    ReadColumns,
    Trace,
    TraceColumns,
)
from repro.units import AWAKE_HOURS_MAX, AWAKE_HOURS_MIN, DAY, HOUR
from repro.workload.arrivals import _vector_lifetimes
from repro.workload.ranks import MAX_RANK

#: Per-device downtime fractions are clamped here so every device keeps
#: *some* connectivity (a fully dark device would never drain).
MAX_DEVICE_DOWNTIME: float = 0.95


def _lognormal_mean1(
    gen: "np.random.Generator", sigma: float, size: int
) -> np.ndarray:
    """Lognormal multipliers with arithmetic mean 1 (sigma 0 = all ones)."""
    if sigma <= 0.0:
        return np.ones(size)
    return gen.lognormal(-0.5 * sigma * sigma, sigma, size=size)


def _offsets(counts: np.ndarray) -> np.ndarray:
    return np.concatenate(([0], np.cumsum(counts))).astype(np.int64)


@dataclass
class FleetWorkload:
    """Device-major concatenated trace columns for a (slice of a) fleet.

    ``lo`` is the global index of the first device in this slice — shard
    slices keep global device numbering so topic names, per-device fault
    seeds, and event ids are identical under any partitioning.
    """

    config: FleetScenarioConfig
    lo: int
    devices: int
    arrivals: ArrivalColumns
    arrival_counts: np.ndarray
    reads: ReadColumns
    read_counts: np.ndarray
    outages: OutageColumns
    outage_counts: np.ndarray
    rank_changes: RankChangeColumns
    change_counts: np.ndarray
    #: Per-device volume limit (the subscription Max).
    limits: np.ndarray
    #: Per-device fault-plan seeds when they are not derived from
    #: ``config.seed`` (:meth:`from_traces`); see :meth:`fault_seed`.
    fault_seeds: Optional[List[int]] = None
    _offset_cache: Dict[str, np.ndarray] = field(default_factory=dict, repr=False)

    # ------------------------------------------------------------------
    def _stream_offsets(self, name: str, counts: np.ndarray) -> np.ndarray:
        cached = self._offset_cache.get(name)
        if cached is None:
            cached = _offsets(counts)
            self._offset_cache[name] = cached
        return cached

    @property
    def total_events(self) -> int:
        """Trace records across all four streams of this slice."""
        return int(
            self.arrival_counts.sum()
            + self.read_counts.sum()
            + self.outage_counts.sum()
            + self.change_counts.sum()
        )

    def fault_seed(self, index: int) -> int:
        """The seed local device ``index`` realizes its fault plan from.

        ``derive_seed(config.seed, "device-<d>")`` for global device
        ``d``, so :class:`~repro.faults.FaultPlan` realizations hash on
        the device identity — independent of shard layout and of every
        other device; a :meth:`from_traces` device keeps its trace's.
        """
        if self.fault_seeds is not None:
            return self.fault_seeds[index]
        return derive_seed(self.config.seed, f"device-{self.lo + index}")

    def device_trace(self, index: int) -> Trace:
        """The :class:`Trace` of one device (local ``index`` in the slice);
        its metadata carries the device's :meth:`fault_seed`."""
        if not 0 <= index < self.devices:
            raise ConfigurationError(
                f"device index {index} outside slice of {self.devices}"
            )
        one = self.shard(index, index + 1)
        cols = TraceColumns(
            arrivals=one.arrivals,
            reads=one.reads,
            outages=one.outages,
            rank_changes=one.rank_changes,
        )
        device = self.lo + index
        return Trace(
            duration=self.config.duration,
            columns=cols,
            metadata={
                "seed": self.fault_seed(index),
                "device": device,
                "max_per_read": int(self.limits[index]),
                "threshold": self.config.threshold,
            },
        )

    def shard(self, lo: int, hi: int) -> "FleetWorkload":
        """Slice devices ``[lo, hi)`` of this workload (zero-copy views)."""
        if not 0 <= lo < hi <= self.devices:
            raise ConfigurationError(
                f"shard [{lo}, {hi}) outside fleet of {self.devices} devices"
            )
        a = self._stream_offsets("arrivals", self.arrival_counts)
        r = self._stream_offsets("reads", self.read_counts)
        o = self._stream_offsets("outages", self.outage_counts)
        c = self._stream_offsets("changes", self.change_counts)
        return FleetWorkload(
            config=self.config,
            lo=self.lo + lo,
            devices=hi - lo,
            arrivals=ArrivalColumns(
                times=self.arrivals.times[a[lo] : a[hi]],
                event_ids=self.arrivals.event_ids[a[lo] : a[hi]],
                ranks=self.arrivals.ranks[a[lo] : a[hi]],
                expires_at=self.arrivals.expires_at[a[lo] : a[hi]],
            ),
            arrival_counts=self.arrival_counts[lo:hi],
            reads=ReadColumns(
                times=self.reads.times[r[lo] : r[hi]],
                counts=self.reads.counts[r[lo] : r[hi]],
            ),
            read_counts=self.read_counts[lo:hi],
            outages=OutageColumns(
                starts=self.outages.starts[o[lo] : o[hi]],
                ends=self.outages.ends[o[lo] : o[hi]],
            ),
            outage_counts=self.outage_counts[lo:hi],
            rank_changes=RankChangeColumns(
                times=self.rank_changes.times[c[lo] : c[hi]],
                event_ids=self.rank_changes.event_ids[c[lo] : c[hi]],
                new_ranks=self.rank_changes.new_ranks[c[lo] : c[hi]],
            ),
            change_counts=self.change_counts[lo:hi],
            limits=self.limits[lo:hi],
            fault_seeds=(
                None if self.fault_seeds is None else self.fault_seeds[lo:hi]
            ),
        )

    @classmethod
    def from_traces(
        cls, traces: Sequence[Trace], threshold: float = 0.0
    ) -> "FleetWorkload":
        """Stack single-device traces as the devices of one workload.

        Device ``d`` replays ``traces[d]`` the way the single-device
        runner replays it: every binding filters at ``threshold``, the
        run lasts the traces' common duration, and the fault plan draws
        on the seed the trace carries (``trace.metadata["seed"]``, 0 if
        none — :func:`~repro.experiments.runner.trace_seed`). Each
        trace's event ids stay as they are: the batch pump resolves a
        rank change within its own device, so ids need neither ascend
        nor differ across traces. The config carries only what a shard
        reads (device count, duration, threshold); the volume limit is
        the largest read count.
        """
        durations = {trace.duration for trace in traces}
        if len(durations) != 1:
            raise ConfigurationError(
                f"from_traces needs traces of one duration, got {sorted(durations)}"
            )
        (duration,) = durations
        per_trace = [trace.columns for trace in traces]
        streams = [
            type(kind[0])(
                *(
                    parts[0] if len(parts) == 1 else np.concatenate(parts)
                    for parts in zip(*kind)
                )
            )
            for kind in zip(*per_trace)
        ]
        counts = [
            np.array([stream[0].size for stream in kind], dtype=np.int64)
            for kind in zip(*per_trace)
        ]
        return cls(
            config=FleetScenarioConfig(
                devices=len(traces), duration=duration, threshold=threshold
            ),
            lo=0,
            devices=len(traces),
            arrivals=streams[0],
            arrival_counts=counts[0],
            reads=streams[1],
            read_counts=counts[1],
            outages=streams[2],
            outage_counts=counts[2],
            rank_changes=streams[3],
            change_counts=counts[3],
            limits=np.array(
                [int(cols.reads.counts.max(initial=0)) for cols in per_trace],
                dtype=np.int64,
            ),
            fault_seeds=[
                int(trace.metadata.get("seed", 0) or 0) for trace in traces
            ],
        )

    # ------------------------------------------------------------------
    # Shared-memory handoff (rides the PR-6 trace segment format)
    # ------------------------------------------------------------------
    def to_trace(self) -> Trace:
        """Pack this slice as one :class:`Trace` for the shm handoff.

        The concatenated columns are exactly the eleven arrays the
        :mod:`repro.sim.trace_shm` segment format carries; the
        per-device counts and limits ride in the JSON metadata header.
        The packed trace is *not* a valid single-device trace (streams
        are device-major, not globally time-sorted) and must only be
        unpacked with :meth:`from_trace`. A :meth:`from_traces` slice's
        per-trace fault seeds do not ride along: it runs in-process.
        """
        return Trace(
            duration=self.config.duration,
            columns=TraceColumns(
                arrivals=self.arrivals,
                reads=self.reads,
                outages=self.outages,
                rank_changes=self.rank_changes,
            ),
            metadata={
                "fleet_lo": self.lo,
                "fleet_devices": self.devices,
                "arrival_counts": self.arrival_counts.tolist(),
                "read_counts": self.read_counts.tolist(),
                "outage_counts": self.outage_counts.tolist(),
                "change_counts": self.change_counts.tolist(),
                "limits": self.limits.tolist(),
            },
        )

    @classmethod
    def from_trace(cls, config: FleetScenarioConfig, trace: Trace) -> "FleetWorkload":
        """Unpack a :meth:`to_trace` segment attached in a worker;
        inconsistent per-device counts raise :class:`ConfigurationError`.
        """
        meta = trace.metadata
        cols = trace.columns
        streams = (cols.arrivals, cols.reads, cols.outages, cols.rank_changes)
        try:
            devices = int(meta["fleet_devices"])
            counts = [
                np.asarray(meta[f"{kind}_counts"], dtype=np.int64)
                for kind in ("arrival", "read", "outage", "change")
            ]
            limits = np.asarray(meta["limits"], dtype=np.int64)
            lo = int(meta["fleet_lo"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"packed fleet shard metadata is malformed: {exc!r}"
            ) from None
        if any(array.shape != (devices,) for array in (*counts, limits)) or any(
            column.size != int(per_device.sum())
            for per_device, stream in zip(counts, streams)
            for column in stream
        ):
            raise ConfigurationError(
                f"packed fleet shard: per-device arrays must hold {devices} "
                f"entries whose sums match the column lengths"
            )
        return cls(
            config=config,
            lo=lo,
            devices=devices,
            arrivals=cols.arrivals,
            arrival_counts=counts[0],
            reads=cols.reads,
            read_counts=counts[1],
            outages=cols.outages,
            outage_counts=counts[2],
            rank_changes=cols.rank_changes,
            change_counts=counts[3],
            limits=limits,
        )


def shard_bounds(devices: int, shards: int) -> List[Tuple[int, int]]:
    """Contiguous device ranges for ``shards`` near-equal shards.

    Empty shards (more shards than devices) are dropped, so every
    returned range is non-empty; concatenated ranges cover ``[0,
    devices)`` exactly.
    """
    if shards < 1:
        raise ConfigurationError(f"shards must be at least 1, got {shards}")
    bounds = []
    for s in range(shards):
        lo = s * devices // shards
        hi = (s + 1) * devices // shards
        if hi > lo:
            bounds.append((lo, hi))
    return bounds


def build_fleet_workload(config: FleetScenarioConfig) -> FleetWorkload:
    """Generate every device's trace columns in one vectorized pass.

    Deterministic in ``config`` (all draws come from named substreams of
    ``config.seed``); generation never depends on how the result is
    later sharded.
    """
    config.validate()
    rng = RandomSource(config.seed)
    n = config.devices
    duration = config.duration

    # -- per-device knobs ----------------------------------------------
    rate_mult = _lognormal_mean1(
        rng.spawn_numpy("fleet:device-rates"), config.rate_sigma, n
    )
    read_mult = _lognormal_mean1(
        rng.spawn_numpy("fleet:read-rates"), config.read_rate_sigma, n
    )
    limit_mix = np.asarray(config.volume_limits, dtype=np.int64)
    limits = limit_mix[
        rng.spawn_numpy("fleet:volume-limits").integers(0, limit_mix.size, size=n)
    ]
    wake_offsets = rng.spawn_numpy("fleet:wake-offsets").uniform(
        -config.wake_hour_spread, config.wake_hour_spread, size=n
    )
    down_frac = np.clip(
        config.outages.downtime_fraction
        * _lognormal_mean1(
            rng.spawn_numpy("fleet:outage-severity"), config.downtime_sigma, n
        ),
        0.0,
        MAX_DEVICE_DOWNTIME,
    )

    # -- arrivals -------------------------------------------------------
    # A homogeneous Poisson process on [0, duration) is Poisson-many
    # events at sorted uniform positions; the per-device rates scale the
    # population mean by the device's multiplier.
    a_gen = rng.spawn_numpy("fleet:arrivals")
    arrival_counts = a_gen.poisson(
        config.arrivals.events_per_day / DAY * duration * rate_mult
    ).astype(np.int64)
    total = int(arrival_counts.sum())
    device_idx = np.repeat(np.arange(n), arrival_counts)
    times = a_gen.random(total) * duration
    # device_idx is already device-major; lexsort only orders times
    # within each device block.
    times = times[np.lexsort((times, device_idx))]
    ranks = config.arrivals.rank.draw_array(a_gen, total)
    expires_at = np.full(total, NEVER_EXPIRES)
    if config.arrivals.expiring_fraction > 0 and total:
        expiring = a_gen.random(total) < config.arrivals.expiring_fraction
        n_expiring = int(expiring.sum())
        if n_expiring:
            expires_at[expiring] = times[expiring] + _vector_lifetimes(
                config.arrivals, a_gen, n_expiring
            )
    # Ids assigned after the sort: globally unique, device-major, and
    # strictly increasing with time within every device.
    event_ids = np.arange(total, dtype=np.int64)
    arrivals = ArrivalColumns.build(times, event_ids, ranks, expires_at)

    # -- reads ----------------------------------------------------------
    # Poisson-many reads per device over the run, each placed inside a
    # uniformly chosen day's awake window (16–17 h starting at the
    # device's offset wake hour) — the same daily structure as the
    # single-device generator, with per-device rates and wake offsets.
    r_gen = rng.spawn_numpy("fleet:reads")
    n_days = int(math.ceil(duration / DAY))
    raw_counts = r_gen.poisson(
        config.reads.reads_per_day / DAY * duration * read_mult
    ).astype(np.int64)
    total_r = int(raw_counts.sum())
    ridx = np.repeat(np.arange(n), raw_counts)
    days = r_gen.integers(0, n_days, size=total_r)
    awake = (
        AWAKE_HOURS_MIN + r_gen.random(total_r) * (AWAKE_HOURS_MAX - AWAKE_HOURS_MIN)
    ) * HOUR
    read_times = (
        days * DAY
        + (config.reads.wake_hour + wake_offsets[ridx]) * HOUR
        + r_gen.random(total_r) * awake
    )
    keep = (read_times >= 0.0) & (read_times < duration)
    ridx, read_times = ridx[keep], read_times[keep]
    order = np.lexsort((read_times, ridx))
    ridx, read_times = ridx[order], read_times[order]
    read_counts = np.bincount(ridx, minlength=n).astype(np.int64)
    reads = ReadColumns.build(read_times, limits[ridx])

    # -- outages --------------------------------------------------------
    outages, outage_counts = _generate_outages(
        config, rng.spawn_numpy("fleet:outages"), down_frac
    )

    # -- rank changes ---------------------------------------------------
    rank_changes, change_counts = _generate_rank_changes(
        config, rng.spawn_numpy("fleet:rank-changes"),
        device_idx, times, event_ids, ranks,
    )

    return FleetWorkload(
        config=config,
        lo=0,
        devices=n,
        arrivals=arrivals,
        arrival_counts=arrival_counts,
        reads=reads,
        read_counts=read_counts,
        outages=outages,
        outage_counts=outage_counts,
        rank_changes=rank_changes,
        change_counts=change_counts,
        limits=limits,
    )


def _generate_outages(
    config: FleetScenarioConfig,
    gen: "np.random.Generator",
    down_frac: np.ndarray,
) -> Tuple[OutageColumns, np.ndarray]:
    """Per-device outage intervals, merged within each device.

    Poisson-many down periods per device with lognormal durations whose
    mean realizes the device's downtime fraction over the mean outage
    cycle. Intra-device overlap is merged with the standard sorted-
    interval sweep, run across all devices at once by lifting intervals
    into disjoint per-device bands (device * 2 * duration): grouping
    decisions happen in the lifted coordinates (bands never touch), the
    merged endpoints are taken from the originals, so no precision is
    lost to the lift.
    """
    n = config.devices
    duration = config.duration
    zero = np.zeros(n, dtype=np.int64)
    if config.outages.downtime_fraction <= 0.0:
        return OutageColumns.empty(), zero
    cycle = DAY / config.outages.outages_per_day
    counts = gen.poisson(np.full(n, duration / cycle)).astype(np.int64)
    total = int(counts.sum())
    if total == 0:
        return OutageColumns.empty(), zero
    oidx = np.repeat(np.arange(n), counts)
    starts = gen.random(total) * duration
    mean_down = down_frac[oidx] * cycle
    sigma = config.outages.duration_sigma
    if sigma > 0:
        # Lognormal parameterized by its arithmetic mean, matching the
        # single-device generator.
        mu = np.log(np.maximum(mean_down, 1e-300)) - 0.5 * sigma * sigma
        downs = gen.lognormal(mu, sigma)
    else:
        downs = mean_down
    ends = np.minimum(starts + downs, duration)
    positive = ends > starts
    oidx, starts, ends = oidx[positive], starts[positive], ends[positive]
    order = np.lexsort((starts, oidx))
    oidx, starts, ends = oidx[order], starts[order], ends[order]
    if starts.size == 0:
        return OutageColumns.empty(), zero
    # Lift into per-device bands so one accumulate covers the fleet.
    shift = oidx.astype(np.float64) * (2.0 * duration)
    running_end = np.maximum.accumulate(ends + shift)
    group_head = np.empty(starts.size, dtype=bool)
    group_head[0] = True
    group_head[1:] = (starts[1:] + shift[1:]) > running_end[:-1]
    heads = np.flatnonzero(group_head)
    merged_starts = starts[heads]
    merged_ends = np.maximum.reduceat(ends, heads)
    outage_counts = np.bincount(oidx[heads], minlength=n).astype(np.int64)
    return OutageColumns.build(merged_starts, merged_ends), outage_counts


def _generate_rank_changes(
    config: FleetScenarioConfig,
    gen: "np.random.Generator",
    device_idx: np.ndarray,
    times: np.ndarray,
    event_ids: np.ndarray,
    ranks: np.ndarray,
) -> Tuple[RankChangeColumns, np.ndarray]:
    """Demotions/boosts for the fleet's arrivals (shape of
    :mod:`repro.workload.ranks`, batched across devices)."""
    n = config.devices
    zero = np.zeros(n, dtype=np.int64)
    rc = config.rank_changes
    if not rc.enabled or times.size == 0:
        return RankChangeColumns.empty(), zero
    rolls = gen.random(times.size)
    dropped = rolls < rc.drop_fraction
    boosted = ~dropped & (rolls < rc.drop_fraction + rc.boost_fraction)
    changed = np.flatnonzero(dropped | boosted)
    if not changed.size:
        return RankChangeColumns.empty(), zero
    new_ranks = np.minimum(MAX_RANK, ranks[changed] + rc.boost_amount)
    drop_positions = dropped[changed]
    n_dropped = int(drop_positions.sum())
    if n_dropped:
        new_ranks[drop_positions] = gen.uniform(
            rc.drop_to_low, rc.drop_to_high, size=n_dropped
        )
    change_times = times[changed] + gen.exponential(
        rc.change_delay_mean, size=changed.size
    )
    observed = change_times < config.duration
    cidx = device_idx[changed][observed]
    change_times = change_times[observed]
    changed_ids = event_ids[changed][observed]
    new_ranks = new_ranks[observed]
    order = np.lexsort((change_times, cidx))
    change_counts = np.bincount(cidx, minlength=n).astype(np.int64)
    return (
        RankChangeColumns.build(
            change_times[order], changed_ids[order], new_ranks[order]
        ),
        change_counts,
    )
