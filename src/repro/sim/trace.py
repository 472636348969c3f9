"""Immutable pre-generated event traces for paired scenario runs.

The paper computes *loss* by executing "two scenarios for each randomized
set of discrete events" — the on-line baseline and the policy under test
must see the exact same notification arrivals, user reads, and network
outages. A :class:`Trace` captures one such randomized set; the
experiment runner replays it into two independent simulators.

Storage is **columnar**: each record stream lives as a handful of
``float64``/``int64`` numpy arrays (:class:`TraceColumns`), which is what
the vectorized workload generators produce, what validation and the
replay loop consume, and what the zero-copy shared-memory handoff to
``--jobs`` workers ships. The classic record views
(:attr:`Trace.arrivals` et al.) are materialized lazily from the columns
and cached, so record-oriented callers — tests, analysis helpers, the
cooperation runner — keep working unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterator, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro._compat import DATACLASS_SLOTS
from repro.errors import ConfigurationError
from repro.types import EventId, NetworkStatus


@dataclass(frozen=True, **DATACLASS_SLOTS)
class ArrivalRecord:
    """One notification arriving at the proxy from the wired network."""

    time: float
    event_id: EventId
    rank: float
    #: Absolute expiration timestamp, or None if the notification never
    #: expires. (The paper's ``event.expires`` is a relative lifetime;
    #: we store the absolute deadline, which is what queues compare.)
    expires_at: Optional[float] = None

    @property
    def lifetime(self) -> Optional[float]:
        """Remaining lifetime at arrival (``expires_at - time``)."""
        if self.expires_at is None:
            return None
        return self.expires_at - self.time


@dataclass(frozen=True, **DATACLASS_SLOTS)
class ReadRecord:
    """One user-initiated read (the user checks messages)."""

    time: float
    #: Number of items the user wants to read — ``N`` in the paper's
    #: READ() routine; normally the subscription's Max.
    count: int


@dataclass(frozen=True, **DATACLASS_SLOTS)
class OutageRecord:
    """One contiguous interval during which the last-hop link is down."""

    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start

    def contains(self, time: float) -> bool:
        """Whether ``time`` falls inside the outage (half-open interval)."""
        return self.start <= time < self.end


@dataclass(frozen=True, **DATACLASS_SLOTS)
class RankChangeRecord:
    """A publisher-side rank update for a previously published event."""

    time: float
    event_id: EventId
    new_rank: float


# ----------------------------------------------------------------------
# Columnar storage
# ----------------------------------------------------------------------

#: Sentinel for "never expires" in the arrival expiration column. NaN
#: keeps the column a plain float64 array; record materialization maps
#: it back to None.
NEVER_EXPIRES = math.nan


def _as_f8(values) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(values, dtype=np.float64))


def _as_i8(values) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(values, dtype=np.int64))


class ArrivalColumns(NamedTuple):
    """Arrival stream as parallel arrays (``expires_at`` NaN = never)."""

    times: np.ndarray
    event_ids: np.ndarray
    ranks: np.ndarray
    expires_at: np.ndarray

    @classmethod
    def empty(cls) -> "ArrivalColumns":
        return cls(_as_f8([]), _as_i8([]), _as_f8([]), _as_f8([]))

    @classmethod
    def build(cls, times, event_ids, ranks, expires_at) -> "ArrivalColumns":
        return cls(_as_f8(times), _as_i8(event_ids), _as_f8(ranks), _as_f8(expires_at))

    @classmethod
    def from_records(cls, records: Sequence[ArrivalRecord]) -> "ArrivalColumns":
        return cls.build(
            [r.time for r in records],
            [int(r.event_id) for r in records],
            [r.rank for r in records],
            [NEVER_EXPIRES if r.expires_at is None else r.expires_at for r in records],
        )

    def to_records(self) -> Tuple[ArrivalRecord, ...]:
        return tuple(
            ArrivalRecord(
                time=t,
                event_id=EventId(i),
                rank=r,
                # NaN != NaN: the only NaN in the column is the sentinel.
                expires_at=None if e != e else e,
            )
            for t, i, r, e in zip(
                self.times.tolist(),
                self.event_ids.tolist(),
                self.ranks.tolist(),
                self.expires_at.tolist(),
            )
        )


class ReadColumns(NamedTuple):
    """Read stream as parallel arrays."""

    times: np.ndarray
    counts: np.ndarray

    @classmethod
    def empty(cls) -> "ReadColumns":
        return cls(_as_f8([]), _as_i8([]))

    @classmethod
    def build(cls, times, counts) -> "ReadColumns":
        return cls(_as_f8(times), _as_i8(counts))

    @classmethod
    def from_records(cls, records: Sequence[ReadRecord]) -> "ReadColumns":
        return cls.build([r.time for r in records], [r.count for r in records])

    def to_records(self) -> Tuple[ReadRecord, ...]:
        return tuple(
            ReadRecord(time=t, count=c)
            for t, c in zip(self.times.tolist(), self.counts.tolist())
        )


class OutageColumns(NamedTuple):
    """Outage intervals as parallel arrays."""

    starts: np.ndarray
    ends: np.ndarray

    @classmethod
    def empty(cls) -> "OutageColumns":
        return cls(_as_f8([]), _as_f8([]))

    @classmethod
    def build(cls, starts, ends) -> "OutageColumns":
        return cls(_as_f8(starts), _as_f8(ends))

    @classmethod
    def from_records(cls, records: Sequence[OutageRecord]) -> "OutageColumns":
        return cls.build([r.start for r in records], [r.end for r in records])

    def to_records(self) -> Tuple[OutageRecord, ...]:
        return tuple(
            OutageRecord(start=s, end=e)
            for s, e in zip(self.starts.tolist(), self.ends.tolist())
        )


class RankChangeColumns(NamedTuple):
    """Rank-change stream as parallel arrays."""

    times: np.ndarray
    event_ids: np.ndarray
    new_ranks: np.ndarray

    @classmethod
    def empty(cls) -> "RankChangeColumns":
        return cls(_as_f8([]), _as_i8([]), _as_f8([]))

    @classmethod
    def build(cls, times, event_ids, new_ranks) -> "RankChangeColumns":
        return cls(_as_f8(times), _as_i8(event_ids), _as_f8(new_ranks))

    @classmethod
    def from_records(cls, records: Sequence[RankChangeRecord]) -> "RankChangeColumns":
        return cls.build(
            [r.time for r in records],
            [int(r.event_id) for r in records],
            [r.new_rank for r in records],
        )

    def to_records(self) -> Tuple[RankChangeRecord, ...]:
        return tuple(
            RankChangeRecord(time=t, event_id=EventId(i), new_rank=r)
            for t, i, r in zip(
                self.times.tolist(), self.event_ids.tolist(), self.new_ranks.tolist()
            )
        )


class TraceColumns(NamedTuple):
    """All four record streams of one trace, as columnar arrays."""

    arrivals: ArrivalColumns
    reads: ReadColumns
    outages: OutageColumns
    rank_changes: RankChangeColumns

    @classmethod
    def empty(cls) -> "TraceColumns":
        return cls(
            ArrivalColumns.empty(),
            ReadColumns.empty(),
            OutageColumns.empty(),
            RankChangeColumns.empty(),
        )

    def equals(self, other: "TraceColumns") -> bool:
        """Exact column equality; NaN expiration sentinels compare equal."""
        return all(
            np.array_equal(mine, theirs, equal_nan=mine.dtype.kind == "f")
            for mine, theirs in zip(
                (*self.arrivals, *self.reads, *self.outages, *self.rank_changes),
                (*other.arrivals, *other.reads, *other.outages, *other.rank_changes),
            )
        )


def _first_index(mask: np.ndarray) -> int:
    """Index of the first True in a boolean mask (error reporting)."""
    return int(np.argmax(mask))


class Trace:
    """One randomized set of discrete events, replayable into a simulator.

    All record streams are sorted by time. ``duration`` is the total
    virtual length of the run; arrivals/reads/outages beyond it are
    rejected by :meth:`validate`.

    Construct either from record sequences (tests, hand-built traces)
    or from :class:`TraceColumns` (the generators, deserialization, the
    shared-memory handoff). Instances are immutable by convention: the
    columns and the cached record views must never be mutated —
    ``metadata`` is the one mutable field (build provenance).
    """

    __slots__ = (
        "duration",
        "metadata",
        "_columns",
        "_arrivals",
        "_reads",
        "_outages",
        "_rank_changes",
    )

    def __init__(
        self,
        duration: float,
        arrivals: Sequence[ArrivalRecord] = (),
        reads: Sequence[ReadRecord] = (),
        outages: Sequence[OutageRecord] = (),
        rank_changes: Sequence[RankChangeRecord] = (),
        metadata: Optional[Dict[str, object]] = None,
        columns: Optional[TraceColumns] = None,
    ) -> None:
        self.duration = duration
        self.metadata: Dict[str, object] = {} if metadata is None else metadata
        if columns is not None:
            if arrivals or reads or outages or rank_changes:
                raise ConfigurationError(
                    "pass either record sequences or columns to Trace, not both"
                )
            self._columns = columns
            self._arrivals: Optional[Tuple[ArrivalRecord, ...]] = None
            self._reads: Optional[Tuple[ReadRecord, ...]] = None
            self._outages: Optional[Tuple[OutageRecord, ...]] = None
            self._rank_changes: Optional[Tuple[RankChangeRecord, ...]] = None
        else:
            self._columns = None
            self._arrivals = tuple(arrivals)
            self._reads = tuple(reads)
            self._outages = tuple(outages)
            self._rank_changes = tuple(rank_changes)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def columns(self) -> TraceColumns:
        """Columnar view; built once from records when absent."""
        if self._columns is None:
            self._columns = TraceColumns(
                ArrivalColumns.from_records(self._arrivals or ()),
                ReadColumns.from_records(self._reads or ()),
                OutageColumns.from_records(self._outages or ()),
                RankChangeColumns.from_records(self._rank_changes or ()),
            )
        return self._columns

    @property
    def arrivals(self) -> Tuple[ArrivalRecord, ...]:
        if self._arrivals is None:
            self._arrivals = self.columns.arrivals.to_records()
        return self._arrivals

    @property
    def reads(self) -> Tuple[ReadRecord, ...]:
        if self._reads is None:
            self._reads = self.columns.reads.to_records()
        return self._reads

    @property
    def outages(self) -> Tuple[OutageRecord, ...]:
        if self._outages is None:
            self._outages = self.columns.outages.to_records()
        return self._outages

    @property
    def rank_changes(self) -> Tuple[RankChangeRecord, ...]:
        if self._rank_changes is None:
            self._rank_changes = self.columns.rank_changes.to_records()
        return self._rank_changes

    @property
    def num_arrivals(self) -> int:
        return len(self.columns.arrivals.times)

    @property
    def num_reads(self) -> int:
        return len(self.columns.reads.times)

    @property
    def num_outages(self) -> int:
        return len(self.columns.outages.starts)

    @property
    def num_rank_changes(self) -> int:
        return len(self.columns.rank_changes.times)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return (
            self.duration == other.duration
            and self.metadata == other.metadata
            and self.columns.equals(other.columns)
        )

    __hash__ = None  # type: ignore[assignment]  # mutable metadata

    # ------------------------------------------------------------------
    # Validation (vectorized)
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on any malformed content."""
        if not self.duration > 0:
            raise ConfigurationError(
                f"trace duration must be positive, got {self.duration}"
            )
        cols = self.columns
        arrivals, reads, outages, changes = cols

        self._check_sorted("arrivals", arrivals.times)
        self._check_sorted("reads", reads.times)
        self._check_sorted("outages", outages.starts)
        self._check_sorted("rank_changes", changes.times)

        if arrivals.event_ids.size:
            ids = arrivals.event_ids
            # Generators assign strictly increasing ids; only a trace
            # that fails that cheap check pays for the full unique scan.
            if ids.size > 1 and not (np.diff(ids) > 0).all():
                unique_ids, counts = np.unique(ids, return_counts=True)
                if unique_ids.size != ids.size:
                    dup_id = int(unique_ids[_first_index(counts > 1)])
                    raise ConfigurationError(f"duplicate event id {dup_id} in trace")
            # NaN-proof range check: written so NaN times fail it too.
            in_range = (arrivals.times >= 0.0) & (arrivals.times <= self.duration)
            if not in_range.all():
                bad = arrivals.times[_first_index(~in_range)]
                raise ConfigurationError(
                    f"arrival at t={bad} outside trace duration"
                )
            with np.errstate(invalid="ignore"):
                expired_early = arrivals.expires_at <= arrivals.times
            if expired_early.any():
                index = _first_index(expired_early)
                raise ConfigurationError(
                    f"event {int(arrivals.event_ids[index])} expires at "
                    f"{arrivals.expires_at[index]} before its arrival at "
                    f"{arrivals.times[index]}"
                )

        if reads.times.size:
            if (reads.counts < 0).any():
                bad_time = reads.times[_first_index(reads.counts < 0)]
                raise ConfigurationError(f"read at t={bad_time} has negative count")
            in_range = (reads.times >= 0.0) & (reads.times <= self.duration)
            if not in_range.all():
                bad = reads.times[_first_index(~in_range)]
                raise ConfigurationError(f"read at t={bad} outside trace duration")

        if outages.starts.size:
            empty = ~(outages.ends > outages.starts)
            if empty.any():
                index = _first_index(empty)
                raise ConfigurationError(
                    f"outage [{outages.starts[index]}, {outages.ends[index]}] "
                    f"has non-positive duration"
                )
            out_of_range = ~(
                (outages.starts >= 0.0) & (outages.ends <= self.duration)
            )
            if out_of_range.any():
                # Out-of-range outages would make downtime_fraction()
                # negative or exceed 1, and replay transitions outside
                # the run window.
                index = _first_index(out_of_range)
                raise ConfigurationError(
                    f"outage [{outages.starts[index]}, {outages.ends[index]}] "
                    f"lies outside [0, {self.duration}]"
                )
            if (outages.starts[1:] < outages.ends[:-1]).any():
                raise ConfigurationError(
                    "outages overlap; merge them during generation"
                )

        if changes.times.size:
            known = np.isin(changes.event_ids, arrivals.event_ids)
            if not known.all():
                index = _first_index(~known)
                raise ConfigurationError(
                    f"rank change at t={changes.times[index]} references "
                    f"unknown event {int(changes.event_ids[index])}"
                )
            # A change replayed before its event's publication would let
            # the proxy forward (and the user read) an unpublished event.
            order = np.argsort(arrivals.event_ids)
            arrived_at = arrivals.times[order][
                np.searchsorted(arrivals.event_ids[order], changes.event_ids)
            ]
            early = ~(changes.times >= arrived_at)  # NaN-proof
            if early.any():
                index = _first_index(early)
                raise ConfigurationError(
                    f"rank change at t={changes.times[index]} precedes the "
                    f"arrival of event {int(changes.event_ids[index])} at "
                    f"t={arrived_at[index]}"
                )

    @staticmethod
    def _check_sorted(label: str, times: np.ndarray) -> None:
        """Monotonicity check for one record stream's time column."""
        if times.size > 1 and (np.diff(times) < 0.0).any():
            raise ConfigurationError(f"trace {label} are not sorted by time")

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    def downtime_fraction(self) -> float:
        """Fraction of the run during which the link is down, in [0, 1].

        Outage edges are clamped to ``[0, duration]`` so a hand-built
        (unvalidated) trace with out-of-range outages cannot yield a
        negative or >1 fraction; :meth:`validate` rejects such traces.
        """
        if self.duration == 0:
            return 0.0
        outages = self.columns.outages
        if not outages.starts.size:
            return 0.0
        down = np.maximum(
            0.0,
            np.minimum(outages.ends, self.duration)
            - np.maximum(outages.starts, 0.0),
        ).sum()
        return float(down) / self.duration

    def network_transitions(self) -> Iterator[Tuple[float, NetworkStatus]]:
        """Yield (time, status) link transitions implied by the outages.

        The link starts UP at t=0 unless an outage starts there. Edges
        are clamped to the run window: an outage starting at or beyond
        ``duration`` contributes no transition (nothing of it can be
        observed within the run).
        """
        outages = self.columns.outages
        for start, end in zip(outages.starts.tolist(), outages.ends.tolist()):
            if start >= self.duration:
                continue
            yield start, NetworkStatus.DOWN
            if end < self.duration:
                yield end, NetworkStatus.UP

    def describe(self) -> str:
        """One-line human summary for logs and reports."""
        return (
            f"Trace({self.num_arrivals} arrivals, {self.num_reads} reads, "
            f"{self.num_outages} outages ({self.downtime_fraction():.0%} down), "
            f"{self.num_rank_changes} rank changes over "
            f"{self.duration / 86400:.0f} days)"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.describe()
