"""Trace serialization.

Frozen traces are the unit of reproducibility in this library — a saved
trace replays bit-for-bit under any policy on any machine. The format is
plain JSON: self-describing, diffable, and safe to archive next to the
numbers it produced.

Format version 2 is **columnar**: each record stream is a struct of
parallel arrays mirroring :class:`repro.sim.trace.TraceColumns`, so
loading builds the numpy columns directly instead of materializing one
object per record. Version 2 also marks the regeneration of every
stream by the vectorized workload generators (and the re-framed
substream seed derivation), so version-1 documents are rejected rather
than silently replayed alongside incompatible new traces.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Union

from repro.errors import ConfigurationError, ExportError
from repro.sim.trace import (
    ArrivalColumns,
    OutageColumns,
    RankChangeColumns,
    ReadColumns,
    Trace,
    TraceColumns,
)

#: Format marker written into every file; bumped on breaking changes.
#: History: 1 = scalar row-oriented records; 2 = columnar streams,
#: vectorized generators, length-prefixed substream seed derivation.
FORMAT_VERSION = 2

#: Public alias used by docs and cache-invalidation notes.
TRACE_FORMAT_VERSION = FORMAT_VERSION


def _expires_to_json(expires_at) -> list:
    """NaN is not valid JSON; the never-expires sentinel becomes null."""
    return [None if e != e else e for e in expires_at.tolist()]


def trace_to_dict(trace: Trace) -> dict:
    """Represent a trace as JSON-serializable primitives (columnar)."""
    cols = trace.columns
    return {
        "format": FORMAT_VERSION,
        "duration": trace.duration,
        "metadata": dict(trace.metadata),
        "arrivals": {
            "time": cols.arrivals.times.tolist(),
            "event_id": cols.arrivals.event_ids.tolist(),
            "rank": cols.arrivals.ranks.tolist(),
            "expires_at": _expires_to_json(cols.arrivals.expires_at),
        },
        "reads": {
            "time": cols.reads.times.tolist(),
            "count": cols.reads.counts.tolist(),
        },
        "outages": {
            "start": cols.outages.starts.tolist(),
            "end": cols.outages.ends.tolist(),
        },
        "rank_changes": {
            "time": cols.rank_changes.times.tolist(),
            "event_id": cols.rank_changes.event_ids.tolist(),
            "new_rank": cols.rank_changes.new_ranks.tolist(),
        },
    }


def _column(stream: dict, key: str, expected_len: int = -1) -> list:
    values = stream[key]
    if not isinstance(values, list):
        raise KeyError(key)
    if expected_len >= 0 and len(values) != expected_len:
        raise ValueError(
            f"column {key!r} has {len(values)} entries, expected {expected_len}"
        )
    return values


def _int_column(stream: dict, key: str, expected_len: int) -> list:
    """An integer column; numpy would silently truncate 2.7 or ``true``."""
    values = _column(stream, key, expected_len)
    for value in values:
        if type(value) is not int and not (
            type(value) is float and value.is_integer()
        ):
            raise ValueError(f"column {key!r} holds {value!r}, not an integer")
    return values


def _number(name: str, value):
    """A JSON number; numpy would silently coerce ``"0.5"`` or ``true``."""
    if type(value) is not float and type(value) is not int:
        raise ValueError(f"{name} holds {value!r}, not a number")
    return value


def _float_column(stream: dict, key: str, expected_len: int = -1) -> list:
    """A float column: every entry an int or a float, bool excluded."""
    values = _column(stream, key, expected_len)
    for value in values:
        _number(f"column {key!r}", value)
    return values


def _rank_column(stream: dict, key: str, expected_len: int) -> list:
    """A rank column; NaN would compare false against every threshold."""
    values = _float_column(stream, key, expected_len)
    for value in values:
        if value != value:
            raise ValueError(f"column {key!r} holds NaN, not a rank")
    return values


def _expires_column(stream: dict, expected_len: int) -> list:
    """``expires_at`` as floats: null is the never-expires sentinel (NaN
    in the column), any other entry must be a finite time."""
    values = []
    for value in _column(stream, "expires_at", expected_len):
        if value is None:
            values.append(math.nan)
            continue
        value = float(_number("column 'expires_at'", value))
        if not math.isfinite(value):
            raise ValueError(
                f"column 'expires_at' holds {value!r}, not a finite time or null"
            )
        values.append(value)
    return values


def trace_from_dict(data: dict) -> Trace:
    """Rebuild a trace from :func:`trace_to_dict` output (validated)."""
    if not isinstance(data, dict):
        # Valid JSON that is not a trace document (a list, a string, …)
        # must be a typed error, not an AttributeError from .get below.
        raise ConfigurationError(
            f"trace document must be a JSON object, got {type(data).__name__}"
        )
    version = data.get("format")
    if version != FORMAT_VERSION:
        raise ConfigurationError(
            f"unsupported trace format {version!r} (expected {FORMAT_VERSION})"
        )
    try:
        arrivals = data["arrivals"]
        reads = data["reads"]
        outages = data["outages"]
        changes = data["rank_changes"]
        arrival_times = _float_column(arrivals, "time")
        read_times = _float_column(reads, "time")
        outage_starts = _float_column(outages, "start")
        change_times = _float_column(changes, "time")
        columns = TraceColumns(
            arrivals=ArrivalColumns.build(
                arrival_times,
                _int_column(arrivals, "event_id", len(arrival_times)),
                _rank_column(arrivals, "rank", len(arrival_times)),
                _expires_column(arrivals, len(arrival_times)),
            ),
            reads=ReadColumns.build(
                read_times, _int_column(reads, "count", len(read_times))
            ),
            outages=OutageColumns.build(
                outage_starts, _float_column(outages, "end", len(outage_starts))
            ),
            rank_changes=RankChangeColumns.build(
                change_times,
                _int_column(changes, "event_id", len(change_times)),
                _rank_column(changes, "new_rank", len(change_times)),
            ),
        )
        metadata = dict(data.get("metadata", {}))
        seed = metadata.get("seed")
        if seed is not None and type(seed) is not int:
            raise ValueError(f"metadata seed {seed!r} is not an integer")
        duration = float(_number("duration", data["duration"]))
        if not math.isfinite(duration):
            raise ValueError(f"duration {duration!r} is not finite")
        trace = Trace(duration=duration, metadata=metadata, columns=columns)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        # OverflowError: an integer column entry beyond int64.
        raise ConfigurationError(f"malformed trace data: {exc}") from exc
    trace.validate()
    return trace


def save_trace(trace: Trace, path: Union[str, Path]) -> None:
    """Write a trace to a JSON file; an unwritable ``path`` raises
    :class:`~repro.errors.ExportError`."""
    path = Path(path)
    try:
        path.write_text(json.dumps(trace_to_dict(trace)), encoding="utf-8")
    except OSError as exc:
        raise ExportError(f"cannot write trace to {path}: {exc}") from exc


def load_trace(path: Union[str, Path]) -> Trace:
    """Read a trace back from a JSON file; an unreadable or malformed
    file raises :class:`~repro.errors.ConfigurationError`."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigurationError(f"cannot read trace {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise ConfigurationError(f"{path} is not valid JSON: {exc}") from exc
    return trace_from_dict(data)
