"""Zero-copy fleet-shard handoff to worker processes via shared memory.

A fleet parent that has built a workload publishes each shard's columns
once into a :class:`multiprocessing.shared_memory.SharedMemory` segment
(packed as a :class:`~repro.sim.trace.Trace`); every ``--jobs`` worker
then *attaches* the columnar arrays as read-only numpy views over the
same physical pages instead of receiving a pickled private copy per
task. Figure grids do not use this: a worker builds a single-device
trace in about a millisecond.

Layout of one segment::

    [8-byte little-endian header length n]
    [n bytes of UTF-8 JSON header]
    [padding to the next 8-byte boundary]
    [column 0 bytes][column 1 bytes]...

The header carries ``duration``, ``metadata``, and the element count of
each column; the columns themselves follow in the fixed
:data:`COLUMN_SPEC` order, each 8 bytes per element, so offsets are
implied and every view is aligned.

The parent publishes through :class:`ShmTraceSet`, which returns each
segment's name; the name travels inside the shard task
(:mod:`repro.experiments.parallel`) and the worker in
:mod:`repro.fleet.runner` attaches it with :func:`read_trace`, which
raises :class:`~repro.errors.ConfigurationError` naming a missing or
malformed segment.
"""

from __future__ import annotations

import json
import secrets
import struct
import sys
from multiprocessing import shared_memory
from typing import Dict, List, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.sim.trace import (
    ArrivalColumns,
    OutageColumns,
    RankChangeColumns,
    ReadColumns,
    Trace,
    TraceColumns,
)

#: (stream, column, dtype) in serialization order. All dtypes are 8
#: bytes wide, so the data section stays aligned without padding.
COLUMN_SPEC: Tuple[Tuple[str, str, str], ...] = (
    ("arrivals", "times", "<f8"),
    ("arrivals", "event_ids", "<i8"),
    ("arrivals", "ranks", "<f8"),
    ("arrivals", "expires_at", "<f8"),
    ("reads", "times", "<f8"),
    ("reads", "counts", "<i8"),
    ("outages", "starts", "<f8"),
    ("outages", "ends", "<f8"),
    ("rank_changes", "times", "<f8"),
    ("rank_changes", "event_ids", "<i8"),
    ("rank_changes", "new_ranks", "<f8"),
)

_LEN_STRUCT = struct.Struct("<Q")


def _columns_in_order(cols: TraceColumns) -> List[np.ndarray]:
    return [getattr(getattr(cols, stream), column) for stream, column, _ in COLUMN_SPEC]


def _aligned(n: int) -> int:
    return (n + 7) & ~7


def write_trace(trace: Trace) -> shared_memory.SharedMemory:
    """Publish one trace into a fresh shared-memory segment."""
    arrays = [
        np.ascontiguousarray(array, dtype=np.dtype(dtype))
        for array, (_, _, dtype) in zip(_columns_in_order(trace.columns), COLUMN_SPEC)
    ]
    header = json.dumps(
        {
            "duration": trace.duration,
            "metadata": trace.metadata,
            "counts": [int(a.size) for a in arrays],
        }
    ).encode("utf-8")
    data_start = _aligned(_LEN_STRUCT.size + len(header))
    total = data_start + sum(a.nbytes for a in arrays)
    # Name the segment ourselves: auto-generated names are registered
    # with the resource tracker pre-3.13, which workers cannot opt out
    # of. The repro- prefix keeps stray segments identifiable in /dev/shm.
    shm = shared_memory.SharedMemory(
        name=f"repro-trace-{secrets.token_hex(8)}", create=True, size=max(total, 1)
    )
    shm.buf[: _LEN_STRUCT.size] = _LEN_STRUCT.pack(len(header))
    shm.buf[_LEN_STRUCT.size : _LEN_STRUCT.size + len(header)] = header
    offset = data_start
    for array in arrays:
        if array.nbytes:
            shm.buf[offset : offset + array.nbytes] = array.tobytes()
            offset += array.nbytes
    return shm


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    if sys.version_info >= (3, 13):
        return shared_memory.SharedMemory(name=name, track=False)
    shm = shared_memory.SharedMemory(name=name)
    # Pre-3.13 attaches register with the resource tracker. Under the
    # default fork start method that tracker is shared with the parent,
    # so the duplicate registration is a harmless set-add and must NOT
    # be unregistered (it would cancel the parent's own registration).
    # Under spawn each worker has its own tracker, which would unlink
    # the parent's live segment when the worker exits — there the
    # attachment must be deregistered.
    import multiprocessing

    if multiprocessing.get_start_method(allow_none=True) not in (None, "fork"):
        try:  # pragma: no cover - exercised only under spawned workers
            from multiprocessing import resource_tracker

            resource_tracker.unregister(shm._name, "shared_memory")  # type: ignore[attr-defined]
        except Exception:
            pass
    return shm


def _read_header(name: str, buf: memoryview) -> Tuple[dict, int]:
    """The segment's validated header and the offset of its first column.

    Every check runs before a view exists, so a malformed segment can be
    closed at once.
    """
    size = len(buf)
    if size < _LEN_STRUCT.size:
        raise ConfigurationError(
            f"shared trace {name}: {size}-byte segment has no header length"
        )
    (header_len,) = _LEN_STRUCT.unpack_from(buf, 0)
    if _LEN_STRUCT.size + header_len > size:
        raise ConfigurationError(
            f"shared trace {name}: header length {header_len} does not fit "
            f"the {size}-byte segment"
        )
    try:
        header = json.loads(bytes(buf[_LEN_STRUCT.size : _LEN_STRUCT.size + header_len]))
    except ValueError:  # JSONDecodeError and UnicodeDecodeError
        header = None
    if not (
        isinstance(header, dict)
        and isinstance(header.get("duration"), (int, float))
        and isinstance(header.get("metadata"), dict)
        and isinstance(header.get("counts"), list)
        and len(header["counts"]) == len(COLUMN_SPEC)
        and all(type(c) is int and c >= 0 for c in header["counts"])
    ):
        raise ConfigurationError(
            f"shared trace {name}: header is not a JSON object with a numeric "
            f"duration, a metadata object and {len(COLUMN_SPEC)} column counts"
        )
    offset = _aligned(_LEN_STRUCT.size + header_len)
    end = offset + 8 * sum(header["counts"])  # every COLUMN_SPEC dtype is 8 bytes
    if end > size:
        raise ConfigurationError(
            f"shared trace {name}: columns end at byte {end}, past the "
            f"{size}-byte segment"
        )
    return header, offset


def read_trace(name: str) -> Tuple[Trace, shared_memory.SharedMemory]:
    """Attach a published trace as read-only zero-copy column views.

    Returns the trace and the segment handle; the caller must keep the
    handle referenced for as long as the trace is in use (the arrays
    view its buffer directly). A missing or malformed segment raises
    :class:`~repro.errors.ConfigurationError` naming it.
    """
    try:
        shm = _attach_segment(name)
    except FileNotFoundError:
        raise ConfigurationError(f"shared trace {name} does not exist") from None
    try:
        header, offset = _read_header(name, shm.buf)
        views: Dict[str, Dict[str, np.ndarray]] = {}
        for (stream, column, dtype), count in zip(COLUMN_SPEC, header["counts"]):
            array = np.frombuffer(shm.buf, dtype=np.dtype(dtype), count=count, offset=offset)
            array.flags.writeable = False
            views.setdefault(stream, {})[column] = array
            offset += array.nbytes
        columns = TraceColumns(
            arrivals=ArrivalColumns(**views["arrivals"]),
            reads=ReadColumns(**views["reads"]),
            outages=OutageColumns(**views["outages"]),
            rank_changes=RankChangeColumns(**views["rank_changes"]),
        )
        trace = Trace(
            duration=float(header["duration"]),
            metadata=dict(header["metadata"]),
            columns=columns,
        )
    except Exception:
        shm.close()
        raise
    return trace, shm


class ShmTraceSet:
    """Parent-side handle on a family of published trace segments."""

    def __init__(self) -> None:
        self._segments: List[shared_memory.SharedMemory] = []
        self.mapping: Dict[str, str] = {}

    def publish(self, key: str, trace: Trace) -> str:
        """Publish ``trace`` under ``key``; returns the segment name."""
        existing = self.mapping.get(key)
        if existing is not None:
            return existing
        shm = write_trace(trace)
        self._segments.append(shm)
        self.mapping[key] = shm.name
        return shm.name

    def unlink(self) -> None:
        """Release every segment (call when all workers have exited)."""
        for shm in self._segments:
            try:
                shm.close()
            except (OSError, BufferError):  # pragma: no cover - views alive
                pass
            try:
                shm.unlink()
            except OSError:  # pragma: no cover - already gone
                pass
        self._segments.clear()
        self.mapping.clear()

    def __enter__(self) -> "ShmTraceSet":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.unlink()

    def __len__(self) -> int:
        return len(self.mapping)
