"""Tests for the zero-copy shared-memory trace handoff."""

import glob
import json
import secrets
import struct
from contextlib import contextmanager
from multiprocessing import shared_memory

import pytest

from repro.errors import ConfigurationError
from repro.sim import trace_shm
from repro.sim.rng import RandomSource
from repro.sim.trace import Trace
from repro.units import DAY
from repro.workload.scenario import ScenarioConfig, build_trace


@pytest.fixture
def trace():
    return build_trace(ScenarioConfig(duration=5 * DAY, seed=3))


def _shm_files():
    return set(glob.glob("/dev/shm/repro-trace-*"))


class TestRoundTrip:
    def test_read_equals_written(self, trace):
        shm = trace_shm.write_trace(trace)
        try:
            loaded, handle = trace_shm.read_trace(shm.name)
            assert loaded == trace
            assert loaded.metadata == trace.metadata
            assert loaded.duration == trace.duration
            del loaded
            handle.close()
        finally:
            shm.close()
            shm.unlink()

    def test_views_are_read_only_and_zero_copy(self, trace):
        shm = trace_shm.write_trace(trace)
        try:
            loaded, handle = trace_shm.read_trace(shm.name)
            arrivals = loaded.columns.arrivals
            with pytest.raises(ValueError):
                arrivals.times[0] = -1.0
            # Zero-copy: the arrays view the segment's buffer directly.
            assert all(
                not getattr(
                    getattr(loaded.columns, stream), column
                ).flags.owndata
                for stream, column, _ in trace_shm.COLUMN_SPEC
            )
            del loaded, arrivals
            handle.close()
        finally:
            shm.close()
            shm.unlink()

    def test_empty_trace_round_trips(self):
        empty = Trace(duration=1.0)
        shm = trace_shm.write_trace(empty)
        try:
            loaded, handle = trace_shm.read_trace(shm.name)
            assert loaded == empty
            del loaded
            handle.close()
        finally:
            shm.close()
            shm.unlink()


class TestShmTraceSet:
    def test_publish_dedups_by_key(self, trace):
        with trace_shm.ShmTraceSet() as published:
            first = published.publish("key-a", trace)
            again = published.publish("key-a", trace)
            other = published.publish("key-b", trace)
            assert first == again
            assert other != first
            assert len(published) == 2

    def test_unlink_releases_segments(self, trace):
        before = _shm_files()
        published = trace_shm.ShmTraceSet()
        published.publish("key", trace)
        assert len(_shm_files()) == len(before) + 1
        published.unlink()
        assert _shm_files() == before
        assert len(published) == 0

    def test_context_manager_unlinks_on_error(self, trace):
        before = _shm_files()
        with pytest.raises(RuntimeError):
            with trace_shm.ShmTraceSet() as published:
                published.publish("key", trace)
                raise RuntimeError("boom")
        assert _shm_files() == before


@contextmanager
def _raw_segment(payload: bytes):
    """A segment holding exactly ``payload``, unlinked afterwards."""
    shm = shared_memory.SharedMemory(
        name=f"repro-trace-{secrets.token_hex(8)}", create=True, size=len(payload)
    )
    try:
        shm.buf[: len(payload)] = payload
        yield shm.name
    finally:
        shm.close()
        shm.unlink()


def _with_header(header: bytes) -> bytes:
    return struct.pack("<Q", len(header)) + header


_VALID_HEADER = {"duration": 1.0, "metadata": {}, "counts": [0] * 11}


class TestMalformedSegments:
    """Every bad segment is a ConfigurationError naming it."""

    @pytest.mark.parametrize(
        "payload",
        [struct.pack("<Q", 1_000) + b"{}", b"\x01\x00\x00"],
        ids=["past-end", "shorter-than-length-field"],
    )
    def test_header_length_past_segment(self, payload):
        with _raw_segment(payload) as name:
            with pytest.raises(ConfigurationError, match=f"{name}: .*header length"):
                trace_shm.read_trace(name)

    @pytest.mark.parametrize(
        "header",
        [
            b"\x80\x81\x82\x83",
            b"not json",
            b"[1, 2]",
            json.dumps({"duration": 1.0, "metadata": {}}).encode(),
            json.dumps({**_VALID_HEADER, "counts": [0] * 10}).encode(),
            json.dumps({**_VALID_HEADER, "counts": [-1] + [0] * 10}).encode(),
            json.dumps({**_VALID_HEADER, "metadata": []}).encode(),
        ],
        ids=[
            "non-utf8", "not-json", "not-object", "no-counts",
            "column-count", "negative-count", "metadata-not-object",
        ],
    )
    def test_header_not_a_trace_header(self, header):
        with _raw_segment(_with_header(header)) as name:
            with pytest.raises(ConfigurationError, match=f"{name}.*header is not"):
                trace_shm.read_trace(name)

    def test_column_past_segment(self):
        header = json.dumps({**_VALID_HEADER, "counts": [4] + [0] * 10}).encode()
        payload = _with_header(header)
        # Padding plus room for three of the four promised arrival times.
        payload += b"\x00" * (-len(payload) % 8 + 3 * 8)
        with _raw_segment(payload) as name:
            with pytest.raises(ConfigurationError, match=f"{name}.*past the"):
                trace_shm.read_trace(name)

    def test_missing_segment(self):
        name = f"repro-trace-{secrets.token_hex(8)}"
        with pytest.raises(ConfigurationError, match=f"{name} does not exist"):
            trace_shm.read_trace(name)
