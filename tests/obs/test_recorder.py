"""Unit tests for the bounded trace recorder and its JSONL export."""

import pytest

from repro.errors import ConfigurationError
from repro.obs.recorder import TraceRecorder, load_jsonl
from repro.obs.records import (
    ForwardRecord,
    QuietDeferRecord,
    RetractRecord,
    as_dict,
)


class TestRing:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            TraceRecorder(0)

    def test_keeps_most_recent_records(self):
        recorder = TraceRecorder(capacity=3)
        for i in range(5):
            recorder.forward(float(i), "t", i, "PUSHED", 0)
        assert recorder.recorded == 5
        assert recorder.dropped == 2
        assert len(recorder) == 3
        assert [r.event_id for r in recorder.records()] == [2, 3, 4]

    def test_last_k(self):
        recorder = TraceRecorder(capacity=8)
        for i in range(5):
            recorder.retract(float(i), "t", i)
        assert [r.event_id for r in recorder.last(2)] == [3, 4]
        assert len(recorder.last(100)) == 5
        assert recorder.last(0) == []

    def test_record_kinds(self):
        recorder = TraceRecorder()
        recorder.forward(1.0, "t", 1, "PUSHED", 2)
        recorder.retract(2.0, "t", 1)
        recorder.expire_at_proxy(3.0, "t", 2, "outgoing")
        recorder.rank_change(4.0, "t", 3, 1.0, 0.2, "dropped")
        recorder.read_exchange(5.0, "t", 4, 3, 2, 1)
        recorder.quiet_defer(6.0, "t", 9.5)
        recorder.budget_exhaust(7.0, "t", 5)
        kinds = [type(r).kind for r in recorder.records()]
        assert kinds == [
            "forward",
            "retract",
            "expire-at-proxy",
            "rank-change",
            "read-exchange",
            "quiet-defer",
            "budget-exhaust",
        ]

    def test_clear(self):
        recorder = TraceRecorder()
        recorder.forward(1.0, "t", 1, "PUSHED", 0)
        recorder.clear()
        assert len(recorder) == 0
        assert recorder.recorded == 0


class TestExport:
    def test_jsonl_roundtrip(self, tmp_path):
        recorder = TraceRecorder()
        recorder.forward(1.5, "sports", 7, "PREFETCHED", 3)
        recorder.quiet_defer(2.0, "sports", 4.25)
        out = tmp_path / "trace.jsonl"
        assert recorder.export_jsonl(out) == 2
        loaded = load_jsonl(out)
        assert loaded == [as_dict(r) for r in recorder.records()]
        assert loaded[0]["kind"] == "forward"
        assert loaded[0]["event_id"] == 7
        assert loaded[1] == {
            "kind": "quiet-defer",
            "time": 2.0,
            "topic": "sports",
            "until": 4.25,
        }

    def test_crash_and_recover_round_trip_with_topic(self, tmp_path):
        recorder = TraceRecorder()
        recorder.crash(3.0, "device/7")
        recorder.recover(8.0, "device/7", 5.0, 2)
        out = tmp_path / "trace.jsonl"
        assert recorder.export_jsonl(out) == 2
        assert load_jsonl(out) == [
            {"kind": "crash", "time": 3.0, "topic": "device/7"},
            {
                "kind": "recover",
                "time": 8.0,
                "topic": "device/7",
                "downtime": 5.0,
                "requeued": 2,
            },
        ]

    def test_export_respects_ring_bound(self, tmp_path):
        recorder = TraceRecorder(capacity=2)
        for i in range(4):
            recorder.forward(float(i), "t", i, "PUSHED", 0)
        out = tmp_path / "trace.jsonl"
        assert recorder.export_jsonl(out) == 2
        assert [entry["event_id"] for entry in load_jsonl(out)] == [2, 3]


class TestRecords:
    def test_as_dict_includes_kind_and_fields(self):
        record = ForwardRecord(1.0, "t", 4, "PUSHED", 9)
        assert as_dict(record) == {
            "kind": "forward",
            "time": 1.0,
            "topic": "t",
            "event_id": 4,
            "mode": "PUSHED",
            "queue_size": 9,
        }

    def test_records_are_immutable(self):
        record = RetractRecord(1.0, "t", 4)
        with pytest.raises(AttributeError):
            record.time = 2.0
        assert isinstance(record, RetractRecord)
        assert QuietDeferRecord.kind == "quiet-defer"


class TestErrorPaths:
    def test_export_to_missing_directory_raises_export_error(self, tmp_path):
        from repro.errors import ExportError

        recorder = TraceRecorder(capacity=4)
        recorder.forward(1.0, "t", 1, "pushed", 0)
        with pytest.raises(ExportError, match="cannot write trace export"):
            recorder.export_jsonl(tmp_path / "no" / "such" / "trace.jsonl")

    def test_truncated_jsonl_names_the_offending_line(self, tmp_path):
        recorder = TraceRecorder(capacity=4)
        recorder.forward(1.0, "t", 1, "pushed", 0)
        recorder.forward(2.0, "t", 2, "pushed", 1)
        path = tmp_path / "trace.jsonl"
        recorder.export_jsonl(path)
        text = path.read_text(encoding="utf-8")
        path.write_text(text[:-10], encoding="utf-8")  # chop the tail
        with pytest.raises(ConfigurationError, match=r":2:"):
            load_jsonl(path)

    def test_garbage_line_raises_configuration_error(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"kind": "forward"}\nnot json\n', encoding="utf-8")
        with pytest.raises(ConfigurationError, match="corrupt trace record"):
            load_jsonl(path)

    def test_non_utf8_file_raises_configuration_error(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_bytes(b"\xff\xfe{\x00}\x00\n")
        with pytest.raises(ConfigurationError, match="trace.jsonl"):
            load_jsonl(path)

    def test_blank_lines_are_tolerated(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"kind": "forward"}\n\n\n{"kind": "retract"}\n')
        assert len(load_jsonl(path)) == 2
