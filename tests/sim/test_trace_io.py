"""Unit tests for trace serialization."""

import json
import math

import pytest

from repro.errors import ConfigurationError
from repro.experiments.runner import run_paired
from repro.experiments.trace_cli import main
from repro.proxy.policies import PolicyConfig
from repro.sim.trace_io import load_trace, save_trace, trace_from_dict, trace_to_dict
from repro.units import DAY
from repro.workload.ranks import RankChangeConfig
from repro.workload.scenario import ScenarioConfig, build_trace

from tests.conftest import make_config


@pytest.fixture
def trace():
    import dataclasses

    config = dataclasses.replace(
        make_config(days=10.0, outage_fraction=0.3, expiring_fraction=0.5),
        rank_changes=RankChangeConfig(drop_fraction=0.1),
    )
    return build_trace(config, seed=5)


class TestRoundTrip:
    def test_dict_round_trip_preserves_everything(self, trace):
        rebuilt = trace_from_dict(trace_to_dict(trace))
        assert rebuilt.duration == trace.duration
        assert rebuilt.arrivals == trace.arrivals
        assert rebuilt.reads == trace.reads
        assert rebuilt.outages == trace.outages
        assert rebuilt.rank_changes == trace.rank_changes

    def test_file_round_trip(self, trace, tmp_path):
        path = tmp_path / "trace.json"
        save_trace(trace, path)
        assert load_trace(path).arrivals == trace.arrivals

    def test_dict_is_json_serializable(self, trace):
        json.dumps(trace_to_dict(trace))

    def test_replay_of_loaded_trace_matches(self, trace, tmp_path):
        path = tmp_path / "trace.json"
        save_trace(trace, path)
        original = run_paired(trace, PolicyConfig.unified())
        replayed = run_paired(load_trace(path), PolicyConfig.unified())
        assert original.policy.stats.read_ids == replayed.policy.stats.read_ids
        assert original.metrics.waste == replayed.metrics.waste
        assert original.metrics.loss == replayed.metrics.loss


class TestErrors:
    def test_unknown_format_rejected(self, trace):
        data = trace_to_dict(trace)
        data["format"] = 99
        with pytest.raises(ConfigurationError, match="format"):
            trace_from_dict(data)

    def test_missing_field_rejected(self, trace):
        data = trace_to_dict(trace)
        del data["arrivals"]
        with pytest.raises(ConfigurationError, match="malformed"):
            trace_from_dict(data)

    def test_invalid_content_rejected(self, trace):
        data = trace_to_dict(trace)
        data["arrivals"]["time"][0] = -5.0  # outside [0, duration]
        with pytest.raises(ConfigurationError):
            trace_from_dict(data)

    def test_mismatched_column_lengths_rejected(self, trace):
        data = trace_to_dict(trace)
        data["arrivals"]["rank"] = data["arrivals"]["rank"][:-1]
        with pytest.raises(ConfigurationError, match="malformed"):
            trace_from_dict(data)

    def test_non_json_file_rejected(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("not json at all {", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="JSON"):
            load_trace(path)

    def test_non_utf8_file_rejected(self, tmp_path):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe{\x00}\x00")  # a UTF-16 byte-order mark
        with pytest.raises(ConfigurationError, match="utf16.json"):
            load_trace(path)

    def test_json_list_payload_rejected(self, tmp_path):
        """Valid JSON that is not an object must be a typed error."""
        with pytest.raises(ConfigurationError, match="JSON object"):
            trace_from_dict([1, 2, 3])
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="JSON object"):
            load_trace(path)


def _add_change(data, time, event_id):
    changes = data["rank_changes"]
    changes["time"].insert(0, time)
    changes["event_id"].insert(0, event_id)
    changes["new_rank"].insert(0, 0.5)


def _last_arrival(data):
    return data["arrivals"]["time"][-1], data["arrivals"]["event_id"][-1]


@pytest.mark.parametrize(
    "mutate",
    [
        # A rank change replayed before its event's publication.
        lambda data: _add_change(data, 1.0, _last_arrival(data)[1]),
        lambda data: _add_change(data, -5.0, _last_arrival(data)[1]),
        # Non-integral numbers and booleans in integer columns.
        lambda data: data["reads"]["count"].__setitem__(0, 2.7),
        lambda data: data["reads"]["count"].__setitem__(0, True),
        lambda data: data["arrivals"]["event_id"].__setitem__(
            -1, _last_arrival(data)[1] + 0.9
        ),
        lambda data: _add_change(
            data, _last_arrival(data)[0] + 1.0, _last_arrival(data)[1] + 0.9
        ),
        lambda data: data["metadata"].update(seed="abc"),
        lambda data: data["metadata"].update(seed=True),
        # Entries a hand edit can write but no generator produces.
        lambda data: data["reads"]["count"].__setitem__(0, 2**63),
        lambda data: data["arrivals"]["event_id"].__setitem__(-1, 2**63),
        lambda data: data["arrivals"]["expires_at"].__setitem__(0, math.inf),
        lambda data: data["arrivals"]["rank"].__setitem__(0, math.nan),
        lambda data: (
            _add_change(
                data, _last_arrival(data)[0] + 1.0, _last_arrival(data)[1]
            ),
            data["rank_changes"]["new_rank"].__setitem__(0, math.nan),
        ),
        lambda data: data.update(duration=math.inf),
    ],
    ids=[
        "change-before-arrival",
        "change-at-negative-time",
        "fractional-read-count",
        "boolean-read-count",
        "fractional-arrival-id",
        "fractional-change-id",
        "string-seed",
        "boolean-seed",
        "read-count-above-int64",
        "arrival-id-above-int64",
        "infinite-expiry",
        "nan-rank",
        "nan-new-rank",
        "infinite-duration",
    ],
)
def test_malformed_loaded_trace_rejected(mutate, tmp_path, capsys):
    data = trace_to_dict(build_trace(ScenarioConfig(duration=2 * DAY), seed=1))
    mutate(data)
    with pytest.raises(ConfigurationError):
        trace_from_dict(data)
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


#: Every float column of the format, as (stream, key).
FLOAT_COLUMNS = [
    ("arrivals", "time"),
    ("arrivals", "rank"),
    ("arrivals", "expires_at"),
    ("reads", "time"),
    ("outages", "start"),
    ("outages", "end"),
    ("rank_changes", "time"),
    ("rank_changes", "new_rank"),
]


@pytest.mark.parametrize(
    "bad", ["5", "1e9", True], ids=["string", "exp-string", "bool"]
)
@pytest.mark.parametrize(
    "stream,key", FLOAT_COLUMNS, ids=[f"{s}.{k}" for s, k in FLOAT_COLUMNS]
)
def test_float_column_holds_only_numbers(trace, stream, key, bad):
    """A string or a bool in a float column is refused by name, not
    coerced (``"0.5"`` to 0.5, ``true`` to 1.0)."""
    data = trace_to_dict(trace)
    assert data[stream][key], (stream, key)
    data[stream][key][0] = bad
    with pytest.raises(ConfigurationError, match=f"column '{key}' holds"):
        trace_from_dict(data)


@pytest.mark.parametrize("bad", ["172800", True], ids=["string", "bool"])
def test_duration_is_a_number(trace, bad):
    data = trace_to_dict(trace)
    data["duration"] = bad
    with pytest.raises(ConfigurationError, match="duration holds"):
        trace_from_dict(data)
