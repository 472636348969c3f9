"""Unit tests for the repro-trace CLI."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.trace_cli import main, parse_policy
from repro.sim.trace_io import load_trace
from repro.types import PolicyKind


class TestParsePolicy:
    def test_named_policies(self):
        assert parse_policy("online").kind is PolicyKind.ONLINE
        assert parse_policy("on-demand").kind is PolicyKind.ON_DEMAND
        assert parse_policy("rate").kind is PolicyKind.RATE
        assert parse_policy("unified").kind is PolicyKind.UNIFIED

    def test_buffer_with_limit(self):
        policy = parse_policy("buffer:32")
        assert policy.kind is PolicyKind.BUFFER
        assert policy.prefetch_limit == 32

    def test_unified_with_threshold(self):
        assert parse_policy("unified:3600").expiration_threshold == 3600.0

    def test_errors(self):
        with pytest.raises(ConfigurationError):
            parse_policy("buffer")
        with pytest.raises(ConfigurationError):
            parse_policy("wat")


class TestCommands:
    def test_generate_info_run_cycle(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        assert main([
            "generate", str(path), "--days", "10", "--outage", "0.3",
            "--seed", "5",
        ]) == 0
        out = capsys.readouterr().out
        assert "wrote" in out

        trace = load_trace(path)
        assert trace.metadata["seed"] == 5
        assert trace.downtime_fraction() == pytest.approx(0.3, abs=0.1)

        assert main(["info", str(path)]) == 0
        out = capsys.readouterr().out
        assert "arrivals" in out
        assert "seed: 5" in out

        assert main(["run", str(path), "--policy", "buffer:16"]) == 0
        out = capsys.readouterr().out
        assert "buffer(limit=16)" in out
        assert "waste" in out

    def test_generate_with_expirations_and_drops(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        assert main([
            "generate", str(path), "--days", "10",
            "--expiration", "3600", "--drop-fraction", "0.2",
            "--threshold", "2.0",
        ]) == 0
        trace = load_trace(path)
        assert all(a.expires_at is not None for a in trace.arrivals)
        assert trace.rank_changes

    def test_bad_policy_reports_error(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        main(["generate", str(path), "--days", "3"])
        capsys.readouterr()
        assert main(["run", str(path), "--policy", "nope"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "{trace}", "--policy", "buffer:abc"],
            ["run", "{trace}", "--policy", "unified:abc"],
            ["info", "{tmp}/missing.json"],
            ["run", "{tmp}"],
            ["generate", "{tmp}/no/such/dir/x.json", "--days", "1"],
        ],
        ids=["buffer-abc", "unified-abc", "info-missing", "run-directory",
             "generate-unwritable"],
    )
    def test_bad_input_exits_2_with_error_line(self, tmp_path, capsys, argv):
        trace = tmp_path / "t.json"
        main(["generate", str(trace), "--days", "2"])
        capsys.readouterr()
        argv = [a.format(trace=trace, tmp=tmp_path) for a in argv]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_deterministic_regeneration(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["generate", str(a), "--days", "5", "--seed", "3"])
        main(["generate", str(b), "--days", "5", "--seed", "3"])
        assert load_trace(a).arrivals == load_trace(b).arrivals
