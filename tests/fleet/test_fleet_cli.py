"""The ``repro-lasthop fleet`` subcommand."""

import json

import pytest

from repro.experiments import cli as main_cli
from repro.experiments import fleet_cli


@pytest.fixture(autouse=True)
def _reset_process_state():
    """The CLI configures process-wide obs; leave it clean."""
    yield
    from repro import obs

    obs.configure(None)


class TestFleetCli:
    def test_text_summary(self, capsys):
        rc = fleet_cli.main(["--devices", "20", "--quiet"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "devices             20" in out
        assert "forwarded" in out

    def test_json_summary(self, capsys):
        rc = fleet_cli.main(
            ["--devices", "10", "--shards", "2", "--format", "json", "--quiet"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["devices"] == 10
        assert payload["shards"] == 2
        assert payload["forwarded"] > 0
        assert "read_age_p95" in payload

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "fleet.txt"
        rc = fleet_cli.main(
            ["--devices", "5", "--quiet", "--output", str(target)]
        )
        assert rc == 0
        assert "devices             5" in target.read_text(encoding="utf-8")
        assert capsys.readouterr().out == ""

    def test_faults_flag(self, capsys):
        rc = fleet_cli.main(
            ["--devices", "30", "--faults", "lossy", "--format", "json", "--quiet"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counters"]["delivery_drops"] > 0

    def test_audited_run_passes(self):
        rc = fleet_cli.main(["--devices", "10", "--audit", "--quiet"])
        assert rc == 0

    def test_dispatch_from_main_cli(self, capsys):
        rc = main_cli.main(["fleet", "--devices", "4", "--quiet"])
        assert rc == 0
        assert "devices             4" in capsys.readouterr().out

    def test_shards_and_jobs_match_single(self, capsys):
        fleet_cli.main(["--devices", "16", "--quiet"])
        one = capsys.readouterr().out
        fleet_cli.main(
            ["--devices", "16", "--shards", "4", "--jobs", "2", "--quiet"]
        )
        four = capsys.readouterr().out
        assert one == four

    @pytest.mark.parametrize(
        "argv",
        [
            ["--devices", "0"],
            ["--days", "0"],
            ["--shards", "0"],
            ["--jobs", "-1"],
            ["--faults", "no-such-preset"],
            ["--audit", "0"],
            # A bare buffer has no limit to run with.
            ["--policy", "buffer"],
        ],
    )
    def test_rejects_bad_flags(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            fleet_cli.main(argv)
        assert excinfo.value.code == 2

    def test_json_reports_tail_percentiles(self, capsys):
        rc = fleet_cli.main(["--devices", "10", "--format", "json", "--quiet"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["read_age_p99"] >= payload["read_age_p95"]

    def test_unwritable_output_is_typed_error(self, tmp_path, capsys):
        # Regression: a bare write_text here used to leak a raw OSError
        # traceback after the (possibly long) campaign had completed.
        target = tmp_path / "no-such-dir" / "fleet.txt"
        rc = fleet_cli.main(
            ["--devices", "5", "--quiet", "--output", str(target)]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "error: cannot write output" in err
        assert "Traceback" not in err

    def test_unwritable_profile_is_typed_error_after_summary(
        self, tmp_path, capsys
    ):
        # Regression: cProfile.dump_stats on an unwritable FILE used to
        # die with a raw FileNotFoundError traceback after the campaign
        # had finished, and the summary was never printed.
        target = tmp_path / "no-such-dir" / "fleet.prof"
        rc = fleet_cli.main(
            ["--devices", "5", "--quiet", "--profile", str(target)]
        )
        assert rc == 2
        captured = capsys.readouterr()
        assert "devices             5" in captured.out
        assert "error: cannot write profile" in captured.err
        assert "Traceback" not in captured.err

    def test_workload_overrides_change_outcome(self, capsys):
        fleet_cli.main(["--devices", "12", "--format", "json", "--quiet"])
        base = json.loads(capsys.readouterr().out)
        fleet_cli.main(
            [
                "--devices", "12", "--events-per-day", "64",
                "--reads-per-day", "8", "--downtime", "0.2",
                "--format", "json", "--quiet",
            ]
        )
        busy = json.loads(capsys.readouterr().out)
        assert busy["counters"]["arrivals"] > base["counters"]["arrivals"]
        assert busy["counters"]["reads"] > base["counters"]["reads"]
