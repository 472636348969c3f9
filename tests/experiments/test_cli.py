"""Unit tests for the CLI entry point."""

import pytest

from repro.experiments import cli


class TestList:
    def test_list_enumerates_figures(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6",
                     "ablation-rate", "ablation-delay", "ablation-unified"):
            assert name in out


class TestRun:
    def test_run_figure_with_reduced_days(self, capsys):
        assert cli.main(["fig1", "--days", "3", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out
        assert "Max" in out

    def test_run_figure_with_seeds(self, capsys):
        assert cli.main(["fig2", "--days", "3", "--seeds", "0", "1", "--quiet"]) == 0
        assert "Figure 2" in capsys.readouterr().out

    def test_multi_table_figure_renders_both(self, capsys):
        assert cli.main(["fig3", "--days", "3", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "loss with buffer-based" in out
        assert "waste with buffer-based" in out

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            cli.main(["not-a-figure"])

    def test_negative_jobs_rejected_like_the_fleet_cli(self, capsys):
        # Was silently "one worker per CPU"; `fleet --jobs -3` has always
        # been this error. 0 keeps that meaning.
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["fig2", "--days", "2", "--quiet", "--jobs", "-3"])
        assert exit_info.value.code == 2
        assert "--jobs must be >= 0 (0 = one per CPU)" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["fleet", "--devices", "4", "--quiet", "--jobs", "-3"])
        assert exit_info.value.code == 2
        assert "--jobs must be >= 0 (0 = one per CPU)" in capsys.readouterr().err
        assert cli.main(["fig2", "--days", "1", "--quiet", "--jobs", "0"]) == 0

    def test_run_figure_helper_returns_text(self):
        text = cli.run_figure("fig1", days=2.0, quiet=True)
        assert "Figure 1" in text


class TestObservability:
    @pytest.fixture(autouse=True)
    def _reset_obs(self):
        from repro import obs

        yield
        obs.configure(None)

    def test_trace_out_writes_jsonl(self, tmp_path, capsys):
        from repro.obs import load_jsonl

        out = tmp_path / "trace.jsonl"
        assert cli.main(
            ["fig1", "--days", "2", "--quiet", "--trace-out", str(out)]
        ) == 0
        records = load_jsonl(out)
        assert records
        assert all("kind" in record for record in records)
        assert any(record["kind"] == "forward" for record in records)

    def test_trace_out_forces_single_job(self, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        assert cli.main(
            ["fig1", "--days", "2", "--quiet", "--jobs", "2",
             "--trace-out", str(out)]
        ) == 0
        assert "forcing --jobs 1" in capsys.readouterr().err
        assert out.exists()

    def test_audit_smoke_run_is_clean(self, capsys):
        assert cli.main(["fig1", "--days", "2", "--quiet", "--audit"]) == 0
        assert "Figure 1" in capsys.readouterr().out

    def test_obs_appends_summary_table(self, capsys):
        # fig3 routes through the paired runner, so all of the pipeline
        # phases (trace-build, baseline, variant) should be attributed.
        assert cli.main(["fig3", "--days", "2", "--quiet", "--obs"]) == 0
        out = capsys.readouterr().out
        assert "Observability summary" in out
        for phase in ("trace-build", "baseline", "variant"):
            assert phase in out

    def test_obs_forces_single_job(self, capsys):
        # Probes count inside pool workers and never reach the parent,
        # so --obs must run the grid in this process.
        assert cli.main(
            ["fig3", "--days", "2", "--quiet", "--obs", "--jobs", "2"]
        ) == 0
        captured = capsys.readouterr()
        assert "forcing --jobs 1" in captured.err
        runs = [
            line.split() for line in captured.out.splitlines()
            if line.split()[:1] == ["runs"]
        ]
        assert runs and int(runs[0][1]) > 0

    def test_jsonl_format(self, capsys):
        import json

        assert cli.main(
            ["fig1", "--days", "2", "--quiet", "--format", "jsonl"]
        ) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert lines
        for line in lines:
            assert "title" in json.loads(line)

    def test_bad_audit_interval_rejected(self):
        with pytest.raises(SystemExit):
            cli.main(["fig1", "--days", "2", "--audit", "0"])

    def test_trace_capacity_requires_trace_out(self):
        with pytest.raises(SystemExit):
            cli.main(["fig1", "--days", "2", "--trace-capacity", "64"])


class TestFaultsFlag:
    def test_faults_none_output_matches_omitted(self, capsys):
        assert cli.main(["fig1", "--days", "2", "--quiet"]) == 0
        plain = capsys.readouterr().out
        assert cli.main(["fig1", "--days", "2", "--quiet", "--faults", "none"]) == 0
        assert capsys.readouterr().out == plain

    def test_faults_preset_reaches_the_figure_config(self, capsys):
        from repro.faults import PRESETS

        assert cli.main(["fig3", "--days", "2", "--quiet", "--faults", "lossy"]) == 0
        lossy = cli.run_figure("fig3", days=2, quiet=True, faults=PRESETS["lossy"])
        assert capsys.readouterr().out == lossy + "\n"
        assert lossy != cli.run_figure("fig3", days=2, quiet=True)

    def test_faults_json_spec_accepted(self, capsys):
        from repro.faults import FaultSpec

        args = ["fig3", "--days", "2", "--quiet",
                "--faults", '{"loss_rate": 0.2}']
        assert cli.main(args) == 0
        expected = cli.run_figure(
            "fig3", days=2, quiet=True, faults=FaultSpec(loss_rate=0.2)
        )
        assert capsys.readouterr().out == expected + "\n"
        assert expected != cli.run_figure("fig3", days=2, quiet=True)

    def test_unknown_preset_rejected(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["fig1", "--faults", "definitely-not-a-preset"])
        assert exit_info.value.code == 2
        assert "--faults" in capsys.readouterr().err

    def test_invalid_json_value_rejected(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["fig1", "--faults", '{"loss_rate": 7.0}'])
        assert exit_info.value.code == 2

    def test_help_lists_presets(self, capsys):
        from repro.faults import PRESETS

        with pytest.raises(SystemExit):
            cli.main(["--help"])
        out = capsys.readouterr().out
        for name in PRESETS:
            assert name in out


class TestOutputErrors:
    def test_unwritable_output_is_exit_code_not_traceback(self, tmp_path, capsys):
        target = tmp_path / "missing" / "dir" / "out.txt"
        code = cli.main(["fig1", "--days", "2", "--quiet",
                         "--output", str(target)])
        assert code == 2
        assert "cannot write output" in capsys.readouterr().err

    def test_unwritable_trace_out_is_exit_code_not_traceback(self, tmp_path, capsys):
        target = tmp_path / "missing" / "dir" / "trace.jsonl"
        code = cli.main(["fig1", "--days", "2", "--quiet",
                         "--trace-out", str(target)])
        assert code == 2
        assert "cannot write trace export" in capsys.readouterr().err


class TestWorkloadInputErrors:
    @pytest.mark.parametrize("argv", [
        ["fleet", "--events-per-day", "nan"],
        ["fleet", "--events-per-day", "inf"],
        ["fleet", "--reads-per-day", "nan"],
        ["fleet", "--reads-per-day", "inf"],
        ["fleet", "--reads-per-day", "1e300"],
        ["fleet", "--days", "1e300"],
        ["fig1", "--days", "nan"],
        ["fig1", "--days", "inf"],
        ["fig1", "--days", "0"],
        ["fig1", "--days", "-1"],
        ["fig1", "--days", "1e300"],
    ], ids=" ".join)
    def test_bad_workload_input_is_exit_code_not_traceback(self, argv, capsys):
        try:
            code = cli.main(argv + ["--quiet"])
        except SystemExit as exit_info:
            code = exit_info.code
        assert code == 2
        assert "error:" in capsys.readouterr().err
