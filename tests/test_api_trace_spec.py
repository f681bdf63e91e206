"""Scenario/CLI ``trace=`` spec plumbing."""

import json

import pytest

from repro.api import Scenario
from repro.cli import main
from repro.errors import RegistryError
from repro.simulation import run_replay
from repro.trace import synthetic_scaled_trace


class TestEquivalence:
    def test_spec_string_and_trace_object_replay_identically(self):
        via_string = run_replay(
            Scenario(trace="borg-synth:seed=7,jobs=40", sgx_fraction=0.5)
        )
        via_trace = run_replay(
            Scenario(
                trace=synthetic_scaled_trace(
                    seed=7, n_jobs=40, overallocators=round(40 * 44 / 663)
                ),
                sgx_fraction=0.5,
            )
        )
        assert (
            via_string.metrics.makespan_seconds
            == via_trace.metrics.makespan_seconds
        )
        assert len(via_string.plans) == len(via_trace.plans) == 40


class TestSpecValidation:
    def test_unknown_adapter_fails_at_construction(self):
        with pytest.raises(RegistryError, match="warp-drive"):
            Scenario(trace="warp-drive:seed=1")

    def test_bad_grammar_fails_at_construction(self):
        from repro.errors import TraceError

        with pytest.raises(TraceError):
            Scenario(trace="Borg Synth!!")

    def test_bad_options_fail_at_build(self):
        scenario = Scenario(trace="borg-synth:warp=9")
        from repro.errors import TraceError

        with pytest.raises(TraceError, match="unknown option"):
            scenario.build_trace()

    def test_trace_object_passes_through(self, small_trace):
        assert Scenario(trace=small_trace).build_trace() is small_trace


class TestCli:
    def test_run_with_trace_spec(self, capsys):
        assert (
            main(
                [
                    "run",
                    "--trace",
                    "borg-synth:seed=3,jobs=50",
                    "--json",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["submitted"] == 50

    def test_shorthands_still_work_without_warning(
        self, capsys, recwarn
    ):
        assert main(["run", "--jobs", "30", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["submitted"] == 30
        assert not [
            w
            for w in recwarn
            if issubclass(w.category, DeprecationWarning)
        ]

    def test_trace_conflicts_with_shorthands(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["run", "--trace", "borg-synth", "--trace-seed", "7"]
            )
        assert excinfo.value.code == 2
        assert "--trace conflicts" in capsys.readouterr().err

    def test_missing_trace_file_exits_2(self, capsys):
        # File-backed specs resolve lazily inside run(); the CLI must
        # still turn the TraceError into a usage error, not a
        # traceback.
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--trace", "borg-csv:path=/nope.csv"])
        assert excinfo.value.code == 2
        assert "not found" in capsys.readouterr().err

    def test_unknown_adapter_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--trace", "warp-drive:seed=1"])
        assert excinfo.value.code == 2
        assert "warp-drive" in capsys.readouterr().err

    def test_traces_command_lists_catalogue(self, capsys):
        assert main(["traces"]) == 0
        lines = capsys.readouterr().out.splitlines()
        # One name row and one example row per adapter.
        assert [line.split()[0] for line in lines[::2]] == [
            "borg-csv",
            "borg-synth",
        ]
        assert lines[0].endswith("(needs path=...)")
        assert "needs path=" not in lines[2]

    def test_traces_json(self, capsys):
        assert main(["traces", "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        names = [entry["name"] for entry in entries]
        assert "borg-synth" in names
        assert all(
            set(entry) == {"name", "summary", "spec_example", "needs_path"}
            for entry in entries
        )
