"""Experiment CLI."""

import dataclasses
import json
import subprocess
import sys

import pytest

from repro.api import Scenario
from repro.cli import _FIGURES, _scenario_flags, build_parser, main


class TestParser:
    def test_all_figures_are_commands(self):
        parser = build_parser()
        for name in _FIGURES:
            args = parser.parse_args([name])
            assert args.command == name

    def test_seed_flags(self):
        args = build_parser().parse_args(
            ["fig7", "--trace-seed", "7", "--run-seed", "9"]
        )
        assert args.trace_seed == 7
        assert args.run_seed == 9

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])


class TestFailurePaths:
    """Exit codes of every way the CLI can be invoked wrongly.

    Usage errors must exit 2 (argparse convention), never 0 and never
    an unhandled traceback — the console script forwards ``main``'s
    return value / ``SystemExit`` straight to the shell.
    """

    def test_no_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fig99"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err

    def test_non_integer_seed_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fig7", "--trace-seed", "banana"])
        assert excinfo.value.code == 2
        assert "invalid int value" in capsys.readouterr().err

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fig7", "--not-a-flag"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_seed_flag_without_value_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fig7", "--trace-seed"])
        assert excinfo.value.code == 2
        assert "expected one argument" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        assert "Regenerate the evaluation figures" in (
            capsys.readouterr().out
        )

    def test_module_entry_point_propagates_usage_error(self):
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "fig99"],
            capture_output=True,
            text=True,
        )
        assert completed.returncode == 2
        assert "invalid choice" in completed.stderr

    def test_module_entry_point_list(self):
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "list"],
            capture_output=True,
            text=True,
        )
        assert completed.returncode == 0
        assert "fig7" in completed.stdout


class TestScenarioFlags:
    #: Flag destinations that set a Scenario field of another name
    #: (``--trace-seed`` and ``--jobs`` fold into a borg-synth spec).
    ALIASES = {
        "jobs": "trace",
        "trace_seed": "trace",
        "epc_mib": "epc_total_bytes",
        "priority_threshold": "preemption_priority_threshold",
        "cluster_workers": "standard_workers",
    }

    def test_every_flag_names_a_scenario_field(self):
        fields = {field.name for field in dataclasses.fields(Scenario)}
        dests = vars(_scenario_flags().parse_args([]))
        unmapped = [
            dest for dest in dests
            if dest != "json"  # output shape, not a scenario knob
            and self.ALIASES.get(dest, dest) not in fields
        ]
        assert unmapped == []


class TestScenarioCommands:
    """``repro run`` / ``repro sweep``: usage and execution paths.

    Execution tests shrink the trace with ``--jobs`` so each replay
    stays sub-second; usage errors must exit 2 like every other
    malformed invocation.
    """

    def test_run_unknown_scheduler_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--scheduler", "nope", "--jobs", "10"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unknown scheduler 'nope'" in err
        assert "binpack" in err  # the known names are listed

    def test_run_unknown_workload_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--workload", "nope", "--jobs", "10"])
        assert excinfo.value.code == 2
        assert "unknown workload 'nope'" in capsys.readouterr().err

    def test_run_bad_fraction_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--sgx-fraction", "1.5", "--jobs", "10"])
        assert excinfo.value.code == 2
        assert "sgx_fraction" in capsys.readouterr().err

    def test_run_non_numeric_fraction_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--sgx-fraction", "banana"])
        assert excinfo.value.code == 2
        assert "invalid float value" in capsys.readouterr().err

    def test_sweep_requires_grid(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--jobs", "10"])
        assert excinfo.value.code == 2
        assert "--grid" in capsys.readouterr().err

    def test_sweep_malformed_grid_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--grid", "sgx_fraction", "--jobs", "10"])
        assert excinfo.value.code == 2
        assert "FIELD=V1,V2" in capsys.readouterr().err

    def test_sweep_unknown_grid_field_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--grid", "warp_factor=9", "--jobs", "10"])
        assert excinfo.value.code == 2
        assert "warp_factor" in capsys.readouterr().err

    def test_sweep_non_numeric_epc_mib_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--grid", "epc_mib=abc", "--jobs", "10"])
        assert excinfo.value.code == 2
        assert "epc_mib" in capsys.readouterr().err

    def test_sweep_structurally_bad_grid_value_exits_2(self, capsys):
        # node_failures=5 passes _coerce but the Scenario field wants
        # (time, node) pairs; the TypeError must surface as exit 2.
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--grid", "node_failures=5", "--jobs", "10"])
        assert excinfo.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_sweep_fractional_worker_count_exits_2(self, capsys):
        # A float reaching an integer knob must die at construction,
        # not as a TypeError from range() mid-replay.
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "sweep", "--jobs", "12",
                    "--grid", "standard_workers=2.5",
                ]
            )
        assert excinfo.value.code == 2
        assert "standard_workers" in capsys.readouterr().err

    def test_sweep_duplicate_grid_axis_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "sweep",
                    "--grid",
                    "sgx_fraction=0",
                    "--grid",
                    "sgx_fraction=0.5",
                    "--jobs",
                    "10",
                ]
            )
        assert excinfo.value.code == 2
        assert "given twice" in capsys.readouterr().err

    def test_sweep_bad_workers_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "sweep",
                    "--grid",
                    "sgx_fraction=0",
                    "--workers",
                    "0",
                    "--jobs",
                    "10",
                ]
            )
        assert excinfo.value.code == 2
        assert "workers" in capsys.readouterr().err

    def test_run_prints_table(self, capsys):
        assert main(["run", "--jobs", "12", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "makespan_s" in out
        assert "binpack/stress" in out

    def test_run_json_document(self, capsys):
        assert (
            main(
                [
                    "run",
                    "--jobs",
                    "12",
                    "--sgx-fraction",
                    "0.5",
                    "--json",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.run/1"
        assert payload["sgx_fraction"] == 0.5
        assert payload["completed"] == 12

    def test_sweep_runs_grid_in_order(self, capsys):
        assert (
            main(
                [
                    "sweep",
                    "--jobs",
                    "12",
                    "--grid",
                    "sgx_fraction=0,1",
                    "--json",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.sweep/1"
        assert [r["sgx_fraction"] for r in payload["results"]] == [0, 1]

    def test_sweep_parallel_matches_serial(self, capsys):
        argv = [
            "sweep",
            "--jobs",
            "12",
            "--grid",
            "scheduler=binpack,spread",
            "--json",
        ]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--workers", "2"]) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel

    def test_cluster_workers_agree_between_run_and_sweep(self, capsys):
        # A sweep over a single point with the run's --cluster-workers
        # must reproduce the run exactly (the sweep's pool --workers
        # never changes the simulated cluster).
        assert (
            main(
                [
                    "run",
                    "--jobs",
                    "12",
                    "--sgx-fraction",
                    "0.5",
                    "--cluster-workers",
                    "3",
                    "--json",
                ]
            )
            == 0
        )
        run_row = json.loads(capsys.readouterr().out)
        assert (
            main(
                [
                    "sweep",
                    "--jobs",
                    "12",
                    "--cluster-workers",
                    "3",
                    "--grid",
                    "sgx_fraction=0.5",
                    "--workers",
                    "2",
                    "--json",
                ]
            )
            == 0
        )
        sweep_row = json.loads(capsys.readouterr().out)["results"][0]
        assert sweep_row["makespan_s"] == run_row["makespan_s"]
        assert sweep_row["mean_wait_s"] == run_row["mean_wait_s"]

    @pytest.mark.parametrize(
        "command",
        [["run"], ["profile"], ["record", "--ledger", "unwritten.jsonl"]],
        ids=["run", "profile", "record"],
    )
    def test_workers_sizes_only_the_sweep_pool(self, command, capsys):
        # The cluster scale has one flag, --cluster-workers; --workers
        # exists only on sweep, where it sizes the process pool.
        with pytest.raises(SystemExit) as excinfo:
            main([*command, "--jobs", "12", "--workers", "2"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_sweep_epc_mib_alias(self, capsys):
        assert (
            main(
                [
                    "sweep",
                    "--jobs",
                    "12",
                    "--grid",
                    "epc_mib=128,256",
                    "--json",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert [r["epc_mib"] for r in payload["results"]] == [
            128.0,
            256.0,
        ]


class TestExecution:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in _FIGURES:
            assert name in out
        assert "run" in out and "sweep" in out

    def test_fig6_runs(self, capsys):
        assert main(["fig6"]) == 0
        out = capsys.readouterr().out
        assert "PSW" in out

    def test_fig3_runs(self, capsys):
        assert main(["fig3"]) == 0
        assert "CDF" in capsys.readouterr().out

    def test_fig5_respects_trace_seed(self, capsys):
        assert main(["fig5", "--trace-seed", "5"]) == 0
        first = capsys.readouterr().out
        assert main(["fig5", "--trace-seed", "5"]) == 0
        second = capsys.readouterr().out
        assert first == second


def _record(tmp_path, name, *extra):
    """Record a tiny run's ledger via the CLI; return the path."""
    path = str(tmp_path / (name + ".jsonl"))
    argv = ["record", "--jobs", "12", "--ledger", path, *extra]
    assert main(argv) == 0
    return path


class TestObservabilityCommands:
    """``repro record`` / ``diff`` / ``explain``: exit-code contract.

    0 on success (for ``diff``: identical decision streams), 1 when
    ``diff`` finds a divergence, 2 on usage errors — a missing ledger
    file, an unknown pod name, a malformed flag.
    """

    def test_help_lists_the_three_commands(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for name in ("record", "diff", "explain"):
            assert name in out

    def test_list_includes_observability_commands(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "record" in out and "diff" in out and "explain" in out

    def test_record_writes_ledger(self, tmp_path, capsys):
        path = _record(tmp_path, "run")
        out = capsys.readouterr().out
        assert f"ledger written to {path}" in out
        with open(path) as handle:
            header = json.loads(handle.readline())
        assert header["schema"] == "repro.ledger/v1"

    def test_record_json_reports_export_paths(self, tmp_path, capsys):
        ledger = str(tmp_path / "run.jsonl")
        trace = str(tmp_path / "run.trace.json")
        assert (
            main(
                [
                    "record",
                    "--jobs",
                    "12",
                    "--ledger",
                    ledger,
                    "--trace-out",
                    trace,
                    "--json",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["ledger"] == ledger
        assert payload["trace"] == trace
        assert payload["metrics"] is None

    def test_record_requires_ledger_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["record", "--jobs", "12"])
        assert excinfo.value.code == 2
        assert "--ledger" in capsys.readouterr().err

    def test_record_unwritable_ledger_exits_2(self, tmp_path, capsys):
        target = str(tmp_path / "no" / "such" / "dir" / "run.jsonl")
        with pytest.raises(SystemExit) as excinfo:
            main(["record", "--jobs", "12", "--ledger", target])
        assert excinfo.value.code == 2

    def test_diff_identical_exits_0(self, tmp_path, capsys):
        left = _record(tmp_path, "a")
        right = _record(tmp_path, "b")
        capsys.readouterr()
        assert main(["diff", left, right]) == 0
        assert "identical" in capsys.readouterr().out

    def test_diff_divergent_exits_1(self, tmp_path, capsys):
        # At sgx_fraction=0.5 the run seed redraws which pods are SGX,
        # so a seed pair diverges decision-for-decision.
        left = _record(tmp_path, "a", "--sgx-fraction", "0.5")
        right = _record(
            tmp_path, "b", "--sgx-fraction", "0.5", "--seed", "9"
        )
        capsys.readouterr()
        assert main(["diff", left, right]) == 1
        out = capsys.readouterr().out
        assert "first divergence" in out

    def test_diff_json_document(self, tmp_path, capsys):
        left = _record(tmp_path, "a", "--sgx-fraction", "0.5")
        right = _record(
            tmp_path, "b", "--sgx-fraction", "0.5", "--seed", "9"
        )
        capsys.readouterr()
        assert main(["diff", left, right, "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.ledger/v1"
        assert payload["identical"] is False
        assert payload["first_divergence"] is not None

    def test_diff_missing_ledger_exits_2(self, tmp_path, capsys):
        left = _record(tmp_path, "a")
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main(["diff", left, str(tmp_path / "absent.jsonl")])
        assert excinfo.value.code == 2
        assert "cannot read" in capsys.readouterr().err

    def test_diff_negative_context_exits_2(self, tmp_path, capsys):
        left = _record(tmp_path, "a")
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main(["diff", left, left, "--context", "-1"])
        assert excinfo.value.code == 2
        assert "--context" in capsys.readouterr().err

    def test_explain_known_pod_exits_0(self, tmp_path, capsys):
        path = _record(tmp_path, "run")
        with open(path) as handle:
            placement = next(
                json.loads(line)
                for line in handle
                if '"kind":"placement"' in line
            )
        capsys.readouterr()
        assert (
            main(["explain", "--ledger", path, "--pod", placement["pod"]])
            == 0
        )
        assert f"pod {placement['pod']}" in capsys.readouterr().out

    def test_explain_unknown_pod_exits_2(self, tmp_path, capsys):
        path = _record(tmp_path, "run")
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main(["explain", "--ledger", path, "--pod", "no-such-pod"])
        assert excinfo.value.code == 2
        assert "no event" in capsys.readouterr().err

    def test_explain_missing_ledger_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "explain",
                    "--ledger",
                    str(tmp_path / "absent.jsonl"),
                    "--pod",
                    "x",
                ]
            )
        assert excinfo.value.code == 2
        assert "cannot read" in capsys.readouterr().err

    def test_explain_requires_pod_flag(self, tmp_path, capsys):
        path = _record(tmp_path, "run")
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main(["explain", "--ledger", path])
        assert excinfo.value.code == 2
        assert "--pod" in capsys.readouterr().err
