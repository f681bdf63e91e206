"""Exit-code and comparison semantics of the bench regression gate.

The sweeps themselves are exercised by their own smoke tests; these
tests cover the gate's plumbing — argument validation, baseline
lookup, the tolerance band — with synthetic reports, so no sweep runs.
"""

import json

import pytest

import check_regression


class TestArguments:
    def test_unknown_benchmark_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            check_regression.main(["--benchmarks", "nope"])
        assert excinfo.value.code == 2

    def test_tolerance_out_of_range_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            check_regression.main(["--tolerance", "1.5"])
        assert excinfo.value.code == 2

    def test_missing_baseline_returns_2(self, tmp_path, monkeypatch):
        monkeypatch.setattr(check_regression, "REPO_ROOT", tmp_path)
        assert check_regression.main(["--quick"]) == 2


def write_baseline(tmp_path, completed):
    (tmp_path / "BENCH_traces.json").write_text(
        json.dumps(
            {
                "benchmark": "traces",
                "results": [
                    {
                        "case": "synth-bursty",
                        "completed": completed,
                        "deterministic": True,
                    }
                ],
            }
        )
    )


def fresh_row(completed, deterministic=True):
    return {
        "results": [
            {
                "case": "synth-bursty",
                "completed": completed,
                "deterministic": deterministic,
            }
        ]
    }


class TestCompare:
    def test_within_tolerance_passes(self, tmp_path, monkeypatch):
        monkeypatch.setattr(check_regression, "REPO_ROOT", tmp_path)
        write_baseline(tmp_path, completed=10)
        failures = check_regression.compare(
            "traces", fresh_row(6), tolerance=0.5
        )
        assert failures == []

    def test_below_floor_fails(self, tmp_path, monkeypatch):
        monkeypatch.setattr(check_regression, "REPO_ROOT", tmp_path)
        write_baseline(tmp_path, completed=10)
        failures = check_regression.compare(
            "traces", fresh_row(4), tolerance=0.5
        )
        assert len(failures) == 1
        assert "completed 4.00" in failures[0]
        assert "floor 5.00" in failures[0]

    def test_broken_equivalence_always_fails(self, tmp_path, monkeypatch):
        monkeypatch.setattr(check_regression, "REPO_ROOT", tmp_path)
        write_baseline(tmp_path, completed=10)
        failures = check_regression.compare(
            "traces",
            fresh_row(100, deterministic=False),
            tolerance=0.5,
        )
        assert failures and "deterministic" in failures[0]

    def test_unknown_row_is_skipped_not_failed(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(check_regression, "REPO_ROOT", tmp_path)
        write_baseline(tmp_path, completed=10)
        fresh = fresh_row(6)
        fresh["results"][0]["case"] = "synth-unknown"
        failures = check_regression.compare(
            "traces", fresh, tolerance=0.5
        )
        assert failures == []


def write_sweep_baseline(tmp_path, completed, identical=True):
    """A baseline in the scenario layer's sweep-JSON shape."""
    (tmp_path / "BENCH_api_sweep.json").write_text(
        json.dumps(
            {
                "schema": "repro.sweep/1",
                "benchmark": "api_sweep",
                "workers": 4,
                "count": 1,
                "results": [
                    {
                        "scenario": "binpack/stress/sgx=0.5/seed=1",
                        "scheduler": "binpack",
                        "sgx_fraction": 0.5,
                        "completed": completed,
                        "parallel_identical": identical,
                    }
                ],
            }
        )
    )


def fresh_sweep_row(completed, identical=True):
    return {
        "schema": "repro.sweep/1",
        "count": 1,
        "results": [
            {
                "scheduler": "binpack",
                "sgx_fraction": 0.5,
                "completed": completed,
                "parallel_identical": identical,
            }
        ],
    }


class TestSweepJsonShape:
    """The gate reads the scenario layer's sweep JSON transparently."""

    def test_rows_from_either_shape(self):
        legacy = {"benchmark": "x", "results": [{"a": 1}]}
        sweep = {"schema": "repro.sweep/1", "results": [{"a": 1}]}
        assert check_regression.report_rows(legacy) == [{"a": 1}]
        assert check_regression.report_rows(sweep) == [{"a": 1}]

    def test_unsupported_shape_rejected(self):
        with pytest.raises(ValueError, match="schema"):
            check_regression.report_rows(
                {"schema": "something/9", "results": []}
            )
        with pytest.raises(ValueError, match="results"):
            check_regression.report_rows({"benchmark": "x"})

    def test_sweep_baseline_within_tolerance(self, tmp_path, monkeypatch):
        monkeypatch.setattr(check_regression, "REPO_ROOT", tmp_path)
        write_sweep_baseline(tmp_path, completed=100)
        failures = check_regression.compare(
            "api_sweep", fresh_sweep_row(100), tolerance=0.5
        )
        assert failures == []

    def test_sweep_regression_detected(self, tmp_path, monkeypatch):
        monkeypatch.setattr(check_regression, "REPO_ROOT", tmp_path)
        write_sweep_baseline(tmp_path, completed=100)
        failures = check_regression.compare(
            "api_sweep", fresh_sweep_row(10), tolerance=0.5
        )
        assert len(failures) == 1
        assert "completed" in failures[0]

    def test_broken_parallel_equivalence_fails(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(check_regression, "REPO_ROOT", tmp_path)
        write_sweep_baseline(tmp_path, completed=100)
        failures = check_regression.compare(
            "api_sweep",
            fresh_sweep_row(100, identical=False),
            tolerance=0.5,
        )
        assert failures and "parallel_identical" in failures[0]
