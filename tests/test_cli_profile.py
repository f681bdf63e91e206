"""The ``repro profile`` command and the profiling harness."""

import json

import pytest

from repro.cli import main
from repro.profiling import (
    PROFILE_SCHEMA,
    FrameStat,
    ProfileReport,
    profile_call,
    profile_scenario,
)

#: Small-but-real scenario flags shared by the smoke tests.
TINY = [
    "--jobs", "12", "--cluster-workers", "2", "--sample-interval", "0",
]


class TestUsageErrors:
    """Usage errors exit 2, matching every other subcommand."""

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["profile", "--not-a-flag"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_unknown_scheduler_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["profile", "--scheduler", "nope"])
        assert excinfo.value.code == 2

    def test_bad_top_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["profile", "--top", "0"] + TINY)
        assert excinfo.value.code == 2
        assert "--top" in capsys.readouterr().err

    def test_negative_sample_interval_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            # After TINY so the flag is not overridden by its
            # ``--sample-interval 0`` (argparse keeps the last value).
            main(["profile"] + TINY + ["--sample-interval", "-1"])
        assert excinfo.value.code == 2


class TestSmoke:
    def test_table_output(self, capsys):
        assert main(["profile"] + TINY) == 0
        out = capsys.readouterr().out
        # Scenario summary row, then the frame table.
        assert "makespan_s" in out
        assert "tottime" in out
        assert "profiled wall time" in out

    def test_top_bounds_frame_table(self, capsys):
        assert main(["profile", "--top", "3"] + TINY) == 0
        out = capsys.readouterr().out
        table_start = out.index("ncalls")
        frame_lines = [
            line
            for line in out[table_start:].splitlines()[1:]
            if line.strip()
        ]
        assert len(frame_lines) == 3

    def test_collapsed_out_writes_file(self, tmp_path, capsys):
        path = tmp_path / "stacks.collapsed"
        # Sampling enabled here (interval flag omitted): the run may be
        # too quick to catch a stack, so only the file's existence and
        # line *format* are asserted, not a minimum sample count.
        assert (
            main(
                ["profile", "--jobs", "12", "--cluster-workers", "2"]
                + ["--collapsed-out", str(path)]
            )
            == 0
        )
        assert path.exists()
        for line in path.read_text().splitlines():
            stack, _, count = line.rpartition(" ")
            assert stack, line
            assert count.isdigit(), line
        assert str(path) in capsys.readouterr().out

    def test_json_document_schema(self, capsys):
        assert main(["profile", "--json"] + TINY) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["schema"] == PROFILE_SCHEMA
        assert document["wall_seconds"] > 0
        assert document["total_calls"] > 0
        assert document["primitive_calls"] > 0
        assert document["frames"]
        for frame in document["frames"]:
            assert set(frame) == {
                "function", "file", "line", "ncalls",
                "primitive_calls", "tottime", "cumtime",
            }
        samples = document["samples"]
        assert samples["count"] == 0  # sampling disabled by TINY
        assert samples["stacks"] == []
        # The profiled run's summary row rides along for context.
        assert document["result"]["submitted"] == 12


class TestHarness:
    def test_profiling_does_not_perturb_the_run(self):
        from repro.api import Scenario

        scenario = Scenario(
            scheduler="binpack",
            workload="stress",
            trace="borg-synth:jobs=12",
            standard_workers=2,
            sgx_workers=2,
        )
        plain = scenario.run()
        profiled, report = profile_scenario(
            scenario, sample_interval=0
        )
        assert profiled.signature() == plain.signature()
        assert report.frames
        assert report.wall_seconds > 0

    def test_profile_call_returns_result(self):
        result, report = profile_call(
            lambda: sum(range(1000)), sample_interval=0
        )
        assert result == 499500
        assert report.total_calls > 0
        assert report.sample_count == 0
        assert report.collapsed == {}

    def test_frames_sorted_by_tottime(self):
        _, report = profile_call(
            lambda: [sorted(range(100)) for _ in range(50)],
            sample_interval=0,
        )
        times = [frame.tottime for frame in report.frames]
        assert times == sorted(times, reverse=True)

    def test_collapsed_lines_format_and_order(self, tmp_path):
        report = ProfileReport(
            wall_seconds=1.0,
            total_calls=1,
            primitive_calls=1,
            frames=(
                FrameStat("f", "m.py", 3, 4, 4, 0.5, 0.5),
            ),
            collapsed={"a;b;c": 5, "a;b": 9, "a;z": 5},
            sample_count=19,
            sample_interval=0.005,
        )
        lines = report.collapsed_lines()
        # Count-descending, then stack text for equal counts.
        assert lines == ["a;b 9", "a;b;c 5", "a;z 5"]
        path = tmp_path / "out.collapsed"
        assert report.write_collapsed(str(path)) == 3
        assert path.read_text().splitlines() == lines

    def test_top_table_renders_each_frame(self):
        report = ProfileReport(
            wall_seconds=1.0,
            total_calls=10,
            primitive_calls=8,
            frames=(
                FrameStat("hot", "/x/mod.py", 12, 10, 8, 0.75, 0.9),
            ),
            collapsed={},
            sample_count=0,
            sample_interval=0.0,
        )
        table = report.top_table()
        assert "mod.py:hot:12" in table
        assert "10/8" in table  # ncalls/primitive
