"""The A/B speed gate on synthetic ``bench/run.py`` reports."""

from __future__ import annotations

import json

import pytest

from ab_gate import BENCHMARK, judge, main

#: One workload with one metric in each direction.
GATE = {
    "workloads": [{"name": "w"}],
    "end_to_end": [
        {"name": "pods_per_s", "better": "higher", "bound": 0.2},
        {"name": "setup_s", "better": "lower", "bound": 0.25},
    ],
}


def report(workload="w", correct=True, failed=0, **values):
    """A ``bench/run.py --json`` report of one workload."""
    values = {"pods_per_s": 100.0, "setup_s": 1.0, **values}
    return [
        {
            "workload": workload,
            "correct": correct,
            "problems": [] if correct else ["runs disagree"],
            "attempted": 100,
            "failed": failed,
            "end_to_end": {
                name: {"value": value} for name, value in values.items()
            },
        }
    ]


def failures(base, change):
    return judge(GATE, base, change)[1]


@pytest.mark.parametrize(
    "change, failure",
    [
        ({"pods_per_s": 81.0}, None),
        ({"pods_per_s": 79.0}, "w pods_per_s: 100 -> 79 (-21.0%) is past"),
        ({"pods_per_s": 200.0}, None),
        ({"setup_s": 1.24}, None),
        ({"setup_s": 1.3}, "w setup_s: 1 -> 1.3 (+30.0%) is past"),
        ({"setup_s": 0.5}, None),
    ],
)
def test_a_metric_fails_past_its_bound_in_its_direction(change, failure):
    found = failures([report()], [report(**change)])
    assert len(found) == (failure is not None)
    assert all(line.startswith(failure) for line in found)


def test_each_side_is_judged_by_its_median():
    base = [report(), report(), report()]
    change = [report(pods_per_s=10.0), report(), report()]
    assert failures(base, change) == []
    change = [report(pods_per_s=10.0), report(pods_per_s=70.0), report()]
    assert len(failures(base, change)) == 1


def test_an_incorrect_run_fails_on_either_side():
    (failure,) = failures([report()], [report(correct=False)])
    assert "change run is incorrect (runs disagree)" in failure
    (failure,) = failures([report(correct=False)], [report()])
    assert "base run is incorrect" in failure


def test_a_larger_failed_share_fails():
    assert failures([report(failed=1)], [report(failed=1)]) == []
    (failure,) = failures([report(failed=1)], [report(failed=2)])
    assert "the change fails 2.00% of attempted pods" in failure


def test_a_missing_workload_fails():
    assert failures([report()], [report("other")]) == [
        "w pods_per_s: a side has no value",
        "w setup_s: a side has no value",
    ]


def test_the_command_judges_every_workload_and_metric(tmp_path, capsys):
    benchmark = json.loads(BENCHMARK.read_text())
    metrics = [metric["name"] for metric in benchmark["end_to_end"]]

    def write(name, value):
        path = tmp_path / name
        path.write_text(json.dumps([
            report(workload["name"], **dict.fromkeys(metrics, value))[0]
            for workload in benchmark["workloads"]
        ]))
        return str(path)

    base = write("base.json", 100.0)
    assert main(["--base", base, "--change", write("same.json", 100.0)]) == 0
    # A count line, a header, then one row per workload and metric.
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 2 + len(benchmark["workloads"]) * len(metrics)
    assert main(["--base", base, "--change", write("worse.json", 130.0)]) == 1
    assert "FAIL: " in capsys.readouterr().out
