"""Smoke tests for bench/run.py at --quick sizes.

Run with ``python -m pytest bench/test_bench.py``.  They check the
command's contract (every BENCHMARK.json metric printed with its unit
for every workload), that a lost pod fails the run, and that a traced
run restores every method it wraps.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN = BENCH_DIR / "run.py"


def load_run_module():
    spec = importlib.util.spec_from_file_location("bench_run", RUN)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def run_command(*args, env=None):
    return subprocess.run(
        [sys.executable, str(RUN), "--quick", "--repeats", "1", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=120, env=env,
        check=False,
    )


def test_every_metric_is_printed_with_its_unit_for_every_workload():
    bench = load_run_module()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = declared["end_to_end"] + declared["per_layer"]
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == (
        bench.END_TO_END
    )
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == (
        bench.PER_LAYER
    )
    assert [w["name"] for w in declared["workloads"]] == list(
        bench.WORKLOADS
    )

    done = run_command("--trace", "1")
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    sections = "\n".join(lines[:-1]).split("== ")[1:]
    assert [s.split()[0] for s in sections] == list(bench.WORKLOADS)
    for section in sections:
        printed = {
            tuple(line.split()[:2]) for line in section.splitlines()
        }
        for metric in metrics:
            assert (metric["name"], metric["unit"]) in printed, (
                section.split()[0], metric["name"],
            )
    summary = json.loads(lines[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True
    assert summary["failed"] == 0 < summary["attempted"]
    assert len(summary["metrics"]) == len(bench.WORKLOADS) * len(
        bench.PER_LAYER
    )


def test_a_dropped_pod_fails_the_run(tmp_path):
    # sitecustomize runs at interpreter start-up, in the parent and in
    # every child, so each replay's result loses its last pod.
    (tmp_path / "sitecustomize.py").write_text(
        "import sys\n"
        f"sys.path.insert(0, {str(ROOT / 'src')!r})\n"
        "from repro.api.scenario import Scenario\n"
        "_run = Scenario.run\n"
        "def run(self):\n"
        "    result = _run(self)\n"
        "    result.metrics.pods.pop()\n"
        "    return result\n"
        "Scenario.run = run\n"
    )
    env = {**os.environ, "PYTHONPATH": str(tmp_path)}
    done = run_command(
        "--workload", "borg-steady", "--trace", "0", env=env
    )
    assert done.returncode != 0
    summary = json.loads(done.stdout.splitlines()[-1])
    assert summary["correct"] is False
    assert summary["failed"] == summary["attempted"] > 0
    assert "CHECK FAILED" in done.stdout


def test_traced_run_restores_every_wrapped_attribute():
    bench = load_run_module()
    methods = bench.ALWAYS_WRAPPED + bench.TRACED_ONLY
    before = {(cls, name): cls.__dict__[name] for cls, name, _ in methods}
    child = bench.run_child(
        bench.WORKLOADS["borg-steady"], seed=1, traced=True, quick=True,
        input_path=None,
    )
    assert child["problems"] == []
    assert child["layer_metrics"]["scheduler.passes"] > 0
    after = {(cls, name): cls.__dict__[name] for cls, name, _ in methods}
    assert after == before
