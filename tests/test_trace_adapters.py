"""The trace-adapter registry: resolution, determinism, the two
built-ins."""

import pytest

from repro.api import Scenario
from repro.cli import main
from repro.constants import DEFAULT_TRACE_SEED
from repro.errors import RegistryError, TraceError
from repro.registry import TRACES, register_trace, trace_names
from repro.trace import (
    Trace,
    resolve_trace,
    synthetic_scaled_trace,
    trace_catalogue,
)
from repro.trace.loader import dump_borg_csv, iter_borg_csv

BUILTIN_ADAPTERS = ("borg-csv", "borg-synth")
PATHLESS = ("borg-synth",)
#: Adapters earlier versions registered; no workload replayed them.
REMOVED_ADAPTERS = (
    "alibaba2018",
    "azure-packing",
    "google2019",
    "synth-bursty",
    "synth-diurnal",
    "synth-heavytail",
    "synth-ramp",
)


class TestRegistry:
    def test_all_builtins_registered(self):
        assert set(BUILTIN_ADAPTERS) <= set(trace_names())

    def test_catalogue_covers_every_adapter(self):
        entries = trace_catalogue()
        assert [e.name for e in entries] == sorted(trace_names())
        for entry in entries:
            assert entry.summary, entry.name
            assert entry.spec_example.startswith(entry.name)

    def test_catalogue_needs_path_flags(self):
        by_name = {e.name: e for e in trace_catalogue()}
        for name in PATHLESS:
            assert by_name[name].needs_path is False
        assert by_name["borg-csv"].needs_path is True

    def test_unknown_adapter_lists_known(self):
        with pytest.raises(RegistryError) as excinfo:
            resolve_trace("warp-drive:seed=1")
        message = str(excinfo.value)
        assert "unknown trace adapter 'warp-drive'" in message
        for name in BUILTIN_ADAPTERS:
            assert name in message

    def test_plugin_registration_round_trip(self):
        @register_trace("test-tiny")
        def build_tiny(spec, seed):
            return synthetic_scaled_trace(
                seed=seed, n_jobs=3, overallocators=0
            )

        try:
            trace = resolve_trace("test-tiny:seed=5")
            assert len(trace) == 3
        finally:
            TRACES.unregister("test-tiny")
        assert "test-tiny" not in TRACES

    def test_duplicate_registration_rejected(self):
        with pytest.raises(RegistryError, match="already registered"):
            register_trace("borg-synth")(lambda spec, seed: None)

    def test_non_trace_return_rejected(self):
        @register_trace("test-bad-return")
        def build_bad(spec, seed):
            return [1, 2, 3]

        try:
            with pytest.raises(TraceError, match="expected Trace"):
                resolve_trace("test-bad-return")
        finally:
            TRACES.unregister("test-bad-return")


class TestDeterminism:
    @pytest.mark.parametrize("name", PATHLESS)
    def test_same_spec_same_trace(self, name):
        first = resolve_trace(f"{name}:seed=3,jobs=120")
        second = resolve_trace(f"{name}:seed=3,jobs=120")
        assert list(first) == list(second)
        assert len(first) == 120

    @pytest.mark.parametrize("name", PATHLESS)
    def test_seed_changes_trace(self, name):
        first = resolve_trace(f"{name}:seed=3,jobs=120")
        second = resolve_trace(f"{name}:seed=4,jobs=120")
        assert list(first) != list(second)

    @pytest.mark.parametrize("name", PATHLESS)
    def test_default_seed_is_default_trace_seed(self, name):
        bare = resolve_trace(f"{name}:jobs=60")
        pinned = resolve_trace(
            f"{name}:jobs=60,seed={DEFAULT_TRACE_SEED}"
        )
        assert list(bare) == list(pinned)

    @pytest.mark.parametrize("name", PATHLESS)
    def test_submit_times_valid(self, name):
        trace = resolve_trace(f"{name}:seed=3,jobs=120")
        times = [job.submit_time for job in trace]
        assert times == sorted(times)
        assert times[0] >= 0.0


class TestReplay:
    """Both built-in adapters replay deterministically to the end."""

    @staticmethod
    def spec(name, tmp_path):
        if name == "borg-csv":
            path = tmp_path / "trace.csv"
            dump_borg_csv(resolve_trace("borg-synth:seed=3,jobs=60"), path)
            return f"borg-csv:path={path}"
        return f"{name}:seed=3,jobs=60"

    @staticmethod
    def replay(spec):
        return Scenario(
            trace=spec,
            sgx_fraction=0.5,
            seed=1,
            standard_workers=4,
            sgx_workers=4,
        ).run()

    @pytest.mark.parametrize("name", BUILTIN_ADAPTERS)
    def test_replays_twice_identically_and_completes(self, name, tmp_path):
        spec = self.spec(name, tmp_path)
        first = self.replay(spec)
        assert first.signature() == self.replay(spec).signature()
        assert len(first.metrics.succeeded) == 60


class TestRemovedAdapters:
    """Only the paper's Borg trace ships: the other names are unknown."""

    @pytest.mark.parametrize("name", REMOVED_ADAPTERS)
    def test_scenario_rejects_the_name(self, name):
        with pytest.raises(RegistryError) as excinfo:
            Scenario(trace=f"{name}:seed=3")
        assert str(excinfo.value) == (
            f"unknown trace adapter {name!r}; known: borg-csv, borg-synth"
        )

    @pytest.mark.parametrize("name", REMOVED_ADAPTERS)
    def test_run_exits_2_naming_the_adapter(self, name, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--trace", f"{name}:seed=3"])
        assert excinfo.value.code == 2
        assert (
            f"unknown trace adapter {name!r}" in capsys.readouterr().err
        )


class TestBorgSynth:
    def test_matches_legacy_generator_bit_for_bit(self):
        spec = resolve_trace("borg-synth:seed=7,jobs=60")
        legacy = synthetic_scaled_trace(
            seed=7, n_jobs=60, overallocators=round(60 * 44 / 663)
        )
        assert list(spec) == list(legacy)

    def test_defaults_match_paper_slice(self):
        trace = resolve_trace("borg-synth")
        legacy = synthetic_scaled_trace(seed=DEFAULT_TRACE_SEED)
        assert list(trace) == list(legacy)
        assert len(trace) == 663
        assert trace.overallocator_count == 44

    def test_overallocators_pinnable(self):
        trace = resolve_trace("borg-synth:seed=7,jobs=60,overallocators=9")
        assert trace.overallocator_count == 9

    def test_window_option(self):
        trace = resolve_trace("borg-synth:seed=7,jobs=60,window=2h")
        assert trace[-1].submit_time <= 7200.0

    def test_unknown_option_dies_with_accepted(self):
        with pytest.raises(TraceError, match="unknown option"):
            resolve_trace("borg-synth:warp=9")


class TestBorgCsv:
    def test_plain_load_equals_loader(self, tmp_path, small_trace):
        path = tmp_path / "trace.csv"
        dump_borg_csv(small_trace, path)
        via_spec = resolve_trace(f"borg-csv:path={path}")
        assert list(via_spec) == list(Trace(iter_borg_csv(path)))

    def test_window_and_limit(self, tmp_path, small_trace):
        path = tmp_path / "trace.csv"
        dump_borg_csv(small_trace, path)
        clipped = resolve_trace(f"borg-csv:path={path},window=10m")
        origin = small_trace[0].submit_time
        kept = [
            j for j in small_trace if j.submit_time - origin < 600.0
        ]
        assert len(clipped) == len(kept)
        # Scaling renumbers to t=0 by default.
        assert clipped[0].submit_time == 0.0
        limited = resolve_trace(f"borg-csv:path={path},limit=5")
        assert len(limited) == 5

    def test_stride_matches_python_slicing(self, tmp_path, small_trace):
        path = tmp_path / "trace.csv"
        dump_borg_csv(small_trace, path)
        strided = resolve_trace(
            f"borg-csv:path={path},stride=4,renumber=false"
        )
        expected = small_trace.jobs[::4]
        assert [j.job_id for j in strided] == [
            j.job_id for j in expected
        ]

    def test_sample_fraction_maps_to_stride(self, tmp_path, small_trace):
        path = tmp_path / "trace.csv"
        dump_borg_csv(small_trace, path)
        sampled = resolve_trace(
            f"borg-csv:path={path},sample=0.25,renumber=false"
        )
        strided = resolve_trace(
            f"borg-csv:path={path},stride=4,renumber=false"
        )
        assert list(sampled) == list(strided)

    def test_sample_stride_conflict(self, tmp_path, small_trace):
        path = tmp_path / "trace.csv"
        dump_borg_csv(small_trace, path)
        with pytest.raises(TraceError, match="sample.*stride"):
            resolve_trace(f"borg-csv:path={path},sample=0.5,stride=2")

    def test_missing_file(self):
        with pytest.raises(TraceError, match="not found"):
            resolve_trace("borg-csv:path=/nope/missing.csv")


class TestResolveTypes:
    def test_accepts_parsed_spec(self):
        from repro.trace.spec import parse_trace_spec

        spec = parse_trace_spec("borg-synth:seed=7,jobs=30")
        assert list(resolve_trace(spec)) == list(
            resolve_trace("borg-synth:seed=7,jobs=30")
        )

    def test_returns_trace(self):
        assert isinstance(resolve_trace("borg-synth:jobs=10"), Trace)
