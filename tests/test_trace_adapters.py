"""The trace-adapter registry: resolution, determinism, public formats."""

import json

import pytest

from repro.api import Scenario
from repro.constants import DEFAULT_TRACE_SEED
from repro.errors import RegistryError, TraceError
from repro.registry import TRACES, register_trace, trace_names
from repro.trace import (
    Trace,
    load_borg_csv,
    resolve_trace,
    synthetic_scaled_trace,
    trace_catalogue,
)
from repro.trace.loader import dump_borg_csv

BUILTIN_ADAPTERS = (
    "alibaba2018",
    "azure-packing",
    "borg-csv",
    "borg-synth",
    "google2019",
    "synth-bursty",
    "synth-diurnal",
    "synth-heavytail",
    "synth-ramp",
)
PATHLESS = (
    "borg-synth",
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
        for name in ("borg-csv", "google2019", "alibaba2018",
                     "azure-packing"):
            assert by_name[name].needs_path is True

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
    """Every path-free adapter replays deterministically to the end."""

    @staticmethod
    def replay(name):
        return Scenario(
            trace=f"{name}:seed=3,jobs=60",
            sgx_fraction=0.5,
            seed=1,
            standard_workers=4,
            sgx_workers=4,
        ).run()

    @pytest.mark.parametrize("name", PATHLESS)
    def test_replays_twice_identically_and_completes(self, name):
        first = self.replay(name)
        assert first.signature() == self.replay(name).signature()
        assert len(first.metrics.succeeded) == 60

    def test_synth_replays_differ_between_shapes(self):
        """The shapes are real workload variety, not renamed copies."""
        bursty = self.replay("synth-bursty")
        heavytail = self.replay("synth-heavytail")
        assert bursty.pod_signature() != heavytail.pod_signature()


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


class TestSynthShapes:
    def test_bursty_mass_concentrates(self):
        trace = resolve_trace(
            "synth-bursty:seed=3,jobs=400,bursts=2,base_fraction=0.1"
        )
        # 90% of jobs sit in 2 narrow bursts: the busiest tenth of the
        # window must hold far more than a uniform share.
        window = 3600.0
        times = [job.submit_time for job in trace]
        bins = [0] * 10
        for t in times:
            bins[min(9, int(t / window * 10))] += 1
        assert max(bins) > len(times) * 0.25

    def test_heavytail_durations_spread(self):
        trace = resolve_trace("synth-heavytail:seed=3,jobs=400")
        durations = sorted(trace.durations())
        # Log-normal with sigma=1.6: the p95/p50 ratio is far beyond
        # anything the bounded Beta duration model produces.
        assert durations[379] / durations[199] > 5.0

    def test_ramp_rate_grows(self):
        trace = resolve_trace("synth-ramp:seed=3,jobs=400,factor=9")
        half = 1800.0
        early = sum(1 for j in trace if j.submit_time < half)
        late = len(trace) - early
        assert late > early * 1.5

    def test_diurnal_window_default_is_a_day(self):
        trace = resolve_trace("synth-diurnal:seed=3,jobs=200")
        assert trace[-1].submit_time <= 86_400.0
        assert trace[-1].submit_time > 3600.0

    @pytest.mark.parametrize(
        "spec,detail",
        [
            ("synth-diurnal:amplitude=1.5", "amplitude"),
            ("synth-bursty:jobs=10,overallocators=20", "overallocators"),
            ("synth-heavytail:sigma=0", "sigma"),
            ("synth-ramp:factor=0.5", "factor"),
            ("synth-bursty:window=0", "window"),
            ("synth-heavytail:sigma=inf", "sigma"),
            ("synth-heavytail:sigma=nan", "sigma"),
            ("synth-ramp:factor=inf", "factor"),
            ("synth-ramp:factor=nan", "factor"),
        ],
    )
    def test_option_validation(self, spec, detail):
        with pytest.raises(TraceError, match=detail):
            resolve_trace(spec)


class TestBorgCsv:
    def test_plain_load_equals_loader(self, tmp_path, small_trace):
        path = tmp_path / "trace.csv"
        dump_borg_csv(small_trace, path)
        via_spec = resolve_trace(f"borg-csv:path={path}")
        assert list(via_spec) == list(load_borg_csv(path))

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


def _google_event(kind, collection, time_us, **extra):
    record = {"type": kind, "collection_id": collection, "time": time_us}
    record.update(extra)
    return json.dumps(record)


class TestGoogle2019:
    def test_submit_finish_join(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(
            "\n".join(
                [
                    _google_event(
                        "SUBMIT", 1, 1_000_000,
                        resource_request={"memory": 0.25},
                    ),
                    _google_event(
                        "SUBMIT", 2, 2_000_000,
                        resource_request={"memory": 0.5},
                    ),
                    _google_event("SCHEDULE", 1, 1_500_000),
                    _google_event(
                        "FINISH", 1, 11_000_000,
                        maximum_usage={"memory": 0.2},
                    ),
                    _google_event("FINISH", 2, 32_000_000),
                    # FINISH without SUBMIT: dump starts mid-trace.
                    _google_event("FINISH", 99, 5_000_000),
                ]
            )
        )
        trace = resolve_trace(f"google2019:path={path}")
        assert len(trace) == 2
        first, second = trace.jobs
        # Renumbered to t=0; collection 1 submitted first.
        assert first.submit_time == 0.0
        assert first.duration == 10.0
        assert first.assigned_memory == 0.25
        assert first.max_memory == 0.2
        # No maximum_usage: falls back to the request.
        assert second.max_memory == 0.5
        assert second.duration == 30.0

    def test_bad_json_carries_line(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text("{not json}\n")
        with pytest.raises(TraceError, match=r"events\.jsonl:1"):
            resolve_trace(f"google2019:path={path}")

    def test_memory_fraction_validated(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(
            _google_event(
                "SUBMIT", 1, 0, resource_request={"memory": 2.5}
            )
        )
        with pytest.raises(TraceError, match="outside"):
            resolve_trace(f"google2019:path={path}")


ALIBABA_HEADER = (
    "task_name,instance_num,job_name,task_type,status,"
    "start_time,end_time,plan_cpu,plan_mem"
)


class TestAlibaba2018:
    def rows(self, *rows):
        return "\n".join((ALIBABA_HEADER,) + rows)

    def test_terminated_rows_only(self, tmp_path):
        path = tmp_path / "batch_task.csv"
        path.write_text(
            self.rows(
                "t1,1,j1,A,Terminated,100,160,50,25",
                "t2,1,j1,A,Running,100,,50,25",
                "t3,1,j2,A,Failed,100,110,50,25",
                "t4,1,j2,A,Terminated,200,230,50,50",
            )
        )
        trace = resolve_trace(f"alibaba2018:path={path}")
        assert len(trace) == 2
        assert trace[0].duration == 60.0
        assert trace[0].assigned_memory == 0.25
        assert trace[1].submit_time == 100.0  # renumbered from 200

    def test_usage_scale_option(self, tmp_path):
        path = tmp_path / "batch_task.csv"
        path.write_text(
            self.rows("t1,1,j1,A,Terminated,100,160,50,40")
        )
        trace = resolve_trace(
            f"alibaba2018:path={path},usage_scale=0.5"
        )
        assert trace[0].assigned_memory == 0.4
        assert trace[0].max_memory == 0.2

    def test_non_numeric_field_carries_line(self, tmp_path):
        path = tmp_path / "batch_task.csv"
        path.write_text(
            self.rows("t1,1,j1,A,Terminated,xyz,160,50,25")
        )
        with pytest.raises(TraceError, match=r"batch_task\.csv:2"):
            resolve_trace(f"alibaba2018:path={path}")

    def test_non_finite_usage_scale_rejected_before_reading(
        self, tmp_path
    ):
        path = tmp_path / "absent.csv"
        with pytest.raises(TraceError, match="'usage_scale' must be finite"):
            resolve_trace(f"alibaba2018:path={path},usage_scale=nan")

    def test_plan_mem_out_of_range(self, tmp_path):
        path = tmp_path / "batch_task.csv"
        path.write_text(
            self.rows("t1,1,j1,A,Terminated,100,160,50,250")
        )
        with pytest.raises(TraceError, match="plan_mem"):
            resolve_trace(f"alibaba2018:path={path}")


AZURE_HEADER = (
    "vmid,subscriptionid,deploymentid,vmcreated,vmdeleted,maxcpu,"
    "avgcpu,p95maxcpu,vmcategory,vmcorecountbucket,vmmemorybucket"
)


class TestAzurePacking:
    def rows(self, *rows):
        return "\n".join((AZURE_HEADER,) + rows)

    def test_vm_rows_with_memory_buckets(self, tmp_path):
        path = tmp_path / "vmtable.csv"
        path.write_text(
            self.rows(
                "vm1,s1,d1,0,3600,50,10,40,Delay-insensitive,4,32",
                "vm2,s1,d1,300,7500,50,10,40,Interactive,8,>64",
                # Never deleted: still running at the end of the dump.
                "vm3,s1,d1,600,,50,10,40,Interactive,2,8",
            )
        )
        trace = resolve_trace(f"azure-packing:path={path}")
        assert len(trace) == 2
        assert trace[0].assigned_memory == 0.5  # 32 of 64 GiB
        assert trace[1].assigned_memory == 1.0  # top bucket clamps
        assert trace[1].duration == 7200.0

    def test_machine_memory_option(self, tmp_path):
        path = tmp_path / "vmtable.csv"
        path.write_text(
            self.rows("vm1,s1,d1,0,3600,50,10,40,X,4,32")
        )
        trace = resolve_trace(
            f"azure-packing:path={path},machine_memory_gib=128,"
            "utilization=0.5"
        )
        assert trace[0].assigned_memory == 0.25
        assert trace[0].max_memory == 0.125

    def test_non_finite_machine_memory_rejected_before_reading(
        self, tmp_path
    ):
        path = tmp_path / "absent.csv"
        with pytest.raises(
            TraceError, match="'machine_memory_gib' must be finite"
        ):
            resolve_trace(f"azure-packing:path={path},machine_memory_gib=inf")

    def test_infinite_timestamp_dies_with_line(self, tmp_path):
        path = tmp_path / "vmtable.csv"
        path.write_text(self.rows("vm1,s1,d1,0,1e400,50,10,40,X,4,32"))
        with pytest.raises(TraceError, match=r"vmtable\.csv:2: .*finite"):
            resolve_trace(f"azure-packing:path={path}")

    def test_short_row_dies_with_line(self, tmp_path):
        path = tmp_path / "vmtable.csv"
        path.write_text(self.rows("vm1,s1,d1,0,3600"))
        with pytest.raises(TraceError, match=r"vmtable\.csv:2"):
            resolve_trace(f"azure-packing:path={path}")


class TestResolveTypes:
    def test_accepts_parsed_spec(self):
        from repro.trace.spec import parse_trace_spec

        spec = parse_trace_spec("borg-synth:seed=7,jobs=30")
        assert list(resolve_trace(spec)) == list(
            resolve_trace("borg-synth:seed=7,jobs=30")
        )

    def test_returns_trace(self):
        assert isinstance(resolve_trace("borg-synth:jobs=10"), Trace)
