"""Per-rule fire / no-fire fixtures for the static-analysis checks.

Every rule gets at least one fixture that must fire and one that must
stay silent; the suppression, baseline and bookkeeping (NOQA001 /
BASE001) machinery is exercised over real temporary trees through
:func:`repro.analysis.run_checks`.
"""

import json
import textwrap

import pytest

from repro.analysis import (
    CheckConfig,
    ModuleSource,
    Project,
    analyze_project,
    check_names,
    load_baseline,
    run_checks,
    write_baseline,
)
from repro.analysis.baseline import apply_baseline
from repro.analysis.findings import Finding
from repro.errors import SimulationError


def project(**modules):
    """An in-memory Project: ``{"scheduler/x.py": source}`` style,
    with double-underscores in keyword names standing in for ``/``."""
    sources = [
        ModuleSource(
            relpath.replace("__", "/") + ".py",
            textwrap.dedent(text),
        )
        for relpath, text in modules.items()
    ]
    return Project(root=None, modules=sources)


def rules_fired(proj, rules=None, config=CheckConfig()):
    return sorted(
        {f.rule for f in analyze_project(proj, config, rules=rules)}
    )


class TestDet001UnseededRandom:
    def test_global_random_call_fires(self):
        proj = project(util="""
            import random
            x = random.random()
        """)
        assert rules_fired(proj, ["DET001"]) == ["DET001"]

    def test_from_random_import_fires(self):
        proj = project(util="""
            from random import shuffle
        """)
        assert rules_fired(proj, ["DET001"]) == ["DET001"]

    def test_unseeded_random_instance_fires(self):
        proj = project(util="""
            import random
            rng = random.Random()
        """)
        assert rules_fired(proj, ["DET001"]) == ["DET001"]

    def test_numpy_global_fires(self):
        proj = project(util="""
            import numpy as np
            x = np.random.shuffle([1, 2])
        """)
        assert rules_fired(proj, ["DET001"]) == ["DET001"]

    def test_unseeded_default_rng_fires(self):
        proj = project(util="""
            import numpy as np
            rng = np.random.default_rng()
        """)
        assert rules_fired(proj, ["DET001"]) == ["DET001"]

    def test_seeded_generators_are_clean(self):
        proj = project(util="""
            import random
            import numpy as np
            from random import Random

            rng = np.random.default_rng(42)
            other = random.Random(7)
            third = Random(9)
        """)
        assert rules_fired(proj, ["DET001"]) == []

    def test_annotation_is_not_a_draw(self):
        proj = project(util="""
            import numpy as np

            def f(rng: np.random.Generator) -> None:
                pass
        """)
        assert rules_fired(proj, ["DET001"]) == []


class TestDet002WallClock:
    def test_time_call_in_scoped_package_fires(self):
        proj = project(scheduler__core="""
            import time
            t = time.time()
        """)
        assert rules_fired(proj, ["DET002"]) == ["DET002"]

    def test_bare_reference_fires(self):
        proj = project(simulation__core="""
            import time
            clock = time.monotonic
        """)
        assert rules_fired(proj, ["DET002"]) == ["DET002"]

    def test_from_import_fires(self):
        proj = project(orchestrator__core="""
            from time import perf_counter
        """)
        assert rules_fired(proj, ["DET002"]) == ["DET002"]

    def test_datetime_now_fires(self):
        proj = project(monitoring__core="""
            import datetime
            stamp = datetime.datetime.now()
        """)
        assert rules_fired(proj, ["DET002"]) == ["DET002"]

    def test_out_of_scope_package_is_clean(self):
        proj = project(experiments__core="""
            import time
            t = time.time()
        """)
        assert rules_fired(proj, ["DET002"]) == []

    def test_profiling_module_is_exempt(self):
        config = CheckConfig(
            wall_clock_exempt=frozenset({"scheduler/profiling.py"})
        )
        proj = project(scheduler__profiling="""
            import time
            t = time.time()
        """)
        assert rules_fired(proj, ["DET002"], config) == []


class TestDet003SetIteration:
    def test_for_over_set_literal_fires(self):
        proj = project(scheduler__core="""
            for node in {"a", "b"}:
                print(node)
        """)
        assert rules_fired(proj, ["DET003"]) == ["DET003"]

    def test_comprehension_over_set_call_fires(self):
        proj = project(scheduler__core="""
            names = [n.upper() for n in set(["a", "b"])]
        """)
        assert rules_fired(proj, ["DET003"]) == ["DET003"]

    def test_set_typed_attribute_fires(self):
        proj = project(orchestrator__core="""
            from typing import Set

            class Tracker:
                live: Set[str]

                def drain(self):
                    return list(self.live)
        """)
        assert rules_fired(proj, ["DET003"]) == ["DET003"]

    def test_set_union_local_fires(self):
        proj = project(scheduler__core="""
            def merge(a, b):
                both = set(a) | set(b)
                for name in both:
                    print(name)
        """)
        assert rules_fired(proj, ["DET003"]) == ["DET003"]

    def test_sorted_wrapper_is_clean(self):
        proj = project(scheduler__core="""
            def drain(nodes):
                pending = set(nodes)
                for node in sorted(pending):
                    print(node)
                return sorted(pending)
        """)
        assert rules_fired(proj, ["DET003"]) == []

    def test_membership_and_len_are_clean(self):
        proj = project(scheduler__core="""
            def info(nodes, name):
                live = set(nodes)
                return name in live, len(live)
        """)
        assert rules_fired(proj, ["DET003"]) == []

    def test_out_of_scope_package_is_clean(self):
        proj = project(experiments__core="""
            for node in {"a", "b"}:
                print(node)
        """)
        assert rules_fired(proj, ["DET003"]) == []


class TestDet004IdentityOrder:
    def test_id_in_sort_key_fires(self):
        proj = project(scheduler__core="""
            def order(pods):
                return sorted(pods, key=lambda p: id(p))
        """)
        assert rules_fired(proj, ["DET004"]) == ["DET004"]

    def test_id_in_heap_entry_fires(self):
        proj = project(simulation__core="""
            import heapq

            def push(heap, item, when):
                heapq.heappush(heap, (when, id(item), item))
        """)
        assert rules_fired(proj, ["DET004"]) == ["DET004"]

    def test_id_in_comparison_fires(self):
        proj = project(scheduler__core="""
            def tie_break(a, b):
                return a if id(a) < id(b) else b
        """)
        assert rules_fired(proj, ["DET004"]) == ["DET004"]

    def test_id_as_dict_key_is_clean(self):
        # The spread scheduler's idiom: id() as a stable *within-pass*
        # dict key is deterministic; only ordering by it is not.
        proj = project(scheduler__core="""
            def positions(views):
                return {id(view): i for i, view in enumerate(views)}
        """)
        assert rules_fired(proj, ["DET004"]) == []

    def test_stable_sort_key_is_clean(self):
        proj = project(scheduler__core="""
            def order(pods):
                return sorted(pods, key=lambda p: (p.priority, p.name))
        """)
        assert rules_fired(proj, ["DET004"]) == []


HOT = CheckConfig(hot_layout_modules=frozenset({"scheduler/hot.py"}))


class TestLayout001Slots:
    def test_plain_class_fires(self):
        proj = project(scheduler__hot="""
            class Pod:
                def __init__(self):
                    self.name = "p"
        """)
        assert rules_fired(proj, ["LAYOUT001"], HOT) == ["LAYOUT001"]

    def test_dataclass_without_slots_fires(self):
        proj = project(scheduler__hot="""
            from dataclasses import dataclass

            @dataclass
            class Pod:
                name: str
        """)
        assert rules_fired(proj, ["LAYOUT001"], HOT) == ["LAYOUT001"]

    def test_slotted_variants_are_clean(self):
        proj = project(scheduler__hot="""
            from dataclasses import dataclass
            from typing import Protocol

            class Pod:
                __slots__ = ("name",)

            @dataclass(frozen=True, slots=True)
            class Spec:
                name: str

            class Source(Protocol):
                def read(self) -> str: ...
        """)
        assert rules_fired(proj, ["LAYOUT001"], HOT) == []

    def test_non_hot_module_is_clean(self):
        proj = project(scheduler__cold="""
            class Pod:
                pass
        """)
        assert rules_fired(proj, ["LAYOUT001"], HOT) == []


class TestLayout002SlottedBase:
    def test_non_slotted_project_base_fires(self):
        proj = project(scheduler__core="""
            class Base:
                pass

            class Hot(Base):
                __slots__ = ("x",)
        """)
        assert rules_fired(proj, ["LAYOUT002"]) == ["LAYOUT002"]

    def test_empty_slots_base_is_clean(self):
        proj = project(scheduler__core="""
            class Base:
                __slots__ = ()

            class Hot(Base):
                __slots__ = ("x",)
        """)
        assert rules_fired(proj, ["LAYOUT002"]) == []

    def test_abc_and_unknown_bases_are_clean(self):
        proj = project(scheduler__core="""
            import abc
            from elsewhere import External

            class Hot(abc.ABC):
                __slots__ = ("x",)

            class Other(External):
                __slots__ = ("y",)
        """)
        assert rules_fired(proj, ["LAYOUT002"]) == []


class TestReg001RegistryConformance:
    def test_duplicate_name_across_modules_fires(self):
        proj = project(
            workload__a="""
                from ..registry import register_workload

                @register_workload("stress")
                def plans_a(cluster, trace, **options):
                    return []
            """,
            workload__b="""
                from ..registry import register_workload

                @register_workload("stress")
                def plans_b(cluster, trace, **options):
                    return []
            """,
        )
        findings = analyze_project(proj, rules=["REG001"])
        assert any("duplicate" in f.message for f in findings)

    def test_missing_keyword_fires(self):
        proj = project(workload__a="""
            from ..registry import register_workload

            @register_workload("narrow")
            def plans(cluster, trace, sgx_fraction=0.0):
                return []
        """)
        findings = analyze_project(proj, rules=["REG001"])
        assert any("does not accept" in f.message for f in findings)

    def test_missing_positional_fires(self):
        proj = project(workload__a="""
            from ..registry import register_workload

            @register_workload("armless")
            def plans(**options):
                return []
        """)
        findings = analyze_project(proj, rules=["REG001"])
        assert any("positional" in f.message for f in findings)

    def test_kwargs_catch_all_is_clean(self):
        proj = project(workload__a="""
            from ..registry import register_workload

            @register_workload("wide")
            def plans(cluster, trace, **options):
                return []
        """)
        assert rules_fired(proj, ["REG001"]) == []

    def test_class_factory_resolves_inherited_init(self):
        proj = project(
            scheduler__base="""
                class Scheduler:
                    def __init__(self, use_measured=True,
                                 strict_fcfs=False,
                                 preserve_sgx_nodes=True,
                                 indexed=False):
                        pass
            """,
            scheduler__mine="""
                from ..registry import register_scheduler
                from .base import Scheduler

                @register_scheduler("mine")
                class MyScheduler(Scheduler):
                    pass
            """,
        )
        assert rules_fired(proj, ["REG001"]) == []

    def test_class_factory_missing_keyword_fires(self):
        proj = project(scheduler__mine="""
            from ..registry import register_scheduler

            @register_scheduler("mine")
            class MyScheduler:
                def __init__(self, use_measured=True):
                    pass
        """)
        findings = analyze_project(proj, rules=["REG001"])
        assert any("does not accept" in f.message for f in findings)

    def test_non_literal_name_fires(self):
        proj = project(workload__a="""
            from ..registry import register_workload

            NAME = "dynamic"

            @register_workload(NAME)
            def plans(cluster, trace, **options):
                return []
        """)
        findings = analyze_project(proj, rules=["REG001"])
        assert any("string literal" in f.message for f in findings)


class TestTrace001AdapterConformance:
    def test_duplicate_name_fires_with_first_location(self):
        proj = project(
            trace__adapters__a="""
                from ....registry import register_trace

                @register_trace("borg-synth")
                def build_a(spec, seed):
                    return None
            """,
            trace__adapters__b="""
                from ....registry import register_trace

                @register_trace("borg-synth")
                def build_b(spec, seed):
                    return None
            """,
        )
        findings = analyze_project(proj, rules=["TRACE001"])
        duplicates = [f for f in findings if "duplicate" in f.message]
        assert len(duplicates) == 1
        assert "trace/adapters/a.py" in duplicates[0].message

    def test_missing_seed_keyword_fires(self):
        proj = project(trace__adapters__a="""
            from ....registry import register_trace

            @register_trace("narrow")
            def build(spec):
                return None
        """)
        findings = analyze_project(proj, rules=["TRACE001"])
        assert any(
            "does not accept" in f.message and "seed" in f.message
            for f in findings
        )

    def test_kwargs_catch_all_is_clean(self):
        proj = project(trace__adapters__a="""
            from ....registry import register_trace

            @register_trace("wide")
            def build(**kwargs):
                return None
        """)
        assert rules_fired(proj, ["TRACE001"]) == []

    def test_spec_seed_signature_is_clean(self):
        proj = project(trace__adapters__a="""
            from ....registry import register_trace

            @register_trace("exact")
            def build(spec, seed):
                return None
        """)
        assert rules_fired(proj, ["TRACE001"]) == []

    def test_non_literal_name_fires(self):
        proj = project(trace__adapters__a="""
            from ....registry import register_trace

            NAME = "dynamic"

            @register_trace(NAME)
            def build(spec, seed):
                return None
        """)
        findings = analyze_project(proj, rules=["TRACE001"])
        assert any("string literal" in f.message for f in findings)

    def test_class_adapter_init_checked(self):
        proj = project(trace__adapters__a="""
            from ....registry import register_trace

            @register_trace("classy")
            class Adapter:
                def __init__(self, spec=None):
                    pass
        """)
        findings = analyze_project(proj, rules=["TRACE001"])
        assert any("seed" in f.message for f in findings)

    def test_other_registries_not_confused(self):
        # A workload factory has a different contract; TRACE001 must
        # ignore it even when REG001 would fire.
        proj = project(workload__a="""
            from ..registry import register_workload

            @register_workload("stress")
            def plans(cluster, trace, **options):
                return []
        """)
        assert rules_fired(proj, ["TRACE001"]) == []


class TestCell001PolicyConformance:
    def test_duplicate_name_fires_with_first_location(self):
        proj = project(
            cells__a="""
                from ..registry import register_cell_policy

                @register_cell_policy("balanced")
                def split_a(nodes, cells, seed):
                    return {}
            """,
            cells__b="""
                from ..registry import register_cell_policy

                @register_cell_policy("balanced")
                def split_b(nodes, cells, seed):
                    return {}
            """,
        )
        findings = analyze_project(proj, rules=["CELL001"])
        duplicates = [f for f in findings if "duplicate" in f.message]
        assert len(duplicates) == 1
        assert "cells/a.py" in duplicates[0].message

    def test_missing_seed_keyword_fires(self):
        proj = project(cells__a="""
            from ..registry import register_cell_policy

            @register_cell_policy("narrow")
            def split(nodes, cells):
                return {}
        """)
        findings = analyze_project(proj, rules=["CELL001"])
        assert any(
            "does not accept" in f.message and "seed" in f.message
            for f in findings
        )

    def test_kwargs_catch_all_is_clean(self):
        proj = project(cells__a="""
            from ..registry import register_cell_policy

            @register_cell_policy("wide")
            def split(**kwargs):
                return {}
        """)
        assert rules_fired(proj, ["CELL001"]) == []

    def test_exact_signature_is_clean(self):
        proj = project(cells__a="""
            from ..registry import register_cell_policy

            @register_cell_policy("exact")
            def split(nodes, cells, seed):
                return {}
        """)
        assert rules_fired(proj, ["CELL001"]) == []

    def test_non_literal_name_fires(self):
        proj = project(cells__a="""
            from ..registry import register_cell_policy

            NAME = "dynamic"

            @register_cell_policy(NAME)
            def split(nodes, cells, seed):
                return {}
        """)
        findings = analyze_project(proj, rules=["CELL001"])
        assert any("string literal" in f.message for f in findings)

    def test_class_policy_init_checked(self):
        proj = project(cells__a="""
            from ..registry import register_cell_policy

            @register_cell_policy("classy")
            class Splitter:
                def __init__(self, nodes=None, cells=None):
                    pass
        """)
        findings = analyze_project(proj, rules=["CELL001"])
        assert any("seed" in f.message for f in findings)

    def test_other_registries_not_confused(self):
        # Trace adapters have a different contract; CELL001 must
        # ignore them even when TRACE001 would fire.
        proj = project(trace__adapters__a="""
            from ....registry import register_trace

            @register_trace("narrow")
            def build(spec):
                return None
        """)
        assert rules_fired(proj, ["CELL001"]) == []


SCENARIO_FIXTURE = """
    from dataclasses import dataclass

    @dataclass(frozen=True)
    class Scenario:
        scheduler: str = "binpack"
        seed: int = 0
        trace: object = None
"""


class TestApi001CliDrift:
    def test_unmapped_flag_fires(self):
        proj = project(
            cli="""
                def _scenario_flags():
                    parser.add_argument("--scheduler")
                    parser.add_argument("--bogus-knob")
            """,
            api__scenario=SCENARIO_FIXTURE,
        )
        findings = analyze_project(proj, rules=["API001"])
        assert [f.rule for f in findings] == ["API001"]
        assert "bogus_knob" in findings[0].message.replace("-", "_")

    def test_aliases_and_cli_only_flags_are_clean(self):
        proj = project(
            cli="""
                def _scenario_flags():
                    parser.add_argument("--scheduler")
                    parser.add_argument("--jobs")
                    parser.add_argument("--json", action="store_true")
            """,
            api__scenario=SCENARIO_FIXTURE,
        )
        assert rules_fired(proj, ["API001"]) == []

    def test_flags_outside_the_shared_function_ignored(self):
        proj = project(
            cli="""
                def _other_flags():
                    parser.add_argument("--unrelated")
            """,
            api__scenario=SCENARIO_FIXTURE,
        )
        assert rules_fired(proj, ["API001"]) == []


def write_tree(root, files):
    for relpath, text in files.items():
        path = root / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))


class TestSuppressionsAndBaseline:
    def test_noqa_suppresses_and_counts(self, tmp_path):
        write_tree(tmp_path, {
            "scheduler/core.py": """
                for n in {"a", "b"}:  # repro: noqa[DET003]
                    print(n)
            """,
        })
        report = run_checks(tmp_path)
        assert report.clean
        assert report.suppressed_count == 1

    def test_noqa_for_wrong_rule_does_not_suppress(self, tmp_path):
        write_tree(tmp_path, {
            "scheduler/core.py": """
                for n in {"a", "b"}:  # repro: noqa[DET001]
                    print(n)
            """,
        })
        report = run_checks(tmp_path)
        rules = sorted(f.rule for f in report.findings)
        # The real finding survives AND the useless noqa is reported.
        assert rules == ["DET003", "NOQA001"]

    def test_unused_noqa_reported(self, tmp_path):
        write_tree(tmp_path, {
            "scheduler/core.py": """
                x = 1  # repro: noqa[DET003]
            """,
        })
        report = run_checks(tmp_path)
        assert [f.rule for f in report.findings] == ["NOQA001"]

    def test_baseline_grandfathers_by_message_not_line(self, tmp_path):
        write_tree(tmp_path, {
            "scheduler/core.py": """
                for n in {"a", "b"}:
                    print(n)
            """,
        })
        baseline_path = tmp_path / "baseline.json"
        report = run_checks(tmp_path)
        write_baseline(baseline_path, report.findings)
        # Shift the finding to a different line: still baselined.
        write_tree(tmp_path, {
            "scheduler/core.py": """
                padding = 0

                for n in {"a", "b"}:
                    print(n)
            """,
        })
        report = run_checks(
            tmp_path, baseline=load_baseline(baseline_path)
        )
        assert report.clean
        assert report.baselined_count == 1

    def test_stale_baseline_entry_reported(self, tmp_path):
        write_tree(tmp_path, {"scheduler/core.py": "x = 1\n"})
        baseline_path = tmp_path / "baseline.json"
        write_baseline(
            baseline_path,
            [Finding("DET003", "scheduler/core.py", 1, "gone")],
        )
        report = run_checks(
            tmp_path, baseline=load_baseline(baseline_path)
        )
        assert [f.rule for f in report.findings] == ["BASE001"]

    def test_baseline_multiset_semantics(self):
        finding = Finding("DET003", "a.py", 3, "same message")
        twin = Finding("DET003", "a.py", 9, "same message")
        baseline = {finding.baseline_key(): 1}
        new, baselined, stale = apply_baseline([finding, twin], baseline)
        assert baselined == 1
        assert len(new) == 1 and not stale

    def test_missing_baseline_file_raises(self, tmp_path):
        with pytest.raises(SimulationError):
            load_baseline(tmp_path / "absent.json")

    def test_baseline_round_trip_schema(self, tmp_path):
        path = tmp_path / "b.json"
        write_baseline(
            path, [Finding("DET001", "x.py", 1, "m", "h")]
        )
        document = json.loads(path.read_text())
        assert document["schema"] == "repro.check/v1"
        assert document["findings"] == [
            {"path": "x.py", "rule": "DET001", "message": "m"}
        ]


#: A minimal repro.ledger/v1 schema table fixture (the real one lives
#: in repro.obs.ledger; OBS001 reads whatever the configured module
#: declares, so fixtures carry their own).
_LEDGER_TABLE = """
    LEDGER_EVENT_KINDS = {
        "placement": ("pod", "node", "runner_ups"),
        "deferral": ("pod", "reason"),
    }
"""


class TestObs001LedgerConformance:
    def test_conforming_emit_stays_silent(self):
        proj = project(
            obs__ledger=_LEDGER_TABLE,
            scheduler__core="""
                def schedule(ledger, pod, now):
                    ledger.emit(now, "placement", pod=pod.name,
                                node="n1", runner_ups=2)
            """,
        )
        assert rules_fired(proj, ["OBS001"]) == []

    def test_undeclared_kind_fires(self):
        proj = project(
            obs__ledger=_LEDGER_TABLE,
            scheduler__core="""
                def schedule(ledger, now):
                    ledger.emit(now, "teleportation", pod="p")
            """,
        )
        assert rules_fired(proj, ["OBS001"]) == ["OBS001"]

    def test_undeclared_payload_field_fires(self):
        proj = project(
            obs__ledger=_LEDGER_TABLE,
            scheduler__core="""
                def schedule(ledger, pod, now):
                    ledger.emit(now, "deferral", pod=pod.name,
                                mood="gloomy")
            """,
        )
        (finding,) = analyze_project(proj, rules=["OBS001"])
        assert "mood" in finding.message

    def test_non_literal_kind_fires(self):
        proj = project(
            obs__ledger=_LEDGER_TABLE,
            scheduler__core="""
                def schedule(ledger, kind, now):
                    ledger.emit(now, kind, pod="p")
            """,
        )
        assert rules_fired(proj, ["OBS001"]) == ["OBS001"]

    def test_splat_payload_fires(self):
        proj = project(
            obs__ledger=_LEDGER_TABLE,
            scheduler__core="""
                def schedule(ledger, now, payload):
                    ledger.emit(now, "deferral", **payload)
            """,
        )
        assert rules_fired(proj, ["OBS001"]) == ["OBS001"]

    def test_live_object_payload_fires(self):
        proj = project(
            obs__ledger=_LEDGER_TABLE,
            scheduler__core="""
                def schedule(ledger, pod, now):
                    ledger.emit(now, "deferral", pod=pod,
                                reason="epc")
            """,
        )
        (finding,) = analyze_project(proj, rules=["OBS001"])
        assert "live engine object" in finding.message

    def test_attribute_receiver_is_scanned(self):
        proj = project(
            obs__ledger=_LEDGER_TABLE,
            scheduler__core="""
                def schedule(self, now):
                    self.obs.ledger.emit(now, "nope")
            """,
        )
        assert rules_fired(proj, ["OBS001"]) == ["OBS001"]

    def test_non_ledger_emit_ignored(self):
        proj = project(
            obs__ledger=_LEDGER_TABLE,
            scheduler__core="""
                def schedule(bus, now):
                    bus.emit(now, "anything-goes", payload=object())
            """,
        )
        assert rules_fired(proj, ["OBS001"]) == []

    def test_unparseable_table_fires_on_ledger_module(self):
        proj = project(
            obs__ledger="""
                def build():
                    return {}
                LEDGER_EVENT_KINDS = build()
            """,
        )
        (finding,) = analyze_project(proj, rules=["OBS001"])
        assert finding.path == "obs/ledger.py"
        assert "dict literal" in finding.message

    def test_real_tree_declares_every_emitted_kind(self):
        # Dogfood: the repository's own emit sites all conform.
        from pathlib import Path

        from repro.analysis import run_checks

        root = Path(__file__).resolve().parent.parent / "src" / "repro"
        report = run_checks(root, rules=["OBS001"])
        assert report.clean, [f.location() for f in report.findings]


class TestFramework:
    def test_all_rules_registered(self):
        assert list(check_names()) == [
            "API001", "CELL001", "DET001", "DET002", "DET003",
            "DET004", "LAYOUT001", "LAYOUT002", "OBS001", "REG001",
            "TRACE001",
        ]

    def test_unknown_rule_rejected(self):
        with pytest.raises(SimulationError, match="unknown rule"):
            analyze_project(project(a="x = 1"), rules=["NOPE999"])

    def test_findings_carry_hints_and_locations(self):
        proj = project(scheduler__core="""
            for n in {"a"}:
                print(n)
        """)
        (finding,) = analyze_project(proj, rules=["DET003"])
        assert finding.location() == "scheduler/core.py:2"
        assert "sorted" in finding.hint
