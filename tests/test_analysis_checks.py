"""Per-rule fire / no-fire fixtures for the static-analysis checks.

Every rule gets at least one fixture that must fire and one that must
stay silent.
"""

import textwrap

import pytest

from repro.analysis import (
    CheckConfig,
    ModuleSource,
    Project,
    analyze_project,
    check_names,
)
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
            "DET001", "DET002", "DET003", "DET004", "OBS001",
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
