"""Per-rule fire / no-fire fixtures for the static-analysis checks.

Every rule gets at least one fixture that must fire and one that must
stay silent.
"""

import textwrap
from pathlib import Path

import repro
from repro.analysis import RULES, ModuleSource, load_modules, run_checks


def project(**modules):
    """Parsed in-memory modules: ``{"scheduler/x.py": source}`` style,
    with double-underscores in keyword names standing in for ``/``."""
    return [
        ModuleSource(
            relpath.replace("__", "/") + ".py",
            textwrap.dedent(text),
        )
        for relpath, text in modules.items()
    ]


def violations(rule, proj):
    """*rule*'s ``(path, line, message)`` violations in *proj*."""
    check, _hint = RULES[rule]
    return list(check(proj))


class TestDet001UnseededRandom:
    def test_global_random_call_fires(self):
        proj = project(util="""
            import random
            x = random.random()
        """)
        assert violations("DET001", proj)

    def test_from_random_import_fires(self):
        proj = project(util="""
            from random import shuffle
        """)
        assert violations("DET001", proj)

    def test_unseeded_random_instance_fires(self):
        proj = project(util="""
            import random
            rng = random.Random()
        """)
        assert violations("DET001", proj)

    def test_numpy_global_fires(self):
        proj = project(util="""
            import numpy as np
            x = np.random.shuffle([1, 2])
        """)
        assert violations("DET001", proj)

    def test_unseeded_default_rng_fires(self):
        proj = project(util="""
            import numpy as np
            rng = np.random.default_rng()
        """)
        assert violations("DET001", proj)

    def test_seeded_generators_are_clean(self):
        proj = project(util="""
            import random
            import numpy as np
            from random import Random

            rng = np.random.default_rng(42)
            other = random.Random(7)
            third = Random(9)
        """)
        assert violations("DET001", proj) == []

    def test_annotation_is_not_a_draw(self):
        proj = project(util="""
            import numpy as np

            def f(rng: np.random.Generator) -> None:
                pass
        """)
        assert violations("DET001", proj) == []


class TestDet002WallClock:
    def test_time_call_in_scoped_package_fires(self):
        proj = project(scheduler__core="""
            import time
            t = time.time()
        """)
        assert violations("DET002", proj)

    def test_bare_reference_fires(self):
        proj = project(simulation__core="""
            import time
            clock = time.monotonic
        """)
        assert violations("DET002", proj)

    def test_from_import_fires(self):
        proj = project(orchestrator__core="""
            from time import perf_counter
        """)
        assert violations("DET002", proj)

    def test_datetime_now_fires(self):
        proj = project(monitoring__core="""
            import datetime
            stamp = datetime.datetime.now()
        """)
        assert violations("DET002", proj)

    def test_out_of_scope_package_is_clean(self):
        proj = project(experiments__core="""
            import time
            t = time.time()
        """)
        assert violations("DET002", proj) == []


class TestDet003SetIteration:
    def test_for_over_set_literal_fires(self):
        proj = project(scheduler__core="""
            for node in {"a", "b"}:
                print(node)
        """)
        assert violations("DET003", proj)

    def test_comprehension_over_set_call_fires(self):
        proj = project(scheduler__core="""
            names = [n.upper() for n in set(["a", "b"])]
        """)
        assert violations("DET003", proj)

    def test_set_typed_attribute_fires(self):
        proj = project(orchestrator__core="""
            from typing import Set

            class Tracker:
                live: Set[str]

                def drain(self):
                    return list(self.live)
        """)
        assert violations("DET003", proj)

    def test_set_union_local_fires(self):
        proj = project(scheduler__core="""
            def merge(a, b):
                both = set(a) | set(b)
                for name in both:
                    print(name)
        """)
        assert violations("DET003", proj)

    def test_sorted_wrapper_is_clean(self):
        proj = project(scheduler__core="""
            def drain(nodes):
                pending = set(nodes)
                for node in sorted(pending):
                    print(node)
                return sorted(pending)
        """)
        assert violations("DET003", proj) == []

    def test_membership_and_len_are_clean(self):
        proj = project(scheduler__core="""
            def info(nodes, name):
                live = set(nodes)
                return name in live, len(live)
        """)
        assert violations("DET003", proj) == []

    def test_out_of_scope_package_is_clean(self):
        proj = project(experiments__core="""
            for node in {"a", "b"}:
                print(node)
        """)
        assert violations("DET003", proj) == []

    def test_scopes_are_scanned_once_each(self):
        # The module scope skips the function body (scanned as its own
        # scope) and still walks the class body past its method.
        proj = project(scheduler__x="""
            def f(a):
                for n in {1, 2}:
                    print(n)


            class C:
                X = [n for n in {1, 2}]

                def m(self):
                    return self.X
        """)
        # Lines 3 (the loop) and 8 (the comprehension), once each.
        lines = sorted(line for _, line, _ in violations("DET003", proj))
        assert lines == [3, 8]

    def test_function_locals_stay_in_their_scope(self):
        # A set bound inside a function does not make the module's
        # list of the same name a set.
        proj = project(scheduler__core="""
            names = ["a", "b"]


            def count():
                names = {"a", "b"}
                return len(names)


            for name in names:
                print(name)
        """)
        assert violations("DET003", proj) == []


class TestDet004IdentityOrder:
    def test_id_in_sort_key_fires(self):
        proj = project(scheduler__core="""
            def order(pods):
                return sorted(pods, key=lambda p: id(p))
        """)
        assert violations("DET004", proj)

    def test_id_in_heap_entry_fires(self):
        proj = project(simulation__core="""
            import heapq

            def push(heap, item, when):
                heapq.heappush(heap, (when, id(item), item))
        """)
        assert violations("DET004", proj)

    def test_id_in_comparison_fires(self):
        proj = project(scheduler__core="""
            def tie_break(a, b):
                return a if id(a) < id(b) else b
        """)
        assert violations("DET004", proj)

    def test_id_as_dict_key_is_clean(self):
        # The spread scheduler's idiom: id() as a stable *within-pass*
        # dict key is deterministic; only ordering by it is not.
        proj = project(scheduler__core="""
            def positions(views):
                return {id(view): i for i, view in enumerate(views)}
        """)
        assert violations("DET004", proj) == []

    def test_stable_sort_key_is_clean(self):
        proj = project(scheduler__core="""
            def order(pods):
                return sorted(pods, key=lambda p: (p.priority, p.name))
        """)
        assert violations("DET004", proj) == []


class TestObs001LedgerConformance:
    def test_conforming_emit_stays_silent(self):
        proj = project(
            scheduler__core="""
                def schedule(ledger, pod, now):
                    ledger.emit(now, "placement", pod=pod.name,
                                node="n1", runner_ups=2)
            """,
        )
        assert violations("OBS001", proj) == []

    def test_undeclared_kind_fires(self):
        proj = project(
            scheduler__core="""
                def schedule(ledger, now):
                    ledger.emit(now, "teleportation", pod="p")
            """,
        )
        assert violations("OBS001", proj)

    def test_undeclared_payload_field_fires(self):
        proj = project(
            scheduler__core="""
                def schedule(ledger, pod, now):
                    ledger.emit(now, "deferral", pod=pod.name,
                                mood="gloomy")
            """,
        )
        ((_, _, message),) = violations("OBS001", proj)
        assert "mood" in message

    def test_non_literal_kind_fires(self):
        proj = project(
            scheduler__core="""
                def schedule(ledger, kind, now):
                    ledger.emit(now, kind, pod="p")
            """,
        )
        assert violations("OBS001", proj)

    def test_splat_payload_fires(self):
        proj = project(
            scheduler__core="""
                def schedule(ledger, now, payload):
                    ledger.emit(now, "deferral", **payload)
            """,
        )
        assert violations("OBS001", proj)

    def test_live_object_payload_fires(self):
        proj = project(
            scheduler__core="""
                def schedule(ledger, pod, now):
                    ledger.emit(now, "deferral", pod=pod,
                                reason="epc")
            """,
        )
        ((_, _, message),) = violations("OBS001", proj)
        assert "live engine object" in message

    def test_attribute_receiver_is_scanned(self):
        proj = project(
            scheduler__core="""
                def schedule(self, now):
                    self.obs.ledger.emit(now, "nope")
            """,
        )
        assert violations("OBS001", proj)

    def test_non_ledger_emit_ignored(self):
        proj = project(
            scheduler__core="""
                def schedule(bus, now):
                    bus.emit(now, "anything-goes", payload=object())
            """,
        )
        assert violations("OBS001", proj) == []

    def test_real_tree_declares_every_emitted_kind(self):
        # Dogfood: the repository's own emit sites all conform.
        root = Path(repro.__file__).parent
        assert violations("OBS001", load_modules(root)) == []


class TestFramework:
    def test_all_rules_registered(self):
        assert list(RULES) == [
            "DET001", "DET002", "DET003", "DET004", "OBS001",
        ]

    def test_findings_carry_hints_and_locations(self, tmp_path):
        (tmp_path / "scheduler").mkdir()
        (tmp_path / "scheduler" / "core.py").write_text(
            'for n in {"a"}:\n    print(n)\n'
        )
        (finding,) = run_checks(tmp_path).findings
        assert finding.rule == "DET003"
        assert finding.location() == "scheduler/core.py:1"
        assert "sorted" in finding.hint
