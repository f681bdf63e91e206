"""The ``repro check`` CLI subcommand: exit codes and output shapes."""

import json
import textwrap

import pytest

from repro.cli import main


def write_tree(root, files):
    for relpath, text in files.items():
        path = root / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))


@pytest.fixture
def dirty_tree(tmp_path):
    write_tree(tmp_path, {
        "scheduler/core.py": """
            for node in {"a", "b"}:
                print(node)
        """,
    })
    return tmp_path


@pytest.fixture
def clean_tree(tmp_path):
    write_tree(tmp_path, {"scheduler/core.py": "x = 1\n"})
    return tmp_path


class TestExitCodes:
    def test_clean_tree_exits_0(self, clean_tree, capsys):
        assert main(["check", "--root", str(clean_tree)]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_findings_exit_1(self, dirty_tree, capsys):
        assert main(["check", "--root", str(dirty_tree)]) == 1
        out = capsys.readouterr().out
        assert "DET003" in out
        assert "scheduler/core.py:2" in out

    def test_unknown_rule_exits_2(self, clean_tree):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "check", "--root", str(clean_tree), "--rules", "NOPE",
            ])
        assert excinfo.value.code == 2

    def test_missing_root_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["check", "--root", str(tmp_path / "nowhere")])
        assert excinfo.value.code == 2

    def test_bad_format_exits_2(self, clean_tree):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "check", "--root", str(clean_tree),
                "--format", "xml",
            ])
        assert excinfo.value.code == 2


class TestJsonDocument:
    def test_schema_and_fields(self, dirty_tree, capsys):
        assert main([
            "check", "--root", str(dirty_tree), "--format", "json",
        ]) == 1
        document = json.loads(capsys.readouterr().out)
        assert sorted(document) == [
            "count", "counts_by_rule", "findings", "modules_checked",
            "root", "rules_run", "schema",
        ]
        assert document["schema"] == "repro.check/v1"
        assert document["count"] == 1
        assert document["counts_by_rule"] == {"DET003": 1}
        (finding,) = document["findings"]
        assert finding["rule"] == "DET003"
        assert finding["path"] == "scheduler/core.py"
        assert finding["line"] == 2
        assert finding["message"]
        assert finding["hint"]

    def test_rules_filter(self, dirty_tree, capsys):
        assert main([
            "check", "--root", str(dirty_tree),
            "--rules", "DET001,DET002", "--format", "json",
        ]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["rules_run"] == ["DET001", "DET002"]


class TestListIntegration:
    def test_check_in_list_output(self, capsys):
        assert main(["list"]) == 0
        assert "check" in capsys.readouterr().out
