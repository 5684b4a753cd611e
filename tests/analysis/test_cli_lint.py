"""CLI acceptance: the seeded bad tree fails, HEAD and the clean tree pass."""

from pathlib import Path

import pytest

from repro.analysis.cli import main as lint_main
from repro.cli import main as repro_main

FIXTURES = Path(__file__).parent / "fixtures"
REPRO_SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def test_bad_tree_exits_nonzero_with_every_rule(capsys):
    code = lint_main([str(FIXTURES / "bad_tree")])
    out = capsys.readouterr().out
    assert code == 1
    for rule in (
        "REP001",
        "REP002",
        "REP003",
        "REP004",
        "REP005",
        "REP006",
        "REP007",
        "REP008",
    ):
        assert rule in out, f"{rule} missing from:\n{out}"


def test_clean_tree_exits_zero(capsys):
    code = lint_main([str(FIXTURES / "clean_tree")])
    assert code == 0
    assert "clean" in capsys.readouterr().out


def test_head_source_tree_is_lint_clean(capsys):
    # Acceptance criterion: zero lint findings on src/repro at HEAD.
    code = lint_main([str(REPRO_SRC)])
    assert code == 0, capsys.readouterr().out


def test_modules_with_function_local_components_lint(capsys):
    # These test modules define component classes inside functions; a
    # finding is fine (their stateful fixtures are deliberate), a crash
    # is not.
    tests = REPRO_SRC.parents[1] / "tests"
    paths = [
        tests / "core" / "test_batched_engine.py",
        tests / "runtime" / "test_rep_batch.py",
        tests / "analysis" / "test_conformance.py",
    ]
    code = lint_main([str(path) for path in paths])
    assert code in (0, 1), capsys.readouterr().out


def test_repro_lint_subcommand_dispatches(capsys):
    code = repro_main(["lint", str(FIXTURES / "clean_tree")])
    assert code == 0
    assert "clean" in capsys.readouterr().out


def test_repro_lint_bad_tree_via_subcommand(capsys):
    code = repro_main(["lint", str(FIXTURES / "bad_tree"), "--no-hints"])
    out = capsys.readouterr().out
    assert code == 1
    assert "(fix:" not in out


def test_list_rules_table(capsys):
    code = lint_main(["--list-rules"])
    out = capsys.readouterr().out
    assert code == 0
    for rule in ("REP001", "REP005", "REP008", "CONF001", "CONF006", "CONF007"):
        assert rule in out


def test_missing_path_is_usage_error(tmp_path, capsys):
    code = lint_main([str(tmp_path / "does-not-exist")])
    assert code == 2


@pytest.mark.slow
def test_full_self_audit_is_clean(capsys):
    # The CI gate: no paths = lint the repro package + conformance.
    code = lint_main(["--no-subprocess-checks"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "lint + conformance: clean" in out


# --------------------------------------------------------------------- #
# --format json / --baseline / --update-golden
# --------------------------------------------------------------------- #
def test_json_format_bad_tree(capsys):
    import json

    code = lint_main([str(FIXTURES / "bad_tree"), "--format", "json"])
    out = capsys.readouterr().out
    assert code == 1
    report = json.loads(out)
    assert report["format"] == "repro.lint-report/1"
    assert report["summary"]["errors"] == len(report["findings"])
    assert report["summary"]["warnings"] == 0
    rules = {finding["rule"] for finding in report["findings"]}
    assert {"REP001", "REP006", "REP007", "REP008"} <= rules
    first = report["findings"][0]
    assert set(first) == {
        "path", "line", "column", "rule", "severity", "message", "hint",
    }


def test_json_format_clean_tree(capsys):
    import json

    code = lint_main([str(FIXTURES / "clean_tree"), "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["findings"] == []
    assert report["summary"]["errors"] == 0


def test_baseline_round_trip(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    code = lint_main(
        [str(FIXTURES / "bad_tree"), "--write-baseline", str(baseline)]
    )
    capsys.readouterr()
    assert code == 0
    assert baseline.is_file()

    # Every recorded finding is suppressed: the bad tree now passes.
    code = lint_main(
        [str(FIXTURES / "bad_tree"), "--baseline", str(baseline)]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "clean" in out and "baselined" in out


def test_baseline_does_not_hide_new_findings(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    lint_main(
        [str(FIXTURES / "bad_tree" / "rng.py"), "--write-baseline", str(baseline)]
    )
    capsys.readouterr()
    code = lint_main(
        [str(FIXTURES / "bad_tree"), "--baseline", str(baseline)]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "baselined" in out


def test_baseline_entries_survive_line_drift(tmp_path, capsys):
    import json

    baseline = tmp_path / "baseline.json"
    lint_main(
        [str(FIXTURES / "bad_tree" / "rng.py"), "--write-baseline", str(baseline)]
    )
    capsys.readouterr()
    document = json.loads(baseline.read_text(encoding="utf-8"))
    assert document["format"] == "repro.lint-baseline/1"
    for entry in document["findings"]:
        assert set(entry) == {"rule", "path", "message"}  # no line numbers


def test_unreadable_baseline_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope", encoding="utf-8")
    code = lint_main(
        [str(FIXTURES / "clean_tree"), "--baseline", str(bad)]
    )
    assert code == 2


def test_update_golden_writes_transcript(tmp_path, capsys, monkeypatch):
    import repro.analysis.golden as golden_mod

    target = tmp_path / "transcript.json"
    monkeypatch.setattr(golden_mod, "GOLDEN_PATH", target)
    code = lint_main(["--update-golden"])
    out = capsys.readouterr().out
    assert code == 0
    assert target.is_file()
    assert "golden transcript written" in out
