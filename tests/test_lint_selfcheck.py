"""The lint rules are themselves regression-tested here.

Three layers:

* fixtures — every rule RPR001–RPR005 (plus RPR000) must fire on its
  known-bad snippet and stay silent on the matching good example;
* contracts — every cross-file contract rule RPR101–RPR106 must fire on
  the deliberately-drifted mini-tree and stay silent on the real repo;
* self-check — ``repro lint src/`` over the actual codebase is clean
  (zero non-suppressed findings, every suppression carries a reason).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import (
    LintEngine,
    default_project_rules,
    default_rules,
    render_json,
    render_text,
    rule_table,
)
from repro.analysis.engine import Finding
from repro.analysis.report import report_payload
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src" / "repro"
FIXTURES = Path(__file__).parent / "lint_fixtures"
CONTRACTS_BAD = FIXTURES / "contracts_bad"


def lint_file(relative: str):
    engine = LintEngine()  # per-file rules only; contracts tested separately
    return engine.run([FIXTURES / relative])


# ------------------------------------------------------------- AST rules
BAD_EXPECTATIONS = [
    ("rl/rpr001_bad.py", "RPR001", 4),
    ("frameworks/rpr002_bad.py", "RPR002", 3),
    ("core/rpr003_bad.py", "RPR003", 4),
    ("airdrop/rpr004_bad.py", "RPR004", 1),
    ("exec/rpr005_bad.py", "RPR005", 2),
    ("exec/rpr000_bad.py", "RPR000", 1),
    ("net/rpr007_bad.py", "RPR007", 5),
    ("net/rpr008_bad.py", "RPR008", 3),
    ("serve/rpr009_bad.py", "RPR009", 4),
]


@pytest.mark.parametrize("relative, rule_id, n_expected", BAD_EXPECTATIONS)
def test_rule_fires_on_bad_fixture(relative, rule_id, n_expected):
    report = lint_file(relative)
    hits = [f for f in report.active() if f.rule == rule_id]
    assert len(hits) == n_expected, render_text(report)
    for finding in hits:
        assert finding.line > 0 and finding.path.endswith(relative)


@pytest.mark.parametrize(
    "relative",
    [
        "rl/rpr001_good.py",
        "frameworks/rpr002_good.py",
        "core/rpr003_good.py",
        "airdrop/rpr004_good.py",
        "exec/rpr005_good.py",
        "net/rpr007_good.py",
        "net/rpr008_good.py",
        "serve/rpr009_good.py",
        "other/scoped_silent.py",
    ],
)
def test_rule_silent_on_good_fixture(relative):
    report = lint_file(relative)
    assert report.active() == [], render_text(report)


def test_reasonless_suppression_still_suppresses_but_flags_rpr000():
    report = lint_file("exec/rpr000_bad.py")
    assert [f.rule for f in report.active()] == ["RPR000"]
    assert [f.rule for f in report.suppressed()] == ["RPR005"]
    assert report.suppressed()[0].reason is None


def test_suppression_with_reason_is_recorded():
    report = lint_file("airdrop/rpr004_good.py")
    reasons = [f.reason for f in report.suppressed() if f.rule == "RPR004"]
    assert reasons == ["integer count, no rounding"]


# ------------------------------------------------------------- contracts
def test_every_contract_rule_fires_on_drifted_tree():
    fired: dict[str, list[Finding]] = {}
    for rule in default_project_rules():
        fired[rule.rule_id] = list(rule.check_project(CONTRACTS_BAD))
    for rule_id, findings in fired.items():
        assert findings, f"{rule_id} did not fire on the drifted fixture tree"
        for finding in findings:
            assert finding.rule == rule_id
            assert finding.line > 0


def test_contract_drift_messages_name_the_drifted_fields():
    by_rule = {
        rule.rule_id: " | ".join(
            f.message for f in rule.check_project(CONTRACTS_BAD)
        )
        for rule in default_project_rules()
    }
    assert "'metrics'" in by_rule["RPR101"]
    assert "'seed'" in by_rule["RPR102"]
    assert "secret_field" in by_rule["RPR103"] and "phantom_key" in by_rule["RPR103"]
    assert "'speedup'" in by_rule["RPR104"] and "'failed'" in by_rule["RPR104"]
    assert "orphan_flag" in by_rule["RPR105"]
    assert "ghost_param" in by_rule["RPR106"] and "phantom_param" in by_rule["RPR106"]


def test_contract_rules_anchor_on_real_repo_files():
    # a renamed module must break this test, not silently skip the rule
    for rule in default_project_rules():
        paths = [
            value
            for value in vars(rule).values()
            if isinstance(value, str) and value.endswith(".py")
        ]
        assert paths, f"{rule.rule_id} declares no target paths"
        for relative in paths:
            assert (REPO_ROOT / relative).is_file(), (rule.rule_id, relative)


def test_contract_rules_pass_on_real_repo():
    for rule in default_project_rules():
        findings = list(rule.check_project(REPO_ROOT))
        assert findings == [], (rule.rule_id, [f.message for f in findings])


# ------------------------------------------------------------- self-check
def test_lint_selfcheck_src_is_clean():
    engine = LintEngine(project_rules=default_project_rules())
    report = engine.run([SRC], repo_root=REPO_ROOT)
    assert report.n_files > 50
    assert report.active() == [], render_text(report)
    for finding in report.suppressed():
        assert finding.reason, f"reasonless suppression at {finding.location()}"


def test_rule_table_covers_every_default_rule():
    ids = {row[0] for row in rule_table()}
    for rule in default_rules():
        assert rule.rule_id in ids
    for rule in default_project_rules():
        assert rule.rule_id in ids


# ------------------------------------------------------ JSON + CLI surface
def test_json_report_round_trips_and_is_stable_ordered():
    engine = LintEngine()
    report = engine.run([FIXTURES])
    rendered = render_json(report)
    decoded = json.loads(rendered)
    assert decoded == report_payload(report)
    keys = [
        (f["path"], f["line"], f["col"], f["rule"]) for f in decoded["findings"]
    ]
    assert keys == sorted(keys)
    assert decoded["summary"]["active"] == len(report.active())
    assert decoded["format_version"] == 1


def test_cli_lint_json_output_parses(capsys):
    code = main(
        ["lint", str(FIXTURES / "exec" / "rpr005_bad.py"), "--format", "json",
         "--no-contracts"]
    )
    assert code == 1
    decoded = json.loads(capsys.readouterr().out)
    assert decoded["summary"]["active"] == 2
    assert {f["rule"] for f in decoded["findings"]} == {"RPR005"}


def test_cli_lint_src_is_clean(capsys):
    assert main(["lint", str(SRC)]) == 0
    out = capsys.readouterr().out
    assert "0 finding(s)" in out


def test_cli_lint_rule_filter_and_errors(capsys, tmp_path):
    assert main(["lint", str(FIXTURES / "rl"), "--rules", "RPR002"]) == 0
    assert main(["lint", str(FIXTURES / "rl"), "--rules", "RPR001"]) == 1
    assert main(["lint", str(tmp_path / "missing")]) == 2
    assert main(["lint", "--list-rules"]) == 0
    assert "RPR101" in capsys.readouterr().out


def test_cli_lint_writes_json_artifact(tmp_path, capsys):
    artifact = tmp_path / "lint.json"
    code = main(
        ["lint", str(FIXTURES / "rl"), "--no-contracts", "--output", str(artifact)]
    )
    assert code == 1
    decoded = json.loads(artifact.read_text())
    assert decoded["summary"]["active"] == 4
    capsys.readouterr()
