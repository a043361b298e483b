"""The JSON report schema (version 3) that CI archives as an artifact."""

import json

from repro.lint import JSON_SCHEMA_VERSION, PASSES, RULES

REQUIRED_TOP_LEVEL = {
    "version": int,
    "tool": str,
    "ok": bool,
    "files_scanned": int,
    "suppressed": int,
    "passes": list,
    "counts": dict,
    "findings": list,
}

REQUIRED_FINDING = {
    "rule": str,
    "name": str,
    "path": str,
    "line": int,
    "col": int,
    "message": str,
    "hint": str,
}


def test_json_schema_on_findings(lint_fixture):
    report = lint_fixture("determinism_bad.py")
    payload = json.loads(report.to_json())
    assert set(payload) == set(REQUIRED_TOP_LEVEL)
    for key, expected_type in REQUIRED_TOP_LEVEL.items():
        assert isinstance(payload[key], expected_type), key
    assert payload["version"] == JSON_SCHEMA_VERSION == 3
    assert payload["tool"] == "repro-lint"
    assert payload["ok"] is False
    assert payload["passes"] == list(PASSES)
    assert payload["findings"]
    for finding in payload["findings"]:
        assert set(finding) == set(REQUIRED_FINDING)
        for key, expected_type in REQUIRED_FINDING.items():
            assert isinstance(finding[key], expected_type), key
        assert finding["rule"] in RULES
        assert finding["line"] >= 1
    # counts agree with the finding list
    tally = {}
    for finding in payload["findings"]:
        tally[finding["rule"]] = tally.get(finding["rule"], 0) + 1
    assert payload["counts"] == tally


def test_json_schema_on_clean_tree(lint_fixture):
    payload = json.loads(lint_fixture("aliasing_good.py").to_json())
    assert payload["ok"] is True
    assert payload["findings"] == []
    assert payload["counts"] == {}


def test_findings_sorted_by_location(lint_fixture):
    report = lint_fixture("determinism_bad.py")
    keys = [(f.path, f.line, f.col) for f in report.findings]
    assert keys == sorted(keys)


def test_text_report_mentions_rule_and_hint(lint_fixture):
    report = lint_fixture("aliasing_bad.py")
    text = report.to_text()
    assert "DVS010" in text and "hint:" in text
    assert "finding(s)" in text
