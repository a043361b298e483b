"""The ``repro lint`` CLI subcommand."""

import json

from repro.cli import main
from tests.lint.conftest import fixture_path


def test_lint_cli_clean_exits_zero(capsys):
    code = main(["lint", fixture_path("aliasing_good.py")])
    out = capsys.readouterr().out
    assert code == 0
    assert "clean" in out


def test_lint_cli_findings_exit_nonzero(capsys):
    code = main(["lint", fixture_path("aliasing_bad.py")])
    out = capsys.readouterr().out
    assert code == 1
    assert "DVS010" in out and "DVS011" in out


def test_lint_cli_json_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main([
        "lint", fixture_path("determinism_bad.py"),
        "--format", "json", "--output", str(target),
    ])
    assert code == 1
    payload = json.loads(target.read_text())
    assert payload["tool"] == "repro-lint"
    assert payload["findings"]
    # the human summary still lands on stdout for CI logs
    assert "finding(s)" in capsys.readouterr().out


def test_lint_cli_select(capsys):
    code = main([
        "lint", fixture_path("determinism_bad.py"),
        "--select", "DVS006",
    ])
    out = capsys.readouterr().out
    assert code == 1
    assert "DVS006" in out and "DVS007" not in out


def test_lint_cli_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    assert [line.split()[0] for line in out.splitlines()] == [
        "DVS{0:03d}".format(n) for n in range(1, 12)
    ]


def test_lint_cli_multiple_paths(capsys):
    code = main([
        "lint",
        fixture_path("aliasing_good.py"),
        fixture_path("determinism_good.py"),
    ])
    assert code == 0
    assert "2 file(s)" in capsys.readouterr().out
