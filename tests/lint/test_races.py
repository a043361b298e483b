"""DVS012/DVS013: the thread-boundary race detector on its fixtures,
plus the acceptance-critical mutation checks -- deleting any designated
handoff in the real ``runtime/cluster.py`` (the registry mutants of
``tests/mutants.py``) must reintroduce findings.
"""

import os

import pytest

from repro.lint import LintConfig, lint_paths
from repro.lint.races import _ThreadBoundaryAnalysis
from repro.lint.engine import iter_python_files
from repro.lint.model import SourceModel

from tests.lint.conftest import (
    findings_for,
    fixture_path,
    lint_mutant,
    rule_ids,
)
from tests.mutants import BY_NAME, MUTANTS, mutate

RACE_RULES = frozenset({"DVS012", "DVS013"})


def _config(glob):
    return LintConfig(select=RACE_RULES, runtime_globs=(glob,))


def test_bad_fixture_flags_every_unmarshalled_site():
    report = lint_paths(
        [fixture_path("races_bad.py")],
        config=_config("*/fixtures/races_bad.py"),
    )
    assert rule_ids(report) == {"DVS012", "DVS013"}
    dvs012_lines = {f.line for f in findings_for(report, "DVS012")}
    dvs013_lines = {f.line for f in findings_for(report, "DVS013")}
    # drain() and label() read loop-written state on the caller thread.
    assert {46, 49} <= dvs012_lines
    # poke() calls a loop-owned method, stop() a non-threadsafe loop API.
    assert {52, 55} == dvs013_lines


def test_good_fixture_is_clean():
    report = lint_paths(
        [fixture_path("races_good.py")],
        config=_config("*/fixtures/races_good.py"),
    )
    assert report.ok, report.to_text()


def test_findings_carry_the_loop_side_site():
    report = lint_paths(
        [fixture_path("races_bad.py")],
        config=_config("*/fixtures/races_bad.py"),
    )
    finding = findings_for(report, "DVS012")[0]
    assert "races_bad.py:" in finding.message
    assert "designated handoff" in finding.message


def test_classification_of_the_real_runtime():
    model = SourceModel()
    for path in iter_python_files(["src/repro"]):
        with open(path, "r", encoding="utf-8") as handle:
            model.add_module(path, handle.read())
    analysis = _ThreadBoundaryAnalysis(model, LintConfig())
    analysis.run()
    assert [cls.name for cls in analysis.facades] == ["RuntimeCluster"]
    # The loop side closes over the hosted layer stack.
    assert {"RuntimeNode", "PeerLink", "Listener", "ToLayer"} <= (
        analysis.loop_owned
    )
    assert "RuntimeCluster" not in analysis.loop_owned


# -- Handoff-deletion mutants on the real cluster (tests/mutants.py) ---


@pytest.mark.parametrize(
    "name", [m.name for m in MUTANTS if m.rules & RACE_RULES]
)
def test_deleting_a_handoff_reintroduces_findings(tmp_path, name):
    """Acceptance: un-marshalling any cluster operation is reported."""
    mutant = BY_NAME[name]
    report = lint_mutant(tmp_path, mutant, RACE_RULES)
    assert mutant.rules <= rule_ids(report), report.to_text()
    assert all(f.path.endswith("cluster.py") for f in report.findings)


def test_bcast_unwrap_flags_the_loop_owned_call():
    """With the hosted layers in view, un-marshalling bcast() is also a
    DVS013: the points-to closure resolves _nodes[pid].tower to the
    loop-owned Tower."""
    model = SourceModel()
    for path in iter_python_files(["src/repro"]):
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        if path.endswith(os.path.join("runtime", "cluster.py")):
            text = mutate(BY_NAME["bcast_wrap"], text)
        model.add_module(path, text)
    analysis = _ThreadBoundaryAnalysis(model, LintConfig())
    findings = analysis.run()
    assert any(
        f.rule == "DVS013" and "Tower.bcast" in f.message
        for f in findings
    ), [f.message for f in findings]


def test_unmutated_runtime_is_clean():
    report = lint_paths(["src/repro"], config=LintConfig(
        select=RACE_RULES,
    ))
    assert report.ok, report.to_text()
