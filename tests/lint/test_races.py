"""DVS012/DVS013: the thread-boundary race detector on its fixtures,
plus the acceptance-critical mutation checks -- deleting any designated
handoff in the real ``runtime/cluster.py`` must reintroduce findings.
"""

import os
import shutil

import pytest

from repro.lint import LintConfig, lint_paths
from repro.lint.races import _ThreadBoundaryAnalysis
from repro.lint.engine import iter_python_files
from repro.lint.model import SourceModel

from tests.lint.conftest import fixture_path, findings_for, rule_ids

RACE_RULES = frozenset({"DVS012", "DVS013"})

SRC_RUNTIME = os.path.join("src", "repro", "runtime")


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


# -- Handoff-deletion mutations on the real cluster -------------------

_MUTATIONS = {
    "stop_wrap": (
        "self._loop.call_soon_threadsafe(self._loop.stop)",
        "self._loop.stop()",
        {"DVS013"},
    ),
    # Pure: the same call with the same arguments, on the caller thread
    # (tests/integration/test_live_chaos.py applies this one dynamically).
    "bcast_wrap": (
        "self._call(call)",
        "self._nodes[pid].tower.bcast(payload, ordering)",
        {"DVS012"},
    ),
    # Pure: the node is still stopped, on the loop; only the thread the
    # three pops run on changes.
    "kill_wrap": (
        "self._call(self._kill_async, pid, timeout=timeout)",
        "node = self._nodes.pop(pid)\n"
        "        self._apps.pop(pid, None)\n"
        "        self._cb_apps.pop(pid, None)\n"
        "        self._call(node.stop, timeout=timeout)",
        {"DVS012"},
    ),
}


@pytest.mark.parametrize("name", sorted(_MUTATIONS))
def test_deleting_a_handoff_reintroduces_findings(tmp_path, name):
    """Acceptance: un-marshalling any cluster operation is reported."""
    original, replacement, expected_rules = _MUTATIONS[name]
    tree = tmp_path / "repro" / "runtime"
    shutil.copytree(SRC_RUNTIME, tree)
    cluster = tree / "cluster.py"
    source = cluster.read_text()
    assert original in source, "mutation anchor drifted"
    cluster.write_text(source.replace(original, replacement))
    report = lint_paths([str(tmp_path)], config=LintConfig(
        select=RACE_RULES,
    ))
    assert expected_rules <= rule_ids(report), report.to_text()
    assert all(f.path.endswith("cluster.py") for f in report.findings)


def test_bcast_unwrap_flags_the_loop_owned_call():
    """With the hosted layers in view, un-marshalling bcast() is also a
    DVS013: the points-to closure resolves _nodes[pid].tower to the
    loop-owned Tower."""
    with open(os.path.join(SRC_RUNTIME, "cluster.py"),
              encoding="utf-8") as handle:
        source = handle.read()
    original, replacement, _ = _MUTATIONS["bcast_wrap"]
    assert original in source, "mutation anchor drifted"
    mutated = source.replace(original, replacement)
    model = SourceModel()
    for path in iter_python_files(["src/repro"]):
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        if path.endswith(os.path.join("runtime", "cluster.py")):
            text = mutated
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
