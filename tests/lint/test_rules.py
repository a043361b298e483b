"""Positive and negative coverage for every rule id.

Every rule in the registry must (a) fire on its seeded fixture at the
expected sites and (b) stay silent on the corresponding clean fixture.
"""

import pytest

from repro.lint import RULES, LintConfig, lint_paths
from tests.lint.conftest import findings_for, rule_ids

#: rule id -> (bad fixture, clean fixture that must not trigger it).
RULE_FIXTURES = {
    "DVS001": ("wellformed_bad.py", "wellformed_good.py"),
    "DVS002": ("wellformed_bad.py", "wellformed_good.py"),
    "DVS003": ("wellformed_bad.py", "wellformed_good.py"),
    "DVS004": ("wellformed_bad.py", "wellformed_good.py"),
    "DVS005": ("wellformed_bad.py", "wellformed_good.py"),
    "DVS006": ("determinism_bad.py", "determinism_good.py"),
    "DVS007": ("determinism_bad.py", "determinism_good.py"),
    "DVS008": ("determinism_bad.py", "determinism_good.py"),
    "DVS009": ("determinism_bad.py", "determinism_good.py"),
    "DVS010": ("aliasing_bad.py", "aliasing_good.py"),
    "DVS011": ("aliasing_bad.py", "aliasing_good.py"),
}


def test_every_registered_rule_has_fixture_coverage():
    assert set(RULE_FIXTURES) == set(RULES)


@pytest.mark.parametrize("rule", sorted(RULE_FIXTURES))
def test_rule_fires_on_seeded_fixture(lint_fixture, rule):
    bad, _ = RULE_FIXTURES[rule]
    report = lint_fixture(bad)
    assert rule in rule_ids(report), report.to_text()


@pytest.mark.parametrize("rule", sorted(RULE_FIXTURES))
def test_rule_silent_on_clean_fixture(lint_fixture, rule):
    _, good = RULE_FIXTURES[rule]
    report = lint_fixture(good)
    assert rule not in rule_ids(report), report.to_text()


@pytest.mark.parametrize("name", [
    "wellformed_good.py", "determinism_good.py", "aliasing_good.py",
    "edge_cases.py",
])
def test_clean_fixtures_are_fully_clean(lint_fixture, name):
    report = lint_fixture(name)
    assert report.ok, report.to_text()


class TestWellformedDetails:
    def test_eff_without_pre_names_the_action(self, lint_fixture):
        report = lint_fixture("wellformed_bad.py")
        (finding,) = findings_for(report, "DVS001")
        assert "'pong'" in finding.message

    def test_input_guard_and_orphans(self, lint_fixture):
        report = lint_fixture("wellformed_bad.py")
        (guard,) = findings_for(report, "DVS002")
        assert "ping" in guard.message
        orphans = findings_for(report, "DVS003")
        assert len(orphans) == 2  # cand_ for an input + unknown action

    def test_predicate_purity_sites(self, lint_fixture):
        report = lint_fixture("wellformed_bad.py")
        assert len(findings_for(report, "DVS004")) == 1
        assert len(findings_for(report, "DVS005")) == 2

    def test_invariant_functions_are_checked(self, lint_fixture):
        report = lint_fixture("invariants_bad.py")
        assert len(findings_for(report, "DVS004")) == 2  # assign + del
        assert len(findings_for(report, "DVS005")) == 1


class TestDeterminismDetails:
    def test_wall_clock_sites(self, lint_fixture):
        report = lint_fixture("determinism_bad.py")
        assert len(findings_for(report, "DVS006")) == 2

    def test_entropy_sites(self, lint_fixture):
        report = lint_fixture("determinism_bad.py")
        assert len(findings_for(report, "DVS007")) == 4

    def test_unsorted_iteration_sites(self, lint_fixture):
        report = lint_fixture("determinism_bad.py")
        assert len(findings_for(report, "DVS008")) == 3

    def test_id_ordering_sites(self, lint_fixture):
        report = lint_fixture("determinism_bad.py")
        assert len(findings_for(report, "DVS009")) == 2


def test_select_restricts_rules(lint_fixture):
    config = LintConfig(select={"DVS010"})
    report = lint_fixture("aliasing_bad.py", config=config)
    assert rule_ids(report) == {"DVS010"}


def test_unknown_rule_id_rejected():
    with pytest.raises(ValueError):
        LintConfig(select={"DVS999"})


def test_event_path_modules_widen_dvs008_scope(tmp_path):
    code = (
        "def plain_function(table):\n"
        "    for key in table.keys():\n"
        "        print(key)\n"
    )
    outside = tmp_path / "somewhere.py"
    outside.write_text(code)
    assert lint_paths([str(outside)]).ok

    net_dir = tmp_path / "net"
    net_dir.mkdir()
    inside = net_dir / "simulator.py"
    inside.write_text(code)
    report = lint_paths([str(inside)])
    assert rule_ids(report) == {"DVS008"}
