"""The clean-tree gate: ``repro lint`` must pass on the shipped source.

This is the CI contract of DESIGN.md section 8: every rule of the
three passes holds on ``src/repro`` (modulo explicitly visible
``# lint: ignore`` sites -- there are no blanket package exclusions).
The analyzer runs once, cold, over the whole tree; the gate tests
share that one report.
"""

import os

import pytest

from repro.lint import PASSES, RULES, lint_paths

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src", "repro")


@pytest.fixture(scope="module")
def tree_report():
    return lint_paths([SRC])


def test_source_tree_is_lint_clean(tree_report):
    assert tree_report.ok, "\n" + tree_report.to_text()


def test_source_tree_scan_covers_the_package(tree_report):
    # sanity: the walk really saw the tree (not an empty-dir false pass)
    assert tree_report.files_scanned > 50


def test_rule_registry_shape():
    # Retired, not renumbered (DESIGN.md section 8): DVS012-014,
    # DVS016-018 and DVS020/021, whose product mutants all have a named
    # dynamic killer in tests/mutants.py or are equivalent (info_alias),
    # DVS015 (wire-schema drift; the codec now compiles its checks from
    # the wire dataclasses themselves, so there is no copy to drift) and
    # DVS019 (lock-order cycles; the product holds no two locks to
    # order).
    assert sorted(RULES) == [
        "DVS{0:03d}".format(number) for number in range(1, 12)
    ]
    for rule_id, rule in RULES.items():
        assert rule_id == rule.id
        assert rule.lint_pass in PASSES
        assert rule.summary and rule.hint
    assert {rule.lint_pass for rule in RULES.values()} == set(PASSES) == {
        "wellformed", "determinism", "aliasing",
    }


def test_clean_gate_runs_every_pass(tree_report):
    # The gate above is only meaningful if every pass actually ran.
    assert tree_report.passes == list(PASSES)
