"""DVS014: the effect alias-escape check on its fixtures, plus the
mutation tying it to the runtime EffectIsolationChecker's discipline:
deleting the ``frozenset`` copy in the real ``VsToDvs.eff_vs_newview``
must reintroduce a finding.
"""

from repro.lint import LintConfig, lint_paths

from tests.lint.conftest import (
    findings_for,
    fixture_path,
    lint_mutant,
    rule_ids,
)
from tests.mutants import MUTANTS

ESCAPE_ONLY = LintConfig(select={"DVS014"})


def test_bad_fixture_flags_every_leak():
    report = lint_paths(
        [fixture_path("escape_bad.py")], config=ESCAPE_ONLY
    )
    assert rule_ids(report) == {"DVS014"}
    lines = sorted(f.line for f in findings_for(report, "DVS014"))
    # foreign receiver call, foreign store, message constructor.
    assert lines == [37, 38, 41]
    messages = " ".join(f.message for f in report.findings)
    assert "state.queue" in messages and "state.seen" in messages


def test_good_fixture_is_clean():
    report = lint_paths(
        [fixture_path("escape_good.py")], config=ESCAPE_ONLY
    )
    assert report.ok, report.to_text()


def test_real_tree_is_clean():
    report = lint_paths(["src/repro"], config=ESCAPE_ONLY)
    assert report.ok, report.to_text()


def test_dropping_the_frozenset_copy_reintroduces_the_leak(tmp_path):
    """The static counterpart of gcs/effect_check.py: the InfoMsg a
    view change publishes must carry a frozen copy of ``amb``, never
    the live set (the registry's DVS014 mutants, ``tests/mutants.py``)."""
    for mutant in MUTANTS:
        if "DVS014" in mutant.rules:
            report = lint_mutant(tmp_path / mutant.name, mutant, {"DVS014"})
            assert any(
                "state.amb" in f.message and f.path.endswith(mutant.file)
                for f in report.findings
            ), report.to_text()
