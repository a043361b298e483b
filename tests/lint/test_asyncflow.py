"""DVS018: the torn-write pass on its fixtures, and the registry mutants
it flags on the real tree (``tests/mutants.py``).
"""

import pytest

from repro.lint import LintConfig, lint_paths

from tests.lint.conftest import (
    findings_for,
    fixture_path,
    lint_mutant,
    rule_ids,
)
from tests.mutants import BY_NAME, MUTANTS

ASYNC_RULES = frozenset({"DVS018"})


def _config(glob):
    return LintConfig(select=ASYNC_RULES, runtime_globs=(glob,))


def test_torn_write_site():
    report = lint_paths(
        [fixture_path("async_bad.py")],
        config=_config("*/fixtures/async_bad.py"),
    )
    (torn,) = findings_for(report, "DVS018")
    assert "self.view" in torn.message
    assert "19" in torn.message and "21" in torn.message


def test_good_fixture_is_clean():
    report = lint_paths(
        [fixture_path("async_good.py")],
        config=_config("*/fixtures/async_good.py"),
    )
    assert report.ok, report.to_text()


@pytest.mark.parametrize(
    "name", [m.name for m in MUTANTS if m.rules & ASYNC_RULES]
)
def test_mutating_the_runtime_reintroduces_findings(tmp_path, name):
    """Acceptance: tearing an invariant across an await in the shipped
    runtime is reported, in the mutated file."""
    mutant = BY_NAME[name]
    report = lint_mutant(tmp_path, mutant, ASYNC_RULES)
    assert mutant.rules <= rule_ids(report), report.to_text()
    assert all(f.path.endswith(mutant.file) for f in report.findings)


def test_unmutated_runtime_is_clean():
    report = lint_paths(["src/repro"], config=LintConfig(
        select=ASYNC_RULES,
    ))
    assert report.ok, report.to_text()
