"""The linter linting itself, and the seeded-violation gate CI runs.

The self-check keeps the analysis code held to its own standard; the
seeded tree asserts the *exact* finding sets, so a regression that
silences a rule (or one that sprays false positives) fails loudly.
"""

from repro.lint import lint_paths

from tests.lint.conftest import fixture_path

#: The seeded fixture tree and the exact findings each file must yield
#: under the default configuration, as (rule, line) pairs.
SEEDED = {
    "wellformed_bad.py": {
        ("DVS001", 18), ("DVS002", 12), ("DVS003", 33), ("DVS003", 36),
        ("DVS004", 22), ("DVS005", 23), ("DVS005", 30),
    },
    "invariants_bad.py": {("DVS004", 5), ("DVS004", 11), ("DVS005", 6)},
    "determinism_bad.py": {
        ("DVS006", 11), ("DVS006", 15),
        ("DVS007", 19), ("DVS007", 20), ("DVS007", 21), ("DVS007", 22),
        ("DVS008", 28), ("DVS008", 30), ("DVS008", 34),
        ("DVS009", 40), ("DVS009", 44),
    },
    "aliasing_bad.py": {
        ("DVS010", 3), ("DVS010", 4), ("DVS010", 5), ("DVS010", 6),
        ("DVS010", 7), ("DVS011", 11), ("DVS011", 12), ("DVS011", 13),
    },
}


def test_the_linter_lints_itself_clean():
    report = lint_paths(["src/repro/lint"])
    assert report.ok, report.to_text()


def test_seeded_violations_yield_exact_finding_sets():
    for name, expected in SEEDED.items():
        report = lint_paths([fixture_path(name)])
        got = {(f.rule, f.line) for f in report.findings}
        assert got == expected, (name, report.to_text())
