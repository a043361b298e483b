"""The linter linting itself, and the seeded-violation gate CI runs.

The self-check keeps the analysis code held to its own standard; the
seeded tree asserts the *exact* finding sets, so a regression that
silences a rule (or one that sprays false positives) fails loudly.
"""

from repro.lint import LintConfig, lint_paths

from tests.lint.conftest import fixture_path

#: The seeded fixture tree and the exact findings each file must yield,
#: as (rule, line) pairs.
SEEDED = {
    "races_bad.py": {
        "config": {
            "runtime_globs": ("*/fixtures/races_bad.py",),
            "select": {"DVS012", "DVS013"},
        },
        "expected": {
            ("DVS012", 46),
            ("DVS012", 49),
            ("DVS012", 52),
            ("DVS013", 52),
            ("DVS013", 55),
        },
    },
    "escape_bad.py": {
        "config": {"select": {"DVS014"}},
        "expected": {
            ("DVS014", 37),
            ("DVS014", 38),
            ("DVS014", 41),
        },
    },
    "async_bad.py": {
        "config": {
            "runtime_globs": ("*/fixtures/async_bad.py",),
            "select": {"DVS016", "DVS017", "DVS018"},
        },
        "expected": {
            ("DVS016", 25),
            ("DVS016", 26),
            ("DVS018", 34),
            ("DVS017", 38),
            ("DVS016", 42),
        },
    },
}


def test_the_linter_lints_itself_clean():
    report = lint_paths(["src/repro/lint"])
    assert report.ok, report.to_text()


def test_seeded_violations_yield_exact_finding_sets():
    for name, spec in SEEDED.items():
        report = lint_paths(
            [fixture_path(name)], config=LintConfig(**spec["config"])
        )
        got = {(f.rule, f.line) for f in report.findings}
        assert got == spec["expected"], (name, report.to_text())
