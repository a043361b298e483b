"""Shared helpers for the linter's own tests."""

import os

import pytest

from repro.lint import lint_paths

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture_path(name):
    return os.path.join(FIXTURES, name)


@pytest.fixture(scope="session")
def lint_fixture():
    """Lint one fixture file (cached per session) and return the report."""
    cache = {}

    def run(name, config=None):
        if config is not None:
            return lint_paths([fixture_path(name)], config=config)
        if name not in cache:
            cache[name] = lint_paths([fixture_path(name)])
        return cache[name]

    return run


def rule_ids(report):
    return {finding.rule for finding in report.findings}


def findings_for(report, rule):
    return [f for f in report.findings if f.rule == rule]

