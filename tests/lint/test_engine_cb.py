"""The lint engine over the causal-broadcast package: the ``cb/`` tier
(spec automata, clocks, wire messages) must stay clean end to end."""

import os

from repro.lint import PASSES, lint_paths

REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)
    ))),
    "src", "repro",
)
CB = os.path.join(REPO_SRC, "cb")


def test_cb_package_is_lint_clean():
    report = lint_paths([CB])
    assert report.ok, "\n" + report.to_text()
    assert report.files_scanned >= 5


def test_cb_run_exercises_the_full_pass_roster():
    report = lint_paths([CB])
    assert report.passes == list(PASSES)
