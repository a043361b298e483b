"""Golden-file SARIF snapshot: the rendered document for a seeded
fixture is pinned byte-for-byte (modulo path normalisation), so any
drift in rule metadata, result shape or engine properties shows up as
a reviewable diff in ``tests/lint/golden/``.

To regenerate after an intentional change::

    PYTHONPATH=src python -m pytest tests/lint/test_sarif_golden.py \
        --force-regen  # (delete the golden file and re-run the test)
"""

import json
import os

from repro.lint import LintConfig, lint_paths

from tests.lint.conftest import fixture_path

GOLDEN = os.path.join(
    os.path.dirname(__file__), "golden", "races_bad.sarif.json"
)


def _normalised_document():
    report = lint_paths(
        [fixture_path("races_bad.py")],
        config=LintConfig(runtime_globs=("*/fixtures/races_bad.py",)),
    )
    document = json.loads(report.to_sarif())
    for result in document["runs"][0]["results"]:
        location = result["locations"][0]["physicalLocation"]
        artifact = location["artifactLocation"]
        artifact["uri"] = (
            "tests/lint/fixtures/" + os.path.basename(artifact["uri"])
        )
    return document


def test_sarif_snapshot_matches_golden():
    document = _normalised_document()
    if not os.path.exists(GOLDEN):  # regeneration path
        os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
        with open(GOLDEN, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
    with open(GOLDEN, "r", encoding="utf-8") as handle:
        golden = json.load(handle)
    assert document == golden


def test_golden_is_checked_in_and_self_consistent():
    with open(GOLDEN, "r", encoding="utf-8") as handle:
        golden = json.load(handle)
    (run,) = golden["runs"]
    assert [r["id"] for r in run["tool"]["driver"]["rules"]] == [
        "DVS012", "DVS013"
    ]
    assert len(run["results"]) == 5
