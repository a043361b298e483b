"""Findings and reports: text and JSON rendering.

The JSON layout is stable (schema version 3) because CI archives it as
an artifact and tests validate it:

.. code-block:: json

    {
      "version": 3,
      "tool": "repro-lint",
      "ok": false,
      "files_scanned": 42,
      "suppressed": 0,
      "passes": ["wellformed", "determinism", "aliasing"],
      "counts": {"DVS004": 2},
      "findings": [
        {"rule": "DVS004", "name": "impure-predicate-write",
         "path": "src/repro/x.py", "line": 10, "col": 4,
         "message": "...", "hint": "..."}
      ]
    }

Version 3 replaced version 2's ``engine`` block (the analysis backend,
with its IR and call-graph sizes) by the list of ``passes`` that ran:
one backend is left, and it builds no IR.
"""

import json
from dataclasses import dataclass

from repro.lint.rules import RULES

#: Bumped on any backwards-incompatible change to the JSON layout.
JSON_SCHEMA_VERSION = 3


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    @property
    def name(self):
        return RULES[self.rule].name

    @property
    def hint(self):
        return RULES[self.rule].hint

    def sort_key(self):
        return (self.path, self.line, self.col, self.rule, self.message)

    def to_dict(self):
        return {
            "rule": self.rule,
            "name": self.name,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "hint": self.hint,
        }

    def render(self):
        return "{0}:{1}:{2}: {3} [{4}] {5}\n    hint: {6}".format(
            self.path, self.line, self.col, self.rule, self.name,
            self.message, self.hint,
        )


class Report:
    """The outcome of one lint run over a set of files."""

    def __init__(self, findings, files_scanned, suppressed=0, passes=()):
        self.findings = sorted(findings, key=Finding.sort_key)
        self.files_scanned = files_scanned
        self.suppressed = suppressed
        self.passes = list(passes)

    @property
    def ok(self):
        return not self.findings

    def counts(self):
        """Findings per rule id, in id order."""
        counts = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return dict(sorted(counts.items()))

    def to_dict(self):
        return {
            "version": JSON_SCHEMA_VERSION,
            "tool": "repro-lint",
            "ok": self.ok,
            "files_scanned": self.files_scanned,
            "suppressed": self.suppressed,
            "passes": list(self.passes),
            "counts": self.counts(),
            "findings": [f.to_dict() for f in self.findings],
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=False)

    def to_text(self):
        lines = [finding.render() for finding in self.findings]
        if self.findings:
            per_rule = ", ".join(
                "{0} x{1}".format(rule, n) for rule, n in self.counts().items()
            )
            lines.append(
                "{0} finding(s) in {1} file(s) scanned ({2})".format(
                    len(self.findings), self.files_scanned, per_rule
                )
            )
        else:
            lines.append(
                "clean: 0 findings in {0} file(s) scanned".format(
                    self.files_scanned
                )
            )
        if self.suppressed:
            lines.append(
                "{0} finding(s) suppressed by lint: ignore comments".format(
                    self.suppressed
                )
            )
        return "\n".join(lines)
