"""Findings and reports: text, JSON and SARIF rendering.

The JSON layout is stable (schema version 2) because CI archives it as
an artifact and tests validate it:

.. code-block:: json

    {
      "version": 2,
      "tool": "repro-lint",
      "ok": false,
      "files_scanned": 42,
      "engine": {"name": "ir-dataflow", "passes": ["wellformed", "..."],
                 "ir_functions": 310, "callgraph_edges": 1200},
      "counts": {"DVS004": 2},
      "findings": [
        {"rule": "DVS004", "name": "impure-predicate-write",
         "path": "src/repro/x.py", "line": 10, "col": 4,
         "message": "...", "hint": "..."}
      ]
    }

Version 2 added the ``engine`` block (which analysis backend produced
the findings, with its IR/call-graph sizes) and the ``baselined``
counter (findings waived by ``--baseline``).  Finding entries also
carry the rule's ``level`` (``error``/``warning``/``note``) -- an
additive key, so the schema version is unchanged.  SARIF 2.1.0 output
is a projection of the same data for code-scanning UIs, with the level
mapped to both the result and the rule's ``defaultConfiguration``.
"""

import json
from dataclasses import dataclass

from repro.lint.rules import RULES

#: Bumped on any backwards-incompatible change to the JSON layout.
JSON_SCHEMA_VERSION = 2

#: SARIF constants (the one version GitHub code scanning ingests).
_SARIF_VERSION = "2.1.0"
_SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


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

    @property
    def level(self):
        """SARIF severity: ``error``, ``warning`` or ``note``."""
        return RULES[self.rule].level

    def sort_key(self):
        return (self.path, self.line, self.col, self.rule, self.message)

    def fingerprint(self):
        """Identity under ``--baseline``: deliberately excludes the
        line number so reformatting does not resurrect old findings."""
        return (self.rule, self.path, self.message)

    def to_dict(self):
        return {
            "rule": self.rule,
            "name": self.name,
            "level": self.level,
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

    def __init__(self, findings, files_scanned, suppressed=0,
                 engine=None, baselined=0):
        self.findings = sorted(findings, key=Finding.sort_key)
        self.files_scanned = files_scanned
        self.suppressed = suppressed
        self.engine = dict(engine) if engine else {"name": "ir-dataflow"}
        self.baselined = baselined

    @property
    def ok(self):
        return not self.findings

    def counts(self):
        """Findings per rule id, in id order."""
        counts = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return dict(sorted(counts.items()))

    def apply_baseline(self, baseline):
        """Waive findings present in ``baseline`` (a parsed version-1/2
        report dict, or an iterable of finding dicts); returns a new
        :class:`Report` failing only on what is *new*."""
        if isinstance(baseline, dict):
            baseline = baseline.get("findings", [])
        known = {
            (entry["rule"], entry["path"], entry["message"])
            for entry in baseline
        }
        kept = [
            finding for finding in self.findings
            if finding.fingerprint() not in known
        ]
        return Report(
            kept,
            files_scanned=self.files_scanned,
            suppressed=self.suppressed,
            engine=self.engine,
            baselined=len(self.findings) - len(kept),
        )

    def to_dict(self):
        return {
            "version": JSON_SCHEMA_VERSION,
            "tool": "repro-lint",
            "ok": self.ok,
            "files_scanned": self.files_scanned,
            "suppressed": self.suppressed,
            "baselined": self.baselined,
            "engine": dict(self.engine),
            "counts": self.counts(),
            "findings": [f.to_dict() for f in self.findings],
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=False)

    def to_sarif(self):
        """The report as a SARIF 2.1.0 document (one run)."""
        used = sorted({finding.rule for finding in self.findings})
        rules = [
            {
                "id": rule_id,
                "name": RULES[rule_id].name,
                "shortDescription": {"text": RULES[rule_id].summary},
                "help": {"text": RULES[rule_id].hint},
                "defaultConfiguration": {"level": RULES[rule_id].level},
                "properties": {"lintPass": RULES[rule_id].lint_pass},
            }
            for rule_id in used
        ]
        results = [
            {
                "ruleId": finding.rule,
                "ruleIndex": used.index(finding.rule),
                "level": finding.level,
                "message": {"text": finding.message},
                "locations": [{
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": finding.path.replace("\\", "/"),
                        },
                        "region": {
                            "startLine": finding.line,
                            "startColumn": finding.col + 1,
                        },
                    },
                }],
            }
            for finding in self.findings
        ]
        document = {
            "$schema": _SARIF_SCHEMA,
            "version": _SARIF_VERSION,
            "runs": [{
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "informationUri":
                            "https://example.invalid/repro-lint",
                        "rules": rules,
                    },
                },
                "results": results,
                "properties": {
                    "filesScanned": self.files_scanned,
                    "engine": dict(self.engine),
                },
            }],
        }
        return json.dumps(document, indent=2, sort_keys=False)

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
        if self.baselined:
            lines.append(
                "{0} finding(s) waived by the baseline".format(
                    self.baselined
                )
            )
        return "\n".join(lines)
