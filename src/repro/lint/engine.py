"""The lint driver: file discovery, passes, suppressions.

Suppression: a finding is dropped when the *flagged line* carries a
``# lint: ignore`` comment -- bare (suppresses every rule on the line)
or targeted: ``# lint: ignore[DVS008]``, ``# lint: ignore[DVS004,
DVS005]``.  Suppressions are deliberately line-scoped; there is no
file- or project-wide escape hatch, so every accepted violation stays
visible at its site.
"""

import os
import re

from repro.lint import aliasing, determinism, wellformed
from repro.lint.config import LintConfig
from repro.lint.model import SourceModel
from repro.lint.report import Report

_PASSES = (wellformed, determinism, aliasing)

_SUPPRESS_RE = re.compile(
    r"#\s*lint:\s*ignore(?:\[(?P<rules>[A-Z0-9,\s]+)\])?"
)


def iter_python_files(paths):
    """Expand files/directories into a sorted list of ``.py`` files."""
    files = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, names in os.walk(path):
                dirs.sort()
                dirs[:] = [d for d in dirs if d != "__pycache__"]
                for name in sorted(names):
                    if name.endswith(".py"):
                        files.append(os.path.join(root, name))
        elif path.endswith(".py"):
            files.append(path)
    seen = set()
    unique = []
    for path in files:
        normalized = os.path.normpath(path)
        if normalized not in seen:
            seen.add(normalized)
            unique.append(normalized)
    return sorted(unique)


def suppressions_for(lines):
    """Line number (1-based) -> frozenset of suppressed rule ids
    (empty frozenset = suppress everything on that line)."""
    table = {}
    for number, line in enumerate(lines, start=1):
        match = _SUPPRESS_RE.search(line)
        if match is None:
            continue
        spec = match.group("rules")
        if spec is None:
            table[number] = frozenset()
        else:
            table[number] = frozenset(
                rule.strip() for rule in spec.split(",") if rule.strip()
            )
    return table


def _apply_suppressions(findings, suppression_tables):
    kept, suppressed = [], 0
    for finding in findings:
        table = suppression_tables.get(finding.path, {})
        rules = table.get(finding.line)
        if rules is not None and (not rules or finding.rule in rules):
            suppressed += 1
        else:
            kept.append(finding)
    return kept, suppressed


def lint_paths(paths, config=None):
    """Lint ``paths`` (files and/or directories); return a
    :class:`~repro.lint.report.Report`.

    This is the pytest-importable API: the clean-tree gate is just
    ``assert lint_paths(["src/repro"]).ok``.
    """
    config = config or LintConfig()
    files = iter_python_files(paths)
    model = SourceModel()
    suppression_tables = {}
    for path in files:
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
        module = model.add_module(path, source)
        if module is not None:
            suppression_tables[path] = suppressions_for(module.lines)

    raw = []
    for lint_pass in _PASSES:
        raw.extend(lint_pass.run_pass(model, config))

    # Dedupe: inheritance-aware passes can reach the same definition
    # through several subclasses.
    unique = {}
    for finding in raw:
        unique.setdefault(
            (finding.rule, finding.path, finding.line, finding.message),
            finding,
        )
    findings, suppressed = _apply_suppressions(
        list(unique.values()), suppression_tables
    )
    return Report(
        findings,
        files_scanned=len(files),
        suppressed=suppressed,
        passes=[lint_pass.__name__.rpartition(".")[2]
                for lint_pass in _PASSES],
    )
