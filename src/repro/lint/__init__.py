"""``repro lint``: static analysis for the simulation stack and the
live runtime, built on a per-function IR and a project-wide call
graph.

Six passes guard the properties the paper's formalism rests on:

1. *well-formedness* -- faithful precondition/effect automata
   (rules DVS001-DVS005);
2. *determinism* -- bit-reproducible simulation from a seed
   (rules DVS006-DVS009);
3. *aliasing* -- no hidden state shared across simulated processes
   (rules DVS010-DVS011);
4. *races* -- interprocedural thread-boundary analysis of the live
   runtime's sync-facade/event-loop split (rules DVS012-DVS013);
5. *escape* -- transition effects never leak aliases of mutable layer
   state across a layer boundary (rule DVS014);
6. *asyncflow* -- async-hazard analysis of the event loop hosting the
   stack: blocking calls, dropped tasks, torn invariants at awaits
   (rules DVS016-DVS018).

Use from code or tests::

    from repro.lint import LintConfig, lint_paths
    report = lint_paths(["src/repro"])
    assert report.ok, report.to_text()

or from the command line: ``python -m repro lint src/repro``
(``--format json`` and ``--select`` are supported).  Every run is one
cold pass over the whole tree.
"""

from repro.lint.callgraph import ProjectModel, build_project
from repro.lint.config import (
    DEFAULT_EVENT_PATH_GLOBS,
    DEFAULT_RUNTIME_GLOBS,
    LintConfig,
)
from repro.lint.engine import iter_python_files, lint_paths
from repro.lint.ir import FunctionIR
from repro.lint.report import Finding, JSON_SCHEMA_VERSION, Report
from repro.lint.rules import PASSES, RULES, Rule

__all__ = [
    "DEFAULT_EVENT_PATH_GLOBS",
    "DEFAULT_RUNTIME_GLOBS",
    "Finding",
    "FunctionIR",
    "JSON_SCHEMA_VERSION",
    "LintConfig",
    "PASSES",
    "ProjectModel",
    "RULES",
    "Report",
    "Rule",
    "build_project",
    "iter_python_files",
    "lint_paths",
]
