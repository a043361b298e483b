"""Pass 6: torn invariants across an ``await`` in the live runtime.

The live runtime multiplexes every layer automaton onto one asyncio
loop, so the paper's atomicity assumptions hold only between suspension
points.  This pass checks every coroutine in a runtime module for

DVS018  an ``await`` between two writes to the same ``self`` attribute:
        a handler scheduled at the suspension point can observe
        half-applied layer state.

Writes are ordered lexically (loop back-edges are not straddled), and
``except``/``finally`` blocks are exempt: cleanup code legitimately
re-touches state (DESIGN.md section 13).  DVS016 (blocking calls) and
DVS017 (dropped tasks) are retired: every product mutant they flagged
has a named dynamic killer (``tests/mutants.py``, DESIGN.md section 8).
"""

import ast

from repro.lint.callgraph import build_project
from repro.lint.ir import walk_skip_nested
from repro.lint.report import Finding


def _cleanup_lines(func_node):
    """Line numbers inside ``except`` handlers and ``finally`` blocks."""
    lines = set()
    for node in ast.walk(func_node):
        if not isinstance(node, ast.Try):
            continue
        regions = list(node.handlers) + list(node.finalbody)
        for region in regions:
            end = getattr(region, "end_lineno", None) or region.lineno
            lines.update(range(region.lineno, end + 1))
    return lines


def _torn_writes(ir):
    cleanup = _cleanup_lines(ir.node)
    awaits = sorted({
        node.lineno
        for node in walk_skip_nested(ir.node)
        if isinstance(node, ast.Await)
        and node.lineno not in cleanup
    })
    if not awaits:
        return []
    writes = {}
    for access in ir.attr_accesses("self"):
        if access.kind in ("write", "mutate") and (
            access.line not in cleanup
        ):
            writes.setdefault(access.attr, set()).add(access.line)
    findings = []
    for attr in sorted(writes):
        lines = sorted(writes[attr])
        if len(lines) < 2:
            continue
        for at in awaits:
            before = [l for l in lines if l < at]
            after = [l for l in lines if l > at]
            if before and after:
                findings.append(Finding(
                    rule="DVS018", path=ir.path, line=at, col=0,
                    message="await between writes to self.{0} "
                    "(lines {1} and {2}): a handler scheduled at "
                    "this suspension point observes half-applied "
                    "state; apply the update atomically or "
                    "re-validate after the await".format(
                        attr, before[-1], after[0]
                    ),
                ))
    return findings


def run_pass(model, config):
    """All DVS018 findings over the model's runtime coroutines."""
    if not config.enabled("DVS018") or not any(
        config.is_runtime_path(module.path) for module in model.modules
    ):
        return []
    findings = []
    project = build_project(model)
    for _klass, ir in project.functions_in(config.is_runtime_path):
        if ir.is_async:
            findings.extend(_torn_writes(ir))
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings
