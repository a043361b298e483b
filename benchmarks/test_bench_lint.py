"""Lint-engine benchmark: one full-tree analysis, parse-once shared.

Times ``repro lint`` over ``src/repro`` -- every file parsed exactly
once into the shared :class:`~repro.lint.model.SourceModel`, all seven
passes (including the interprocedural race/escape analyses, the
async-hazard and wire-taint passes, and the call graph they all share)
running over that one AST forest.

One machine-independent budget is enforced: the seven-pass run stays
within 2x a five-pass (DVS001-014, pre-asyncflow/taint) run measured
in-process.  There is no cache and no diff-scoped mode, so every run
is the cold whole-tree run; its wall time is recorded.

Results are written to ``BENCH_lint.json`` at the repository root (CI
archives it as an artifact).
"""

import json
import os
import time

from repro.lint import LintConfig, lint_paths
from repro.lint.engine import iter_python_files

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "src", "repro",
)
RESULT_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_lint.json",
)

RUNS = 3

#: The rules of the five passes predating asyncflow/taint (DVS001-014):
#: timing them in-process gives a machine-independent 2x budget.
FIVE_PASS_RULES = frozenset(
    "DVS{0:03d}".format(number) for number in range(1, 15)
)


def _best_of(runs, **kwargs):
    timings = []
    for _ in range(runs):
        started = time.perf_counter()
        report = lint_paths([SRC], **kwargs)
        timings.append(time.perf_counter() - started)
    return min(timings), report


def test_bench_full_tree_lint():
    file_count = len(list(iter_python_files([SRC])))
    assert file_count > 50

    started = time.perf_counter()
    report = lint_paths([SRC])  # first run in this process
    cold = time.perf_counter() - started
    assert report.ok, report.to_text()

    best, report = _best_of(RUNS)
    baseline, _ = _best_of(RUNS, config=LintConfig(select=FIVE_PASS_RULES))

    result = {"lint-full-tree": {
        "files_scanned": report.files_scanned,
        "passes": report.engine["passes"],
        "ir_functions": report.engine["ir_functions"],
        "callgraph_edges": report.engine["callgraph_edges"],
        "runs": RUNS,
        "cold_seconds": round(cold, 4),
        "best_seconds": round(best, 4),
        "five_pass_best_seconds": round(baseline, 4),
        "slowdown_vs_five_pass": round(best / baseline, 3),
        "files_per_second": round(report.files_scanned / best, 1),
    }}
    with open(RESULT_PATH, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=2)
        handle.write("\n")

    # The tree lints in interactive time: the shared-AST design keeps
    # the seven passes from re-parsing 100+ files seven times over.
    assert report.files_scanned == file_count
    assert best < 30.0
    # The asyncflow/taint additions ride the existing parse + call
    # graph: together they may not double the engine's wall time.
    assert best <= 2.0 * baseline, (best, baseline)
