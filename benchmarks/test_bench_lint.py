"""Lint-engine benchmark: one full-tree analysis, parse-once shared.

Times ``repro lint`` over ``src/repro`` -- every file parsed exactly
once into the shared :class:`~repro.lint.model.SourceModel`, all six
passes (including the interprocedural race/escape/async-hazard
analyses and the call graph they share) running over that one AST
forest.

There is no cache and no diff-scoped mode, so every run is the cold
whole-tree run; its wall time is recorded.  The old "all passes within
2x the DVS001-014 passes" budget is gone with the taint pass it was
written for: what is left above DVS014 is asyncflow, which rides the
same call graph, and the two runs now time the same (ratio 1.0 +- the
host's noise), so the ratio measures nothing.

Results are written to ``BENCH_lint.json`` at the repository root (CI
archives it as an artifact).
"""

import json
import os
import time

from repro.lint import lint_paths
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

def _best_of(runs):
    timings = []
    for _ in range(runs):
        started = time.perf_counter()
        report = lint_paths([SRC])
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

    result = {"lint-full-tree": {
        "files_scanned": report.files_scanned,
        "passes": report.engine["passes"],
        "ir_functions": report.engine["ir_functions"],
        "callgraph_edges": report.engine["callgraph_edges"],
        "runs": RUNS,
        "cold_seconds": round(cold, 4),
        "best_seconds": round(best, 4),
        "files_per_second": round(report.files_scanned / best, 1),
    }}
    with open(RESULT_PATH, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=2)
        handle.write("\n")

    # The tree lints in interactive time: the shared-AST design keeps
    # the six passes from re-parsing 100+ files six times over.
    assert report.files_scanned == file_count
    assert best < 30.0
