"""E10 -- chaos benchmark: full stack under a nemesis plan with the
online safety monitor armed.

Measures the cost of a monitored chaos run (simulated time, wire
traffic, drops, monitor-checked events) for each nemesis plan family,
and the overhead the online monitor adds over an unmonitored run of the
same schedule.  The ``spec`` column is the monitor's verdict: the VS,
DVS and TO specifications, stepped online over the run's action log --
``accepted``, or the first rejecting spec and the index it stopped at.
Asserted for every family: ``flaky``'s lost frames stall a sender
rather than leave a gap in its FIFO order (ROADMAP items 4(beta), 16).
"""

from repro.analysis import render_table
from repro.faults.harness import run_chaos
from repro.faults.nemesis import (
    crash_recovery_storm,
    flaky_link_windows,
    partition_churn,
)

PROCS = ["p1", "p2", "p3", "p4", "p5"]
DURATION = 160.0


def _plan(family, seed=0):
    builders = {
        "storm": crash_recovery_storm,
        "churn": partition_churn,
        "flaky": flaky_link_windows,
    }
    return builders[family](PROCS, seed=seed, start=10.0, duration=100.0)


def _run(family, monitor=True):
    result = run_chaos(
        PROCS, seed=0, plan=_plan(family), duration=DURATION,
        monitor=monitor,
    )
    assert result.ok
    return result


def test_bench_chaos_storm(benchmark):
    result = benchmark(_run, "storm")
    assert result.stats["violations"] == 0


def test_bench_chaos_churn(benchmark):
    result = benchmark(_run, "churn")
    assert result.stats["violations"] == 0


def test_bench_chaos_flaky(benchmark):
    result = benchmark(_run, "flaky")
    assert result.stats["violations"] == 0


def _spec_cell(result):
    rejections = [r for r in result.monitor.rejections().values()
                  if r is not None]
    if not rejections:
        return "accepted"
    first = min(rejections, key=lambda r: r.index)
    return "{0} rejects #{1}".format(first.spec.upper(), first.index)


def test_bench_monitor_overhead(benchmark):
    unmonitored = benchmark(_run, "churn", monitor=False)
    monitored = _run("churn")
    rows = []
    for family in ("storm", "churn", "flaky"):
        r = _run(family)
        rows.append([
            family,
            len(r.plan),
            "{0:.0f}".format(r.stats["sim_time"]),
            r.stats["wire_sends"],
            r.stats["drops"],
            r.stats["events"],
            _spec_cell(r),
        ])
        assert rows[-1][-1] == "accepted", r.monitor.rejections()
    print()
    print(
        render_table(
            ["plan", "ops", "sim time", "wire msgs", "drops", "checked",
             "spec"],
            rows,
            title="E10: chaos runs under the online monitor (5 nodes)",
        )
    )
    assert monitored.stats["wire_sends"] == unmonitored.stats["wire_sends"]
