"""Command line: ``run`` (everything, for people), ``compare`` (two
results files), ``selftest``, and the driver's one-workload protocol.

People::

    PYTHONPATH=src python -m benchmarks.gcsbench run --seed 1
    PYTHONPATH=src python -m benchmarks.gcsbench run --quick
    PYTHONPATH=src python -m benchmarks.gcsbench compare old.json new.json

Driver (``BENCHMARK.json``)::

    python3 benchmarks/gcsbench/run.py --workload to_small_n3 --seed 1 \\
        --seconds 10 --trace 0

which prints, as the last line of its output, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time

from benchmarks.gcsbench import compare as comparison
from benchmarks.gcsbench import metrics as catalogue
from benchmarks.gcsbench import runner, workloads
from benchmarks.gcsbench.check import self_test
from benchmarks.gcsbench.harness import HB_TIMEOUT, RepSpec, run_rep

#: ``--quick``: a tenth of the reference counts, one repetition.
QUICK_SCALE = 0.1

DEFAULT_OUT = "gcsbench_results.json"


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in COMMANDS:
        return COMMANDS[argv[0]](argv[1:])
    return driver(argv)


# -- The driver protocol -------------------------------------------------------


def driver(argv):
    parser = argparse.ArgumentParser(prog="gcsbench")
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.BY_NAME))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    workload = workloads.BY_NAME[args.workload]
    scale = args.seconds / workloads.REF_SECONDS
    if args.trace:
        outcome = runner.trace(workload, args.seed, scale)
        wanted = [m.name for m in catalogue.PER_LAYER]
        values = {
            name: (row["value"], row["unit"])
            for name, row in outcome["per_layer"].items()
        }
    else:
        outcome = runner.measure(workload, args.seed, scale)
        wanted = [m.name for m in catalogue.GATED]
        values = {
            name: (row["median"], row["unit"])
            for name, row in outcome["end_to_end"].items()
        }
    for problem in outcome["check_errors"]:
        print("check: " + problem, file=sys.stderr)
    for wedge in outcome["wedged"]:
        print("wedged: " + json.dumps(wedge), file=sys.stderr)
    complete = all(name in values for name in wanted)
    correct = outcome["correct"] and complete
    print(json.dumps({
        "correct": correct,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            name: {"value": values[name][0], "unit": values[name][1]}
            for name in wanted if name in values
        },
    }))
    return 0 if correct else 1


# -- One repetition (child process) ----------------------------------------------


def rep(argv):
    parser = argparse.ArgumentParser(prog="gcsbench rep")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--hb-timeout", type=float, default=HB_TIMEOUT)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    result = run_rep(RepSpec(
        args.workload, args.seed, args.scale, args.traced, args.quick,
        args.hb_timeout,
    ))
    print(json.dumps(result))
    return 0


# -- run --------------------------------------------------------------------------


def run(argv):
    parser = argparse.ArgumentParser(
        prog="gcsbench run",
        description="Run workloads end to end and traced; print every "
        "metric; exit non-zero if any correctness check fails.",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(workloads.REF_SECONDS),
                        help="nominal measured seconds per workload; "
                        "scales the fixed request counts")
    parser.add_argument("--workload", action="append",
                        choices=sorted(workloads.BY_NAME),
                        help="repeatable; default: all six")
    parser.add_argument("--reps", type=int, default=None,
                        help="end-to-end repetitions per workload "
                        "(default {0})".format(workloads.REPS))
    parser.add_argument("--quick", action="store_true",
                        help="smoke run: tiny counts, 1 repetition, "
                        "repetitions in parallel; numbers mean nothing")
    parser.add_argument("--no-trace", action="store_true",
                        help="skip the traced runs")
    parser.add_argument("--hb-timeout", type=float, default=HB_TIMEOUT,
                        help="diagnostic only: results at another "
                        "timeout are not comparable")
    parser.add_argument("--out", default=DEFAULT_OUT)
    args = parser.parse_args(argv)
    chosen = [
        w for w in workloads.WORKLOADS
        if not args.workload or w.name in args.workload
    ]
    started = time.time()
    scale = QUICK_SCALE if args.quick else args.seconds / workloads.REF_SECONDS
    if args.quick:
        measured = _quick(chosen, args, scale)
    else:
        measured = {}
        for workload in chosen:
            entry = runner.measure(
                workload, args.seed, scale, hb_timeout=args.hb_timeout,
                reps=args.reps,
            )
            if not args.no_trace:
                entry["trace"] = runner.trace(
                    workload, args.seed, scale, hb_timeout=args.hb_timeout
                )
            measured[workload.name] = entry
            print(render_workload(workload, entry), flush=True)
    document = {
        "schema": 1,
        "git_sha": git_sha(),
        "machine": machine(),
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
        "hb_timeout": args.hb_timeout,
        "wall_s": time.time() - started,
        "note": "no delay injected: all nodes share one loop thread in "
                "one process, so latency is processor time plus loop "
                "queueing",
        "workloads": measured,
    }
    with open(args.out, "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
    ok = all(_ok(entry) for entry in measured.values())
    print("{0}: {1} workload(s) in {2:.0f} s -> {3}".format(
        "PASS" if ok else "FAIL", len(measured), document["wall_s"], args.out
    ))
    return 0 if ok else 1


def _ok(entry):
    return entry["correct"] and (
        "trace" not in entry or entry["trace"]["correct"]
    )


def _quick(chosen, args, scale):
    """All repetitions of a smoke run, four at a time."""
    jobs = []
    for workload in chosen:
        for traced in ((False,) if args.no_trace else (False, True)):
            jobs.append(dict(
                workload=workload.name, seed=args.seed, scale=scale,
                traced=traced, quick=True, hb_timeout=args.hb_timeout,
            ))
    results = iter(runner.spawn_reps_parallel(jobs, width=4))
    measured = {}
    for workload in chosen:
        plain = next(results)
        entry = runner.assemble(workload, [plain])
        if not args.no_trace:
            entry["trace"] = runner.assemble_trace(
                workload, plain, next(results)
            )
        measured[workload.name] = entry
        print(render_workload(workload, entry), flush=True)
    return measured


def render_workload(workload, entry):
    lines = ["", "== {0} ==  {1}".format(
        workload.name,
        "open loop {0:.0f} req/s, kill+restart n1".format(
            workloads.fault_schedule(1.0).rate
        ) if workload.failover else
        "closed loop, {0} sessions".format(workloads.SESSIONS),
    )]
    lines.append("  correct={0} attempted={1} failed={2} speed_index={3}".format(
        entry["correct"], entry["attempted"], entry["failed"],
        "/".join("{0:.2f}".format(s) for s in entry["speed_index"] if s),
    ))
    for problem in entry["check_errors"]:
        lines.append("  CHECK FAILED: " + problem)
    for wedge in entry["wedged"]:
        lines.append("  WEDGED in {0}: {1}".format(
            wedge["phase"], json.dumps(wedge["nodes"], sort_keys=True)
        ))
    lines.append("  {0:<24}{1:>12}  {2:<6} {3:>11} {4:>11}  {5:>7}".format(
        "end-to-end metric", "median", "unit", "min", "max", "samples"
    ))
    for metric in catalogue.END_TO_END:
        row = entry["end_to_end"].get(metric.name)
        if row is None:
            if catalogue.applies(metric, workload):
                lines.append("  {0:<24}{1:>12}".format(metric.name, "n/a"))
            continue
        lines.append(
            "  {0:<24}{1:>12.4f}  {2:<6} {3:>11.4f} {4:>11.4f}  {5:>7}".format(
                metric.name, row["median"], row["unit"], row["min"],
                row["max"], row["samples"],
            )
        )
    tails = [e.get("tail") for e in entry["extra"] if e.get("tail")]
    if tails:
        lines.append(
            "  highest supported tail: p{0:g} = {1} ms (raw, per "
            "repetition); p99 ungated: {2} ms".format(
                tails[0],
                "/".join("{0:.1f}".format(e["commit_tail_ms"])
                         for e in entry["extra"] if "commit_tail_ms" in e),
                "/".join("{0:.1f}".format(e["commit_p99_ms"])
                         for e in entry["extra"] if "commit_p99_ms" in e),
            )
        )
    trace = entry.get("trace")
    if trace:
        lines.append("  -- traced run (spans + monitor + obs): correct={0} "
                     "failed={1}".format(trace["correct"], trace["failed"]))
        for problem in trace["check_errors"]:
            lines.append("  CHECK FAILED (traced): " + problem)
        for metric in catalogue.PER_LAYER:
            row = trace["per_layer"].get(metric.name)
            if row is not None:
                lines.append("  {0:<40}{1:>14.4f}  {2:<7} n={3}".format(
                    metric.name, row["value"], row["unit"], trace["requests"]
                ))
    return "\n".join(lines)


def git_sha():
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10, cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def machine():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": model,
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


# -- compare / selftest -----------------------------------------------------------


def compare(argv):
    parser = argparse.ArgumentParser(
        prog="gcsbench compare",
        description="One row per workload x end-to-end metric; exits "
        "non-zero if any row regressed.",
    )
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    with open(args.parent) as handle:
        parent = json.load(handle)
    with open(args.change) as handle:
        change = json.load(handle)
    rows = comparison.compare(parent, change)
    print(comparison.render(rows))
    return 1 if any(r["verdict"] == comparison.REGRESSED for r in rows) else 0


def selftest(argv):
    self_test()
    print("check.py self-test: ok")
    return 0


COMMANDS = {
    "run": run, "rep": rep, "compare": compare, "selftest": selftest,
}
