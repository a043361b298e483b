"""Repetitions in fresh interpreters, and their aggregation.

Every repetition runs in its own Python process (a fresh heap, a fresh
``ru_maxrss``, no warmed caches carried over); a measurement is the
median over the workload's repetitions, with min/max kept.  The traced
measurement is one end-to-end repetition followed by one traced one, so
the cost of tracing (``trace.throughput_ratio``) compares neighbours in
time on this bimodal host.
"""

import json
import os
import statistics
import subprocess
import sys

from benchmarks.gcsbench import metrics as catalogue
from benchmarks.gcsbench import workloads
from benchmarks.gcsbench.harness import HB_TIMEOUT

RUN_PY = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")

#: A repetition that outlives this is killed: the in-process deadlines
#: add up to less, so only a hung interpreter ever gets here.
REP_TIMEOUT_S = 150.0


class RepFailed(RuntimeError):
    """A repetition process died or printed no result."""


def rep_command(workload, seed, scale, traced=False, quick=False,
                hb_timeout=HB_TIMEOUT):
    command = [
        sys.executable, RUN_PY, "rep", "--workload", workload,
        "--seed", str(seed), "--scale", repr(scale),
        "--hb-timeout", repr(hb_timeout),
    ]
    if traced:
        command.append("--traced")
    if quick:
        command.append("--quick")
    return command


def parse_rep(command, returncode, stdout, stderr):
    lines = stdout.strip().splitlines()
    if returncode != 0 or not lines:
        raise RepFailed("{0} exited {1}: {2}".format(
            " ".join(command[2:]), returncode, stderr.strip()[-2000:]
        ))
    return json.loads(lines[-1])


def spawn_rep(**kwargs):
    """Run one repetition in a fresh interpreter; returns its result."""
    command = rep_command(**kwargs)
    try:
        done = subprocess.run(
            command, capture_output=True, text=True, timeout=REP_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        raise RepFailed("{0} hung past {1:.0f} s and was killed".format(
            " ".join(command[2:]), REP_TIMEOUT_S
        ))
    return parse_rep(command, done.returncode, done.stdout, done.stderr)


def spawn_reps_parallel(jobs, width):
    """Run several repetitions ``width`` at a time (smoke runs only:
    concurrent repetitions share the processors, so their numbers mean
    nothing).  Returns results in ``jobs`` order."""
    results = [None] * len(jobs)
    pending = list(enumerate(jobs))
    running = []
    try:
        while pending or running:
            while pending and len(running) < width:
                slot, kwargs = pending.pop(0)
                command = rep_command(**kwargs)
                running.append((slot, command, subprocess.Popen(
                    command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                    text=True,
                )))
            slot, command, process = running.pop(0)
            try:
                stdout, stderr = process.communicate(timeout=REP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                raise RepFailed("{0} hung".format(" ".join(command[2:])))
            results[slot] = parse_rep(
                command, process.returncode, stdout, stderr
            )
    finally:
        for _, _, process in running:
            process.kill()
            process.wait()
    return results


def summarise(workload, reps):
    """Median/min/max over repetitions for each end-to-end metric the
    workload reports."""
    out = {}
    for metric in catalogue.END_TO_END:
        if not catalogue.applies(metric, workload):
            continue
        values = [r["metrics"][metric.name] for r in reps
                  if metric.name in r["metrics"]]
        if len(values) != len(reps):
            continue   # a wedged repetition: the metric is unresolved
        out[metric.name] = {
            "unit": metric.unit,
            "better": metric.better,
            "bound": metric.bound,
            "median": statistics.median(values),
            "min": min(values),
            "max": max(values),
            "values": values,
            "raw_values": [r["raw"][metric.name] for r in reps],
            "samples": sum(r["samples"][metric.name] for r in reps),
        }
    return out


def verdict(reps):
    return {
        "correct": all(r["correct"] for r in reps),
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "wedged": [r["wedged"] for r in reps if r["wedged"]],
        "check_errors": [e for r in reps for e in r["check_errors"]],
    }


def measure(workload, seed, scale, hb_timeout=HB_TIMEOUT, reps=None):
    """The end-to-end measurement of one workload."""
    results = [
        spawn_rep(workload=workload.name, seed=seed, scale=scale,
                  hb_timeout=hb_timeout)
        for _ in range(workloads.REPS if reps is None else reps)
    ]
    return assemble(workload, results)


def assemble(workload, reps):
    out = verdict(reps)
    out["end_to_end"] = summarise(workload, reps)
    out["speed_index"] = [r["extra"].get("speed_index") for r in reps]
    out["extra"] = [r["extra"] for r in reps]
    return out


def trace(workload, seed, scale, hb_timeout=HB_TIMEOUT):
    """The traced measurement of one workload: an end-to-end repetition,
    then a traced one."""
    kwargs = dict(workload=workload.name, seed=seed, scale=scale,
                  hb_timeout=hb_timeout)
    plain = spawn_rep(**kwargs)
    traced = spawn_rep(traced=True, **kwargs)
    return assemble_trace(workload, plain, traced)


def assemble_trace(workload, plain, traced):
    out = verdict([plain, traced])
    layers = dict(traced.get("layers", {}))
    if layers:
        layers["trace.throughput_ratio"] = tracing_ratio(
            workload, plain, traced
        )
    out["per_layer"] = {
        m.name: {"unit": m.unit, "better": m.better,
                 "value": layers[m.name],
                 "raw": traced["layers_raw"].get(m.name, layers[m.name])}
        for m in catalogue.PER_LAYER if m.name in layers
    }
    out["requests"] = traced["requests"]
    out["spans_us"] = traced.get("spans_us", {})
    out["traced_end_to_end"] = traced.get("metrics", {})
    return out


def tracing_ratio(workload, plain, traced):
    """Traced over end-to-end capacity, both normalised: what spans +
    monitor + obs cost.  A closed loop's capacity is its throughput; the
    open-loop fault workload's throughput is just the offered rate, so
    there capacity is processor time per request, inverted."""
    a, b = plain.get("metrics", {}), traced.get("metrics", {})
    try:
        if workload.failover:
            return a["cpu_ms_per_req"] / b["cpu_ms_per_req"]
        return b["throughput_rps"] / a["throughput_rps"]
    except (KeyError, ZeroDivisionError):
        return 0.0
