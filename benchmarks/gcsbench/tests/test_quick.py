"""Live smoke: the ``--quick`` run over all six workloads, and the
probe's effect on throughput.  Seconds, not milliseconds -- which is why
this directory is outside tier-1's default collection."""

import json
import os
import statistics
import subprocess
import sys

import repro.runtime.node as runtime_node

from benchmarks.gcsbench import metrics, workloads
from benchmarks.gcsbench.harness import RepSpec, run_rep

RUN_PY = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "run.py"
)


def test_quick_run_exercises_all_six_workloads(tmp_path):
    out = tmp_path / "quick.json"
    done = subprocess.run(
        [sys.executable, RUN_PY, "run", "--quick", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    document = json.loads(out.read_text())
    assert document["wall_s"] < 20.0
    assert sorted(document["workloads"]) == sorted(workloads.BY_NAME)
    for name, entry in document["workloads"].items():
        workload = workloads.BY_NAME[name]
        assert entry["correct"] and entry["failed"] == 0, name
        for metric in metrics.END_TO_END:
            if metrics.applies(metric, workload):
                assert metric.name in entry["end_to_end"], (name, metric.name)
        for metric in metrics.GATED:
            assert entry["end_to_end"][metric.name]["median"] > 0
        trace = entry["trace"]
        assert trace["correct"], name
        assert sorted(trace["per_layer"]) == sorted(
            m.name for m in metrics.PER_LAYER
        )
        layers = {k: v["value"] for k, v in trace["per_layer"].items()}
        assert layers["monitor.violations"] == 0
        assert layers["node.errors"] == 0
        assert layers["node.dropped_invalid"] == 0
        if workload.failover:
            assert layers["heartbeat.detect_s"] > 0
            assert layers["to.rejoin_catchup_s"] > 0
            assert layers["vs.views_installed"] >= 3
        else:
            assert layers["vs.views_installed"] == 1
    single = document["workloads"]["to_small_n1"]["trace"]["per_layer"]
    assert single["transport.frames_per_req"]["value"] == 0
    assert single["codec.encodes_per_req"]["value"] == 0

    # A results file compared with itself has nothing to report.
    same = subprocess.run(
        [sys.executable, RUN_PY, "compare", str(out), str(out)],
        capture_output=True, text=True, timeout=60,
    )
    assert same.returncode == 0, same.stdout + same.stderr
    assert "regressed" not in same.stdout.split("verdict", 1)[1]


def test_probe_does_not_move_throughput():
    """Throughput with and without the periodic probe agrees within the
    metric's bound (the probe is <= 2 % of loop time by construction,
    see test_probe.py; this is the end-to-end cross-check)."""
    bound = {m.name: m.bound for m in metrics.GATED}["throughput_rps"]
    with_probe, without = [], []
    for seed in range(3):
        for probe, sink in ((True, with_probe), (False, without)):
            result = run_rep(RepSpec(
                "to_small_n1", seed, scale=0.3, probe=probe
            ))
            assert result["correct"], result
            sink.append(result["raw"]["throughput_rps"])
    a, b = statistics.median(with_probe), statistics.median(without)
    assert abs(a - b) / b <= bound, (with_probe, without)


def test_brackets_are_gone_after_a_traced_repetition():
    original = runtime_node.encode_frame
    result = run_rep(RepSpec("cb_small_n3", 7, scale=0.05, traced=True))
    assert result["correct"], result
    assert runtime_node.encode_frame is original
    assert result["layers"]["cb.self_us_per_req"] > 0
    assert result["layers"]["to.self_us_per_req"] == 0
    assert result["layers"]["trace.coverage_share"] > 0.5
