"""BENCHMARK.json and the catalogue say the same thing."""

import json
import os
import re

from benchmarks.gcsbench import metrics, workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)
))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def load():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_keys_and_limits():
    doc = load()
    assert sorted(doc) == [
        "command", "end_to_end", "paths", "per_layer", "run_seconds",
        "workloads",
    ]
    assert doc["paths"] == ["benchmarks/gcsbench"]
    assert doc["command"] == ["python3", "benchmarks/gcsbench/run.py"]
    assert doc["run_seconds"] == workloads.REF_SECONDS
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    names = [r["name"] for key in ("workloads", "end_to_end", "per_layer")
             for r in doc[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for row in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(row["unit"]), row
        assert row["better"] in ("higher", "lower")
    for row in doc["end_to_end"]:
        assert 0 < row["bound"] <= 0.25


def test_workloads_match():
    assert load()["workloads"] == [
        {"name": w.name, "why": w.why} for w in workloads.WORKLOADS
    ]
    for w in workloads.WORKLOADS:
        assert len(w.why) <= 200 and "\n" not in w.why


def test_metrics_match_the_catalogue():
    doc = load()
    assert doc["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better,
         "bound": m.bound}
        for m in metrics.GATED
    ]
    assert doc["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in metrics.PER_LAYER
    ]
    setup = [m for m in metrics.GATED if m.name == "setup_s"]
    assert setup and setup[0].unit == "s" and setup[0].better == "lower"
    assert setup[0].bound == max(m.bound for m in metrics.GATED)


def test_every_span_metric_is_catalogued():
    catalogued = {m.name for m in metrics.PER_LAYER}
    assert set(metrics.SPAN_METRIC.values()) <= catalogued
