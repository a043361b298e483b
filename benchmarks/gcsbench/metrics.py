"""The metric catalogue: every name this benchmark reports, once.

``BENCHMARK.json`` at the repo root repeats the gated end-to-end rows
and every per-layer row (``tests/test_contract.py`` keeps the two in
step); README.md carries the prose definitions.
"""

from dataclasses import dataclass

from benchmarks.gcsbench.stats import RATE, RAW, TIME


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str        # "higher" | "lower"
    bound: float       # share of the parent's median it may worsen by
    kind: str          # how host speed is removed (stats.normalise)
    #: Which workloads report it: "all", or "failover" for the metrics
    #: that only a fault schedule defines.
    scope: str = "all"
    #: Normalisation on the open-loop fault workload, where the rates
    #: are on-time goodput at a scheduled offered rate: timer-bound.
    failover_kind: str = None

    def kind_on(self, workload):
        if workload.failover and self.failover_kind is not None:
            return self.failover_kind
        return self.kind


#: Gated by the driver (``BENCHMARK.json`` ``end_to_end``): defined, and
#: never zero, on every workload.  Each bound is about three times the
#: widest inter-quartile spread measured over two sets of ten driver
#: runs on the reference host (README, "Bounds"), capped at 0.25.
GATED = (
    EndToEnd("setup_s", "s", "lower", 0.25, RAW),
    EndToEnd("throughput_rps", "req/s", "higher", 0.20, RATE,
             failover_kind=RAW),
    EndToEnd("aged_throughput_rps", "req/s", "higher", 0.25, RATE,
             failover_kind=RAW),
    EndToEnd("commit_p50_ms", "ms", "lower", 0.25, TIME),
    EndToEnd("commit_p95_ms", "ms", "lower", 0.25, TIME),
    EndToEnd("deliver_all_p50_ms", "ms", "lower", 0.25, TIME),
    EndToEnd("cpu_ms_per_req", "ms", "lower", 0.20, TIME),
    EndToEnd("peak_rss_mb", "MiB", "lower", 0.10, RAW),
)

#: Reported by ``gcsbench run`` / ``compare`` only: zero on a healthy
#: run, or defined by the fault schedule alone, so the driver's
#: relative, every-workload gate cannot carry them.
UNGATED = (
    EndToEnd("failed_share", "ratio", "lower", 0.0, RAW),
    EndToEnd("late_share", "ratio", "lower", 0.15, RAW, scope="failover"),
    EndToEnd("failover_outage_s", "s", "lower", 0.10, RAW,
             scope="failover"),
)

END_TO_END = GATED + UNGATED


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    kind: str = RAW


def _layer_time(name):
    return PerLayer(name, "us/req", "lower", TIME)


PER_LAYER = (
    PerLayer("transport.frames_per_req", "1/req", "lower"),
    PerLayer("transport.frames_per_req.Data", "1/req", "lower"),
    PerLayer("transport.frames_per_req.Ordered", "1/req", "lower"),
    PerLayer("transport.frames_per_req.Ack", "1/req", "lower"),
    PerLayer("transport.frames_per_req.SafeNote", "1/req", "lower"),
    PerLayer("transport.frames_per_req.Heartbeat", "1/req", "lower"),
    PerLayer("transport.bytes_per_req", "B/req", "lower"),
    _layer_time("codec.encode_us_per_req"),
    _layer_time("codec.decode_us_per_req"),
    _layer_time("codec.validate_us_per_req"),
    PerLayer("codec.encodes_per_req", "1/req", "lower"),
    PerLayer("codec.frames_decoded_per_req", "1/req", "lower"),
    PerLayer("codec.frame_bytes_mean", "B", "lower"),
    _layer_time("transport.send_us_per_req"),
    PerLayer("transport.transit_p50_us", "us", "lower", TIME),
    PerLayer("transport.transit_p95_us", "us", "lower", TIME),
    PerLayer("transport.frames_per_read", "count", "higher"),
    PerLayer("transport.queue_depth_max", "count", "lower"),
    PerLayer("transport.queue_drops", "count", "lower"),
    _layer_time("node.send_us_per_req"),
    _layer_time("node.recv_us_per_req"),
    PerLayer("node.dropped_invalid", "count", "lower"),
    PerLayer("node.errors", "count", "lower"),
    _layer_time("vs.self_us_per_req"),
    PerLayer("vs.msgs_per_req", "1/req", "lower"),
    PerLayer("vs.buffer_len_end", "count", "lower"),
    PerLayer("vs.views_installed", "count", "lower"),
    _layer_time("dvs.self_us_per_req"),
    PerLayer("dvs.acks_per_req", "1/req", "lower"),
    PerLayer("dvs.safes_per_req", "1/req", "lower"),
    PerLayer("dvs.client_history_len_end", "count", "lower"),
    _layer_time("fanout.self_us_per_req"),
    _layer_time("to.self_us_per_req"),
    _layer_time("to.self_us_per_req_last_quarter"),
    PerLayer("to.order_len_end", "count", "lower"),
    PerLayer("to.content_len_end", "count", "lower"),
    _layer_time("cb.self_us_per_req"),
    PerLayer("cb.holdback_max", "count", "lower"),
    _layer_time("app.self_us_per_req"),
    _layer_time("log.self_us_per_req"),
    PerLayer("log.records_per_req", "1/req", "lower"),
    PerLayer("log.actions_len_end", "count", "lower"),
    _layer_time("monitor.self_us_per_req"),
    PerLayer("monitor.violations", "count", "lower"),
    _layer_time("obs.self_us_per_req"),
    PerLayer("obs.span_drops", "count", "lower"),
    PerLayer("heartbeat.us_per_s", "us/s", "lower", TIME),
    PerLayer("heartbeat.flaps", "count", "lower"),
    PerLayer("heartbeat.detect_s", "s", "lower"),
    PerLayer("vs.reform_s", "s", "lower"),
    PerLayer("dvs.attempt_s", "s", "lower"),
    PerLayer("to.exchange_s", "s", "lower"),
    PerLayer("to.summary_bytes_max", "B", "lower"),
    PerLayer("to.rejoin_catchup_s", "s", "lower"),
    PerLayer("vs.admission_gap_s", "s", "lower"),
    PerLayer("failover.outage_s", "s", "lower"),
    PerLayer("failover.late_share", "ratio", "lower"),
    _layer_time("bench.self_us_per_req"),
    _layer_time("loop.other_us_per_req"),
    PerLayer("loop.busy_share", "ratio", "lower"),
    PerLayer("trace.coverage_share", "ratio", "higher"),
    PerLayer("trace.throughput_ratio", "ratio", "higher"),
    PerLayer("host.speed_index", "ratio", "lower"),
    PerLayer("loadgen.lateness_max_ms", "ms", "lower"),
)

#: Layer span name -> the per-request self-time metric it feeds.
SPAN_METRIC = {
    "codec.encode": "codec.encode_us_per_req",
    "codec.decode": "codec.decode_us_per_req",
    "codec.validate": "codec.validate_us_per_req",
    "transport": "transport.send_us_per_req",
    "node.send": "node.send_us_per_req",
    "node.recv": "node.recv_us_per_req",
    "vs": "vs.self_us_per_req",
    "dvs": "dvs.self_us_per_req",
    "fanout": "fanout.self_us_per_req",
    "to": "to.self_us_per_req",
    "cb": "cb.self_us_per_req",
    "app": "app.self_us_per_req",
    "log": "log.self_us_per_req",
    "monitor": "monitor.self_us_per_req",
    "obs": "obs.self_us_per_req",
}

#: The benchmark's own spans, folded into ``bench.self_us_per_req``.
BENCH_SPANS = ("loadgen", "probe", "trace")


def applies(metric, workload):
    return metric.scope == "all" or (
        metric.scope == "failover" and workload.failover
    )
