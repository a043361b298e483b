"""One repetition: a fresh cluster, one workload, one verdict.

:func:`run_rep` builds a :class:`~repro.runtime.cluster.RuntimeCluster`,
waits for the warm-up gate, runs the workload's load generator on the
cluster's loop, checks every replica's output and returns a JSON-ready
result.  Every phase has a hard deadline: a wedged group is *reported*
(``failed`` > 0 and a ``wedged`` note naming each node's view and TO
status), never waited for.

Configuration (README, "ground rules"): ``hb_interval=0.05,
hb_timeout=1.0``; end-to-end runs take the product message path
(``monitor=False, obs=None``, no brackets); traced runs add the spans of
:mod:`layers` plus ``monitor=True, obs=True`` so both oracles are costed
as layers.  No delay is injected: all nodes share one loop thread in one
process, so latency is processor time plus loop queueing.
"""

import asyncio
import gc
import resource
import time
from dataclasses import dataclass

import repro.runtime.node as runtime_node
from repro.apps.kv_store import KvReplica
from repro.apps.presence import PresenceBoard
from repro.gcs.to_layer import NORMAL
from repro.runtime.cluster import RuntimeCluster

from benchmarks.gcsbench import metrics as catalogue
from benchmarks.gcsbench import stats, workloads
from benchmarks.gcsbench.check import check_outputs
from benchmarks.gcsbench.layers import instrument
from benchmarks.gcsbench.loadgen import ClosedLoop, OpenLoop
from benchmarks.gcsbench.probe import SpeedProbe, Warp
from benchmarks.gcsbench.spans import Patches, SpanTable

HB_INTERVAL = 0.05
HB_TIMEOUT = 1.0

#: Hard deadlines, seconds.  Generous next to the expected durations
#: (warm-up ~1.2 s, window 3-5 s) and well inside the 180 s a run may
#: take: they exist to turn a wedge into a report.
WARMUP_DEADLINE = 20.0
WINDOW_DEADLINE = 60.0
DRAIN_DEADLINE = 15.0
REJOIN_DEADLINE = 20.0
CALL_DEADLINE = 10.0

#: A scheduled request committed later than this after its due time is
#: *late* (``late_share``).
LATE_S = 0.100

VICTIM = "n1"   # leader *and* sequencer of every view it is in


@dataclass(frozen=True)
class RepSpec:
    workload: str
    seed: int
    scale: float = 1.0
    traced: bool = False
    quick: bool = False
    hb_timeout: float = HB_TIMEOUT
    #: ``False`` = no periodic probe slices (probe-cost test only).
    probe: bool = True


def run_rep(spec):
    """Run one repetition; returns its result dict."""
    original_encode = runtime_node.encode_frame
    table = SpanTable() if spec.traced else None
    with Patches() as patches:
        counts = instrument(patches, table) if spec.traced else None
        result = _Rep(spec, table, counts).run()
    if runtime_node.encode_frame is not original_encode:
        raise AssertionError("brackets were not removed")
    return result


class _Rep:
    def __init__(self, spec, table, counts):
        self.spec = spec
        self.workload = workloads.BY_NAME[spec.workload]
        self.table = table
        self.counts = counts
        self.pids = workloads.pids(self.workload)
        self.nodes = {}          # pid -> live RuntimeNode (loop thread)
        self.cluster = None
        self.gen = None
        self.probe = SpeedProbe(
            wrap=self._wrap("probe"), periodic=spec.probe
        )
        self.marks = {}
        #: Completed-request count that opens the last quarter.
        self._quarter_at = 0
        self.notes = []
        self.wedged = None
        self.t_restart = None
        self.t_rejoined = None
        self.clock_offset = None  # perf_counter - cluster clock

    # -- Wiring ----------------------------------------------------------------

    def _on_loop(self, fn):
        """Run ``fn()`` on the loop thread (through a node that is live
        in every scenario)."""
        return self.cluster.call_node(
            self.pids[-1], lambda _node: fn(), timeout=CALL_DEADLINE
        )

    def _mark(self):
        """Clocks and tables at an edge of the measured window; taken
        on the loop thread."""
        return {
            "wall": time.perf_counter(),
            "cpu": time.process_time(),
            "self_ns": self.table.snapshot() if self.table else None,
            "counts": self.counts.freeze() if self.counts else None,
        }

    def _wrap(self, layer):
        if self.table is None:
            return None
        return lambda fn: self.table.wrap(layer, fn)

    def _hook(self, node, app, upcall):
        """Route ``app``'s delivery upcall through the load generator
        (and, traced, bracket the application's own work)."""
        self.nodes[node.pid] = node
        inner = getattr(app, upcall)
        if self.table is not None:
            inner = self.table.wrap("app", inner)
        delivered = self.gen.delivered
        pid = node.pid
        rejoining = (
            self.workload.failover and pid == VICTIM
            and self.t_restart is not None
        )

        def on_delivery(payload, origin):
            inner(payload, origin)
            delivered(pid, payload)
            if rejoining and self.t_rejoined is None:
                self._note_rejoin(node, app)

        setattr(app, upcall, on_delivery)
        return app

    def _kv_factory(self, node):
        return self._hook(node, KvReplica(node.to), "on_brcv")

    def _board_factory(self, node):
        return self._hook(node, PresenceBoard(node.cb), "on_cb_brcv")

    def _submit(self, pid, payload):
        if self.workload.tier == "cb":
            self.cluster.cb_app(pid).announce(payload[1])
        else:
            self.cluster.app(pid).submit(payload)

    def _outputs(self):
        """pid -> [(payload, origin)] as each live application saw it."""
        cluster = self.cluster
        outputs = {}
        for pid in cluster.live():
            if self.workload.tier == "cb":
                outputs[pid] = cluster.call_cb_app(
                    pid,
                    lambda board: [
                        ((kind, value), origin)
                        for kind, value, origin in board.events
                    ],
                    timeout=CALL_DEADLINE,
                )
            else:
                outputs[pid] = cluster.call_app(
                    pid, lambda app: app.command_log(),
                    timeout=CALL_DEADLINE,
                )
        return outputs

    # -- The warm-up gate ----------------------------------------------------

    def _formed(self, expected):
        """Every expected node NORMAL in one view of epoch >= 1 over
        exactly ``expected``, that view totally registered at DVS, and
        the causal tier in the same view.  (``wait_formation`` alone
        returns on the pre-agreed ``g0``; the first heartbeat round
        would then install ``g1`` inside the measured window.)"""
        expected = frozenset(expected)
        views = set()
        for pid in expected:
            node = self.nodes.get(pid)
            if node is None or node.pid not in self.cluster.live():
                return False
            view = node.to.current
            if (
                node.to.status != NORMAL
                or view is None
                or view.id.epoch < 1
                or view.set != expected
                or node.cb.current != view
                or node.dvs.act != view
            ):
                return False
            views.add(view.id)
        return len(views) == 1

    def _describe(self):
        """Each node's view and TO status, for a ``wedged`` note."""
        def read():
            return {
                pid: {
                    "vs_view": str(node.stack.view),
                    "to_view": str(node.to.current),
                    "to_status": node.to.status,
                    "delivered": node.to.nextreport - 1,
                    "errors": len(node.errors),
                }
                for pid, node in sorted(self.nodes.items())
                if pid in self.cluster.live()
            }
        try:
            return self._on_loop(read)
        except Exception as exc:  # a dead loop must still yield a report
            return {"unreadable": repr(exc)}

    def _wedge(self, phase):
        self.wedged = {"phase": phase, "nodes": self._describe()}

    # -- Running -------------------------------------------------------------

    def run(self):
        spec, workload = self.spec, self.workload
        wrap = self._wrap("loadgen")
        if workload.failover:
            schedule = workloads.fault_schedule(spec.scale, spec.quick)
            count = schedule.requests
            payloads = workloads.make_payloads(workload, spec.seed, count)
            clients = [p for p in self.pids if p != VICTIM]
            self.gen = OpenLoop(
                payloads, clients, self._submit, clients, schedule.rate,
                wrap=wrap,
            )
        else:
            schedule = None
            count = workloads.closed_loop_requests(workload, spec.scale)
            payloads = workloads.make_payloads(workload, spec.seed, count)
            sessions = [
                self.pids[s % len(self.pids)]
                for s in range(workloads.SESSIONS)
            ]
            self.gen = ClosedLoop(
                payloads, self.pids, self._submit, sessions, wrap=wrap
            )
        self.gen.on_progress = self._progress
        self._quarter_at = (3 * count) // 4

        built = time.perf_counter()
        factory = (
            {"cb_app_factory": self._board_factory}
            if workload.tier == "cb"
            else {"app_factory": self._kv_factory}
        )
        self.cluster = cluster = RuntimeCluster(
            self.pids, monitor=spec.traced,
            obs=True if spec.traced else None,
            hb_interval=HB_INTERVAL, hb_timeout=spec.hb_timeout, **factory
        )
        setup_s = None
        errors = []
        try:
            cluster.start(timeout=WARMUP_DEADLINE)
            try:
                cluster.wait_until(
                    lambda: self._formed(self.pids),
                    timeout=WARMUP_DEADLINE, poll=0.002, what="warm-up gate",
                )
            except TimeoutError:
                self._wedge("warm-up")
            else:
                setup_s = time.perf_counter() - built
                warm_views = self._vs_views()
                gc.collect()
                self._on_loop(self._open_window)
                if workload.failover:
                    self._drive_faults(schedule)
                elif not self.gen.done.wait(WINDOW_DEADLINE):
                    self._wedge("window")
                self._on_loop(self._close_window)
                if not workload.failover and self._vs_views() != warm_views:
                    errors.append(
                        "a view was installed inside the steady window: "
                        "{0} -> {1}".format(warm_views, self._vs_views())
                    )
                errors.extend(self._verify(payloads))
            gauges = self._gauges() if setup_s is not None else {}
            log = self._log_actions() if spec.traced else None
        finally:
            try:
                cluster.stop(timeout=CALL_DEADLINE)
            except Exception as exc:
                self.notes.append("cluster.stop: {0!r}".format(exc))
        return self._result(count, schedule, setup_s, errors, gauges, log)

    def _open_window(self):
        """On the loop thread: zero the tables and start everything."""
        loop = asyncio.get_running_loop()
        self.clock_offset = time.perf_counter() - self.cluster.clock.now
        if self.table is not None:
            self.table.self_ns.clear()
            self.table.calls.clear()
            self.counts.reset_window()
        self.marks["open"] = self._mark()
        self.probe.start(loop)
        self.gen.start(loop)

    def _progress(self, completed):
        if completed == self._quarter_at:
            self.marks["three_quarters"] = self._mark()
        if completed == self.gen.ledger.count:
            self.marks["close"] = self._mark()

    def _close_window(self):
        self.probe.stop()
        self.gen.stop()
        # A wedged or lossy window has no completion mark: close it now.
        if "close" not in self.marks:
            self.marks["close"] = self._mark()
        self.marks.setdefault("three_quarters", self.marks["close"])

    def _vs_views(self):
        return self._on_loop(lambda: sorted(
            str(node.stack.view) for pid, node in self.nodes.items()
            if pid in self.cluster.live()
        ))

    # -- The fault scenario ----------------------------------------------------

    def _sleep_until(self, instant):
        delay = instant - time.perf_counter()
        if delay > 0:
            time.sleep(delay)

    def _drive_faults(self, schedule):
        cluster, gen = self.cluster, self.gen
        kill_at = gen.t0 + schedule.history_s
        self._sleep_until(kill_at)
        self.marks["kill"] = time.perf_counter()
        if self.counts is not None:
            self.counts.pair_transit = False
        cluster.kill(VICTIM, timeout=CALL_DEADLINE)
        self._sleep_until(self.marks["kill"] + schedule.restart_after_s)
        self.t_restart = time.perf_counter()
        cluster.restart(VICTIM, timeout=CALL_DEADLINE)
        end = kill_at + schedule.tail_s
        if not gen.done.wait(max(0.0, end - time.perf_counter())
                             + DRAIN_DEADLINE):
            self._wedge("drain")
            return
        # Rejoin: the fresh incarnation NORMAL in the full view with the
        # whole history replayed.
        try:
            cluster.wait_until(
                lambda: self._formed(self.pids) and self._caught_up(),
                timeout=REJOIN_DEADLINE, poll=0.01, what="rejoin",
            )
        except TimeoutError:
            self._wedge("rejoin")

    def _caught_up(self):
        victim = self.cluster.app(VICTIM)
        return all(
            victim.log_length >= self.cluster.app(pid).log_length
            for pid in self.cluster.live()
        )

    def _note_rejoin(self, node, app):
        """On the loop, at each delivery to the restarted replica: has
        it caught up with a survivor inside the full view?"""
        survivor = self.cluster.app(self.pids[-1])
        if (
            node.to.status == NORMAL
            and node.to.current is not None
            and node.to.current.set == frozenset(self.pids)
            and app.log_length >= survivor.log_length
        ):
            self.t_rejoined = time.perf_counter()

    # -- Verification ------------------------------------------------------------

    def _verify(self, payloads):
        ledger = self.gen.ledger
        errors = []
        try:
            outputs = self._outputs()
        except Exception as exc:
            return ["could not read replica outputs: {0!r}".format(exc)]
        unfinished = set(ledger.unfinished()) | ledger.failed
        errors.extend(check_outputs(
            self.workload.tier, outputs, payloads,
            dict(ledger.submitted_by), failed=unfinished,
        ))
        layer_errors = self.cluster.errors()
        if layer_errors:
            errors.append("layer errors: {0!r}".format(layer_errors)[:300])
        if self.spec.traced:
            try:
                self.cluster.check()
            except AssertionError as exc:
                errors.append(str(exc)[:300])
        return errors

    def _gauges(self):
        """State sizes read after the run (max over live nodes)."""
        def read():
            live = [
                node for pid, node in self.nodes.items()
                if pid in self.cluster.live()
            ]
            stats_ = [node.stats() for node in live]
            return {
                "vs.buffer_len_end": max(
                    len(n.stack.ordering.buffer) if n.stack.ordering else 0
                    for n in live
                ),
                "dvs.client_history_len_end": max(
                    len(n.dvs.client_history) for n in live
                ),
                "to.order_len_end": max(len(n.to.order) for n in live),
                "to.content_len_end": max(len(n.to.content) for n in live),
                "log.actions_len_end": len(self.cluster.log.actions),
                "node.dropped_invalid": sum(
                    s["dropped_invalid"] for s in stats_
                ),
                "node.errors": sum(s["errors"] for s in stats_),
            }
        return self._on_loop(read)

    def _log_actions(self):
        """``(perf_counter time, name, params)`` of the view-lifecycle
        actions in the shared log."""
        wanted = ("vs_newview", "dvs_newview", "dvs_register")
        offset = self.clock_offset or 0.0

        def read():
            log = self.cluster.log
            return [
                (t + offset, a.name, a.params)
                for t, a in zip(log.times, log.actions)
                if a.name in wanted
            ]
        return self._on_loop(read)

    # -- Arithmetic --------------------------------------------------------------

    def _result(self, count, schedule, setup_s, errors, gauges, log):
        spec, workload, ledger = self.spec, self.workload, self.gen.ledger
        result = {
            "workload": workload.name,
            "seed": spec.seed,
            "mode": "traced" if spec.traced else "end_to_end",
            "hb_timeout": spec.hb_timeout,
            "requests": count,
            "attempted": count,
            "notes": self.notes,
            "wedged": self.wedged,
            "check_errors": errors,
        }
        if setup_s is None:
            result.update(failed=count, correct=False, raw={}, metrics={},
                          samples={}, extra={})
            return result
        unfinished = set(ledger.unfinished()) | ledger.failed
        result["failed"] = len(unfinished)
        result["correct"] = not errors and self.wedged is None
        speed = self.probe.speed_index()
        warp = Warp(self.probe.samples)
        raw, samples, extra = self._end_to_end(
            count, schedule, setup_s, lambda wall: wall,
            lambda mark: mark["cpu"],
        )
        warped, _, _ = self._end_to_end(
            count, schedule, setup_s, warp.tau,
            lambda mark: warp.cpu_tau(mark["wall"], mark["cpu"]),
        )
        raw["failed_share"] = warped["failed_share"] = len(unfinished) / count
        samples["failed_share"] = count
        extra["speed_index"] = speed
        extra["probe_slices"] = len(self.probe.samples)
        result["raw"] = raw
        result["samples"] = samples
        result["extra"] = extra
        result["metrics"] = {
            m.name: (
                raw if m.kind_on(workload) == stats.RAW else warped
            )[m.name]
            for m in catalogue.END_TO_END if m.name in raw
        }
        if spec.traced:
            layer_raw = self._per_layer(count, schedule, gauges, log, raw)
            layer_raw["host.speed_index"] = speed
            result["layers_raw"] = layer_raw
            result["layers"] = {
                m.name: stats.normalise(layer_raw[m.name], m.kind, speed)
                for m in catalogue.PER_LAYER if m.name in layer_raw
            }
            result["spans_us"] = self._span_dump()
        return result

    def _end_to_end(self, count, schedule, setup_s, clock, cpu_clock):
        """Every end-to-end metric with wall instants read through
        ``clock`` and window-edge CPU through ``cpu_clock``: the identity
        gives the raw numbers, a :class:`Warp` the speed-normalised
        ones."""
        ledger, marks = self.gen.ledger, self.marks
        opened, closed = marks["open"], marks["close"]
        kill = marks.get("kill") if schedule is not None else None
        # (start, commit latency, deliver-everywhere latency) per request
        timed = [
            (
                ledger.start[i],
                None if ledger.committed[i] is None
                else clock(ledger.committed[i]) - clock(ledger.start[i]),
                None if ledger.everywhere[i] is None
                else clock(ledger.everywhere[i]) - clock(ledger.start[i]),
            )
            for i in range(count) if ledger.start[i] is not None
        ]
        if kill is not None:
            # Latency on the fault workload is the healthy open-loop
            # latency at the scheduled rate: requests due before the
            # kill.  What the fault costs is told by the on-time
            # goodput, ``late_share`` and ``failover_outage_s``.
            timed = [row for row in timed if row[0] < kill]
        commits = [c for _, c, _ in timed if c is not None]
        everywhere = [e for _, _, e in timed if e is not None]
        out = {
            "setup_s": setup_s,
            "cpu_ms_per_req": (
                1e3 * (cpu_clock(closed) - cpu_clock(opened)) / count
            ),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF
            ).ru_maxrss / 1024.0,
        }
        samples = {"setup_s": 1, "cpu_ms_per_req": count, "peak_rss_mb": 1}
        extra = {"tail": None}
        if kill is None:
            self._closed_loop_rates(clock, out, samples, extra)
        else:
            self._fault_rates(count, schedule, kill, out, samples, extra)
        if commits:
            out["commit_p50_ms"] = 1e3 * stats.percentile(commits, 50)
            out["commit_p95_ms"] = 1e3 * stats.percentile(commits, 95)
            samples["commit_p50_ms"] = samples["commit_p95_ms"] = len(commits)
            extra["commit_p99_ms"] = 1e3 * stats.percentile(commits, 99)
            extra["commit_max_ms"] = 1e3 * max(commits)
            tail = stats.highest_supported_tail(len(commits))
            if tail is not None:
                extra["tail"] = tail
                extra["commit_tail_ms"] = 1e3 * stats.percentile(
                    commits, tail
                )
        if everywhere:
            out["deliver_all_p50_ms"] = 1e3 * stats.percentile(everywhere, 50)
            samples["deliver_all_p50_ms"] = len(everywhere)
        return out, samples, extra

    def _closed_loop_rates(self, clock, out, samples, extra):
        """Fixed request count over (first submit -> last request
        delivered at every member), whole run and last quarter."""
        ledger, marks = self.gen.ledger, self.marks
        closed, quarter = marks["close"], marks["three_quarters"]
        done = len(ledger.completions)
        first = min((s for s in ledger.start if s is not None),
                    default=marks["open"]["wall"])
        elapsed = max(clock(closed["wall"]) - clock(first), 1e-9)
        aged_n = max(done - self._quarter_at, 0)
        aged_elapsed = max(
            clock(closed["wall"]) - clock(quarter["wall"]), 1e-9
        )
        out["throughput_rps"] = done / elapsed
        out["aged_throughput_rps"] = (
            aged_n / aged_elapsed if aged_n else done / elapsed
        )
        samples["throughput_rps"] = done
        samples["aged_throughput_rps"] = aged_n
        extra["window_s"] = elapsed

    def _fault_rates(self, count, schedule, kill, out, samples, extra):
        """The open loop's throughput is its offered rate, so what is
        reported is the *on-time goodput*: scheduled requests committed
        within :data:`LATE_S` of their due time, per second of schedule
        -- over the whole schedule, and over its last quarter (has
        service fully returned?).  Timer-bound: wall clock only."""
        ledger = self.gen.ledger

        def on_time(i):
            return (
                ledger.committed[i] is not None
                and ledger.committed[i] - ledger.start[i] <= LATE_S
            )

        timely = sum(1 for i in range(count) if on_time(i))
        aged_n = count - self._quarter_at
        out["throughput_rps"] = timely * schedule.rate / count
        out["aged_throughput_rps"] = (
            sum(1 for i in range(self._quarter_at, count) if on_time(i))
            * schedule.rate / aged_n
        )
        out["late_share"] = 1.0 - timely / count
        samples["throughput_rps"] = samples["late_share"] = count
        samples["aged_throughput_rps"] = aged_n
        after = [
            ledger.committed[i] for i in range(count)
            if ledger.start[i] is not None and ledger.start[i] >= kill
            and ledger.committed[i] is not None
        ]
        if after:
            out["failover_outage_s"] = min(after) - kill
            samples["failover_outage_s"] = 1
        whole = [
            ledger.committed[i] - ledger.start[i] for i in range(count)
            if ledger.committed[i] is not None
        ]
        if whole:
            extra["schedule_p95_ms"] = 1e3 * stats.percentile(whole, 95)
            extra["schedule_p99_ms"] = 1e3 * stats.percentile(whole, 99)
        extra["window_s"] = count / schedule.rate
        extra["lateness_max_ms"] = 1e3 * self.gen.lateness_max_s

    def _per_layer(self, count, schedule, gauges, log, e2e_raw):
        marks = self.marks
        opened, closed, quarter = (
            marks["open"], marks["close"], marks["three_quarters"]
        )
        self_ns, counts = closed["self_ns"], closed["counts"]
        wall_s = max(closed["wall"] - opened["wall"], 1e-9)
        cpu_us = 1e6 * (closed["cpu"] - opened["cpu"])
        out = dict(gauges)
        for span, metric in catalogue.SPAN_METRIC.items():
            out[metric] = self_ns.get(span, 0) / 1e3 / count
        last_quarter = max(count - self._quarter_at, 1)
        out["to.self_us_per_req_last_quarter"] = (
            self_ns.get("to", 0) - quarter["self_ns"].get("to", 0)
        ) / 1e3 / last_quarter
        out["bench.self_us_per_req"] = sum(
            self_ns.get(span, 0) for span in catalogue.BENCH_SPANS
        ) / 1e3 / count
        out["heartbeat.us_per_s"] = self_ns.get("heartbeat", 0) / 1e3 / wall_s
        spanned_us = sum(self_ns.values()) / 1e3
        out["loop.other_us_per_req"] = (cpu_us - spanned_us) / count
        out["loop.busy_share"] = cpu_us / 1e6 / wall_s
        out["trace.coverage_share"] = spanned_us / cpu_us if cpu_us else 0.0

        frames = counts["frames"]
        total_frames = sum(frames.values())
        out["transport.frames_per_req"] = total_frames / count
        for kind in ("Data", "Ordered", "Ack", "SafeNote", "Heartbeat"):
            out["transport.frames_per_req." + kind] = (
                frames.get(kind, 0) / count
            )
        out["transport.bytes_per_req"] = counts["frame_bytes"] / count
        out["codec.encodes_per_req"] = counts["encodes"] / count
        out["codec.frames_decoded_per_req"] = counts["frames_decoded"] / count
        out["codec.frame_bytes_mean"] = (
            counts["frame_bytes"] / total_frames if total_frames else 0.0
        )
        transit = self.counts.transit_ns[:counts["transits"]]
        out["transport.transit_p50_us"] = (
            stats.percentile(transit, 50) / 1e3 if transit else 0.0
        )
        out["transport.transit_p95_us"] = (
            stats.percentile(transit, 95) / 1e3 if transit else 0.0
        )
        out["transport.frames_per_read"] = (
            counts["frames_decoded"] / counts["reads"]
            if counts["reads"] else 0.0
        )
        out["transport.queue_depth_max"] = counts["queue_depth_max"]
        out["transport.queue_drops"] = self.counts.queue_drops()
        out["vs.msgs_per_req"] = counts["vs_msgs"] / count
        out["dvs.acks_per_req"] = counts["dvs_acks"] / count
        out["dvs.safes_per_req"] = counts["dvs_safes"] / count
        out["log.records_per_req"] = counts["log_records"] / count
        out["cb.holdback_max"] = counts["holdback_max"]
        out["to.summary_bytes_max"] = self.counts.summary_bytes_max
        out["heartbeat.flaps"] = len(self.counts.connectivity)
        out["vs.views_installed"] = len({
            params[0].id for _, name, params in log if name == "vs_newview"
        })
        out["monitor.violations"] = len(self.cluster.violations)
        out["obs.span_drops"] = self.cluster.obs.tracer.dropped()
        out["loadgen.lateness_max_ms"] = 1e3 * self.gen.lateness_max_s
        out["trace.throughput_ratio"] = 0.0   # filled in by the caller
        out.update(self._fault_phases(schedule, log, e2e_raw))
        return out

    def _fault_phases(self, schedule, log, e2e_raw):
        """The ``_s`` metrics of the fault scenario (0.0 elsewhere)."""
        names = ("heartbeat.detect_s", "vs.reform_s", "dvs.attempt_s",
                 "to.exchange_s", "to.rejoin_catchup_s",
                 "vs.admission_gap_s", "failover.outage_s",
                 "failover.late_share")
        out = dict.fromkeys(names, 0.0)
        kill = self.marks.get("kill")
        if schedule is None or kill is None:
            return out
        out["failover.outage_s"] = e2e_raw.get("failover_outage_s", 0.0)
        out["failover.late_share"] = e2e_raw.get("late_share", 0.0)
        survivors = frozenset(p for p in self.pids if p != VICTIM)
        reports = [
            t for t, pid in self.counts.connectivity
            if t >= kill and pid in survivors
        ]
        if not reports:
            return out
        detect = min(reports)
        out["heartbeat.detect_s"] = detect - kill
        # The first view over exactly the survivors that both of them
        # went on to register: service resumes there.
        stages = {}   # view id -> {stage: {pid: time}}
        attempted = {}  # pid -> view id of its latest dvs_newview
        for t, name, params in log:
            if t < kill:
                continue
            if name == "dvs_register":
                pid = params[0]
                vid = attempted.get(pid)
                if vid in stages:
                    stages[vid]["dvs_register"].setdefault(pid, t)
                continue
            view, pid = params
            if view.set != survivors:
                continue
            stage = stages.setdefault(view.id, {
                "vs_newview": {}, "dvs_newview": {}, "dvs_register": {},
            })
            stage[name].setdefault(pid, t)
            if name == "dvs_newview":
                attempted[pid] = view.id
        for vid in sorted(stages):
            stage = stages[vid]
            if all(set(stage[s]) >= survivors for s in stage):
                installed = max(stage["vs_newview"].values())
                attempt = max(stage["dvs_newview"].values())
                registered = max(stage["dvs_register"].values())
                out["vs.reform_s"] = installed - detect
                out["dvs.attempt_s"] = attempt - installed
                out["to.exchange_s"] = registered - attempt
                break
        if self.t_restart is not None:
            if self.t_rejoined is not None:
                out["to.rejoin_catchup_s"] = self.t_rejoined - self.t_restart
            ledger = self.gen.ledger
            commits = sorted(
                t for t in ledger.committed
                if t is not None and t >= self.t_restart
            )
            gaps = [b - a for a, b in zip(commits, commits[1:])]
            if gaps:
                out["vs.admission_gap_s"] = max(gaps)
        return out

    def _span_dump(self):
        """Whole-window self time and call count per span (raw)."""
        self_ns = self.marks["close"]["self_ns"]
        return {
            span: {"self_us": ns / 1e3, "calls": self.table.calls[span]}
            for span, ns in sorted(self_ns.items())
        }
