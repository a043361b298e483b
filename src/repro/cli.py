"""Command-line interface: ``python -m repro <command>``.

Commands
--------
verify
    Run randomized executions of DVS-IMPL and TO-IMPL, checking every
    paper invariant and both refinement theorems; print a summary.
availability
    Print the E6 availability tables (static vs dynamic vs naive) at the
    parameters EXPERIMENTS.md records.
explore
    Exhaustively explore a small configuration with the bounded model
    checker, checking the invariant suites on every reachable state.
isis
    Search DVS executions for a violation of the Isis same-messages
    property (expected to exist: DVS is weaker by design).
chaos
    Run the full stack under a seeded nemesis fault plan with the
    online safety monitor armed -- simulated by default, ``--live`` for
    a real-TCP loopback cluster recording a replayable trace; on a
    violation, delta-debug the plan (sim) or the recorded trace (live)
    down to a minimal replayable counterexample.
replay
    Feed a trace recorded by ``chaos --live --record`` through the
    deterministic layer stack under the safety monitor; two replays of
    one trace are byte-identical, and ``--shrink`` minimizes a
    violating trace with ddmin.
serve
    Run the stack on real TCP sockets: by default an in-process
    loopback cluster driving a replicated key-value workload (with a
    mid-run crash and rejoin) under the online safety monitor; with
    ``--pid``/``--bind``/``--peer``, one node of a real multi-process
    deployment in the foreground.  ``--metrics-json``/``--trace-json``
    arm the observability layer: tables printed, snapshots exported.
trace
    Run a traced workload on the deterministic simulator and print the
    per-stage latency breakdown stitched from causal spans;
    ``--output`` exports the full trace JSON.
"""

import argparse
import sys


def _cmd_verify(args):
    from repro.checking import (
        build_closed_dvs_impl,
        build_closed_to_impl,
        check_dvs_trace_properties,
        check_to_trace_properties,
        random_view_pool,
    )
    from repro.core import make_view
    from repro.dvs import (
        dvs_impl_invariants,
        dvs_refinement_checker,
    )
    from repro.ioa import run_random
    from repro.to import to_impl_invariants, to_refinement_checker

    universe = ["p{0}".format(i) for i in range(1, args.processes + 1)]
    v0 = make_view(0, universe)
    checked_states = 0
    for seed in range(args.seeds):
        pool = random_view_pool(universe, 4, seed=seed + 7, min_size=2)
        system, procs = build_closed_dvs_impl(
            v0, universe, view_pool=pool, budget=2
        )
        ex = run_random(system, args.steps, seed=seed,
                        weights={"vs_createview": 0.15})
        checked_states += dvs_impl_invariants(procs).check_execution(ex)
        dvs_refinement_checker(procs, v0, universe).check_execution(ex)
        check_dvs_trace_properties(ex.trace(), v0)

        system, procs = build_closed_to_impl(
            v0, universe, view_pool=pool, budget=2
        )
        ex = run_random(system, args.steps, seed=seed,
                        weights={"dvs_createview": 0.08})
        checked_states += to_impl_invariants(procs).check_execution(ex)
        to_refinement_checker(procs).check_execution(ex)
        check_to_trace_properties(ex.trace())
    print(
        "OK: invariants 5.1-5.6 and 6.1-6.3, Theorems 5.9 and 6.4, and "
        "trace inclusion in DVS and TO verified on {0} states "
        "({1} seeds x {2} steps, {3} processes)".format(
            checked_states, args.seeds, args.steps, args.processes
        )
    )
    return 0


def _cmd_availability(args):
    from repro.analysis import E6_REGIMES, e6_table, render_table

    headers = ["rule", "availability", "primaries", "disjoint"]
    print("\n\n".join(
        render_table(
            headers, [r.row() for r in e6_table(regime)], title=regime
        )
        for regime in E6_REGIMES
    ))
    return 0


def _cmd_explore(args):
    from repro.checking import build_closed_dvs_impl, grid_view_pool
    from repro.core import make_view
    from repro.dvs import dvs_impl_invariants
    from repro.ioa import BoundedExplorer

    universe = ["p{0}".format(i) for i in range(1, args.processes + 1)]
    v0 = make_view(0, universe)
    pool = grid_view_pool(universe, max_epoch=args.epochs,
                          min_size=len(universe))
    system, procs = build_closed_dvs_impl(
        v0, universe, view_pool=pool, budget=1, eager_register=True
    )
    explorer = BoundedExplorer(
        system,
        invariants=dvs_impl_invariants(procs),
        max_states=args.max_states,
    )
    result = explorer.explore()
    print("exploration:", result.summary())
    if result.violation is not None:
        print("VIOLATION:", result.violation)
        return 1
    print("all invariants hold on every explored state")
    return 0


def _cmd_isis(args):
    from repro.checking.isis_property import find_isis_counterexample

    result = find_isis_counterexample(
        max_seeds=args.seeds, steps=args.steps
    )
    if result is None:
        print("no Isis-property violation found in budget")
        return 1
    seed, violations, _ = result
    print(
        "DVS does not provide the Isis same-messages property "
        "(seed {0}, {1} violation(s)):".format(seed, len(violations))
    )
    for violation in violations[:3]:
        print("  -", violation)
    return 0


def _build_chaos_plan(args, procs, duration):
    from repro.faults import (
        NemesisPlan,
        bridge_topology,
        compose,
        crash_recovery_storm,
        flaky_link_windows,
        partition_churn,
    )

    if args.plan_json:
        return NemesisPlan.from_json(args.plan_json)
    if args.live:
        # Live times are wall-clock seconds: faults start once the
        # cluster has had a moment to form and end before the settle;
        # storm down-times are sized from that window, so a crashed
        # node comes back inside it.
        start, length = 2.0, max(duration - 4.0, 1.0)
        down = dict(min_down=length / 16, max_down=length / 4)
    else:
        start, length = 10.0, duration - 60.0
        down = {}
    window = dict(start=start, duration=length)
    builders = {
        "storm": lambda: crash_recovery_storm(procs, seed=args.seed,
                                              **window, **down),
        "churn": lambda: partition_churn(procs, seed=args.seed, **window),
        "flaky": lambda: flaky_link_windows(procs, seed=args.seed, **window),
        "bridge": lambda: bridge_topology(
            procs[: len(procs) // 2],
            procs[len(procs) // 2:],
            procs[0],
            at=start,
            duration=length,
        ),
    }
    if args.plan == "mixed":
        return compose(*(build() for build in builders.values()))
    return builders[args.plan]()


def _chaos_flag_errors(args):
    """Live-only/sim-only flag conflicts, as human-readable messages."""
    errors = []
    if args.live:
        if args.log_limit is not None:
            errors.append(
                "--log-limit applies to simulated runs only (the live "
                "monitor keeps the full action log)"
            )
    else:
        for value, flag, why in (
            (args.record, "--record",
             "simulated runs replay exactly from (seed, plan); only "
             "live runs need a recorded trace"),
            (args.hb_interval, "--hb-interval",
             "the simulator uses a connectivity oracle, not heartbeats"),
            (args.hb_timeout, "--hb-timeout",
             "the simulator uses a connectivity oracle, not heartbeats"),
        ):
            if value is not None:
                errors.append(
                    "{0} requires --live ({1})".format(flag, why)
                )
    return errors


def _heartbeat_flags(args):
    """The ``--hb-*`` flags that were given, as keyword arguments; the
    rest default to :mod:`repro.runtime.heartbeat`'s constants."""
    flags = (("hb_interval", args.hb_interval),
             ("hb_timeout", args.hb_timeout))
    return {name: value for name, value in flags if value is not None}


#: Chaos run statistics worth a line, in print order (each world's
#: ``stats`` holds its own subset).
_CHAOS_STATS = (
    "attempted_views", "broadcasts", "deliveries", "cb_broadcasts",
    "cb_deliveries", "wire_sends", "drops", "workload_bcasts",
    "trace_events", "violations",
)
_FAULTNET_STATS = (
    "injected_drops", "injected_copies", "delayed_sends", "blocked_recvs",
)


def _report(monitor, clean):
    """Each spec's rejection or ``<SPEC> accepted``, then ``clean`` or
    the first violation (a rejection is one); whether it was clean."""
    for name, rejection in monitor.rejections().items():
        print(rejection or "{0} accepted".format(name))
    if monitor.ok:
        print(clean)
        return True
    print()
    print("SAFETY VIOLATION: {0}".format(monitor.violations[0].summary()))
    return False


def _cmd_chaos(args):
    errors = _chaos_flag_errors(args)
    if errors:
        args._chaos_parser.error("; ".join(errors))
    duration = args.duration
    if duration is None:
        duration = 12.0 if args.live else 240.0
    procs = ["p{0}".format(i) for i in range(1, args.processes + 1)]
    plan = _build_chaos_plan(args, procs, duration)
    # What both worlds' harnesses (and the shrinker's re-runs) take.
    run = {"duration": duration}
    if args.interval is not None:
        run["broadcast_interval"] = args.interval
    if args.broken:
        from repro.dvs.ablation import NoMajorityDvsLayer

        run["dvs_factory"] = NoMajorityDvsLayer
    if args.live:
        from repro.runtime.chaos import run_live_chaos

        result = run_live_chaos(
            procs, plan=plan, fault_seed=args.seed,
            **_heartbeat_flags(args), **run
        )
        print("chaos --live: {0} processes on loopback TCP, {1} fault "
              "ops, {2:.1f}s".format(len(procs), len(plan), duration))
    else:
        from repro.faults import run_chaos

        result = run_chaos(
            procs, seed=args.seed, plan=plan, log_limit=args.log_limit,
            **run
        )
        print("chaos: {0} processes, seed {1}, {2} fault ops, "
              "{3:.0f} sim time units".format(
                  len(procs), args.seed, len(plan),
                  result.stats["sim_time"]))
        print("log digest: {0}".format(result.digest))
    for key in _CHAOS_STATS:
        if key in result.stats:
            print("  {0}: {1}".format(key, result.stats[key]))
    faultnet = result.stats.get("faultnet", {})
    for key in _FAULTNET_STATS:
        if key in faultnet:
            print("  faultnet.{0}: {1}".format(key, faultnet[key]))
    if args.record:
        result.trace.save(args.record)
        print("trace recorded to {0} ({1} events); replay with: "
              "python -m repro replay {0}".format(
                  args.record, len(result.trace)))
    if _report(result.monitor, "no safety violations: VS, DVS, TO and "
               "CB held throughout"):
        return 0
    if args.live:
        _minimize_live(args, result)
    elif not args.no_shrink:
        from repro.faults.harness import find_and_shrink

        print("shrinking the fault schedule (delta debugging)...")
        repro_case = find_and_shrink(
            result, max_probes=args.max_probes, **run
        )
        if args.broken:
            repro_case.extra_args["broken"] = True
        print(repro_case.describe())
    return 1


def _minimize_live(args, result):
    """A live violation is only as good as its replay: reproduce it on
    the deterministic stack, then ddmin the recorded trace."""
    from repro.checking.replay import replay_trace

    replayed = replay_trace(result.trace)
    if replayed.ok:
        print("deterministic replay did NOT reproduce the violation -- "
              "the recording cut missed an input (file a bug)")
        return
    print("deterministic replay reproduces it: {0}".format(
        replayed.violations[0].summary()))
    if not args.no_shrink:
        _shrink_and_save(
            result.trace, replayed, args.max_probes,
            args.record + ".min" if args.record else None,
        )


def _shrink_and_save(trace, replayed, max_probes, path):
    """ddmin a trace whose replay violated, print the minimal
    counterexample and, given a ``path``, save it."""
    from repro.checking.replay import shrink_replay

    print("shrinking the trace (delta debugging)...")
    minimal, probes, final = shrink_replay(
        trace, max_probes=max_probes,
        prop=replayed.violations[0].prop,
    )
    print("minimal counterexample: {0} of {1} events ({2} probes)".format(
        len(minimal), len(trace), probes))
    print(minimal.describe(limit=40))
    print("violation: {0}".format(final.violations[0].summary()))
    if path:
        minimal.save(path)
        print("minimal trace written to {0}; replay: "
              "python -m repro replay {0}".format(path))


def _cmd_replay(args):
    from repro.obs.record import ReplayTrace, TraceError

    try:
        trace = ReplayTrace.load(args.trace)
    except TraceError as exc:
        print("cannot load trace: {0}".format(exc))
        return 2
    except OSError as exc:
        print("cannot read {0}: {1}".format(args.trace, exc))
        return 2
    from repro.checking.replay import (
        check_replay_determinism,
        replay_trace,
    )

    result = replay_trace(trace)
    print("replay: {0} events over {1} processes "
          "(dvs={2}, source={3})".format(
              len(trace), len(trace.processes), trace.dvs, trace.source))
    for key in ("dispatched", "skipped", "attempted_views", "deliveries",
                "violations", "layer_errors"):
        if key in result.stats:
            print("  {0}: {1}".format(key, result.stats[key]))
    print("replay digest: {0}".format(result.digest))
    if args.check_determinism:
        check_replay_determinism(trace)
        print("determinism: two replays produced identical digests "
              "and delivery orders")
    if _report(result.monitor, "no safety violations on replay: VS, DVS, "
               "TO and CB held"):
        return 0
    if args.shrink:
        _shrink_and_save(trace, result, args.max_probes, args.output)
    return 1


def _cmd_serve(args):
    from repro.runtime.serve import run_loopback, run_single

    heartbeat = _heartbeat_flags(args)  # either mode, the same defaults
    if args.pid is not None:
        if not args.bind:
            raise SystemExit("--pid requires --bind HOST:PORT")
        return run_single(
            args.pid, args.bind, args.peer, duration=args.duration,
            **heartbeat
        )
    return run_loopback(
        processes=args.processes, requests=args.requests,
        kill=not args.no_kill, timeout=args.timeout,
        metrics_json=args.metrics_json, trace_json=args.trace_json,
        **heartbeat
    )


def _cmd_trace(args):
    from repro.analysis.report import report_observability
    from repro.gcs.cluster import Cluster
    from repro.gcs.tower import alternating

    procs = ["p{0}".format(i + 1) for i in range(args.processes)]
    cluster = Cluster(procs, seed=args.seed, obs=True)
    cluster.start().settle(max_time=500.0)
    for i in range(args.requests):
        cluster.bcast(
            procs[i % len(procs)], ("req", i), ordering=alternating(i)
        )
    cluster.settle(max_time=10000.0)
    print("traced simulated run: {0} processes, {1} requests, "
          "seed {2}".format(args.processes, args.requests, args.seed))
    data = cluster.obs.tracer.to_json_dict()
    report_observability(data, args.output)
    return 0 if not data["summary"]["orphans"] else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'A Dynamic View-Oriented Group Communication "
            "Service' (PODC 1998)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="check invariants and theorems")
    verify.add_argument("--seeds", type=int, default=3)
    verify.add_argument("--steps", type=int, default=800)
    verify.add_argument("--processes", type=int, default=3)
    verify.set_defaults(func=_cmd_verify)

    availability = sub.add_parser(
        "availability", help="print the E6 availability tables"
    )
    availability.set_defaults(func=_cmd_availability)

    explore = sub.add_parser(
        "explore", help="bounded exhaustive exploration"
    )
    explore.add_argument("--processes", type=int, default=2)
    explore.add_argument("--epochs", type=int, default=1)
    explore.add_argument("--max-states", type=int, default=60000)
    explore.set_defaults(func=_cmd_explore)

    isis = sub.add_parser(
        "isis", help="find an Isis same-messages violation"
    )
    isis.add_argument("--seeds", type=int, default=20)
    isis.add_argument("--steps", type=int, default=2500)
    isis.set_defaults(func=_cmd_isis)

    chaos = sub.add_parser(
        "chaos",
        help="nemesis fault injection with online safety monitoring",
    )
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--processes", type=int, default=5)
    chaos.add_argument(
        "--plan",
        choices=["storm", "churn", "flaky", "bridge", "mixed"],
        default="mixed",
        help="seeded nemesis plan family",
    )
    chaos.add_argument(
        "--plan-json",
        default=None,
        help="replay an explicit plan (as printed by a shrunk repro)",
    )
    chaos.add_argument("--duration", type=float, default=None,
                       help="run length: sim time units, or seconds with "
                            "--live (default: 240 sim / 12 live)")
    chaos.add_argument("--interval", type=float, default=None,
                       help="workload broadcast interval (default: 8 sim "
                            "time units / 0.25s live)")
    chaos.add_argument(
        "--broken",
        action="store_true",
        help="ablate the quorum check (expect a monitor violation)",
    )
    chaos.add_argument("--no-shrink", action="store_true",
                       help="skip counterexample shrinking on violation")
    chaos.add_argument("--max-probes", type=int, default=200,
                       help="shrinking budget (oracle re-runs)")
    chaos.add_argument(
        "--live", action="store_true",
        help="execute the plan against a real-TCP loopback cluster "
             "(times in seconds) instead of the simulator, recording a "
             "deterministically replayable trace",
    )
    chaos.add_argument("--record", default=None, metavar="PATH",
                       help="[--live only] write the recorded replay "
                            "trace to PATH (see `repro replay`)")
    chaos.add_argument("--hb-interval", type=float, default=None,
                       help="[--live only] heartbeat beacon interval "
                            "in seconds (default: HB_INTERVAL of "
                            "repro.runtime.heartbeat)")
    chaos.add_argument("--hb-timeout", type=float, default=None,
                       help="[--live only] peer liveness timeout in "
                            "seconds (default: HB_TIMEOUT, same module)")
    chaos.add_argument("--log-limit", type=int, default=None,
                       help="[sim only] bound the network event log "
                            "(entries kept)")
    chaos.set_defaults(func=_cmd_chaos, _chaos_parser=chaos)

    serve = sub.add_parser(
        "serve",
        help="run the stack on real TCP sockets (loopback demo or one "
             "node of a deployment)",
    )
    serve.add_argument("--processes", type=int, default=3,
                       help="loopback mode: cluster size")
    serve.add_argument("--requests", type=int, default=60,
                       help="loopback mode: KV puts to order")
    serve.add_argument("--no-kill", action="store_true",
                       help="loopback mode: skip the mid-run crash/rejoin")
    serve.add_argument("--timeout", type=float, default=30.0,
                       help="loopback mode: bound on each wait")
    serve.add_argument("--pid", default=None,
                       help="single-node mode: this process id")
    serve.add_argument("--bind", default=None,
                       help="single-node mode: HOST:PORT to listen on")
    serve.add_argument(
        "--peer", action="append", default=[],
        help="single-node mode: PID=HOST:PORT (repeatable)",
    )
    serve.add_argument("--duration", type=float, default=None,
                       help="single-node mode: stop after this many "
                            "seconds (default: run until Ctrl-C)")
    serve.add_argument("--hb-interval", type=float, default=None,
                       help="heartbeat beacon interval in seconds "
                            "(default: HB_INTERVAL of "
                            "repro.runtime.heartbeat)")
    serve.add_argument("--hb-timeout", type=float, default=None,
                       help="peer liveness timeout in seconds, either "
                            "mode (default: HB_TIMEOUT, same module)")
    serve.add_argument("--metrics-json", default=None, metavar="PATH",
                       help="loopback mode: arm observability and write "
                            "the counts, trace summary and per-node "
                            "stats() here")
    serve.add_argument("--trace-json", default=None, metavar="PATH",
                       help="loopback mode: arm observability and write "
                            "the stitched trace here")
    serve.set_defaults(func=_cmd_serve)

    trace = sub.add_parser(
        "trace",
        help="run a traced simulated workload and print the per-stage "
             "latency breakdown stitched from causal spans",
    )
    trace.add_argument("--processes", type=int, default=3)
    trace.add_argument("--requests", type=int, default=30,
                       help="TO broadcasts to trace")
    trace.add_argument("--seed", type=int, default=0,
                       help="network schedule seed")
    trace.add_argument("--output", default=None, metavar="PATH",
                       help="write the full trace JSON here")
    trace.set_defaults(func=_cmd_trace)

    replay = sub.add_parser(
        "replay",
        help="feed a trace recorded by `repro chaos --live --record` "
             "through the deterministic stack under the safety monitor",
    )
    replay.add_argument("trace", help="path to the recorded trace file")
    replay.add_argument("--shrink", action="store_true",
                        help="on violation, ddmin the trace to a minimal "
                             "counterexample")
    replay.add_argument("--max-probes", type=int, default=200,
                        help="shrinking budget (replay re-runs)")
    replay.add_argument("--output", default=None, metavar="PATH",
                        help="write the minimal shrunk trace here")
    replay.add_argument("--check-determinism", action="store_true",
                        help="replay twice and assert identical digests "
                             "and delivery orders")
    replay.set_defaults(func=_cmd_replay)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
