"""Implementation of ``repro serve``: run the stack on real sockets.

Two modes share the wire protocol and the hosted layer stack:

``repro serve`` (loopback demo, the default)
    Boots an in-process :class:`~repro.runtime.cluster.RuntimeCluster`
    of N nodes on 127.0.0.1, drives a replicated key-value workload
    through totally ordered broadcast *and* a presence/typing channel
    through causal broadcast (each node hosts both towers; the client
    picks the ordering strength per send) -- optionally killing and
    rejoining one node mid-run -- and prints the per-node outcome plus
    the online safety monitor's verdict.  Exit status reflects that
    verdict, so the command doubles as a smoke test of the live path.

``repro serve --pid n1 --bind HOST:PORT --peer n2=HOST:PORT ...``
    Runs *one* node of a real multi-process deployment in the
    foreground until ``--duration`` elapses (or forever), printing view
    changes and applied commands as they happen.  Start one process per
    peer with matching books and they find each other through the
    handshake + heartbeat machinery; kill any of them and the survivors
    reform, exactly as in the loopback demo.
"""

import asyncio
import time

from repro.analysis.report import report_observability
from repro.apps.kv_store import KvReplica
from repro.apps.presence import PresenceBoard
from repro.core.views import make_view
from repro.runtime.cluster import RuntimeCluster
from repro.runtime.heartbeat import HB_INTERVAL, HB_TIMEOUT
from repro.runtime.node import RuntimeNode


def _parse_endpoint(spec):
    host, _, port = spec.rpartition(":")
    try:
        return host or "127.0.0.1", int(port)
    except ValueError:
        raise SystemExit(
            "bad endpoint {0!r}: expected HOST:PORT".format(spec)
        )


def _parse_peers(specs):
    book = {}
    for spec in specs:
        pid, sep, endpoint = spec.partition("=")
        if not sep or not pid:
            raise SystemExit(
                "bad --peer {0!r}: expected PID=HOST:PORT".format(spec)
            )
        book[pid] = _parse_endpoint(endpoint)
    return book


# -- Loopback demo -----------------------------------------------------------


def run_loopback(processes=3, requests=60, kill=True,
                 hb_interval=HB_INTERVAL, hb_timeout=HB_TIMEOUT,
                 timeout=30.0, metrics_json=None, trace_json=None):
    """The self-contained demo: N live nodes, a KV workload over TO, a
    presence channel over CB, one crash.

    ``metrics_json``/``trace_json`` arm the observability layer, whose
    tables are printed and snapshots written when the run finishes.
    Returns the number of safety violations (0 on a clean run).
    """
    pids = ["n{0}".format(i + 1) for i in range(processes)]
    victim = pids[-1]
    first = requests // 2 if kill and processes > 2 else requests
    observe = metrics_json is not None or trace_json is not None
    cluster = RuntimeCluster(
        pids,
        app_factory=lambda node: KvReplica(node.to),
        cb_app_factory=lambda node: PresenceBoard(node.cb),
        hb_interval=hb_interval,
        hb_timeout=hb_timeout,
        obs=True if observe else None,
    )
    with cluster:
        print("serving {0} nodes on 127.0.0.1 (ports {1})".format(
            processes,
            ", ".join(str(cluster.call_node(p, lambda n: n.port))
                      for p in pids),
        ))
        cluster.wait_formation(timeout=timeout)
        print("primary view formed over {0}".format(pids))

        _presence_round(cluster, pids, "online", timeout)
        print("presence board converged over CB ({0} all online)".format(
            pids))
        sent = _drive(cluster, pids, 0, first, timeout)
        if first < requests:
            print("killing {0} mid-run...".format(victim))
            cluster.kill(victim)
            survivors = [p for p in pids if p != victim]
            cluster.wait_formation(survivors, timeout=timeout)
            print("survivors {0} reformed and keep serving".format(
                survivors))
            sent += _drive(cluster, survivors, sent, requests - sent,
                           timeout)
            print("restarting {0} (fresh state, same id)...".format(victim))
            cluster.restart(victim)
            cluster.wait_formation(pids, timeout=timeout)
            _wait_applied(cluster, pids, sent, timeout)
            print("{0} rejoined and caught up via state transfer".format(
                victim))
            _presence_round(cluster, pids, "back", timeout)
            print("presence board repaired after rejoin "
                  "(fresh announcements over CB)")

        for pid in cluster.live():
            print("  {0}: {1} commands applied, kv size {2}, "
                  "presence {3}/{4}".format(
                      pid,
                      cluster.call_app(pid, lambda app: app.log_length),
                      cluster.call_app(pid, lambda app: len(app.snapshot())),
                      cluster.call_cb_app(
                          pid, lambda app: len(app.board())),
                      len(pids),
                  ))
        if observe:
            trace, snapshot = cluster.snapshots()
            report_observability(trace, trace_json, snapshot, metrics_json)
        violations = cluster.violations
        errors = cluster.errors()
    if errors:
        print("LAYER ERRORS: {0!r}".format(errors))
        return 1
    if violations:
        for violation in violations:
            print("SAFETY VIOLATION: {0}".format(violation.summary()))
        return len(violations)
    print("safety monitor: {0} requests ordered, no violations".format(
        sent))
    return 0


def _presence_round(cluster, pids, status, timeout):
    """Every node announces ``status`` over CB and flips a typing
    indicator; wait until every board shows every member at ``status``
    and nobody typing (start-then-stop arrives in that order: per-sender
    causal FIFO)."""
    for pid in pids:
        cluster.call_cb_app(pid, lambda app: app.typing(True))
        cluster.call_cb_app(
            pid, lambda app, s=status: app.announce(s)
        )
        cluster.call_cb_app(pid, lambda app: app.typing(False))

    def converged():
        return all(
            cluster.cb_app(p).status_of(q) == status
            for p in pids for q in pids
        ) and all(not cluster.cb_app(p).typing_now() for p in pids)

    cluster.wait_until(
        converged, timeout=timeout,
        what="presence board convergence on {0}".format(sorted(pids)),
    )


def _drive(cluster, pids, start, count, timeout):
    """Issue ``count`` uniquely keyed puts round-robin across ``pids``
    and wait until every replica has applied all of them."""
    for i in range(start, start + count):
        pid = pids[i % len(pids)]
        cluster.call_app(
            pid,
            lambda app, i=i, pid=pid: app.put(
                "k{0}".format(i % 10), "v{0}@{1}".format(i, pid)
            ),
        )
    _wait_applied(cluster, pids, start + count, timeout)
    return count


def _wait_applied(cluster, pids, total, timeout):
    cluster.wait_until(
        lambda: all(
            cluster.app(pid).log_length >= total for pid in pids
        ),
        timeout=timeout,
        what="{0} commands applied on {1}".format(total, sorted(pids)),
    )


# -- Single real node --------------------------------------------------------


def run_single(pid, bind, peers, duration=None, hb_interval=HB_INTERVAL,
               hb_timeout=HB_TIMEOUT):
    """Run one live node in the foreground (Ctrl-C to stop)."""
    host, port = _parse_endpoint(bind)
    book = _parse_peers(peers)
    book[pid] = (host, port)
    initial_view = make_view(0, book)

    async def main():
        node = RuntimeNode(
            pid, book, initial_view=initial_view, host=host, port=port,
            hb_interval=hb_interval, hb_timeout=hb_timeout,
        )
        app = KvReplica(node.to)
        await node.start()
        print("{0} listening on {1}:{2}; peers: {3}".format(
            pid, host, node.port,
            ", ".join("{0}={1}:{2}".format(p, *book[p])
                      for p in sorted(book) if p != pid) or "(none)",
        ))
        # Wall clock is the point: --duration bounds a live server's
        # real runtime, outside the simulated world (DESIGN.md §9).
        started = time.monotonic()  # lint: ignore[DVS006]
        last_view, last_applied = None, 0
        try:
            while (duration is None
                   or time.monotonic() - started < duration):  # lint: ignore[DVS006]
                await asyncio.sleep(hb_interval)
                view = node.to.current
                if view is not None and view.id != last_view:
                    last_view = view.id
                    print("{0}: primary view {1} over {2}".format(
                        pid, view.id, sorted(view.set)))
                if app.log_length > last_applied:
                    for cmd, origin, _ in app.applied[last_applied:]:
                        print("{0}: applied {1!r} from {2}".format(
                            pid, cmd, origin))
                    last_applied = app.log_length
        finally:
            await node.stop()
            print("{0}: stopped ({1} commands applied)".format(
                pid, app.log_length))

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass
    return 0
