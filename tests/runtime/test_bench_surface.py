"""Tier-1 contract: every product name ``benchmarks/gcsbench`` reaches for.

gcsbench brackets the live stack by patching classes and module
attributes *by name* and reads layer state by attribute, and
``testpaths`` never runs ``benchmarks/gcsbench/tests`` -- so without
this file a product rename passes tier-1 and is rejected later, when
the benchmark driver runs.  Checked by import and ``getattr`` only;
nothing here starts a cluster.  The file shrinks when ROADMAP item 1
moves gcsbench onto ``stats()``.
"""

import ast
import inspect
import textwrap

import pytest

import repro.runtime.node as runtime_node
from repro.core.viewids import ViewId
from repro.core.views import View
from repro.net.simulator import Node
from repro.runtime.cluster import RuntimeCluster

PIDS = ["n1", "n2", "n3"]
V0 = View(ViewId(0, ""), frozenset(PIDS))

#: ``module: names`` gcsbench (and its own tests) import.
IMPORTED = {
    "repro.apps.kv_store": ("KvReplica",),
    "repro.apps.presence": ("PresenceBoard",),
    "repro.dvs.vs_to_dvs": ("AckMsg",),
    "repro.faults.monitor": ("SafetyMonitor",),
    "repro.gcs.cb_layer": ("CbLayer", "DvsFanout"),
    "repro.gcs.dvs_layer": ("DvsLayer",),
    "repro.gcs.messages": ("Ack", "Data", "Ordered"),
    "repro.gcs.recorder": ("ActionLog",),
    "repro.gcs.to_layer": ("NORMAL", "ToLayer"),
    "repro.gcs.vs_stack": ("VsStackNode",),
    "repro.obs": ("Observability",),
    "repro.runtime.codec": (
        "FrameDecoder", "Heartbeat", "Hello", "encode_frame",
    ),
    "repro.runtime.heartbeat": ("ConnectivityEstimator",),
    "repro.runtime.transport": ("Listener", "PeerLink"),
    "repro.to.summaries": ("Label", "Summary"),
}

#: ``(module, class): methods`` gcsbench wraps with a span bracket.
PATCHED = {
    ("repro.runtime.codec", "FrameDecoder"): ("feed",),
    ("repro.runtime.transport", "PeerLink"): ("send_frame", "queue_depth"),
    ("repro.runtime.heartbeat", "ConnectivityEstimator"): (
        "heard", "poll",
    ),
    ("repro.gcs.vs_stack", "VsStackNode"): (
        "on_message", "on_connectivity", "gpsnd",
        "send", "broadcast", "on_timer",
    ),
    ("repro.gcs.dvs_layer", "DvsLayer"): (
        "on_vs_newview", "on_vs_gprcv", "on_vs_safe", "gpsnd", "register",
    ),
    ("repro.gcs.cb_layer", "DvsFanout"): (
        "on_dvs_newview", "on_dvs_gprcv", "on_dvs_safe",
    ),
    ("repro.gcs.to_layer", "ToLayer"): (
        "bcast", "on_dvs_newview", "on_dvs_gprcv", "on_dvs_safe",
    ),
    ("repro.gcs.cb_layer", "CbLayer"): (
        "cbcast", "on_dvs_newview", "on_dvs_gprcv", "on_dvs_safe",
    ),
    ("repro.gcs.recorder", "ActionLog"): ("record", "probe"),
    ("repro.faults.monitor", "SafetyMonitor"): ("on_action",),
    ("repro.obs", "Observability"): ("on_action", "wire_event"),
}


def _load(module, name):
    return getattr(__import__(module, fromlist=[name]), name)


@pytest.mark.parametrize("module", sorted(IMPORTED))
def test_imported_names_exist(module):
    for name in IMPORTED[module]:
        _load(module, name)


@pytest.mark.parametrize("key", sorted(PATCHED))
def test_patched_methods_exist(key):
    cls = _load(*key)
    for method in PATCHED[key]:
        assert callable(getattr(cls, method)), (key, method)


def test_stack_methods_are_defined_where_the_brackets_expect():
    stack = _load("repro.gcs.vs_stack", "VsStackNode")
    for name in ("on_message", "on_connectivity", "gpsnd"):
        assert name in stack.__dict__, name
    # Patched on the subclass so the simulator's Node stays untouched:
    # that only works while these are inherited, not overridden.  The
    # sequencer's flush is reached through the inherited ``on_timer``
    # (``Node.timer_handlers``), so the "vs" bracket still covers it.
    for name in ("send", "broadcast", "on_timer"):
        assert name not in stack.__dict__, name
        assert getattr(stack, name) is getattr(Node, name)
    assert "vs_flush" in stack.timer_handlers


def test_node_module_attributes_patched_by_name():
    for name in ("encode_frame", "validate_message", "Listener"):
        assert callable(getattr(runtime_node, name)), name
    # gcsbench swaps ``Listener`` for ``traced(on_frame, **kwargs)`` and
    # reads ``on_frame.__self__.pid``: the bound method goes first,
    # everything else by keyword.
    tree = ast.parse(textwrap.dedent(
        inspect.getsource(runtime_node.RuntimeNode.start)
    ))
    (call,) = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name) and node.func.id == "Listener"
    ]
    assert [ast.unparse(arg) for arg in call.args] == ["self._on_frame"]
    assert {"host", "port"} <= {kw.arg for kw in call.keywords}


def test_state_read_on_every_run():
    node = runtime_node.RuntimeNode("n1", {}, V0)
    assert node.pid == "n1" and len(node.errors) == 0
    stats = node.stats()
    assert stats["errors"] == 0 and stats["dropped_invalid"] == 0
    assert node.stack.view == V0
    assert len(node.stack.ordering.buffer) == 0
    assert len(node.dvs.client_history) >= 0 and node.dvs.act == V0
    for name in ("order", "content", "nextreport", "status", "current"):
        getattr(node.to, name)
    assert node.cb.current == V0 and len(node.cb.holdback) == 0
    link = _load("repro.runtime.transport", "PeerLink")(
        "n1", "n2", resolve=lambda: ("127.0.0.1", 1)
    )
    assert (link.local_pid, link.peer_pid) == ("n1", "n2")
    assert link.queue_depth() == 0 and link.queue_drops == 0


def test_cluster_facade():
    cluster = RuntimeCluster(
        PIDS, monitor=True, obs=True, hb_interval=0.05, hb_timeout=1.0,
        app_factory=lambda node: None, cb_app_factory=lambda node: None,
    )
    for name in (
        "start", "stop", "wait_until", "call_node", "call_app",
        "call_cb_app", "app", "cb_app", "live", "kill", "restart",
        "errors", "check",
    ):
        assert callable(getattr(cluster, name)), name
    assert cluster.log.actions == [] and cluster.log.times == []
    assert cluster.violations == []
    assert cluster.obs.tracer.dropped() == 0
    assert isinstance(
        inspect.getattr_static(RuntimeCluster, "clock"), property
    )
