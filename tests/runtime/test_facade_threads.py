"""The sync facade writes its registries on the loop thread only.

:class:`~repro.runtime.cluster.RuntimeCluster` keeps its nodes and apps
in dicts that the loop thread writes when it boots a node.  ``kill``
and ``restart`` come from the caller's thread and must marshal their
writes onto the loop.  A write from the caller's thread races the
loop's, and the GIL keeps that race from showing in any run, so this
test records the thread of every write instead.
"""

import threading

from repro.runtime.cluster import RuntimeCluster

PIDS = ["n1", "n2", "n3"]
REGISTRIES = ("_nodes", "_apps", "_cb_apps")


class ThreadRecordingDict(dict):
    """A dict that appends ``(name, thread id)`` to ``writes`` on every
    mutating call."""

    def __init__(self, contents, name, writes):
        super().__init__(contents)
        self._name = name
        self._writes = writes

    def _wrote(self):
        self._writes.append((self._name, threading.get_ident()))


def _recording(method):
    def wrapper(self, *args, **kwargs):
        self._wrote()
        return getattr(dict, method)(self, *args, **kwargs)

    wrapper.__name__ = method
    return wrapper


for _method in ("__setitem__", "__delitem__", "pop", "popitem",
                "setdefault", "update", "clear"):
    setattr(ThreadRecordingDict, _method, _recording(_method))


def test_kill_and_restart_write_the_registries_on_the_loop_thread():
    cluster = RuntimeCluster(
        PIDS, monitor=False, app_factory=lambda node: node.pid,
        cb_app_factory=lambda node: node.pid,
    )
    writes = []

    def wrap_registries():
        for name in REGISTRIES:
            setattr(cluster, name, ThreadRecordingDict(
                getattr(cluster, name), name, writes))

    with cluster:
        cluster._call(wrap_registries)
        cluster.kill("n3")
        cluster.restart("n3")
        loop_thread = cluster._thread.ident
    assert sorted({name for name, _ in writes}) == sorted(REGISTRIES)
    off_loop = [name for name, ident in writes if ident != loop_thread]
    assert off_loop == [], (off_loop, len(writes))
