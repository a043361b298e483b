"""A replicated key-value store over the full stack.

Commands are ``("put", key, value)`` and ``("del", key)``; reads are local
(each replica serves its current copy).  Consistency follows from the TO
total order: all replicas apply the same command sequence, so replica
states are snapshots along one history.  A put is *stable* once its
issuing replica has applied it -- which, because the TO layer confirms a
command only when it is safe in a primary view, implies every member of
that primary view received it.
"""

from repro.apps.state_machine import ReplicatedStateMachine, StateMachine
from repro.gcs.cluster import Cluster


class _KvMachine(StateMachine):
    def __init__(self):
        self.data = {}

    def apply(self, command, origin):
        kind = command[0]
        if kind == "put":
            _, key, value = command
            self.data[key] = value
            return value
        if kind == "del":
            _, key = command
            return self.data.pop(key, None)
        raise ValueError("unknown command {0!r}".format(command))


class KvReplica(ReplicatedStateMachine):
    """One key-value replica."""

    def __init__(self, to_layer):
        super().__init__(to_layer, _KvMachine())

    def put(self, key, value):
        self.submit(("put", key, value))

    def delete(self, key):
        self.submit(("del", key))

    def get(self, key, default=None):
        """Local read of the replica's current copy."""
        return self.machine.data.get(key, default)

    def snapshot(self):
        return dict(self.machine.data)


class KvStoreCluster:
    """A simulated cluster of key-value replicas (one per process)."""

    def __init__(self, processes, seed=0, **cluster_kwargs):
        self.cluster = Cluster(processes, seed=seed, **cluster_kwargs)
        self.replicas = {
            pid: KvReplica(self.cluster.to[pid])
            for pid in self.cluster.processes
        }

    def start(self):
        self.cluster.start()
        return self

    def settle(self, max_time=None):
        self.cluster.settle(max_time=max_time)
        return self

    def partition(self, *groups):
        self.cluster.partition(*groups)
        return self

    def heal(self):
        self.cluster.heal()
        return self

    def replica(self, pid):
        return self.replicas[pid]

    def consistent(self):
        """Whether all replica command logs are prefixes of one another."""
        logs = [r.command_log() for r in self.replicas.values()]
        longest = max(logs, key=len)
        return all(longest[: len(log)] == log for log in logs)
