"""Applications built on the group-communication service tiers.

The paper's Section 7 names replicated-data applications as the natural
client of DVS.  These modules implement them over the ordering towers:

- :mod:`repro.apps.state_machine` -- generic replicated state machines:
  every replica applies the common total order of commands, so all
  replicas move through the same state sequence (the classic SMR
  construction over totally ordered broadcast);
- :mod:`repro.apps.kv_store` -- a replicated key-value store instance,
  with read-your-writes at the issuing replica once its command delivers;
- :mod:`repro.apps.presence` -- a presence/typing board over the CB
  tier: per-member last-writer-wins registers need only causal order,
  so they skip the sequencer round-trip the KV commands pay for.
"""

from repro.apps.kv_store import KvReplica, KvStoreCluster
from repro.apps.presence import PresenceBoard
from repro.apps.state_machine import ReplicatedStateMachine, StateMachine

__all__ = [
    "KvReplica",
    "KvStoreCluster",
    "PresenceBoard",
    "ReplicatedStateMachine",
    "StateMachine",
]
