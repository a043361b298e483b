"""The six named workloads and their seeded inputs.

``requests`` is the fixed request count of one repetition at the
reference run length (``--seconds 10``, three repetitions): capacity
falls with history, so a fixed *duration* would measure a different
amount of work on every run and on every host speed.  ``--seconds``
scales the counts linearly; it never turns the window into a timer.
"""

import random
from dataclasses import dataclass

#: ``--seconds`` value the request counts below are sized for.
REF_SECONDS = 10

#: Repetitions per end-to-end measurement, each in a fresh interpreter;
#: the median is reported (of two, one stalled repetition leaks into a
#: mean: the fault workload's light-load p95 read 13 ms against 3.3-4.7).
REPS = 3

#: Closed-loop client sessions ("callers that each wait for a reply").
SESSIONS = 8

#: Distinct keys the KV puts spread over.
KEYS = 32

#: Request index prefix embedded in every value: makes payloads unique
#: (the safety monitor identifies broadcasts by payload equality) and
#: lets a delivery be matched to its request without a lookup table.
INDEX_DIGITS = 8


@dataclass(frozen=True)
class Workload:
    name: str
    tier: str          # "to" (KvReplica over node.to) or "cb" (PresenceBoard)
    nodes: int
    value_bytes: int
    requests: int      # per repetition at REF_SECONDS (closed loops)
    why: str
    failover: bool = False


@dataclass(frozen=True)
class FaultSchedule:
    """The open-loop fault scenario, in seconds from the first due time."""

    rate: float          # requests per second, alternating over the clients
    history_s: float     # load before the kill
    restart_after_s: float
    tail_s: float        # schedule continues this long after the kill

    @property
    def requests(self):
        return int(round(self.rate * (self.history_s + self.tail_s)))


WORKLOADS = (
    Workload(
        "to_small_n3", "to", 3, 32, 1000,
        "Headline: 3 nodes, 32-byte KV puts. Per-frame work dominates "
        "(27 frames per request, most of them acks nothing reads) and the "
        "O(history) label scan already shows as aging.",
    ),
    Workload(
        "cb_small_n3", "cb", 3, 32, 1400,
        "Causal tier on the same DVS substrate: delivers at gprcv, never "
        "reads dvs_safe, keeps no history. A change that helps TO by "
        "costing CB (or the reverse) shows here.",
    ),
    Workload(
        "to_large_n3", "to", 3, 8192, 700,
        "Bytes, not frames: 8 KiB values, so codec, socket copies and "
        "retained payloads do the work. Coalescing or a new codec must "
        "not win small frames by losing here.",
    ),
    Workload(
        "to_small_n5", "to", 5, 32, 380,
        "Cluster size: the ack storm is quadratic in n (27 -> 80 frames "
        "per request) and a delivery waits for the slowest of five.",
    ),
    Workload(
        "to_small_n1", "to", 1, 32, 4000,
        "Single-node baseline: every send is a local self-delivery, so "
        "codec and transport do nothing and vs/dvs/to/log are the whole "
        "cost. Codec or transport work must leave it unmoved.",
    ),
    Workload(
        "to_failover_n3", "to", 3, 32, 0,
        "Faults: open loop at 100 req/s through n2,n3; kill n1 (leader "
        "and sequencer), restart it 2.5 s later. Requests due while no "
        "primary exists are timed from their due time.",
        failover=True,
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}


def pids(workload):
    return ["n{0}".format(i + 1) for i in range(workload.nodes)]


def closed_loop_requests(workload, scale):
    return max(4 * SESSIONS, int(round(workload.requests * scale)))


def fault_schedule(scale, quick=False):
    """The failover timetable.  Only the pre-fault history scales with
    the run length; detection, re-formation and rejoin are bound to the
    failure detector's timers, not to the amount of load."""
    if quick:
        return FaultSchedule(100.0, 0.5, 1.5, 4.5)
    return FaultSchedule(100.0, 3.0 * scale, 2.5, 7.0)


def make_values(workload, seed, count):
    """``count`` unique values of ``value_bytes`` characters each: the
    request index, then seeded hex noise."""
    rng = random.Random("{0}/{1}".format(workload.name, seed))
    noise = workload.value_bytes - INDEX_DIGITS
    values = []
    for index in range(count):
        tail = "{0:0{1}x}".format(rng.getrandbits(4 * noise), noise)
        values.append("{0:0{1}d}{2}".format(index, INDEX_DIGITS, tail))
    return values


def make_payloads(workload, seed, count):
    """What the application is asked to broadcast, per request index.

    TO: ``("put", key, value)`` commands for :class:`KvReplica`;
    CB: ``("presence", value)`` updates for :class:`PresenceBoard`.
    """
    values = make_values(workload, seed, count)
    if workload.tier == "cb":
        return [("presence", value) for value in values]
    rng = random.Random("{0}/{1}/keys".format(workload.name, seed))
    return [
        ("put", "key-{0}".format(rng.randrange(KEYS)), value)
        for value in values
    ]


def request_index(payload):
    """The request index embedded in a delivered payload."""
    return int(payload[-1][:INDEX_DIGITS])
