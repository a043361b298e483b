"""Property tests: coalesced client-level acks keep DVS-SAFE sound and live.

``DvsLayer`` keeps one cumulative ``AckMsg`` in flight per member and
the VS stack below it tracks no stability at all, so DVS-SAFE rests on
the ack counts alone.  Over random schedules of broadcasts, partitions
and heals on the simulated tower:

- safety: the DVS trace properties hold, and every ``dvs_safe(m, s, p)``
  comes after ``dvs_gprcv(m, s, r)`` at *every* member r of p's view
  (the repaired DVS-SAFE precondition: clients, not filters);
- liveness: once healed and quiescent, every safe-wanted delivery has
  been reported safe at every member (``safe_ptr >= ack_wanted``: TO
  reads ``dvs_safe``, CB does not, and nobody acknowledges for a reader
  that does not exist) -- for everything it delivered when every reader
  wants it -- and every TO broadcast reached everyone;
- ``ToLayer.ordered`` is exactly the membership index of ``ToLayer.order``.

The simulated tower seldom sequences a member's own ack echo ahead of
client payloads in one frame, so :class:`TestAckAtBatchEnd` drives one
``DvsLayer`` directly, over a fake stack, with random frames that put
client payloads, peers' acks and the own echo at any position.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.checking import check_dvs_trace_properties
from repro.core import make_view
from repro.core.messages import InfoMsg
from repro.dvs.vs_to_dvs import AckMsg
from repro.gcs.cluster import Cluster
from repro.gcs.dvs_layer import DvsLayer, DvsListener

PIDS = ["a", "b", "c"]
SPLITS = [
    [{"a", "b"}, {"c"}], [{"a", "c"}, {"b"}], [{"b", "c"}, {"a"}],
    [{"a"}, {"b"}, {"c"}],
]

#: Longer than a membership round (three hops of at most 2.0): the VS
#: stack can wedge when connectivity changes again mid-round (ROADMAP
#: item 4), which is not what this test is about.  Requests in flight
#: when the partition hits are still cut off mid-protocol.
ROUND = 7.0

steps = st.one_of(
    st.tuples(st.just("bcast"), st.sampled_from(PIDS)),
    st.tuples(st.just("run"), st.floats(min_value=0.5, max_value=30.0)),
    st.tuples(st.just("partition"), st.sampled_from(SPLITS)),
    st.tuples(st.just("heal"), st.none()),
)


def check_order_index(cluster):
    for to in cluster.to.values():
        assert set(to.order) == to.ordered
        assert len(to.order) == len(to.ordered)


def check_safe_follows_every_client(actions, initial_view):
    current = {p: initial_view for p in initial_view.set}
    delivered = set()  # (view id, payload, sender, receiver)
    for action in actions:
        if action.name == "dvs_newview":
            view, p = action.params
            current[p] = view
        elif action.name == "dvs_gprcv":
            m, sender, r = action.params
            delivered.add((current[r].id, m, sender, r))
        elif action.name == "dvs_safe":
            m, sender, p = action.params
            view = current[p]
            for r in view.set:
                assert (view.id, m, sender, r) in delivered, (
                    "dvs_safe({0!r}) at {1} in {2} before {3}'s client "
                    "received it".format(m, p, view.id, r)
                )


class TestCoalescedAcks:
    @settings(
        max_examples=40, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        script=st.lists(steps, min_size=1, max_size=25),
        cb_every=st.sampled_from([0, 2, 3]),
    )
    def test_safe_is_sound_and_live_over_random_schedules(
        self, seed, script, cb_every
    ):
        cluster = Cluster(PIDS, seed=seed).start()
        sent = casts = 0
        for op, arg in script:
            if op == "bcast":
                casts += 1
                if cb_every and casts % cb_every == 0:
                    cluster.bcast(arg, ("cast", casts), ordering="cb")
                else:
                    cluster.bcast(arg, ("req", sent))
                    sent += 1
            elif op == "run":
                cluster.run(arg)
            else:
                if op == "partition":
                    cluster.partition(*arg)
                else:
                    cluster.heal()
                cluster.run(ROUND)
            check_order_index(cluster)
        cluster.heal().settle(max_time=5000)
        check_order_index(cluster)

        actions = cluster.log.actions
        check_dvs_trace_properties(actions, cluster.initial_view)
        check_safe_follows_every_client(actions, cluster.initial_view)

        views = {cluster.dvs[p].client_cur for p in PIDS}
        assert len(views) == 1 and views.pop().set == frozenset(PIDS)
        for p in PIDS:
            dvs = cluster.dvs[p]
            assert dvs.ack_wanted <= dvs.safe_ptr <= len(dvs.client_history)
            if not cb_every:  # every reader wants everything
                assert dvs.safe_ptr == len(dvs.client_history)
            assert [m for m, _ in cluster.delivered(p)] == [
                m for m, _ in cluster.delivered("a")
            ]
            assert len(cluster.delivered(p)) == sent


class EchoStack:
    """Stands in for member ``a``'s VS stack: keeps the counts of the
    AckMsgs the layer sends, each in flight until a frame echoes it."""

    pid = "a"

    def __init__(self):
        self.listener = None
        self.counts = []
        self.in_flight = []

    def gpsnd(self, payload):
        if isinstance(payload, AckMsg):
            self.counts.append(payload.count)
            self.in_flight.append(payload)


class TaggedReader(DvsListener):
    """Wants ``dvs_safe`` for TO payloads, not for CB ones."""

    def on_dvs_gprcv(self, payload, sender):
        self.wants_dvs_safe = payload[0] == "to"


entries = st.one_of(
    st.tuples(st.sampled_from(["to", "cb", "echo"]), st.none()),
    st.tuples(st.just("info"), st.sampled_from("bc")),
    st.tuples(st.just("ack"), st.tuples(
        st.sampled_from("bc"), st.floats(min_value=0.0, max_value=1.0),
    )),
)
frames = st.one_of(
    st.tuples(st.just("frame"), st.lists(entries, min_size=1, max_size=8)),
    st.tuples(st.just("newview"), st.none()),
)


class TestAckAtBatchEnd:
    @settings(max_examples=300, deadline=None)
    @given(script=st.lists(frames, max_size=30))
    def test_one_ack_per_frame_covers_the_frame(self, script):
        v0 = make_view(0, "abc")
        stack = EchoStack()
        dvs = DvsLayer(stack, v0, listener=TaggedReader())
        state = {"epoch": 0, "sequenced": 0, "peers": {}, "counts": []}

        def deliver(frame):
            # Sequenced before it is delivered: the echoes it can carry
            # are of acks sent by earlier frames.
            sequence = []
            for kind, arg in frame:
                if kind in ("to", "cb"):
                    state["sequenced"] += 1
                    sequence.append(((kind, state["sequenced"]), "b"))
                elif kind == "echo" and stack.in_flight:
                    sequence.append((stack.in_flight.pop(0), "a"))
                elif kind == "info":
                    sequence.append((InfoMsg(v0, frozenset()), arg))
                elif kind == "ack":
                    # A peer acks some of what was sequenced before.
                    peer, share = arg
                    low = state["peers"].get(peer, 0)
                    count = low + int(share * (state["sequenced"] - low))
                    state["peers"][peer] = count
                    sequence.append((AckMsg(count), peer))
            before = len(stack.counts)
            for payload, sender in sequence:
                dvs.on_vs_gprcv(payload, sender)
                assert len(stack.counts) == before  # never mid-frame
            if sequence:
                dvs.on_vs_batch_end()
            for count in stack.counts[before:]:
                assert count == len(dvs.client_history)
            state["counts"] += stack.counts[before:]
            assert len(stack.in_flight) <= 1
            assert state["counts"] == sorted(set(state["counts"]))

        for op, frame in script:
            if op == "newview":
                state.update(
                    epoch=state["epoch"] + 1, sequenced=0, peers={},
                    counts=[],
                )
                stack.in_flight.clear()  # lost with the old view
                dvs.on_vs_newview(make_view(state["epoch"], "abc"))
            else:
                deliver(frame)

        # Heal: attempt the view if it is not yet, then let every member
        # ack everything and echo ours until nothing is in flight.
        deliver([("info", "b"), ("info", "c")])
        for _ in range(3):
            deliver([("echo", None)] * len(stack.in_flight) + [
                ("ack", ("b", 1.0)), ("ack", ("c", 1.0)),
            ])
            if not stack.in_flight:
                break
        assert not stack.in_flight
        assert dvs.safe_ptr >= dvs.ack_wanted
