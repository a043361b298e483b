"""Tests for the runtime CB layer and the DVS fanout over the
simulated stack."""

from repro.cb.messages import CbCast
from repro.checking import check_cb_trace_properties
from repro.core import make_view
from repro.gcs import CbLayer, DvsFanout
from repro.gcs.dvs_layer import DvsListener
from repro.gcs.cluster import Cluster


class _Sink:
    def __init__(self):
        self.got = []

    def on_cb_brcv(self, payload, origin):
        self.got.append((payload, origin))


class TestCbLayerOverSimCluster:
    def test_causal_delivery_stable_group(self):
        c = Cluster(list("abc"), seed=11).start()
        c.settle(max_time=60)
        for i in range(3):
            for pid in "abc":
                c.bcast(pid, ("c", pid, i), ordering="cb")
        c.settle(max_time=400)
        for pid in "abc":
            assert len(c.cb_delivered(pid)) == 9
        stats = check_cb_trace_properties(_payload_trace(c))
        assert stats["broadcasts"] == 9
        assert stats["deliveries"] == 27

    def test_per_sender_fifo_observed_everywhere(self):
        c = Cluster(list("abc"), seed=12).start()
        c.settle(max_time=60)
        for i in range(4):
            c.bcast("a", ("c", "a", i), ordering="cb")
        c.settle(max_time=400)
        for pid in "abc":
            from_a = [p for p, q in c.cb_delivered(pid) if q == "a"]
            assert from_a == [("c", "a", i) for i in range(4)]

    def test_pre_view_sends_are_delayed_not_lost(self):
        v0 = make_view(0, ["a", "b"])
        c = Cluster(["a", "b", "j"], initial_view=v0, seed=13).start()
        # "j" is outside the initial view: its layer has no current
        # view, so a cbcast waits in the delay queue.
        c.cb["j"].cbcast(("c", "j", 0))
        assert c.cb["j"].delay == [("c", "j", 0)]
        c.settle(max_time=600)
        if c.cb["j"].current is not None:  # joined: the send went out
            assert c.cb["j"].delay == []

    def test_both_tiers_share_one_dvs(self):
        c = Cluster(list("abc"), seed=14).start()
        c.settle(max_time=60)
        c.bcast("a", ("t", "a", 0), ordering="to")
        c.bcast("a", ("c", "a", 0), ordering="cb")
        c.settle(max_time=400)
        for pid in "abc":
            assert c.delivered(pid) == [(("t", "a", 0), "a")]
            assert c.cb_delivered(pid) == [(("c", "a", 0), "a")]


def _payload_trace(c):
    """cb_brcv actions re-shaped for the payload-level trace checker."""
    from repro.ioa import act

    trace = []
    for a in c.log.actions:
        if a.name == "cbcast":
            trace.append(a)
        elif a.name == "cb_brcv":
            msg, origin, pid = a.params
            trace.append(act("cb_brcv", msg.payload, origin, pid))
    return trace


class TestFanout:
    def _fixture(self):
        class FakeDvs:
            def __init__(self):
                self.pid = "p1"
                self.listener = None
                self.sent = []
                self.registers = 0

            def gpsnd(self, payload):
                self.sent.append(payload)

            def register(self):
                self.registers += 1

        return FakeDvs()

    def test_routing_by_claimed_type(self):
        dvs = self._fixture()
        fanout = DvsFanout(dvs)
        default_port = fanout.port()
        cb_port = fanout.port(claims=CbCast)
        default_port.listener = _Recorder()
        cb_port.listener = _Recorder()
        cast = CbCast(make_view(0, ["p1"]).id, (("p1", 1),), "x", "p1")
        fanout.on_dvs_gprcv(cast, "p1")
        fanout.on_dvs_gprcv(("to", "payload"), "p1")
        assert cb_port.listener.gprcv == [(cast, "p1")]
        assert default_port.listener.gprcv == [(("to", "payload"), "p1")]

    def test_safe_routed_like_gprcv(self):
        dvs = self._fixture()
        fanout = DvsFanout(dvs)
        default_port = fanout.port()
        cb_port = fanout.port(claims=CbCast)
        default_port.listener = _Recorder()
        cb_port.listener = _Recorder()
        fanout.on_dvs_safe(("to", "payload"), "p2")
        assert default_port.listener.safe == [(("to", "payload"), "p2")]
        assert cb_port.listener.safe == []

    def test_register_waits_for_every_port(self):
        dvs = self._fixture()
        fanout = DvsFanout(dvs)
        port_a = fanout.port()
        port_b = fanout.port(claims=CbCast)
        port_b.register()
        assert dvs.registers == 0  # the TO tower has not registered yet
        port_a.register()
        assert dvs.registers == 1

    def test_newview_resets_registration_flags(self):
        dvs = self._fixture()
        fanout = DvsFanout(dvs)
        port_a = fanout.port()
        port_b = fanout.port(claims=CbCast)
        port_a.listener = _Recorder()
        port_b.listener = _Recorder()
        port_a.register()
        port_b.register()
        assert dvs.registers == 1
        view = make_view(1, ["p1"])
        fanout.on_dvs_newview(view)
        assert not port_a.registered and not port_b.registered
        assert port_a.listener.views == [view]
        assert port_b.listener.views == [view]
        # Registering both again registers the new view exactly once.
        port_b.register()
        port_a.register()
        assert dvs.registers == 2

    def test_cb_layer_over_a_port_registers_on_newview(self):
        dvs = self._fixture()
        fanout = DvsFanout(dvs)
        to_port = fanout.port()
        v0 = make_view(0, ["p1"])
        cb = CbLayer(fanout.port(claims=CbCast), v0, listener=_Sink())
        fanout.on_dvs_newview(make_view(1, ["p1"]))
        # CB registered immediately; DVS still waits for the TO port.
        assert dvs.registers == 0
        to_port.register()
        assert dvs.registers == 1
        assert cb.current.id == make_view(1, ["p1"]).id

    # The port is chosen once per payload type; the choice must be the
    # one ``isinstance`` over the ports makes.

    def _fanout(self):
        fanout = DvsFanout(self._fixture())
        default_port = fanout.port()
        default_port.listener = _Recorder()
        return fanout, default_port

    def test_a_port_created_after_traffic_receives_its_type(self):
        fanout, default_port = self._fanout()
        cast = CbCast(make_view(0, ["p1"]).id, (("p1", 1),), "x", "p1")
        fanout.on_dvs_gprcv(cast, "p1")
        assert default_port.listener.gprcv == [(cast, "p1")]
        cb_port = fanout.port(claims=CbCast)
        cb_port.listener = _Recorder()
        fanout.on_dvs_gprcv(cast, "p2")
        fanout.on_dvs_safe(cast, "p2")
        assert cb_port.listener.gprcv == [(cast, "p2")]
        assert cb_port.listener.safe == [(cast, "p2")]
        assert default_port.listener.gprcv == [(cast, "p1")]

    def test_a_subclass_of_a_claimed_type_routes_to_that_port(self):
        class Tagged(CbCast):
            pass

        fanout, default_port = self._fanout()
        cb_port = fanout.port(claims=CbCast)
        cb_port.listener = _Recorder()
        vid = make_view(0, ["p1"]).id
        plain = CbCast(vid, (("p1", 1),), "x", "p1")
        tagged = Tagged(vid, (("p1", 2),), "y", "p1")
        for payload in (plain, tagged, tagged):
            fanout.on_dvs_gprcv(payload, "p1")
        assert cb_port.listener.gprcv == [
            (plain, "p1"), (tagged, "p1"), (tagged, "p1"),
        ]
        assert default_port.listener.gprcv == []

    def test_an_unclaimed_type_goes_to_the_default_port(self):
        fanout, default_port = self._fanout()
        fanout.port(claims=CbCast).listener = _Recorder()
        for payload in (("to", 1), "text", ("to", 2)):
            fanout.on_dvs_gprcv(payload, "p1")
            fanout.on_dvs_safe(payload, "p1")
        assert default_port.listener.gprcv == [
            (("to", 1), "p1"), ("text", "p1"), (("to", 2), "p1"),
        ]
        assert default_port.listener.safe == default_port.listener.gprcv

    def test_wants_dvs_safe_answers_for_the_port_each_payload_went_to(
        self,
    ):
        fanout, default_port = self._fanout()  # _Recorder wants it
        cb_port = fanout.port(claims=CbCast)
        cb_port.listener = CbLayer(cb_port, make_view(0, ["p1"]))
        cast = CbCast(make_view(0, ["p1"]).id, (("p1", 1),), "x", "p1")
        answers = []
        for payload in (cast, ("to", 1), cast, cast, ("to", 2)):
            fanout.on_dvs_gprcv(payload, "p1")
            answers.append(fanout.wants_dvs_safe)
        assert answers == [False, True, False, False, True]


class _Recorder(DvsListener):
    """A listener that just logs upcalls."""

    def __init__(self):
        self.views = []
        self.gprcv = []
        self.safe = []

    def on_dvs_newview(self, view):
        self.views.append(view)

    def on_dvs_gprcv(self, payload, sender):
        self.gprcv.append((payload, sender))

    def on_dvs_safe(self, payload, sender):
        self.safe.append((payload, sender))
