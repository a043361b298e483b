"""The runtime coding of ``DVS-TO-CB_p`` (causally ordered broadcast),
plus the fanout that lets the TO and CB towers share one DVS layer.

The same algorithm as :class:`repro.cb.dvs_to_cb.DvsToCb`, recast as an
event-driven layer over :class:`repro.gcs.dvs_layer.DvsLayer`.  Payloads
are timestamped with a view-scoped vector clock and multicast; received
casts wait in a hold-back queue and are released the moment the BSS
condition holds -- at *delivery* time, never waiting for a DVS safe
indication, which is exactly the sequencer round-trip the TO tier pays
and CB does not.

:class:`DvsFanout` routes each received payload to the port that claims
its type; the choice is made once per exact payload type (``isinstance``
answers alike for every instance of one type) and forgotten whenever a
port is added.
"""

from repro.cb.clocks import drain, put
from repro.cb.messages import CbCast
from repro.gcs.dvs_layer import DvsListener
from repro.gcs.recorder import RecorderMixin


class CbListener:
    """Upcall interface for users of the CB layer."""

    def on_cb_brcv(self, payload, origin):
        """The next payload in some causally-consistent order."""


class CbLayer(DvsListener, RecorderMixin):
    """One process's causal-broadcast engine, over a DVS layer."""

    def __init__(self, dvs, initial_view, listener=None, recorder=None,
                 member=None):
        self.dvs = dvs
        self.pid = dvs.pid
        self.listener = listener or CbListener()
        self.recorder = recorder
        dvs.listener = self

        # ``member=False`` builds a fresh joiner (amnesiac restart): it
        # has no current view until DVS installs one.
        is_member = (
            self.pid in initial_view.set if member is None else member
        )
        self.current = initial_view if is_member else None
        self.delivered = ()
        self.sent = 0
        self.delay = []
        self.holdback = []
        self.deliveries = 0

    # -- CB downcall ----------------------------------------------------------

    def cbcast(self, payload):
        """Broadcast ``payload``; it will be delivered in causal order."""
        if self.recorder is not None:
            self._record("cbcast", payload, self.pid)
        self.delay.append(payload)
        self._drain_delay()

    def _drain_delay(self):
        while self.delay and self.current is not None:
            payload = self.delay.pop(0)
            self.sent += 1
            clock = put(self.delivered, self.pid, self.sent)
            msg = CbCast(self.current.id, clock, payload, self.pid)
            if self.recorder is not None:
                self._probe("cb_label", msg, self.pid)
            self.dvs.gpsnd(msg)

    # -- DVS upcalls ----------------------------------------------------------

    def on_dvs_newview(self, view):
        self.current = view
        self.delivered = ()
        self.sent = 0
        self.holdback = []
        # No state to exchange: causal order needs no recovery, so the
        # view is ready for CB the moment it is installed.
        self.dvs.register()
        self._drain_delay()

    def on_dvs_gprcv(self, payload, sender):
        if not isinstance(payload, CbCast):
            return
        if self.current is None or payload.vid != self.current.id:
            # Cross-view delivery is best-effort: the clock on this cast
            # is scoped to a view this process is no longer (or not yet)
            # in, so it can never satisfy the local delivery condition.
            return
        self.holdback.append(payload)
        self._drain_holdback()

    def on_dvs_safe(self, payload, sender):
        """CB delivers at gprcv time; stability indications are unused."""

    #: So the DVS layer below sends no AckMsg on CB's account.
    wants_dvs_safe = False

    # -- Hold-back release ------------------------------------------------------

    def _drain_holdback(self):
        released, remaining, self.delivered = drain(
            [(m.origin, m.clock) for m in self.holdback], self.delivered
        )
        ready = [self.holdback[i] for i in released]
        self.holdback = [self.holdback[i] for i in remaining]
        recorder = self.recorder
        for msg in ready:
            self.deliveries += 1
            if recorder is not None:
                self._probe("cb_deliver", msg, self.pid)
                self._record("cb_brcv", msg, msg.origin, self.pid)
            self.listener.on_cb_brcv(msg.payload, msg.origin)


class _FanoutPort:
    """What one tower sees as its DVS layer.

    Mimics the :class:`~repro.gcs.dvs_layer.DvsLayer` client surface
    (``pid`` / ``listener`` / ``gpsnd`` / ``register``), delegating to
    the shared layer through the fanout.
    """

    def __init__(self, fanout, claims):
        self._fanout = fanout
        self.claims = claims
        self.listener = None
        self.registered = False

    @property
    def pid(self):
        return self._fanout.pid

    def gpsnd(self, payload):
        self._fanout.dvs.gpsnd(payload)

    def register(self):
        self.registered = True
        self._fanout._maybe_register()


class DvsFanout(DvsListener):
    """Share one DVS layer between several towers (TO and CB).

    ``DvsLayer`` has a single listener slot and stays unchanged; the
    fanout takes that slot and exposes one :meth:`port` per tower.
    Received payloads are routed by type -- each port claims its tier's
    message types, one default port takes the rest -- and view
    installations go to every port in creation order.

    Registration is coordinated: the view is registered with DVS only
    once *every* port has registered it.  The TO tower registers only
    after its state exchange establishes the view; CB registers
    immediately.  Requiring all ports keeps the slower tower's recovery
    guarantee intact -- registering early would let DVS advance its
    garbage-collection frontier past views whose TO state has not
    propagated yet.
    """

    def __init__(self, dvs):
        self.dvs = dvs
        self.pid = dvs.pid
        self._ports = []
        # Exact payload type -> the port :meth:`_route` chose for it.
        self._routes = {}
        dvs.listener = self

    def port(self, claims=None):
        """A new tower port; ``claims`` is a type (tuple) it routes."""
        port = _FanoutPort(self, claims)
        self._ports.append(port)
        self._routes = {}
        return port

    def _maybe_register(self):
        if self._ports and all(p.registered for p in self._ports):
            self.dvs.register()

    def _route(self, payload):
        """The port ``payload`` goes to, chosen once per exact type:
        ``isinstance`` answers alike for every instance of one type.
        Adding a port forgets every choice."""
        try:
            return self._routes[type(payload)]
        except KeyError:
            port = self._routes[type(payload)] = self._choose(payload)
            return port

    def _choose(self, payload):
        default = None
        for port in self._ports:
            if port.claims is None:
                if default is None:
                    default = port
            elif isinstance(payload, port.claims):
                return port
        return default

    # -- DVS upcalls, multiplexed ----------------------------------------------

    def on_dvs_newview(self, view):
        for port in self._ports:
            port.registered = False
        for port in self._ports:
            if port.listener is not None:
                port.listener.on_dvs_newview(view)

    def on_dvs_gprcv(self, payload, sender):
        port = self._route(payload)
        listener = None if port is None else port.listener
        # Answer for the port this payload went to (read by DvsLayer
        # right after this upcall returns).
        self.wants_dvs_safe = (
            listener is not None and listener.wants_dvs_safe
        )
        if listener is not None:
            listener.on_dvs_gprcv(payload, sender)

    def on_dvs_safe(self, payload, sender):
        port = self._route(payload)
        if port is not None and port.listener is not None:
            port.listener.on_dvs_safe(payload, sender)
