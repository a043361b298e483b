"""The runtime coding of ``DVS-TO-TO_p`` (totally ordered broadcast).

The same algorithm as :class:`repro.to.dvs_to_to.DvsToTo`, recast as an
event-driven layer over :class:`repro.gcs.dvs_layer.DvsLayer`.  Payloads
are labelled and multicast during normal activity; recovery exchanges
summaries, adopts ``fullorder`` and registers the view with DVS.  Labels
are confirmed when safe and released to the application in the confirmed
order.  The confirmation scan runs only when something can confirm: on a
safe indication, on establishing a view, and on ordering a label that is
already safe -- after every scan ``order[nextconfirm - 1]`` is unsafe,
so ordering any other label leaves nothing to confirm.
"""

from repro.core.viewids import G0
from repro.gcs.dvs_layer import DvsListener
from repro.gcs.recorder import RecorderMixin
from repro.to.summaries import Label, Summary, fullorder, maxnextconfirm

NORMAL = "normal"
SEND = "send"
COLLECT = "collect"


class ToListener:
    """Upcall interface for users of the TO layer."""

    def on_brcv(self, payload, origin):
        """The next payload in the system-wide total order."""


class ToLayer(DvsListener, RecorderMixin):
    """One process's totally-ordered-broadcast engine, over a DVS layer."""

    def __init__(self, dvs, initial_view, listener=None, recorder=None,
                 member=None):
        self.dvs = dvs
        self.pid = dvs.pid
        self.listener = listener or ToListener()
        self.recorder = recorder
        dvs.listener = self

        # ``member=False`` builds a fresh joiner (amnesiac restart): it
        # has no current view until recovery establishes one.
        is_member = (
            self.pid in initial_view.set if member is None else member
        )
        self.current = initial_view if is_member else None
        self.status = NORMAL
        self.content = {}
        self.nextseqno = 1
        self.safe_labels = set()
        self.order = []
        self.ordered = set()  # the labels in ``order``, for O(1) membership
        self.nextconfirm = 1
        self.nextreport = 1
        self.highprimary = G0
        self.gotstate = {}
        self.safe_exch = set()
        self.delay = []

    # -- TO downcall ----------------------------------------------------------------

    def bcast(self, payload):
        """Broadcast ``payload``; it will be delivered in total order."""
        if self.recorder is not None:
            self._record("bcast", payload, self.pid)
        self.delay.append(payload)
        self._drain_delay()

    def _drain_delay(self):
        """Label and multicast delayed payloads when possible.

        The automaton's LABEL action needs only a current view; sending the
        labelled payload additionally needs status = normal.  The runtime
        layer labels lazily -- it keeps payloads in ``delay`` until they can
        be both labelled and immediately sent, which avoids the duplicate-
        ordering subtlety without changing what peers observe.
        """
        while self.delay and self.current is not None and self.status == NORMAL:
            payload = self.delay.pop(0)
            label = Label(self.current.id, self.nextseqno, self.pid)
            self.nextseqno += 1
            self.content[label] = payload
            if self.recorder is not None:
                self._probe("to_label", label, self.pid)
            self.dvs.gpsnd((label, payload))

    # -- DVS upcalls ------------------------------------------------------------------

    def on_dvs_newview(self, view):
        self.current = view
        self.nextseqno = 1
        self.gotstate = {}
        self.safe_exch = set()
        self.safe_labels = set()
        self.status = SEND
        summary = Summary(
            con=frozenset(self.content.items()),
            ord=tuple(self.order),
            next=self.nextconfirm,
            high=self.highprimary,
        )
        self.dvs.gpsnd(summary)
        self.status = COLLECT

    def on_dvs_gprcv(self, payload, sender):
        if isinstance(payload, Summary):
            self._on_summary(payload, sender)
        else:
            label, value = payload
            self.content[label] = value
            if label not in self.ordered:
                self.ordered.add(label)
                self.order.append(label)
                # Nothing else can have become confirmable: after every
                # confirmation ``order[nextconfirm - 1]`` is not safe.
                if label in self.safe_labels:
                    self._confirm_and_deliver()

    def on_dvs_safe(self, payload, sender):
        if isinstance(payload, Summary):
            self.safe_exch.add(sender)
            if (
                self.current is not None
                and self.safe_exch >= self.current.set
                and set(self.gotstate) >= set(self.current.set)
            ):
                self.safe_labels |= set(fullorder(self.gotstate))
        else:
            label, _ = payload
            self.safe_labels.add(label)
        self._confirm_and_deliver()

    # -- Recovery ----------------------------------------------------------------------

    def _on_summary(self, summary, sender):
        for label, value in summary.con:
            self.content[label] = value
        self.gotstate[sender] = summary
        if (
            self.current is not None
            and set(self.gotstate) == set(self.current.set)
            and self.status == COLLECT
        ):
            self.nextconfirm = maxnextconfirm(self.gotstate)
            self.order = list(fullorder(self.gotstate))
            self.ordered = set(self.order)
            self.highprimary = self.current.id
            self.status = NORMAL
            self._probe("to_established", self.current.id, self.pid)
            self.dvs.register()
            self._drain_delay()
            self._confirm_and_deliver()

    # -- Confirmation -----------------------------------------------------------------------

    def _confirm_and_deliver(self):
        """Confirm the longest safe prefix of ``order`` past
        ``nextconfirm`` and release it to the application.  Afterwards
        ``order[nextconfirm - 1]`` is unsafe (or past the end), which is
        what lets :meth:`on_dvs_gprcv` skip this call for a label that
        is not safe yet."""
        order, safe = self.order, self.safe_labels
        confirm = self.nextconfirm
        while confirm <= len(order) and order[confirm - 1] in safe:
            confirm += 1
        self.nextconfirm = confirm
        content, recorder = self.content, self.recorder
        while self.nextreport < confirm:
            label = order[self.nextreport - 1]
            payload = content[label]
            self.nextreport += 1
            if recorder is not None:
                self._probe("to_deliver", label, self.pid)
                self._record("brcv", payload, label.origin, self.pid)
            self.listener.on_brcv(payload, label.origin)
