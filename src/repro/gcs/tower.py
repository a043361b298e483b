"""The one place the VS->DVS->{TO,CB} tower is wired.

The simulated :class:`~repro.gcs.cluster.Cluster`, the live
:class:`~repro.runtime.node.RuntimeNode` and the trace replayer
(:mod:`repro.checking.replay`) all build their per-process layers as a
:class:`Tower`, so the routing decision (the CB port claims
:class:`~repro.cb.messages.CbCast`, the TO port takes the rest) is
known to this module alone, as is which tier a client's send goes
through (:meth:`Tower.bcast`).  Hosts attach their own network to
``tower.stack`` and start it.
"""

from repro.cb.messages import CbCast
from repro.gcs.cb_layer import CbLayer, DvsFanout
from repro.gcs.dvs_layer import DvsLayer
from repro.gcs.to_layer import ToLayer
from repro.gcs.vs_stack import VsStackNode


def alternating(tick):
    """Tick ``tick`` of an alternating workload: even through TO, odd
    through CB, so both towers face the same schedule."""
    return "to" if tick % 2 == 0 else "cb"


class Tower:
    """One process's layer objects: ``stack``, ``dvs``, ``fanout``,
    ``to``, ``cb`` (the last three ``None`` in a DVS-only tower).

    ``dvs_factory(stack, initial_view, recorder=..., member=...)``
    substitutes the dynamic-primary layer (the ``NoMajorityDvsLayer``
    ablation); ``member=False`` builds every layer as a fresh joiner
    (amnesiac restart); ``orderings=False`` stops at the DVS layer.
    """

    def __init__(self, pid, initial_view, recorder=None, member=None,
                 dvs_factory=None, orderings=True):
        self.stack = VsStackNode(
            pid, initial_view=initial_view, recorder=recorder, member=member
        )
        self.dvs = (dvs_factory or DvsLayer)(
            self.stack, initial_view, recorder=recorder, member=member
        )
        self.fanout = self.to = self.cb = None
        if orderings:
            self.fanout = DvsFanout(self.dvs)
            self.to = ToLayer(
                self.fanout.port(), initial_view,
                recorder=recorder, member=member,
            )
            self.cb = CbLayer(
                self.fanout.port(claims=CbCast), initial_view,
                recorder=recorder, member=member,
            )

    def bcast(self, payload, ordering="to"):
        """Broadcast with the chosen ordering strength: ``"to"``
        (totally ordered) or ``"cb"`` (causally ordered)."""
        if ordering == "to":
            self.to.bcast(payload)
        elif ordering == "cb":
            self.cb.cbcast(payload)
        else:
            raise ValueError(
                "unknown ordering {0!r} (expected 'to' or 'cb')".format(
                    ordering
                )
            )
