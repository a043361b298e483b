"""The fault plane: the link-level adversary state both worlds share.

The simulator's :class:`~repro.net.simulator.Network` owns one and the
live runtime's :class:`~repro.runtime.faultnet.FaultNet` is one, so a
:class:`~repro.faults.nemesis.NemesisPlan` means the same thing on the
event queue and on TCP:

- the **partition map**: the groups handed to :meth:`partition` become
  components 1..n and every process named in none of them shares
  component 0, so ``partition([{"p3"}])`` isolates ``p3`` from everyone
  else; :meth:`heal` puts every process back in component 0;
- the **fault list**: installed :class:`~repro.faults.models.LinkFault`
  objects, run in installation order over a send's copy list
  (:meth:`copies`) and asked for delivery vetoes (:meth:`link_blocked`);
- the **channel clock**: per directed pair, the time of the last copy
  handed out (:meth:`fifo`), so no copy is ever scheduled ahead of an
  earlier one on the same channel, whatever jitter the faults added --
  and whether or not a fault still matches.

Fault models draw from ``net.rng``; the plane exposes its host's seeded
RNG under that name, so a faulty run replays from ``(seed, plan)``.
"""


class FaultPlane:
    """Partition map, fault list, channel clock and copy pipeline."""

    def __init__(self, rng):
        self.rng = rng
        #: Active link-fault objects (see :mod:`repro.faults.models`).
        self.faults = []
        self._component_of = {}
        self._channel_clock = {}

    # -- Partition map -----------------------------------------------------

    def partition(self, groups):
        """Split processes into ``groups``; unlisted ones share one
        extra component."""
        self._component_of = {
            pid: index
            for index, group in enumerate(groups, start=1)
            for pid in group
        }

    def heal(self):
        self._component_of = {}

    @property
    def partitioned(self):
        return bool(self._component_of)

    def separated(self, a, b):
        """True if the partition map puts ``a`` and ``b`` apart."""
        return self._component_of.get(a, 0) != self._component_of.get(b, 0)

    # -- Link faults -------------------------------------------------------

    def install_fault(self, fault):
        """Arm a link-fault model; returns it (for :meth:`remove_fault`)."""
        self.faults.append(fault)
        return fault

    def remove_fault(self, fault):
        """Disarm ``fault``; returns whether it was installed."""
        if fault not in self.faults:
            return False
        self.faults.remove(fault)
        return True

    def link_blocked(self, src, dst):
        """True if an installed fault blocks ``src -> dst`` right now."""
        return any(f.blocks_delivery(src, dst) for f in self.faults)

    def copies(self, src, dst):
        """The copy list for one send on ``src -> dst``.

        Each copy is an extra delay on top of the host's own latency;
        the no-fault case is the single copy ``[0.0]``.  Faults
        transform the list in installation order and may empty it
        (the send is dropped).
        """
        copies = [0.0]
        for fault in self.faults:
            if copies and fault.applies(src, dst):
                copies = fault.transform(self, src, dst, copies)
        return copies

    def fifo(self, src, dst, at):
        """When a copy wanted at ``at`` may land on ``src -> dst``: never
        before the previous copy on the same channel."""
        at = max(at, self._channel_clock.get((src, dst), 0.0))
        self._channel_clock[(src, dst)] = at
        return at
