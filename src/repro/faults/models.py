"""Link-level fault models pluggable into the network simulator.

A fault object is installed with :meth:`Network.install_fault` and removed
with :meth:`Network.remove_fault`.  At every ``send`` the network runs the
message's *copy list* through each installed fault that matches the link
(a copy is an extra delay on top of the drawn latency; the fault-free case
is the single copy ``[0.0]``):

- dropping a copy models message loss below the partition layer;
- appending a copy models duplication (the per-channel FIFO clock keeps
  both copies in order);
- inflating a copy's delay models jitter and latency spikes.

Faults may also veto *delivery* (:meth:`LinkFault.blocks_delivery`), which
is how asymmetric one-way partitions work: like crashes and partitions,
the block is evaluated at delivery time, so in-flight messages crossing a
freshly blocked link are lost.

Every probabilistic choice draws from the **network's** seeded RNG, never
a private one, so a run with a given ``(seed, fault schedule)`` replays
bit-for-bit.
"""


def _normalize_links(links):
    """``None`` means every directed link; else a frozenset of (src, dst)."""
    if links is None:
        return None
    return frozenset((src, dst) for src, dst in links)


def _fmt_links(links):
    if links is None:
        return "*"
    return ",".join(
        "{0}->{1}".format(src, dst) for src, dst in sorted(links)
    )


class LinkFault:
    """Base class: matches a set of directed links, transforms copies."""

    def __init__(self, links=None):
        self.links = _normalize_links(links)

    def applies(self, src, dst):
        return self.links is None or (src, dst) in self.links

    def transform(self, net, src, dst, copies):
        """Return the new copy list (extra delays); ``[]`` drops the send."""
        return copies

    def blocks_delivery(self, src, dst):
        """Veto delivery on this link (checked at delivery time)."""
        return False

    def __str__(self):
        return "{0}({1})".format(type(self).__name__, _fmt_links(self.links))


class DropFault(LinkFault):
    """Drop each copy independently with probability ``prob``."""

    def __init__(self, prob, links=None):
        super().__init__(links)
        self.prob = prob

    def transform(self, net, src, dst, copies):
        return [c for c in copies if net.rng.random() >= self.prob]

    def __str__(self):
        return "drop(p={0}, links={1})".format(
            self.prob, _fmt_links(self.links)
        )


class DuplicateFault(LinkFault):
    """With probability ``prob``, deliver an extra copy ``spread`` later.

    The duplicate's extra delay is drawn uniformly from (0, ``spread``];
    per-channel FIFO still holds (the channel clock serializes copies).
    A copy of a ``Data`` is not ordered twice: its count is stale.
    """

    def __init__(self, prob, spread=5.0, links=None):
        super().__init__(links)
        self.prob = prob
        self.spread = spread

    def transform(self, net, src, dst, copies):
        out = []
        for c in copies:
            out.append(c)
            if net.rng.random() < self.prob:
                out.append(c + net.rng.uniform(0.0, self.spread))
        return out

    def __str__(self):
        return "duplicate(p={0}, spread={1}, links={2})".format(
            self.prob, self.spread, _fmt_links(self.links)
        )


class DelayFault(LinkFault):
    """Add jitter to every copy, plus occasional latency spikes.

    Each copy gets uniform extra delay in [0, ``jitter``]; with
    probability ``spike_prob`` it additionally gets a spike drawn from
    (0, ``spike``].
    """

    def __init__(self, jitter=0.0, spike_prob=0.0, spike=0.0, links=None):
        super().__init__(links)
        self.jitter = jitter
        self.spike_prob = spike_prob
        self.spike = spike

    def transform(self, net, src, dst, copies):
        out = []
        for c in copies:
            extra = net.rng.uniform(0.0, self.jitter) if self.jitter else 0.0
            if self.spike_prob and net.rng.random() < self.spike_prob:
                extra += net.rng.uniform(0.0, self.spike)
            out.append(c + extra)
        return out

    def __str__(self):
        return "delay(jitter={0}, spike_prob={1}, spike={2}, links={3})".format(
            self.jitter, self.spike_prob, self.spike, _fmt_links(self.links)
        )


class OneWayBlock(LinkFault):
    """Block the given directed links entirely (asymmetric partition).

    Unlike :meth:`Network.partition` this need not be symmetric or
    transitive: ``a`` may reach ``b`` while ``b`` cannot reach ``a``, and
    a "bridge" process may keep links into two groups that cannot talk to
    each other directly.
    """

    def __init__(self, pairs):
        super().__init__(links=pairs)
        if self.links is None:
            raise ValueError("OneWayBlock needs an explicit set of links")

    def blocks_delivery(self, src, dst):
        return (src, dst) in self.links

    def __str__(self):
        return "oneway({0})".format(_fmt_links(self.links))
