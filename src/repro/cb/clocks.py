"""View-scoped dynamic vector clocks (the algebra under the CB tier).

A clock is a *canonical* tuple of ``(process, count)`` entries: sorted
by process id, with zero entries omitted.  Canonical tuples are
hashable, deterministic to iterate (no hash order) and serialize through
the wire codec without a dedicated message type.  The clock domain is
*dynamic*: entries name whatever processes the current view contains,
and a new view starts from the empty clock.

Everything here is a pure function of its arguments -- the Hypothesis
property suite (tests/property/test_vclock_properties.py) checks on
these functions that :func:`drain` releases a hold-back queue in an
order that respects :func:`deliverable` -- the Birman-Schiper-Stephenson
delivery condition -- reaching a fixpoint independent of arrival
interleaving.
"""


def normalize(entries):
    """Canonicalize ``entries`` (a mapping or iterable of pairs).

    Duplicate process ids keep the maximal count (so ``normalize`` is
    insensitive to entry order); zero and negative counts are dropped.
    """
    if hasattr(entries, "items"):
        pairs = entries.items()
    else:
        pairs = entries
    merged = {}
    for pid, count in pairs:
        if count > merged.get(pid, 0):
            merged[pid] = count
    return tuple(sorted(merged.items()))


def entry(clock, pid):
    """The count recorded for ``pid`` (0 when absent)."""
    for who, count in clock:
        if who == pid:
            return count
    return 0


def put(clock, pid, count):
    """``clock`` with the entry for ``pid`` replaced by ``count``."""
    rest = tuple(e for e in clock if e[0] != pid)
    if count <= 0:
        return rest
    return tuple(sorted(rest + ((pid, count),)))


def tick(clock, pid):
    """Advance ``pid``'s entry by one (a send or delivery event)."""
    return put(clock, pid, entry(clock, pid) + 1)


def deliverable(clock, delivered, origin):
    """The BSS delivery condition for a message timestamped ``clock``.

    A receiver that has delivered ``delivered`` may deliver the message
    from ``origin`` iff it is the *next* message from that sender
    (``clock[origin] == delivered[origin] + 1``) and every other entry
    of the message's clock -- the sender's causal past -- has already
    been delivered here (``clock[k] <= delivered[k]``).
    """
    if entry(clock, origin) != entry(delivered, origin) + 1:
        return False
    return all(
        count <= entry(delivered, pid)
        for pid, count in clock
        if pid != origin
    )


def advance(delivered, origin):
    """The delivered-clock after delivering one message from ``origin``."""
    return tick(delivered, origin)


def drain(holdback, delivered):
    """Release every deliverable entry of a hold-back queue, in order.

    ``holdback`` is a sequence of ``(origin, clock)`` pairs in arrival
    order.  The queue is rescanned FIFO-first until no entry is
    deliverable (releasing one message can unblock earlier arrivals),
    which makes the release order a deterministic function of the queue
    contents.  Returns ``(released, remaining, delivered)`` where
    ``released`` is the tuple of released indices into ``holdback`` in
    release order.
    """
    pending = list(enumerate(holdback))
    released = []
    progress = True
    while progress:
        progress = False
        for slot, (index, (origin, clock)) in enumerate(pending):
            if deliverable(clock, delivered, origin):
                delivered = advance(delivered, origin)
                released.append(index)
                del pending[slot]
                progress = True
                break
    remaining = tuple(index for index, _ in pending)
    return tuple(released), remaining, delivered
