"""Trace-level property checkers.

Where the invariants look at states, these look only at *traces* -- the
externally visible behaviour -- so they apply equally to the specification
automata, the IOA implementations and the concrete runtime stack (whose
event log is converted into the same action vocabulary).

Each checker raises ``AssertionError`` with a diagnostic on violation and
returns a small stats dict on success.
"""

from collections import defaultdict

from repro.core.viewids import vid_gt


def _views_per_process(trace, newview_name):
    views = defaultdict(list)
    for action in trace:
        if action.name == newview_name:
            v, p = action.params
            views[p].append(v)
    return views


def check_view_order(trace, newview_name):
    """Views are reported to each process in increasing identifier order,
    and only to their members."""
    for p, views in _views_per_process(trace, newview_name).items():
        last = None
        for v in views:
            assert p in v.set, (
                "{0} received view {1} it is not a member of".format(p, v)
            )
            assert vid_gt(v.id, last), (
                "{0} received views out of order: {1} after {2}".format(
                    p, v, last
                )
            )
            last = v.id
    return True


def _delivery_analysis(trace, prefix, initial_view):
    """Common within-view delivery analysis for VS-like traces.

    Checks, at each delivery, that the message was already sent in the
    view it is delivered in; returns the per-(process, view) delivery and
    safe sequences.
    """
    current = defaultdict(lambda: None)
    for p in initial_view.set:
        current[p] = initial_view
    sent_in_view = defaultdict(set)  # view id -> {(m, p)} sent so far
    delivered = defaultdict(list)  # (q, view id) -> [(m, p)]
    safe = defaultdict(list)  # (q, view id) -> [(m, p)]
    for action in trace:
        name = action.name
        if name == prefix + "_newview":
            v, p = action.params
            current[p] = v
        elif name == prefix + "_gpsnd":
            m, p = action.params
            if current[p] is not None:
                sent_in_view[current[p].id].add((m, p))
        elif name == prefix + "_gprcv":
            m, p, q = action.params
            assert current[q] is not None, (
                "{0} delivered {1!r} with no current view".format(q, m)
            )
            g = current[q].id
            assert q in current[q].set
            assert (m, p) in sent_in_view[g], (
                "{0} delivered {1!r} from {2} in view {3} where it had "
                "not been sent".format(q, m, p, g)
            )
            delivered[(q, g)].append((m, p))
        elif name == prefix + "_safe":
            m, p, q = action.params
            assert current[q] is not None
            safe[(q, current[q].id)].append((m, p))
    return delivered, safe


def check_vs_trace_properties(trace, initial_view, prefix="vs"):
    """The externally visible VS guarantees.

    1. *View order*: newviews per process in increasing id order, members
       only.
    2. *Sending view delivery*: a message delivered at q in view g was
       sent by its sender while in view g, no later than its delivery.
    3. *Common order, gap-free prefixes*: for each view, the delivery
       sequences of the members are prefixes of one common sequence.
    4. *No duplication*: no (message, sender) delivered twice at one
       process in one view (holds when clients send distinct messages).
    5. *Safe follows delivery*: the safe sequence at q in g is a prefix of
       q's delivery sequence in g, and every safe message was delivered to
       every member of g that ever delivered past it.
    """
    check_view_order(trace, prefix + "_newview")
    # (2) is checked step by step, inside the analysis.
    delivered, safe = _delivery_analysis(trace, prefix, initial_view)

    # (3) common order per view.
    by_view = defaultdict(list)
    for (q, g), entries in delivered.items():
        by_view[g].append((q, entries))
    for g, sequences in by_view.items():
        longest = max(sequences, key=lambda item: len(item[1]))[1]
        for q, entries in sequences:
            assert longest[: len(entries)] == entries, (
                "deliveries at {0} in view {1} are not a prefix of the "
                "common order: {2} vs {3}".format(q, g, entries, longest)
            )

    # (4) no duplicates.
    for (q, g), entries in delivered.items():
        assert len(set(entries)) == len(entries), (
            "duplicate delivery at {0} in view {1}: {2}".format(
                q, g, entries
            )
        )

    # (5) safe is a prefix of delivered.
    for (q, g), entries in safe.items():
        got = delivered.get((q, g), [])
        assert got[: len(entries)] == entries, (
            "safe sequence at {0} in view {1} is not a prefix of its "
            "deliveries: {2} vs {3}".format(q, g, entries, got)
        )

    return {
        "views": len(by_view),
        "deliveries": sum(len(v) for v in delivered.values()),
        "safe": sum(len(v) for v in safe.values()),
    }


def check_dvs_trace_properties(trace, initial_view):
    """The externally visible DVS guarantees (same shape as VS, plus
    registration sanity: a process only registers views it received)."""
    stats = check_vs_trace_properties(trace, initial_view, prefix="dvs")
    current = {p: initial_view for p in initial_view.set}
    received = defaultdict(set)
    for p in initial_view.set:
        received[p].add(initial_view.id)
    registers = 0
    for action in trace:
        if action.name == "dvs_newview":
            v, p = action.params
            current[p] = v
            received[p].add(v.id)
        elif action.name == "dvs_register":
            (p,) = action.params
            if p in current and current[p] is not None:
                assert current[p].id in received[p]
                registers += 1
    stats["registers"] = registers
    return stats


def check_to_trace_properties(trace):
    """The externally visible TO guarantees (Theorem 6.4's conclusion).

    1. *Integrity & attribution*: every ``brcv(a, q, p)`` is preceded by
       ``bcast(a, q)``.
    2. *No duplication*: no payload delivered twice at one process
       (requires distinct payloads from the drivers).
    3. *Total order with gap-free prefixes*: the per-process delivery
       sequences are pairwise prefix-consistent, i.e. prefixes of one
       common system-wide order.
    """
    broadcast = set()
    deliveries = defaultdict(list)
    for action in trace:
        if action.name == "bcast":
            a, p = action.params
            broadcast.add((a, p))
        elif action.name == "brcv":
            a, q, p = action.params
            assert (a, q) in broadcast, (
                "{0} delivered {1!r} attributed to {2} before/without its "
                "broadcast".format(p, a, q)
            )
            deliveries[p].append((a, q))

    for p, entries in deliveries.items():
        assert len(set(entries)) == len(entries), (
            "duplicate delivery at {0}: {1}".format(p, entries)
        )

    sequences = list(deliveries.values())
    for i, a_seq in enumerate(sequences):
        for b_seq in sequences[i + 1:]:
            shorter, longer = (
                (a_seq, b_seq) if len(a_seq) <= len(b_seq) else (b_seq, a_seq)
            )
            assert longer[: len(shorter)] == shorter, (
                "delivery sequences disagree: {0} vs {1}".format(
                    a_seq, b_seq
                )
            )

    return {
        "broadcasts": len(broadcast),
        "deliveries": sum(len(v) for v in deliveries.values()),
        "max_delivered": max((len(v) for v in deliveries.values()), default=0),
    }


def check_cb_trace_properties(trace):
    """The externally visible CB guarantees (stable case).

    1. *Integrity & attribution*: every ``cb_brcv(a, q, p)`` is preceded
       by ``cbcast(a, q)``.
    2. *No duplication*: no payload delivered twice at one process
       (requires distinct payloads from the drivers).
    3. *Causal order*: when p delivers a broadcast, every broadcast in
       its causal past -- whatever its sender had delivered or itself
       broadcast beforehand -- has already been delivered at p.  This
       implies per-sender gap-free FIFO.

    Causal precedence is reconstructed from the trace interleaving
    itself, so this checker applies to CB *spec* traces and to CB-IMPL
    runs without view changes; across view changes the implementation's
    guarantee is deliberately view-scoped (checked by the CB-IMPL
    invariants and the runtime safety monitor instead).
    """
    ids = {}  # (a, q) -> broadcast id
    past = {}  # id -> frozenset of ids
    knowledge = defaultdict(set)  # process -> ids broadcast or delivered
    delivered_ids = defaultdict(set)
    deliveries = defaultdict(list)
    per_sender = defaultdict(int)
    for action in trace:
        if action.name == "cbcast":
            a, q = action.params
            assert (a, q) not in ids, (
                "{0} broadcast {1!r} twice (drivers must send distinct "
                "payloads)".format(q, a)
            )
            bid = (q, per_sender[q])
            per_sender[q] += 1
            ids[(a, q)] = bid
            past[bid] = frozenset(knowledge[q])
            knowledge[q].add(bid)
        elif action.name == "cb_brcv":
            a, q, p = action.params
            bid = ids.get((a, q))
            assert bid is not None, (
                "{0} delivered {1!r} attributed to {2} before/without "
                "its broadcast".format(p, a, q)
            )
            assert bid not in delivered_ids[p], (
                "duplicate delivery at {0}: {1!r} from {2}".format(p, a, q)
            )
            missing = past[bid] - delivered_ids[p]
            assert not missing, (
                "causal violation at {0}: delivered {1!r} from {2} "
                "before its causal predecessors {3}".format(
                    p, a, q, sorted(missing)
                )
            )
            delivered_ids[p].add(bid)
            knowledge[p].add(bid)
            deliveries[p].append((a, q))

    return {
        "broadcasts": len(ids),
        "deliveries": sum(len(v) for v in deliveries.values()),
        "max_delivered": max(
            (len(v) for v in deliveries.values()), default=0
        ),
    }
