"""The one correctness check every workload's every run goes through.

``outputs`` maps each live replica to what its application delivered, in
local delivery order, as ``(payload, origin)`` pairs:

- TO (``KvReplica.command_log()``): every replica's log is identical,
  holds each submitted command exactly once, and keeps each origin's
  commands in the order that origin submitted them.
- CB (``PresenceBoard.events``): every replica holds each cast exactly
  once, in per-sender FIFO order (replicas may interleave senders
  differently -- causal order is not total).

A request the load generator gave up on (``failed``) may be absent, but
never duplicated or reordered.
"""

from collections import Counter, defaultdict

from benchmarks.gcsbench.workloads import request_index

#: Cap on reported problems; one wedge can otherwise produce thousands.
MAX_ERRORS = 20


def check_outputs(tier, outputs, payloads, submitted_by, failed=()):
    """Problems found, as human-readable strings (empty = correct).

    ``payloads[i]`` is what request ``i`` asked to broadcast;
    ``submitted_by`` maps an origin to its request indices in submission
    order.
    """
    errors = []
    failed = frozenset(failed)
    if not outputs:
        return ["no live replica to check"]
    if tier == "to":
        reference_pid = min(outputs)
        reference = outputs[reference_pid]
        for pid in sorted(outputs):
            if outputs[pid] != reference:
                errors.append(_divergence(
                    reference_pid, reference, pid, outputs[pid]
                ))
        # Identical logs need checking once; a divergent one was named.
        outputs = {reference_pid: reference}
    for pid in sorted(outputs):
        errors.extend(
            _check_replica(pid, outputs[pid], payloads, submitted_by, failed)
        )
    return errors[:MAX_ERRORS]


def _divergence(ref_pid, ref, pid, log):
    for position, (ours, theirs) in enumerate(zip(ref, log)):
        if ours != theirs:
            return "{0} and {1} diverge at position {2}".format(
                ref_pid, pid, position
            )
    return "{0} holds {1} entries, {2} holds {3}".format(
        ref_pid, len(ref), pid, len(log)
    )


def _check_replica(pid, delivered, payloads, submitted_by, failed):
    errors = []
    seen = Counter()
    order = defaultdict(list)
    for payload, origin in delivered:
        try:
            index = request_index(payload)
        except (TypeError, ValueError, IndexError):
            index = -1
        if not 0 <= index < len(payloads) or payloads[index] != payload:
            errors.append("{0} delivered a payload nobody submitted: "
                          "{1!r}".format(pid, _brief(payload)))
            continue
        seen[index] += 1
        if seen[index] == 1:  # duplicates are reported once, below
            order[origin].append(index)
    for index in range(len(payloads)):
        if seen[index] > 1:
            errors.append("{0} delivered request {1} {2} times".format(
                pid, index, seen[index]
            ))
        elif seen[index] == 0 and index not in failed:
            errors.append("{0} never delivered request {1}".format(
                pid, index
            ))
    for origin in sorted(set(order) | set(submitted_by)):
        expected = [i for i in submitted_by.get(origin, ()) if seen[i]]
        got = order.get(origin, [])
        if got == expected:
            continue
        if sorted(got) == sorted(expected):
            errors.append(
                "{0} delivered {1}'s requests out of submission "
                "order".format(pid, origin)
            )
        else:
            errors.append(
                "{0} attributes requests to {1} that {1} did not "
                "submit".format(pid, origin)
            )
    return errors


def _brief(payload):
    text = repr(payload)
    return text if len(text) <= 80 else text[:77] + "..."


def self_test():
    """The check must fail on a reordered log, a duplicated command and
    a dropped CB cast -- and pass on the clean run they were cut from."""
    payloads = [("put", "k", "{0:08d}x".format(i)) for i in range(6)]
    submitted_by = {"n1": [0, 2, 4], "n2": [1, 3, 5]}
    log = [(payloads[i], "n1" if i % 2 == 0 else "n2") for i in range(6)]
    clean = {"n1": list(log), "n2": list(log)}
    assert check_outputs("to", clean, payloads, submitted_by) == []

    reordered = list(log)
    reordered[0], reordered[2] = reordered[2], reordered[0]
    assert check_outputs(
        "to", {"n1": reordered, "n2": list(reordered)}, payloads,
        submitted_by,
    ), "reordered log passed"
    assert check_outputs(
        "to", {"n1": list(log), "n2": reordered}, payloads, submitted_by
    ), "divergent replicas passed"

    duplicated = list(log) + [log[3]]
    assert check_outputs(
        "to", {"n1": duplicated, "n2": list(duplicated)}, payloads,
        submitted_by,
    ), "duplicated command passed"

    casts = [("presence", "{0:08d}x".format(i)) for i in range(6)]
    events = [(casts[i], "n1" if i % 2 == 0 else "n2") for i in range(6)]
    interleaved = [events[i] for i in (1, 0, 3, 2, 5, 4)]
    assert check_outputs(
        "cb", {"n1": list(events), "n2": interleaved}, casts, submitted_by
    ) == [], "a different causal interleaving must pass"
    dropped = [e for e in events if e[0] != casts[3]]
    assert check_outputs(
        "cb", {"n1": list(events), "n2": dropped}, casts, submitted_by
    ), "dropped CB cast passed"
    assert check_outputs(
        "cb", {"n1": list(events), "n2": dropped}, casts, submitted_by,
        failed={3},
    ) == [], "a cast the generator gave up on may be absent"
    return True
