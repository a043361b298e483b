"""Recording live executions into replayable trace files.

The hosted gcs layers are deterministic functions of their input event
sequence (no clocks, no entropy -- the chaos goldens replay under two
hash seeds to hold them to it; the one timer, the VS sequencer's
flush, is an input: its firing is recorded),
so a live run is fully determined by what the transport and the
connectivity estimator fed each node, in order.  A
:class:`TraceRecorder` captures exactly that cut -- the events *below*
are nondeterministic (sockets, heartbeats, thread scheduling), the
layers *above* are pure -- and a :class:`ReplayTrace` serializes it,
versioned, through the same length-prefixed frame codec the wire uses
(:mod:`repro.runtime.codec`): the payloads are the very messages that
crossed the wire, so nothing needs a second serialization scheme and
hostile input fails with the codec's typed errors.  Frames are written
and read in the current wire version only: a trace an older build wrote
is refused, naming its version.

Replay lives in :mod:`repro.checking.replay`; this module owns only the
format, so the runtime can record without importing the checking stack.

Event kinds (``data`` layout):

=========  =============================================================
``start``  ``(member,)`` -- node (re)started; ``False`` = amnesiac rejoin
``recv``   ``(src, msg)`` -- a frame dispatched into the stack
``conn``   ``(component,)`` -- connectivity estimate reported upward
``timer``  ``(tag,)`` -- a stack timer fired (the sequencer's ``vs_flush``)
``bcast``  ``(payload,)`` -- a client broadcast through the TO layer
``cbcast``  ``(payload,)`` -- a client broadcast through the CB layer
``nemesis``  ``(description,)`` -- fault-plan annotation (not dispatched)
``stop``   ``()`` -- node shut down
=========  =============================================================
"""

from dataclasses import dataclass

from repro.runtime.codec import CodecError, FrameDecoder, encode_frame

#: Magic string opening every trace file's header frame.
TRACE_MAGIC = "dvs-trace"

#: Bump on any incompatible change to the header or event layout.
#: v2 added the event count to the header: without it, a trace
#: truncated exactly on a frame boundary parsed as a silently shorter
#: -- but "valid" -- run.
TRACE_VERSION = 2

EVENT_KINDS = (
    "start", "recv", "conn", "timer", "bcast", "cbcast", "nemesis",
    "stop",
)


class TraceError(ValueError):
    """A trace file is malformed, truncated or hostile."""


@dataclass(frozen=True)
class TraceEvent:
    """One recorded input event: ``(t, pid, kind, data)``.

    Frozen (hence hashable) so the ddmin shrinker can cache oracle
    results keyed on event tuples, exactly as it does for fault ops.
    """

    t: float
    pid: str
    kind: str
    data: tuple = ()

    def __post_init__(self):
        if self.kind not in EVENT_KINDS:
            raise TraceError(
                "unknown trace event kind {0!r}".format(self.kind)
            )

    def as_tuple(self):
        return (self.t, self.pid, self.kind, self.data)

    def describe(self):
        return "t={0:.6f} {1} {2}{3!r}".format(
            self.t, self.pid, self.kind, self.data
        )


class ReplayTrace:
    """An immutable recorded execution: header + ordered input events.

    Events are kept in *recorded* order (the loop thread's execution
    order), never re-sorted: timestamps may tie, and the recorded order
    is the causal truth replay must follow.

    The subset/without/len surface matches
    :class:`~repro.faults.nemesis.NemesisPlan`, so
    :func:`repro.faults.shrink.shrink_plan` minimizes traces unchanged.
    """

    def __init__(self, processes, initial_view, events=(), dvs="normal",
                 source="live"):
        self.processes = tuple(sorted(processes))
        self.initial_view = initial_view
        self.dvs = dvs
        self.source = source
        self.events = tuple(
            e if isinstance(e, TraceEvent) else TraceEvent(*e)
            for e in events
        )

    # -- The shrinkable-schedule surface (ddmin) ---------------------------

    @property
    def ops(self):
        return self.events

    def __len__(self):
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def __eq__(self, other):
        return (
            isinstance(other, ReplayTrace)
            and self.processes == other.processes
            and self.initial_view == other.initial_view
            and self.dvs == other.dvs
            and self.source == other.source
            and self.events == other.events
        )

    def __hash__(self):
        return hash((self.processes, self.initial_view, self.dvs,
                     self.events))

    def __repr__(self):
        return "ReplayTrace({0} events, {1} processes, dvs={2!r})".format(
            len(self.events), len(self.processes), self.dvs
        )

    def _with_events(self, events):
        return ReplayTrace(
            self.processes, self.initial_view, events, dvs=self.dvs,
            source=self.source,
        )

    def subset(self, indices):
        keep = set(indices)
        return self._with_events(
            e for i, e in enumerate(self.events) if i in keep
        )

    def without(self, indices):
        drop = set(indices)
        return self._with_events(
            e for i, e in enumerate(self.events) if i not in drop
        )

    def describe(self, limit=None):
        events = self.events if limit is None else self.events[:limit]
        lines = [repr(self)]
        lines.extend("  " + e.describe() for e in events)
        if limit is not None and len(self.events) > limit:
            lines.append("  ... {0} more".format(len(self.events) - limit))
        return "\n".join(lines)

    # -- Serialization -----------------------------------------------------

    def to_bytes(self):
        header = (TRACE_MAGIC, TRACE_VERSION, self.processes,
                  self.initial_view, self.dvs, self.source,
                  len(self.events))
        chunks = [encode_frame(header)]
        chunks.extend(encode_frame(e.as_tuple()) for e in self.events)
        return b"".join(chunks)

    @classmethod
    def from_bytes(cls, data):
        decoder = FrameDecoder()
        try:
            frames = decoder.feed(data)
        except CodecError as exc:
            raise TraceError("corrupt trace: {0}".format(exc)) from exc
        if decoder.pending:
            raise TraceError(
                "truncated trace: {0} trailing byte(s) do not form a "
                "frame".format(decoder.pending)
            )
        if not frames:
            raise TraceError("empty trace: no header frame")
        header, event_frames = frames[0], frames[1:]
        if not (isinstance(header, tuple) and len(header) >= 2
                and header[0] == TRACE_MAGIC):
            raise TraceError("not a {0} file".format(TRACE_MAGIC))
        # Version before shape: a v1 file (no event count) reports its
        # version, not a misleading "malformed header".
        if header[1] != TRACE_VERSION:
            raise TraceError(
                "trace version {0!r} unsupported (expected {1})".format(
                    header[1], TRACE_VERSION
                )
            )
        if len(header) != 7:
            raise TraceError("malformed trace header")
        _, _, processes, initial_view, dvs, source, count = header
        if not (isinstance(processes, tuple)
                and all(isinstance(p, str) for p in processes)):
            raise TraceError("malformed process list in trace header")
        from repro.core.views import View

        if not isinstance(initial_view, View):
            raise TraceError("trace header initial view is not a View")
        if not isinstance(dvs, str) or not isinstance(source, str):
            raise TraceError("malformed trace header")
        if not isinstance(count, int) or isinstance(count, bool) \
                or count < 0:
            raise TraceError("malformed event count in trace header")
        if len(event_frames) < count:
            # Catches truncation landing exactly on a frame boundary,
            # which decoder.pending cannot see.
            raise TraceError(
                "truncated trace: header promises {0} event(s), found "
                "{1}".format(count, len(event_frames))
            )
        if len(event_frames) > count:
            raise TraceError(
                "trailing frames: header promises {0} event(s), found "
                "{1}".format(count, len(event_frames))
            )
        events = []
        for index, frame in enumerate(event_frames):
            events.append(_decode_event(index, frame))
        return cls(processes, initial_view, events, dvs=dvs, source=source)

    def save(self, path):
        with open(path, "wb") as handle:
            handle.write(self.to_bytes())
        return path

    @classmethod
    def load(cls, path):
        with open(path, "rb") as handle:
            return cls.from_bytes(handle.read())


def _decode_event(index, frame):
    if not (isinstance(frame, tuple) and len(frame) == 4):
        raise TraceError(
            "event #{0} is not a (t, pid, kind, data) tuple".format(index)
        )
    t, pid, kind, data = frame
    if not isinstance(t, (int, float)) or isinstance(t, bool):
        raise TraceError("event #{0} has a non-numeric time".format(index))
    if not isinstance(pid, str):
        raise TraceError("event #{0} has a non-string pid".format(index))
    if kind not in EVENT_KINDS:
        raise TraceError(
            "event #{0} has unknown kind {1!r}".format(index, kind)
        )
    if not isinstance(data, tuple):
        raise TraceError("event #{0} data is not a tuple".format(index))
    return TraceEvent(float(t), pid, kind, data)


class TraceRecorder:
    """Accumulates :class:`TraceEvent` values from a running cluster.

    All hooks fire on the cluster's event loop thread, so the list
    append order *is* the execution order.
    """

    def __init__(self):
        self.events = []

    def record(self, t, pid, kind, *data):
        self.events.append(TraceEvent(t, pid, kind, tuple(data)))

    def on_action(self, time, action):
        """ActionLog observer: captures client ``bcast``/``cbcast``
        downcalls (the stack inputs that enter through the log, not the
        node)."""
        if action.name in ("bcast", "cbcast"):
            payload, pid = action.params
            self.record(time if time is not None else 0.0, pid,
                        action.name, payload)

    def trace(self, processes, initial_view, dvs="normal"):
        """Snapshot the recording as an immutable :class:`ReplayTrace`."""
        return ReplayTrace(processes, initial_view, list(self.events), dvs=dvs)
