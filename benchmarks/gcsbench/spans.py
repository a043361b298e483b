"""Self-time spans on the one loop thread, and reversible patching.

Every node of the in-process cluster runs on one event-loop thread, so a
plain stack of open spans gives each layer's exact *self* time: a span's
duration minus the part of it its child spans cover.  No ids, no
context propagation -- the call stack is the causal chain.
"""

import functools
import time
from collections import defaultdict

_MISSING = object()


class SpanTable:
    """Accumulates self time and call counts per layer name."""

    def __init__(self, clock=time.perf_counter_ns):
        self._clock = clock
        #: One child-time accumulator per open span, innermost last.
        self._open = []
        self.self_ns = defaultdict(int)
        self.calls = defaultdict(int)

    def enter(self):
        self._open.append(0)
        return self._clock()

    def exit(self, layer, started):
        elapsed = self._clock() - started
        children = self._open.pop()
        self.self_ns[layer] += elapsed - children
        self.calls[layer] += 1
        if self._open:
            self._open[-1] += elapsed

    def wrap(self, layer, fn, note=None):
        """``fn`` bracketed by a ``layer`` span.

        ``note(result, *args, **kwargs)`` (optional) does the counting
        that belongs to the same boundary; it runs after the layer's
        span closes, inside a ``trace`` span of its own, so bookkeeping
        is never charged to the layer it observes.
        """
        enter, leave = self.enter, self.exit

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            started = enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(layer, started)
            if note is not None:
                started = enter()
                try:
                    note(result, *args, **kwargs)
                finally:
                    leave("trace", started)
            return result

        return spanned

    def snapshot(self):
        """A copy of the self-time table (for interval arithmetic)."""
        return dict(self.self_ns)


class Patches:
    """Attribute replacements that are always undone.

    Use as a context manager; ``set`` remembers what the owner's own
    namespace held (not what inheritance resolved), so undoing a patch
    of an inherited method deletes the override instead of pinning the
    base implementation onto the subclass.
    """

    def __init__(self):
        self._undo = []

    def set(self, owner, name, value):
        self._undo.append((owner, name, vars(owner).get(name, _MISSING)))
        setattr(owner, name, value)

    def undo(self):
        while self._undo:
            owner, name, original = self._undo.pop()
            if original is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, original)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.undo()
        return False
