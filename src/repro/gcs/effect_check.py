"""Runtime cross-process effect isolation (``Cluster(check_effects=True)``).

Simulated processes share one interpreter, so a container that two
processes' state both reach (a module-level one their attributes point
at, an alias handed across) would couple processes that the model keeps
apart.  With ``check_effects`` enabled, every event dispatched to a
process -- message delivery, timer, connectivity report -- is bracketed
by fingerprints of every *other* process's layer state (VS stack, DVS
filter, TO layer).  If handling an event at ``p`` changes anything
observable at ``q != p``, the run stops with an
:class:`EffectIsolationError` naming the event and the foreign
attribute that moved.

This is the runtime analogue of the paper's locality discipline: an
``eff_`` may mutate only the state of the automaton it belongs to.

Fingerprints are ``repr``-based.  Within one dispatch the simulation is
single-threaded and unchanged objects produce identical reprs, so the
comparison is exact for the debugging purpose at hand; shared
infrastructure (the network, the shared action log, listeners wired to
other layers) is excluded by object identity.  An object's state is its
instance dict and, under it, the mutable containers (lists, dicts,
sets) its class or a base holds: read through ``self``, a class-level
list is one list for every process.
"""


class EffectIsolationError(AssertionError):
    """Handling an event at one process mutated another process's state."""

    def __init__(self, pid, event, foreign_pid, details):
        self.pid = pid
        self.event = event
        self.foreign_pid = foreign_pid
        self.details = details
        super().__init__(
            "handling {0} at {1!r} mutated state of {2!r}: {3}".format(
                event, pid, foreign_pid, "; ".join(details)
            )
        )


#: The node upcalls bracketed by the checker.
_WRAPPED_UPCALLS = ("on_message", "on_timer", "on_connectivity")

#: Class attributes of these types are state every instance shares.
_MUTABLE = (list, dict, set)


class EffectIsolationChecker:
    """Snapshot-compares foreign layer state around every dispatch."""

    def __init__(self, cluster):
        self.cluster = cluster
        #: Dispatches checked so far (for tests to assert coverage).
        self.checks = 0
        #: pid -> [(layer_name, layer_object), ...]
        self._layers = {}
        #: class -> names of its mutable class attributes (:meth:`_state`)
        self._shared = {}
        for pid in cluster.processes:
            layers = [("stack", cluster.stacks[pid]),
                      ("dvs", cluster.dvs[pid])]
            if pid in cluster.to:
                layers.append(("to", cluster.to[pid]))
            if pid in getattr(cluster, "cb", {}):
                layers.append(("cb", cluster.cb[pid]))
            self._layers[pid] = layers
        # Objects excluded from fingerprints by identity: shared
        # infrastructure plus every layer object (cross-references like
        # dvs.stack or to.dvs are fingerprinted at their own process).
        self._skip_ids = {id(cluster.net), id(cluster.log)}
        for obj in (cluster.monitor, cluster.nemesis):
            if obj is not None:
                self._skip_ids.add(id(obj))
        for layers in self._layers.values():
            for _, layer in layers:
                self._skip_ids.add(id(layer))
                listener = getattr(layer, "listener", None)
                if listener is not None:
                    self._skip_ids.add(id(listener))

    def install(self):
        """Wrap every node's upcalls; returns self (fluent)."""
        for pid in self.cluster.processes:
            node = self.cluster.stacks[pid]
            for name in _WRAPPED_UPCALLS:
                self._wrap(node, name)
        return self

    def _wrap(self, node, name):
        original = getattr(node, name)

        def checked(*args, _original=original, _name=name, **kwargs):
            return self._dispatch(node.pid, _name, _original, args, kwargs)

        setattr(node, name, checked)

    # -- Fingerprinting ------------------------------------------------

    def _state(self, value, attrs):
        """``attrs`` (``value``'s instance dict) over the mutable
        containers ``value`` reaches through its class along the MRO."""
        cls = type(value)
        names = self._shared.get(cls)
        if names is None:
            names = self._shared[cls] = tuple(sorted(
                name for name in {n for k in cls.__mro__ for n in vars(k)}
                if not name.startswith("__")
                and isinstance(getattr(cls, name), _MUTABLE)
            ))
        if not names:
            return attrs
        state = {name: getattr(cls, name) for name in names}
        state.update(attrs)
        return state

    def _render(self, value, depth=0):
        """A structural repr that sees inside plain helper objects.

        The default ``repr`` of an object without ``__repr__`` is just
        its address, which hides in-place mutation (e.g. of the VS
        stack's ``_ViewOrderingState``); so objects carrying a
        ``__dict__`` are rendered from their attributes, recursively,
        and containers element-wise.  Depth is bounded defensively; the
        interesting state is shallow.
        """
        if depth > 6 or id(value) in self._skip_ids or callable(value):
            return "<skipped>"
        if isinstance(value, dict):
            return "{%s}" % ", ".join(
                "{0!r}: {1}".format(k, self._render(v, depth + 1))
                for k, v in value.items()
            )
        if isinstance(value, (list, tuple)):
            return "[%s]" % ", ".join(
                self._render(v, depth + 1) for v in value
            )
        if isinstance(value, (set, frozenset)):
            return "{%s}" % ", ".join(
                self._render(v, depth + 1) for v in value
            )
        attrs = getattr(value, "__dict__", None)
        if attrs is not None and type(value).__repr__ is object.__repr__:
            return "{0}({1})".format(
                type(value).__name__,
                ", ".join(
                    "{0}={1}".format(k, self._render(v, depth + 1))
                    for k, v in sorted(self._state(value, attrs).items())
                ),
            )
        return repr(value)

    def _fingerprint(self, pid):
        parts = []
        for layer_name, layer in self._layers[pid]:
            state = self._state(layer, vars(layer))
            for attr, value in sorted(state.items()):
                if id(value) in self._skip_ids or callable(value):
                    continue
                parts.append(
                    ("{0}.{1}".format(layer_name, attr),
                     self._render(value))
                )
        return parts

    def _foreign_snapshot(self, pid):
        return {
            q: self._fingerprint(q)
            for q in self.cluster.processes
            if q != pid
        }

    @staticmethod
    def _diff(before, after):
        changed = []
        old = dict(before)
        new = dict(after)
        for key in sorted(set(old) | set(new)):
            if old.get(key) != new.get(key):
                changed.append(key)
        return changed

    # -- The bracketed dispatch ---------------------------------------

    def _dispatch(self, pid, name, original, args, kwargs):
        before = self._foreign_snapshot(pid)
        try:
            return original(*args, **kwargs)
        finally:
            self.checks += 1
            after = self._foreign_snapshot(pid)
            for q in sorted(before):
                changed = self._diff(before[q], after[q])
                if changed:
                    event = "{0}{1!r}".format(name, tuple(args))
                    raise EffectIsolationError(pid, event, q, changed)
