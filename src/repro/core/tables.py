"""Sparse state tables with canonical fingerprints.

The paper's automata index state by unbounded sets (``pending[p, g]`` for
every ``g ∈ G``), with default values (empty sequence, counter 1).  A
:class:`Table` stores only the explicitly written entries but *compares* --
via its fingerprint -- as the total function it denotes: entries equal to
the default are invisible.  This keeps state equality (used by the
refinement checker and the model checker) independent of which default
entries happen to have been materialized.
"""

from repro.ioa.state import clone as _clone
from repro.ioa.state import fingerprint as _fingerprint


class Table:
    """A total function ``key -> value`` with a default, sparsely stored."""

    def __init__(self, default_factory, items=None):
        self._default_factory = default_factory
        self._data = dict(items or {})

    # -- Reads ---------------------------------------------------------------

    def get(self, key):
        """The value at ``key``; a *fresh* default when absent.

        Mutating the returned default does not write into the table; use
        :meth:`at` for mutation.
        """
        value = self._data.get(key, self)
        return self._default_factory() if value is self else value

    def __contains__(self, key):
        return key in self._data

    def keys(self):
        return self._data.keys()

    def items(self):
        return self._data.items()

    def nondefault_items(self):
        """Entries whose value differs from the default (canonical view)."""
        default_print = _fingerprint(self._default_factory())
        return {
            k: v
            for k, v in self._data.items()
            if _fingerprint(v) != default_print
        }

    # -- Writes --------------------------------------------------------------

    def at(self, key):
        """The value at ``key``, materializing the default if absent.

        Use for in-place mutation: ``table.at(p, g).append(m)`` -- wait,
        keys are single values; composite keys are tuples:
        ``table.at((p, g)).append(m)``.
        """
        if key not in self._data:
            self._data[key] = self._default_factory()
        return self._data[key]

    def __setitem__(self, key, value):
        self._data[key] = value

    # -- Value semantics -------------------------------------------------------

    def fingerprint(self):
        items = [
            (_fingerprint(k), _fingerprint(v))
            for k, v in self.nondefault_items().items()
        ]
        items.sort(key=lambda kv: repr(kv[0]))
        return ("table", tuple(items))

    def __eq__(self, other):
        if not isinstance(other, Table):
            return NotImplemented
        return self.fingerprint() == other.fingerprint()

    def __hash__(self):
        return hash(self.fingerprint())

    def __deepcopy__(self, memo):
        twin = Table(self._default_factory)
        twin._data = _clone(self._data)
        return twin

    def __repr__(self):
        entries = ", ".join(
            "{0!r}: {1!r}".format(k, v)
            for k, v in sorted(
                self.nondefault_items().items(), key=lambda kv: repr(kv[0])
            )
        )
        return "Table({" + entries + "})"
