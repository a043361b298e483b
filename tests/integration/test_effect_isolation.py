"""No handler mutates another process's state, checked on real runs.

``Cluster(check_effects=True)`` snapshot-compares every other process's
layer state around each event dispatch, so state that two simulated
processes both reach (a module-level container, an alias handed across)
shows up as a foreign mutation.  These tests run the full stack through view
changes, partitions and broadcasts with the checker armed -- and then
deliberately break isolation to show the checker actually bites.
"""

import pytest

from repro.checking import check_to_trace_properties
from repro.gcs.cluster import Cluster
from repro.gcs.effect_check import EffectIsolationError


class TestCheckEffectsCleanRuns:
    def test_quiet_formation_is_isolated(self):
        c = Cluster(list("abc"), seed=11, check_effects=True).start()
        c.settle(max_time=60)
        assert c.effect_checker.checks > 0

    def test_partition_heal_broadcasts_are_isolated(self):
        c = Cluster(list("abcd"), seed=12, check_effects=True).start()
        c.settle(max_time=60)
        for pid in "abcd":
            c.bcast(pid, ("m", pid))
        c.settle(max_time=60)
        c.partition({"a", "b", "c"}, {"d"})
        c.settle(max_time=60)
        c.bcast("a", ("m2", "a"))
        c.heal()
        c.settle(max_time=240)
        assert c.effect_checker.checks > 100
        # The monitored run still satisfies the TO trace properties.
        check_to_trace_properties(c.log.actions)

    def test_crash_recovery_is_isolated(self):
        c = Cluster(list("abc"), seed=13, check_effects=True).start()
        c.settle(max_time=60)
        c.crash("c")
        c.settle(max_time=60)
        c.bcast("a", ("during-crash", "a"))
        c.recover("c")
        c.settle(max_time=240)
        assert c.effect_checker.checks > 0


class TestCheckEffectsCatchesViolations:
    def test_foreign_mutation_raises(self):
        c = Cluster(list("abc"), seed=14, check_effects=True)
        victim = c.dvs["a"]
        original = c.dvs["b"]._on_info

        def evil(info, sender):
            original(info, sender)
            # Reaches across process boundaries: b's handler pokes a's
            # filter state, which a real distributed system cannot do.
            victim.pending_deliveries.append(("smuggled", "b"))

        c.dvs["b"]._on_info = evil
        c.start()
        with pytest.raises(EffectIsolationError) as excinfo:
            c.settle(max_time=120)
        assert excinfo.value.foreign_pid == "a"
        assert any(
            "pending_deliveries" in detail
            for detail in excinfo.value.details
        )

    def test_in_place_foreign_mutation_is_seen(self):
        """Mutating a foreign *nested* structure (no rebinding) is
        caught too -- this is exactly what repr-by-address would miss
        and the structural fingerprint must not."""
        c = Cluster(list("abc"), seed=15, check_effects=True)
        victim_stack = c.stacks["a"]
        original = c.dvs["b"]._on_info

        def evil(info, sender):
            original(info, sender)
            victim_stack.ordering.buffer[0] = ("bogus", "b")

        c.dvs["b"]._on_info = evil
        c.start()
        with pytest.raises(EffectIsolationError):
            c.settle(max_time=120)

    def test_class_level_state_is_seen(self, monkeypatch):
        """A list on the class, read through ``self``, is one list for
        every process: a handler at ``b`` that appends to it changes
        ``a``'s state although no instance dict of ``a`` moved."""
        c = Cluster(list("abc"), seed=17, check_effects=True)
        layer = type(c.dvs["a"])
        monkeypatch.setattr(layer, "shared_log", [], raising=False)
        original = c.dvs["b"]._on_info

        def evil(info, sender):
            original(info, sender)
            c.dvs["b"].shared_log.append(("smuggled", "b"))

        c.dvs["b"]._on_info = evil
        c.start()
        with pytest.raises(EffectIsolationError) as excinfo:
            c.settle(max_time=120)
        assert "dvs.shared_log" in excinfo.value.details

    def test_checker_off_by_default(self):
        c = Cluster(list("ab"), seed=16)
        assert c.effect_checker is None
