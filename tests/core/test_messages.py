"""Unit tests for the message taxonomy and the purge functions."""

from repro.core.messages import (
    InfoMsg,
    RegisteredMsg,
    is_client_message,
    purge,
    purgesize,
)
from repro.core.views import make_view


class TestClassification:
    def test_client_messages(self):
        assert is_client_message("hello")
        assert is_client_message(("m", "p1", 0))
        assert is_client_message(42)

    def test_info_is_not_client(self):
        assert not is_client_message(InfoMsg(make_view(0, "ab")))

    def test_registered_is_not_client(self):
        assert not is_client_message(RegisteredMsg())


class TestInfoMsg:
    def test_amb_coerced_to_frozenset(self):
        info = InfoMsg(make_view(0, "ab"), {make_view(1, "a")})
        assert isinstance(info.amb, frozenset)

    def test_amb_is_copied_at_construction(self):
        """Mutating the set a message was built from leaves the message
        as built.  This copy is why ``InfoMsg(state.act, state.amb)``
        shares nothing with the automaton's live ``amb``."""
        amb = {make_view(1, "a")}
        info = InfoMsg(make_view(0, "ab"), amb)
        before = InfoMsg(make_view(0, "ab"), frozenset(amb))
        amb.add(make_view(2, "b"))
        amb.discard(make_view(1, "a"))
        assert info == before
        assert info.amb == frozenset({make_view(1, "a")})

    def test_hashable(self):
        a = InfoMsg(make_view(0, "ab"), frozenset({make_view(1, "a")}))
        b = InfoMsg(make_view(0, "ab"), frozenset({make_view(1, "a")}))
        assert a == b
        assert len({a, b}) == 1


class TestPurge:
    def test_purge_plain_messages(self):
        v = make_view(0, "ab")
        queue = ["m1", InfoMsg(v), "m2", RegisteredMsg(), "m3"]
        assert purge(queue) == ["m1", "m2", "m3"]
        assert purgesize(queue) == 2

    def test_purge_pairs(self):
        v = make_view(0, "ab")
        queue = [("m1", "p"), (InfoMsg(v), "q"), (RegisteredMsg(), "p")]
        assert purge(queue) == [("m1", "p")]
        assert purgesize(queue) == 2

    def test_purge_empty(self):
        assert purge([]) == []
        assert purgesize([]) == 0

    def test_purge_preserves_order(self):
        queue = ["b", RegisteredMsg(), "a"]
        assert purge(queue) == ["b", "a"]
