"""Span self-time arithmetic on a synthetic nest, and patch removal."""

from benchmarks.gcsbench.spans import Patches, SpanTable


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now

    def advance(self, ns):
        self.now += ns


def test_self_time_is_duration_minus_children():
    clock = FakeClock()
    table = SpanTable(clock=clock)

    def grandchild():
        clock.advance(5)

    grandchild = table.wrap("codec", grandchild)

    def child_a():
        clock.advance(30)

    def child_b():
        clock.advance(10)
        grandchild()
        clock.advance(5)

    child_a = table.wrap("vs", child_a)
    child_b = table.wrap("vs", child_b)

    def outer():
        clock.advance(20)
        child_a()
        clock.advance(10)
        child_b()
        clock.advance(20)

    table.wrap("node", outer)()
    assert table.self_ns == {"node": 50, "vs": 45, "codec": 5}
    assert table.calls == {"node": 1, "vs": 2, "codec": 1}
    # Selves sum to the outermost duration: nothing counted twice.
    assert sum(table.snapshot().values()) == 100


def test_notes_run_in_their_own_trace_span():
    clock = FakeClock()
    table = SpanTable(clock=clock)
    seen = []

    def work(x):
        clock.advance(7)
        return x * 2

    def note(result, x):
        clock.advance(3)
        seen.append((result, x))

    assert table.wrap("to", work, note)(21) == 42
    assert seen == [(42, 21)]
    assert table.self_ns == {"to": 7, "trace": 3}


def test_span_closes_when_the_layer_raises():
    table = SpanTable(clock=FakeClock())

    def boom():
        raise KeyError("x")

    try:
        table.wrap("dvs", boom)()
    except KeyError:
        pass
    assert table.calls["dvs"] == 1
    assert table._open == []


def test_patches_restore_own_and_inherited_attributes():
    class Base:
        def hello(self):
            return "base"

    class Derived(Base):
        def own(self):
            return "own"

    original_own = Derived.__dict__["own"]
    with Patches() as patches:
        patches.set(Derived, "hello", lambda self: "patched")
        patches.set(Derived, "own", lambda self: "patched")
        assert Derived().hello() == "patched"
        assert Derived().own() == "patched"
    assert "hello" not in Derived.__dict__      # override removed, not pinned
    assert Derived().hello() == "base"
    assert Derived.__dict__["own"] is original_own
