"""Composable, timed fault plans and the nemesis scheduler.

A :class:`NemesisPlan` is an immutable, serializable schedule of
:class:`FaultOp` values -- (time, kind, args) -- and a :class:`Nemesis`
executes one against a :class:`~repro.net.simulator.Network` as ordinary
discrete events.  Because plans are plain data, they can be generated
from a seed, merged (:func:`compose`), minimized by delta-debugging
(:mod:`repro.faults.shrink`) and replayed exactly from ``(seed, plan)``.

Op kinds and their args:

=============  =========================================================
``crash``      ``(pid,)``
``recover``    ``(pid,)``
``partition``  ``(groups,)`` -- tuple of tuples of pids
``heal``       ``()``
``drop``       ``(links, prob, duration)``
``duplicate``  ``(links, prob, spread, duration)``
``delay``      ``(links, jitter, spike_prob, spike, duration)``
``oneway``     ``(pairs, duration)``
=============  =========================================================

``links``/``pairs`` are tuples of ``(src, dst)`` pairs, or ``None`` for
every link.  Windowed kinds install a fault model at ``at`` and remove it
``duration`` later; ``spread``, ``jitter`` and ``spike`` are times on the
same axis.
"""

import json
import random
from dataclasses import dataclass
from types import MappingProxyType

from repro.faults.models import (
    DelayFault,
    DropFault,
    DuplicateFault,
    OneWayBlock,
)

#: Windowed kinds: ``kind -> (fault model, the op's arg names in
#: order)``; every name but ``duration`` is the model's own keyword.
_WINDOWS = MappingProxyType({
    "drop": (DropFault, ("links", "prob", "duration")),
    "duplicate": (DuplicateFault, ("links", "prob", "spread", "duration")),
    "delay": (
        DelayFault,
        ("links", "jitter", "spike_prob", "spike", "duration"),
    ),
    "oneway": (OneWayBlock, ("pairs", "duration")),
})

WINDOW_KINDS = tuple(_WINDOWS)
KINDS = ("crash", "recover", "partition", "heal") + WINDOW_KINDS


def _window_args(op):
    """A windowed op's args by name (``{}`` for the instantaneous kinds)."""
    if op.kind not in _WINDOWS:
        return {}
    names = _WINDOWS[op.kind][1]
    if len(op.args) != len(names):
        raise ValueError(
            "{0} takes {1!r}, got {2!r}".format(op.kind, names, op.args)
        )
    return dict(zip(names, op.args))


def _freeze(value):
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value) if isinstance(value, (set, frozenset)) else value
        return tuple(_freeze(v) for v in items)
    return value


@dataclass(frozen=True, order=True)
class FaultOp:
    """One scheduled fault action."""

    at: float
    kind: str
    args: tuple = ()

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError("unknown fault kind {0!r}".format(self.kind))
        object.__setattr__(self, "args", _freeze(self.args))

    @property
    def end(self):
        """When the op's effect is fully applied (window end for windows)."""
        return self.at + _window_args(self).get("duration", 0.0)

    def describe(self):
        return "t={0:g} {1}{2!r}".format(self.at, self.kind, self.args)


class NemesisPlan:
    """An immutable, time-sorted schedule of fault ops."""

    def __init__(self, ops=()):
        ops = [op if isinstance(op, FaultOp) else FaultOp(*op) for op in ops]
        # Stable sort on (time, kind) only: args may mix None and tuples,
        # which do not compare.
        self.ops = tuple(sorted(ops, key=lambda op: (op.at, op.kind)))

    @classmethod
    def of(cls, plan):
        """``plan`` itself if it is one, else a plan of its ops (``None``:
        none): what every executor and harness takes as ``plan``."""
        return plan if isinstance(plan, NemesisPlan) else cls(plan or ())

    def __len__(self):
        return len(self.ops)

    def __iter__(self):
        return iter(self.ops)

    def __eq__(self, other):
        return isinstance(other, NemesisPlan) and self.ops == other.ops

    def __hash__(self):
        return hash(self.ops)

    def __repr__(self):
        return "NemesisPlan({0} ops, horizon={1:g})".format(
            len(self.ops), self.horizon
        )

    @property
    def horizon(self):
        """Simulated time by which every op has fully played out."""
        return max((op.end for op in self.ops), default=0.0)

    def subset(self, indices):
        keep = set(indices)
        return NemesisPlan(
            op for i, op in enumerate(self.ops) if i in keep
        )

    def without(self, indices):
        drop = set(indices)
        return NemesisPlan(
            op for i, op in enumerate(self.ops) if i not in drop
        )

    # -- Serialization (replayable repros) ---------------------------------

    def to_jsonable(self):
        return [[op.at, op.kind, _to_lists(op.args)] for op in self.ops]

    @classmethod
    def from_jsonable(cls, data):
        return cls(FaultOp(at, kind, _freeze(args)) for at, kind, args in data)

    def to_json(self):
        return json.dumps(self.to_jsonable())

    @classmethod
    def from_json(cls, text):
        return cls.from_jsonable(json.loads(text))


def _to_lists(value):
    if isinstance(value, tuple):
        return [_to_lists(v) for v in value]
    return value


def compose(*plans):
    """Merge several plans (or op iterables) into one schedule."""
    ops = []
    for plan in plans:
        ops.extend(plan)
    return NemesisPlan(ops)


class Nemesis:
    """Executes a :class:`NemesisPlan` against a network as timed events."""

    def __init__(self, plan):
        self.plan = NemesisPlan.of(plan)
        self.applied = []

    def arm(self, net):
        """Schedule every op on the network's event queue."""
        for op in self.plan:
            delay = max(0.0, op.at - net.queue.now)
            net.queue.schedule(delay, self._apply_thunk(net, op))
        return self

    def _apply_thunk(self, net, op):
        def apply():
            net.record("nemesis", op.describe())
            self.applied.append(op)
            self._apply(net, op, net.queue.schedule)

        return apply

    @staticmethod
    def _apply(net, op, later):
        """Apply ``op`` to ``net`` -- a :class:`~repro.net.simulator.
        Network`, or for the non-crash kinds anything with the fault
        interface of a :class:`~repro.net.plane.FaultPlane`;
        ``later(delay, fn)`` schedules the end of a window."""
        kind, args = op.kind, op.args
        if kind == "crash":
            net.crash(args[0])
        elif kind == "recover":
            net.recover(args[0])
        elif kind == "partition":
            net.partition([set(g) for g in args[0]])
        elif kind == "heal":
            net.heal()
        else:
            named = _window_args(op)
            duration = named.pop("duration")
            fault = _WINDOWS[kind][0](**named)
            net.install_fault(fault)
            later(duration, lambda: net.remove_fault(fault))


# -- Plan generators (all deterministic in their seed) -------------------------


def _random_groups(rng, procs, max_groups):
    """Partition ``procs`` into 1..max_groups nonempty random groups."""
    procs = sorted(procs)
    count = rng.randint(1, min(max_groups, len(procs)))
    shuffled = procs[:]
    rng.shuffle(shuffled)
    groups = [[] for _ in range(count)]
    for index in range(count):
        groups[index].append(shuffled[index])
    for pid in shuffled[count:]:
        groups[rng.randrange(count)].append(pid)
    return tuple(tuple(sorted(g)) for g in groups)


def crash_recovery_storm(procs, seed=0, start=10.0, duration=120.0,
                         crashes=6, min_down=5.0, max_down=30.0,
                         spare=1):
    """Random crash/recover pairs inside the window.

    At most ``len(procs) - spare`` processes are ever down at once, so a
    workload can keep making progress between shots.
    """
    rng = random.Random(seed)
    procs = sorted(procs)
    ops = []
    down = []  # (recover_time, pid)
    for _ in range(crashes):
        at = rng.uniform(start, start + duration)
        down = [(t, p) for t, p in down if t > at]
        if len(down) >= len(procs) - spare:
            continue
        pid = rng.choice([p for p in procs if p not in {q for _, q in down}])
        back = at + rng.uniform(min_down, max_down)
        ops.append(FaultOp(at, "crash", (pid,)))
        ops.append(FaultOp(back, "recover", (pid,)))
        down.append((back, pid))
    return NemesisPlan(ops)


def partition_churn(procs, seed=0, start=10.0, duration=120.0, period=15.0,
                    max_groups=3, heal_at_end=True):
    """Repartition the whole network every ~``period`` time units."""
    rng = random.Random(seed)
    procs = sorted(procs)
    ops = []
    at = start
    while at < start + duration:
        groups = _random_groups(rng, procs, max_groups)
        ops.append(FaultOp(at, "partition", (groups,)))
        at += rng.uniform(0.5 * period, 1.5 * period)
    if heal_at_end:
        ops.append(FaultOp(start + duration, "heal"))
    return NemesisPlan(ops)


def flaky_link_windows(procs, seed=0, start=10.0, duration=120.0, windows=4,
                       prob=0.4, min_len=5.0, max_len=20.0, links_per=2):
    """Windows during which a few random directed links drop messages."""
    rng = random.Random(seed)
    procs = sorted(procs)
    ops = []
    for _ in range(windows):
        at = rng.uniform(start, start + duration)
        length = rng.uniform(min_len, max_len)
        links = []
        for _ in range(links_per):
            src = rng.choice(procs)
            dst = rng.choice([p for p in procs if p != src])
            links.append((src, dst))
        ops.append(FaultOp(at, "drop", (tuple(links), prob, length)))
    return NemesisPlan(ops)


def bridge_topology(group_a, group_b, bridge, at=10.0, duration=60.0):
    """Split two groups that can each still reach a bridge process.

    Symmetric component partitions cannot express this topology; it is
    built from one-way blocks severing every direct link between the two
    groups while the bridge keeps links into both.  The classic stress
    for view agreement: connectivity is not transitive.
    """
    a = sorted(set(group_a) - {bridge})
    b = sorted(set(group_b) - {bridge})
    pairs = []
    for x in a:
        for y in b:
            pairs.append((x, y))
            pairs.append((y, x))
    return NemesisPlan([FaultOp(at, "oneway", (tuple(pairs), duration))])
