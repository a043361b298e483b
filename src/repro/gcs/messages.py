"""Wire messages of the concrete view-synchronous stack."""

from dataclasses import dataclass
from typing import Tuple

from repro.core.views import View
from repro.core.viewids import ViewId


# -- Membership ----------------------------------------------------------------


@dataclass(frozen=True)
class Collect:
    """Coordinator asks members of its component for their max epoch."""

    round_id: Tuple[str, int]
    members: frozenset


@dataclass(frozen=True)
class StateReply:
    """Member's reply to :class:`Collect`: the highest epoch it has seen."""

    round_id: Tuple[str, int]
    max_epoch: int


@dataclass(frozen=True)
class Install:
    """Coordinator announces the agreed next view."""

    round_id: Tuple[str, int]
    view: View


# -- In-view ordering ----------------------------------------------------------------


@dataclass(frozen=True)
class Data:
    """Client payload forwarded to the view's sequencer: ``sender``'s
    ``n``-th (from 1) in view ``vid``."""

    vid: ViewId
    payload: object
    sender: str
    n: int


@dataclass(frozen=True)
class Ordered:
    """Sequencer's broadcast: position ``seq`` of view ``vid`` is this
    payload from ``sender``."""

    vid: ViewId
    seq: int
    payload: object
    sender: str


@dataclass(frozen=True)
class OrderedRun:
    """Sequencer's broadcast of a run: positions ``seq``, ``seq + 1``, ...
    of view ``vid`` are the ``(payload, sender)`` pairs of ``entries``,
    in order -- consecutive :class:`Ordered` messages in one frame."""

    vid: ViewId
    seq: int
    entries: Tuple[Tuple[object, str], ...]

    def split(self):
        """The run as the :class:`Ordered` messages it stands for."""
        return tuple(
            Ordered(self.vid, seq, payload, sender)
            for seq, (payload, sender) in enumerate(self.entries, self.seq)
        )


@dataclass(frozen=True)
class Ack:
    """Member acknowledges having delivered position ``seq``."""

    vid: ViewId
    seq: int


@dataclass(frozen=True)
class SafeNote:
    """Sequencer's announcement that position ``seq`` is stable (delivered
    at every member of the view)."""

    vid: ViewId
    seq: int
