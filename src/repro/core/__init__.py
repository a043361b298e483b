"""Mathematical foundations shared by every subsystem (paper Section 2).

- :mod:`repro.core.viewids` -- the totally ordered set of view identifiers
  ``G`` with least element ``g0``, and comparison helpers that treat the
  bottom element ``None`` as smaller than every identifier;
- :mod:`repro.core.views` -- views ``v = <g, P>`` with ``v.id`` / ``v.set``;
- :mod:`repro.core.sequences` -- the sequence calculus of Section 2
  (prefix, consistency, ``lub``, ``applytoall``);
- :mod:`repro.core.messages` -- the message universes ``M_c`` (client) and
  the implementation's tagged non-client messages.
"""

from repro.core.messages import InfoMsg, RegisteredMsg, is_client_message
from repro.core.sequences import (
    applytoall,
    is_consistent,
    is_prefix,
    lub,
)
from repro.core.viewids import (
    G0,
    ViewId,
    vid_ge,
    vid_gt,
    vid_le,
    vid_lt,
)
from repro.core.views import View, make_view

__all__ = [
    "G0",
    "InfoMsg",
    "RegisteredMsg",
    "View",
    "ViewId",
    "applytoall",
    "is_client_message",
    "is_consistent",
    "is_prefix",
    "lub",
    "make_view",
    "vid_ge",
    "vid_gt",
    "vid_le",
    "vid_lt",
]
