"""Configuration for ``repro lint``.

The defaults encode this repository's layout; tests override them to
point the linter at fixture trees.
"""

import fnmatch
from dataclasses import dataclass, field

from repro.lint.rules import RULES

#: Module paths (posix, matched with fnmatch against the tail of the
#: scanned path) whose *entire* code is an ordering-sensitive event
#: path for DVS008 -- beyond the pre_/eff_/cand_ methods that are
#: always in scope.  These are the modules that drive the simulation:
#: the network, the event queue, the schedulers and the runtime stack.
DEFAULT_EVENT_PATH_GLOBS = (
    "*/net/*.py",
    "*/ioa/scheduler.py",
    "*/ioa/execution.py",
    "*/ioa/model_check.py",
    "*/gcs/*.py",
)


def _match(path, pattern):
    posix = str(path).replace("\\", "/")
    return (
        fnmatch.fnmatch(posix, pattern)
        or fnmatch.fnmatch("/" + posix, pattern)
    )


@dataclass
class LintConfig:
    """What to check and where.

    ``select`` -- rule ids to enable (default: all registered rules).
    ``event_path_globs`` -- module patterns treated as ordering-
    sensitive event paths for DVS008.
    """

    select: frozenset = field(
        default_factory=lambda: frozenset(RULES)
    )
    event_path_globs: tuple = DEFAULT_EVENT_PATH_GLOBS

    def __post_init__(self):
        self.select = frozenset(self.select)
        unknown = self.select - set(RULES)
        if unknown:
            raise ValueError(
                "unknown rule id(s): {0}".format(", ".join(sorted(unknown)))
            )

    def enabled(self, rule_id):
        return rule_id in self.select

    def is_event_path(self, path):
        """Whether the whole module at ``path`` is an event path."""
        return any(
            _match(path, pattern) for pattern in self.event_path_globs
        )
