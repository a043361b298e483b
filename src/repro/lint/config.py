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

#: Modules subject to the thread-boundary race analysis (DVS012/013):
#: the live runtime package, where a synchronous facade and a
#: background event loop share one process.
DEFAULT_RUNTIME_GLOBS = (
    "*/repro/runtime/*.py",
)

#: The module defining the wire codec, whose decode paths are the
#: taint pass's sources (DVS020).
DEFAULT_CODEC_GLOBS = (
    "*/repro/runtime/codec.py",
)

#: Callable names the taint pass (DVS020) accepts as validators.  A
#: name matches by exact equality or prefix, so the defaults cover
#: ``validate_message``, ``_validate_inbound`` and the like.  Calling a
#: validator over a tainted name cleanses it for the whole function.
DEFAULT_TAINT_VALIDATORS = (
    "validate_",
    "_validate",
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
    ``runtime_globs`` -- modules analysed by the thread-boundary race
    pass (DVS012/013).
    ``codec_globs`` -- the module(s) holding the wire codec whose
    decode paths the taint pass treats as sources (DVS020).
    ``taint_validators`` -- callable name prefixes/exact names the
    taint pass accepts as wire-input validators (DVS020).
    """

    select: frozenset = field(
        default_factory=lambda: frozenset(RULES)
    )
    event_path_globs: tuple = DEFAULT_EVENT_PATH_GLOBS
    runtime_globs: tuple = DEFAULT_RUNTIME_GLOBS
    codec_globs: tuple = DEFAULT_CODEC_GLOBS
    taint_validators: tuple = DEFAULT_TAINT_VALIDATORS

    def __post_init__(self):
        self.select = frozenset(self.select)
        self.runtime_globs = tuple(self.runtime_globs)
        self.codec_globs = tuple(self.codec_globs)
        self.taint_validators = tuple(self.taint_validators)
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

    def is_runtime_path(self, path):
        """Whether the module at ``path`` is in scope for the
        thread-boundary race analysis."""
        return any(
            _match(path, pattern) for pattern in self.runtime_globs
        )

    def is_codec_path(self, path):
        """Whether the module at ``path`` hosts the wire codec."""
        return any(
            _match(path, pattern) for pattern in self.codec_globs
        )
