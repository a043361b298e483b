"""The rule registry for ``repro lint``.

Each rule has a stable id (``DVS001``...), the pass it belongs to, a
one-line summary and a generic fix hint.  Findings carry a
site-specific message; the hint is the generic remedy shown alongside.

Passes (see DESIGN.md section 7):

1. **wellformed** -- the ``pre_``/``eff_``/``cand_`` contract of
   :class:`repro.ioa.automaton.TransitionAutomaton` subclasses, plus
   purity of predicates (preconditions, candidate enumerators and
   invariant functions must not mutate automaton state).
2. **determinism** -- no wall-clock or entropy escapes, no
   order-unstable iteration in effect/simulator paths, no ``id()``
   ordering: the whole simulation must replay bit-for-bit from a seed.
3. **aliasing** -- no module- or class-level mutable state that would be
   silently shared across simulated processes.
4. **races** -- interprocedural thread-boundary analysis of the live
   runtime: state shared between the synchronous facade and the event
   loop must cross through a designated handoff
   (``call_soon_threadsafe`` / ``run_coroutine_threadsafe``).
5. **escape** -- transition effects must not leak aliases of one
   layer's mutable state into another layer's reachable set (the
   static counterpart of the runtime
   :class:`~repro.gcs.effect_check.EffectIsolationChecker`).
6. **asyncflow** -- async-hazard analysis of the live runtime: no
   blocking calls reachable from a coroutine, no dropped task handles,
   no ``await`` between writes to the same layer state.
"""

from dataclasses import dataclass
from types import MappingProxyType


@dataclass(frozen=True)
class Rule:
    """A lint rule: stable id, owning pass, summary and fix hint."""

    id: str
    name: str
    lint_pass: str
    summary: str
    hint: str


_RULES = (
    Rule(
        "DVS001",
        "eff-without-pre",
        "wellformed",
        "output/internal action has an eff_ but no matching pre_",
        "add an explicit pre_<action>(self, state, ...) -> bool; absent "
        "preconditions silently default to True",
    ),
    Rule(
        "DVS002",
        "pre-on-input",
        "wellformed",
        "precondition declared for an input action",
        "delete the pre_; I/O automata are input-enabled, so input "
        "actions may never be guarded",
    ),
    Rule(
        "DVS003",
        "orphan-handler",
        "wellformed",
        "pre_/eff_/cand_ handler names no action in the signature",
        "add the action to inputs/outputs/internals or rename/remove "
        "the handler (cand_ is only meaningful for locally controlled "
        "actions)",
    ),
    Rule(
        "DVS004",
        "impure-predicate-write",
        "wellformed",
        "assignment to self/state inside a predicate",
        "preconditions, candidate generators and invariants must be "
        "side-effect-free; move the mutation into the eff_",
    ),
    Rule(
        "DVS005",
        "impure-predicate-mutation",
        "wellformed",
        "mutating call on self/state inside a predicate",
        "copy before mutating (e.g. sorted(xs), set(xs) | {x}) or move "
        "the mutation into the eff_",
    ),
    Rule(
        "DVS006",
        "wall-clock",
        "determinism",
        "wall-clock read in simulation code",
        "use the simulated clock (net.queue.now); real time "
        "breaks seed-replay and log digests",
    ),
    Rule(
        "DVS007",
        "unseeded-entropy",
        "determinism",
        "global or unseeded entropy source",
        "draw from a random.Random(seed) instance plumbed in from the "
        "run seed; never the random module, uuid4 or os.urandom",
    ),
    Rule(
        "DVS008",
        "unsorted-set-iteration",
        "determinism",
        "order-unstable iteration in an effect/simulator path",
        "wrap the iterable in sorted(...) (set iteration order depends "
        "on PYTHONHASHSEED)",
    ),
    Rule(
        "DVS009",
        "id-ordering",
        "determinism",
        "ordering by id()",
        "id() varies across runs and processes; order by a stable key "
        "(pid, viewid, sequence number) instead",
    ),
    Rule(
        "DVS010",
        "module-mutable-state",
        "aliasing",
        "module-level mutable container",
        "module globals are shared by every simulated process; use a "
        "tuple/frozenset/MappingProxyType or move it into per-process "
        "state",
    ),
    Rule(
        "DVS011",
        "class-mutable-default",
        "aliasing",
        "class-level mutable default attribute",
        "class attributes are shared by every instance (= every "
        "simulated process); initialise the container in __init__ or "
        "use an immutable type",
    ),
    Rule(
        "DVS012",
        "cross-thread-state",
        "races",
        "mutable state shared across the runtime thread boundary",
        "marshal the access onto the event loop with "
        "run_coroutine_threadsafe/call_soon_threadsafe, or justify the "
        "benign race with a line-scoped ignore",
    ),
    Rule(
        "DVS013",
        "unmarshalled-loop-call",
        "races",
        "caller-thread call into event-loop-owned code",
        "wrap the call in a designated handoff "
        "(run_coroutine_threadsafe for coroutines, "
        "call_soon_threadsafe for callbacks); loop objects are not "
        "threadsafe",
    ),
    Rule(
        "DVS014",
        "effect-alias-escape",
        "escape",
        "transition effect leaks an alias of mutable layer state",
        "hand a copy across the layer boundary (list(xs), dict(m), "
        "set(s)); shared aliases let one layer mutate another's state "
        "behind the automaton's back",
    ),
    Rule(
        "DVS016",
        "blocking-call-on-loop",
        "asyncflow",
        "blocking call reachable from a coroutine",
        "the event loop hosts every node's timers and heartbeats; move "
        "the blocking call to the facade thread or a run_in_executor "
        "job (time.sleep -> asyncio.sleep, Future.result -> await)",
    ),
    Rule(
        "DVS017",
        "orphaned-task",
        "asyncflow",
        "create_task/ensure_future result dropped",
        "keep the returned task in an attribute (or a set with a "
        "done-callback that discards it); an unreferenced task can be "
        "garbage-collected mid-flight and its exception is lost",
    ),
    Rule(
        "DVS018",
        "await-torn-invariant",
        "asyncflow",
        "await between two writes to the same layer state",
        "apply the update atomically before the await, or re-validate "
        "the invariant after it: any handler may run at a suspension "
        "point and observe the half-applied state",
    ),
)

#: Stable id -> :class:`Rule`, in id order (read-only mapping).
RULES = MappingProxyType({rule.id: rule for rule in _RULES})

#: The pass names, in execution order.
PASSES = (
    "wellformed", "determinism", "aliasing", "races", "escape", "asyncflow",
)

