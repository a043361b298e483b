"""The registry of product mutants, and the runner that re-measures it.

Each :class:`Mutant` is one small edit to the shipped source that
breaks a property some checker guards: the automaton contract, seed
replay, a handoff across the runtime's thread boundary, a task
reference, a buffered position, a counter reset.  The registry records,
per mutant, what the *dynamic* suite does with it: the first test that
fails on it (its killer), or ``None`` if every test passes (it
survives).  DESIGN.md section 8 renders its kill matrix from this
table.  A static rule was retired only when every mutant it flagged had
a named dynamic killer; ``retired`` keeps the record.  An equivalent
mutant, one that cannot change behaviour, is no evidence either way and
is not registered.

The registry is re-measured by the runner::

    PYTHONPATH=src python -m tests.mutants [NAME ...]

For each named mutant (all of them when none is named) it copies
``src/`` to a temporary directory, applies the edit (failing at once if
the anchor has drifted), runs :data:`SUITE` on the copy with ``-x``
under a fixed ``PYTHONHASHSEED`` and compares the verdict and the first
killer with the registry.  It exits non-zero on any change, in either
direction: a change that kills a survivor, or one that lets a killed
mutant through, updates the registry in the same commit.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from typing import Optional

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")

#: The dynamic suite: tier-1 without the one bounded exploration that
#: takes minutes and kills nothing the rest of the suite does not.
#: Paths are relative to the repository.
SUITE = (
    "tests",
    "--deselect=tests/dvs/test_dvs_impl.py::TestBoundedExploration",
)

#: The hash seed the suite runs under.  A mutant that walks a set in
#: hash order fails tier-1 only under the seeds that reorder the set;
#: fixed, every run of the runner meets the same first killer.
HASH_SEED = "0"


@dataclass(frozen=True)
class Mutant:
    """One product mutant and its recorded verdicts.

    ``file`` is relative to ``src/repro``; ``original`` must occur in it
    exactly once.  ``killer`` is the node id of the first test the
    dynamic suite fails on it, or ``None`` if the suite passes.
    ``retired`` names the ``repro lint`` rules that flagged it until its
    killer let them go: if the mutant ever survives again, those are the
    rules to reconsider."""

    name: str
    file: str
    original: str
    replacement: str
    what: str
    killer: Optional[str]
    retired: frozenset = frozenset()


MUTANTS = (
    # -- races: the facade's thread boundary (DVS012, DVS013, retired) ----
    Mutant(
        "stop_wrap", "runtime/cluster.py",
        "self._loop.call_soon_threadsafe(self._loop.stop)",
        "self._loop.stop()",
        "`stop()` stops the loop from the caller thread",
        "tests/faults/test_spec_acceptance.py::TestAmnesiacVsRemintsAViewId"
        "::test_dvs_and_to_accept",
        retired=frozenset({"DVS013"}),
    ),
    # Pure: the same call with the same arguments, on the caller thread.
    Mutant(
        "bcast_wrap", "runtime/cluster.py",
        "self._call(call)",
        "self._nodes[pid].tower.bcast(payload, ordering)",
        "`bcast()` calls the tower on the caller thread",
        "tests/integration/test_live_chaos.py::TestMarshallingUnderAsyncioDebug"
        "::test_debug_loop_accepts_the_tree_and_rejects_unmarshalled_bcast",
        retired=frozenset({"DVS012"}),
    ),
    # Pure: the node is still stopped, on the loop; only the thread the
    # three pops run on changes.
    Mutant(
        "kill_wrap", "runtime/cluster.py",
        "self._call(self._kill_async, pid, timeout=timeout)",
        "node = self._nodes.pop(pid)\n"
        "        self._apps.pop(pid, None)\n"
        "        self._cb_apps.pop(pid, None)\n"
        "        self._call(node.stop, timeout=timeout)",
        "`kill()` pops the node registries on the caller thread",
        "tests/runtime/test_facade_threads.py::"
        "test_kill_and_restart_write_the_registries_on_the_loop_thread",
        retired=frozenset({"DVS012"}),
    ),
    # -- asyncflow: the event loop (DVS016-018, retired) ------------------
    # Pure: the node is still stopped; the loop just stalls first.
    Mutant(
        "blocking_stop", "runtime/cluster.py",
        "self._cb_apps.pop(pid, None)\n        await node.stop()",
        "self._cb_apps.pop(pid, None)\n        time.sleep(0.05)\n"
        "        await node.stop()",
        "`_kill_async` stalls the loop 50 ms",
        "tests/integration/test_failover_live.py::"
        "test_no_callback_outlasts_the_slow_callback_bound",
        retired=frozenset({"DVS016"}),
    ),
    Mutant(
        "dropped_dial_task", "runtime/transport.py",
        "self._redial = asyncio.ensure_future(self._dial(0.0))",
        "asyncio.ensure_future(self._dial(0.0))",
        "`PeerLink.start` drops its dial task",
        "tests/runtime/test_bugfixes.py::"
        "test_link_close_routes_teardown_errors_to_on_error",
        retired=frozenset({"DVS017"}),
    ),
    Mutant(
        "dropped_redial_task", "runtime/transport.py",
        "self._redial = asyncio.ensure_future(self._dial(delay))",
        "asyncio.ensure_future(self._dial(delay))",
        "`PeerLink.connection_lost` drops its redial task",
        "tests/runtime/test_bugfixes.py::"
        "test_link_close_reaps_the_redial_of_a_lost_connection",
        retired=frozenset({"DVS017"}),
    ),
    Mutant(
        "untracked_crash", "runtime/faultnet.py",
        "            self._track(\n"
        "                asyncio.ensure_future(cluster.nemesis_kill(op.args[0]))\n"
        "            )\n",
        "            asyncio.ensure_future(cluster.nemesis_kill(op.args[0]))\n",
        "`LiveNemesis._apply` drops its crash task",
        "tests/runtime/test_bugfixes.py::"
        "test_nemesis_crash_failures_are_captured_not_lost[crash]",
        retired=frozenset({"DVS017"}),
    ),
    Mutant(
        "untracked_recover", "runtime/faultnet.py",
        "            self._track(\n"
        "                asyncio.ensure_future(cluster.nemesis_revive(op.args[0]))\n"
        "            )\n",
        "            asyncio.ensure_future(cluster.nemesis_revive(op.args[0]))\n",
        "`LiveNemesis._apply` drops its recover task",
        "tests/runtime/test_bugfixes.py::"
        "test_nemesis_crash_failures_are_captured_not_lost[recover]",
        retired=frozenset({"DVS017"}),
    ),
    # The first prototype of the direct write, the rule's first real-code
    # finding, replayed on the redial coroutine: it publishes the
    # transport ``send_frame`` writes to around its own await, instead
    # of leaving that to connection_made / connection_lost.
    Mutant(
        "forked_fast_path", "runtime/transport.py",
        "                await loop.create_connection(\n"
        "                    lambda: self, host, port, **_ALL_ERRORS\n"
        "                )\n",
        "                self._transport = None\n"
        "                made = await loop.create_connection(\n"
        "                    lambda: self, host, port, **_ALL_ERRORS\n"
        "                )\n"
        "                self._transport = made[0]\n",
        "`PeerLink._dial` writes `_transport` on both sides of an `await`",
        "tests/runtime/test_failover_evidence.py::"
        "test_a_connection_lost_before_the_dial_resumes_is_not_held",
        retired=frozenset({"DVS018"}),
    ),
    # -- taint (DVS020, DVS021, retired) ---------------------------------
    Mutant(
        "unvalidated_inbound", "runtime/node.py",
        "        if not self._validate_inbound(src, msg):\n"
        "            return\n",
        "",
        "`RuntimeNode._on_frame` dispatches without `_validate_inbound`",
        "tests/runtime/test_bugfixes.py::"
        "test_forged_and_unknown_frames_are_dropped_before_dispatch",
        retired=frozenset({"DVS020"}),
    ),
    Mutant(
        "unbounded_errors", "runtime/node.py",
        "deque(maxlen=ERROR_LIMIT)",
        "[]",
        "`RuntimeNode.errors` grows without bound",
        "tests/runtime/test_bugfixes.py::test_node_error_buffer_is_bounded",
        retired=frozenset({"DVS021"}),
    ),
    # -- the message path, seeded for ROADMAP item 13 ---------------------
    Mutant(
        "ack_sent_kept", "gcs/dvs_layer.py",
        "        self.ack_sent = 0\n"
        "        self.ack_wanted = 0\n"
        "        self.stack.gpsnd(InfoMsg(",
        "        self.ack_wanted = 0\n"
        "        self.stack.gpsnd(InfoMsg(",
        "`DvsLayer` keeps `ack_sent` across a new view",
        "tests/apps/test_kv_store.py::TestPartitionedCluster::"
        "test_minority_write_stalls_then_applies",
    ),
    Mutant(
        "accept_overwrites", "gcs/vs_stack.py",
        "buffer.setdefault(seq, entry)",
        "buffer[seq] = entry",
        "`VsStackNode._accept` overwrites a buffered position",
        "tests/gcs/test_stack_protocol_units.py::TestSequencerRuns::"
        "test_overlapping_and_duplicate_positions_are_ignored",
    ),
    # The self-clock as it was before acks waited for the frame's end.
    Mutant(
        "mid_batch_ack", "gcs/dvs_layer.py",
        "            self.acked[sender] = ack.count\n",
        "            self.acked[sender] = ack.count\n"
        "        if sender == self.pid:\n"
        "            self._send_ack()\n",
        "`DvsLayer._on_ack` sends the next ack at its own echo, mid-frame",
        "tests/gcs/test_dvs_layer_units.py::TestAckCoalescing::"
        "test_echo_inside_a_frame_acks_the_whole_frame",
    ),
    # The in-order fast path taken over positions already buffered: the
    # frame is delivered, what waits behind it is not.
    Mutant(
        "accept_fast_path_over_gap", "gcs/vs_stack.py",
        "if first_seq == ordering.next_deliver and entries and not buffer:",
        "if first_seq == ordering.next_deliver and entries:",
        "`VsStackNode._accept` delivers an in-order frame past a "
        "non-empty buffer",
        "tests/gcs/test_stack_protocol_units.py::TestSequencer::"
        "test_out_of_order_delivery_buffers",
    ),
    # The sequencer as it was before ``Data`` carried its sender's count
    # (ROADMAP 4(beta), 4(delta)): whatever reaches it is ordered.
    Mutant(
        "data_fifo_unchecked", "gcs/vs_stack.py",
        "        if msg.n != n:\n            self.data_refused += 1\n"
        "            return\n",
        "",
        "`VsStackNode._on_data` orders a `Data` whatever its `n`",
        "tests/faults/test_spec_acceptance.py::"
        "TestLossIsATraceInclusionViolation::"
        "test_one_dropped_data_frame_is_a_trace_of_vs",
    ),
    # -- the codec's read window --------------------------------------------
    # The window as it was before a wire bump retired the old reader: a
    # v5 peer's Hello, Heartbeat and StateReply decoded, so VS installed
    # a member whose Data was refused and DVS waited for it forever.
    Mutant(
        "old_stamp_accepted", "runtime/codec.py",
        "if data[start] != WIRE_VERSION:",
        "if data[start] not in (6, WIRE_VERSION):",
        "`_decode_span` also reads stamp 6",
        "tests/runtime/test_codec_migration.py::TestVersioning::"
        "test_current_version_and_acceptance_window",
    ),
    # -- the tail of long strings (wire v7) ---------------------------------
    # A tail read only as far as the placeholders reach: bytes after the
    # last long string are dropped unread, so two bodies that differ
    # there decode alike.
    Mutant(
        "tail_unread_accepted", "runtime/codec.py",
        "if not tail or _TAIL.at != len(tail):",
        "if not tail:",
        "`_read_tailed` accepts a tail it has not read to its end",
        "tests/runtime/test_codec_fuzz.py::"
        "test_a_damaged_tail_is_a_codec_error[unread_tail]",
    ),
    # -- one view id per view ------------------------------------------------
    # The decoder's memo trusting ``==``: ``[True, "n1"]`` equals
    # ``[1, "n1"]``, so a forged identifier decodes as the last real one.
    Mutant(
        "view_id_memo_by_equality", "runtime/codec.py",
        "if nodes == key and type(nodes[0]) is int and type(nodes[1]) is str:",
        "if nodes == key:",
        "the `ViewId` decoder's memo compares field lists by `==` alone",
        "tests/runtime/test_codec.py::"
        'test_pinned_field_types_hold_at_every_depth[["@","ViewId",[true,"n1"]]]',
    ),
    # -- the codec's checks, derived from the declared field types ---------
    # The derivation blind to ``Optional[X]``: ``Heartbeat.view`` then
    # accepts anything, so a forged ``Heartbeat("g1@n1")`` validates and
    # decodes.
    Mutant(
        "optional_unchecked", "runtime/codec.py",
        "if get_origin(declared) is Union and",
        "if get_origin(declared) is Optional and",
        "`_optional_of` never recognises `Optional[X]`",
        "tests/runtime/test_codec_migration.py::TestHeartbeatViewOnTheWire::"
        "test_pinned_and_validated",
    ),
    # -- the trace summary, the one source of end-to-end latency -----------
    # Each tier's end-to-end row built from every delivery: on a mixed
    # run both rows read the population of ``total``.
    Mutant(
        "tier_total_unfiltered", "obs/trace.py",
        'r["total"] for r in rows if r["tier"] == tier',
        'r["total"] for r in rows',
        "`stage_summary` builds each `total.<tier>` row from every "
        "delivery",
        "tests/obs/test_live_tracing.py::"
        "test_tier_total_is_the_exact_end_to_end_latency",
    ),
    # -- reading a live trace ----------------------------------------------
    # The facade as it was before the stitch left the loop: a long trace
    # holds the loop past ``hb_timeout`` and the group re-forms.
    Mutant(
        "stitch_on_loop", "runtime/cluster.py",
        "obs, _ = self._observed()\n"
        "        return obs.tracer.to_json_dict()",
        "return self._call(self._require_obs().tracer.to_json_dict)",
        "`trace_snapshot()` stitches inside the marshalled call",
        "tests/obs/test_live_tracing.py::"
        "test_reading_never_stitches_on_the_loop_thread",
    ),
    # -- the automaton contract (DVS001-DVS005, retired) -------------------
    # A class that breaks DVS001-003 fails when it is defined, so its
    # killer is the first test module that cannot import it.
    Mutant(
        "to_order_unguarded", "to/spec.py",
        "    def pre_to_order(self, state, a, p):\n"
        "        return a in state.pending[p]\n\n",
        "",
        "TO-ORDER loses its precondition",
        "tests/apps/test_kv_store.py",
        retired=frozenset({"DVS001"}),
    ),
    Mutant(
        "register_guarded", "dvs/spec.py",
        "    def eff_dvs_register(self, state, p):\n",
        "    def pre_dvs_register(self, state, p):\n"
        "        return state.current_viewid.get(p) is not None\n\n"
        "    def eff_dvs_register(self, state, p):\n",
        "the input DVS-REGISTER gets a precondition",
        "tests/analysis/test_analysis.py",
        retired=frozenset({"DVS002"}),
    ),
    Mutant(
        "newview_cand_misspelt", "vs/spec.py",
        "def cand_vs_newview(self, state):",
        "def cand_vs_new_view(self, state):",
        "VS-NEWVIEW's candidate generator names no action",
        "tests/analysis/test_analysis.py",
        retired=frozenset({"DVS003"}),
    ),
    Mutant(
        "invariant_sorts_created", "dvs/invariants.py",
        "    created = sorted(state.created, key=lambda v: v.id)\n",
        "    state.created = created = sorted(\n"
        "        state.created, key=lambda v: v.id)\n",
        "`invariant_4_1` stores its sorted copy of `created` in the state",
        "tests/dvs/test_dvs_spec.py::"
        "TestInvariantsUnderExecution::test_exhaustive_small_config",
        retired=frozenset({"DVS004"}),
    ),
    Mutant(
        "to_order_pops", "to/spec.py",
        "        return a in state.pending[p]\n",
        "        return state.pending[p].pop(0) == a\n",
        "`pre_to_order` pops the head it compares",
        "tests/checking/test_trace_props.py::"
        "TestToChecker::test_minimal_passing",
        retired=frozenset({"DVS005"}),
    ),
    # -- seed replay (DVS006-DVS009, retired) -------------------------------
    Mutant(
        "wall_clock_latency", "net/simulator.py",
        "            latency = self.rng.uniform(self.min_latency, "
        "self.max_latency)\n",
        "            import time\n"
        "            latency = self.min_latency + time.time() % (\n"
        "                self.max_latency - self.min_latency)\n",
        "`Network.send` draws a latency from the wall clock",
        "tests/faults/test_monitor.py::"
        "TestMonitoredChaosRuns::test_same_seed_same_digest",
        retired=frozenset({"DVS006"}),
    ),
    Mutant(
        "unseeded_network", "net/simulator.py",
        "self.rng = random.Random(seed)",
        "self.rng = random.Random()",
        "`Network` seeds its RNG from the OS",
        "tests/faults/test_models.py::"
        "TestDropFault::test_partial_drop_is_deterministic",
        retired=frozenset({"DVS007"}),
    ),
    # The hash-order walk DVS008 could not see: it flags iteration over
    # expressions that are sets by their syntax, and ``members`` is a
    # name, so the rule reported nothing on this tree.
    Mutant(
        "unsorted_install", "gcs/vs_stack.py",
        "self.broadcast(sorted(members), Install(round_id, view))",
        "self.broadcast(list(members), Install(round_id, view))",
        "a coordinator sends `Install` to the members in hash order",
        "tests/faults/test_spec_acceptance.py::"
        "TestBrokenStackRejected::"
        "test_no_majority_churn_0_rejected_no_later_than_the_monitor",
    ),
    Mutant(
        "connectivity_hash_order", "net/simulator.py",
        "        for pid, node in sorted(self.nodes.items()):\n"
        "            if self.alive(pid):\n",
        "        for pid in self.nodes.keys() - self._crashed:\n"
        "            node = self.nodes[pid]\n"
        "            if self.alive(pid):\n",
        "`_notify_connectivity` walks the live processes in hash order",
        "tests/obs/test_trace_golden.py::"
        "test_partition_and_heal_trace_is_pinned",
        retired=frozenset({"DVS008"}),
    ),
    Mutant(
        "scheduler_id_order", "ioa/scheduler.py",
        "enabled.sort(key=str)",
        "enabled.sort(key=id)",
        "`RandomScheduler` lists the enabled actions by address",
        "tests/checking/test_harness.py::"
        "test_last_parameter_owns_the_action[vs_spec]",
        retired=frozenset({"DVS009"}),
    ),
    # -- one process's state shared by all (DVS010, DVS011, retired) --------
    Mutant(
        "module_expected", "gcs/vs_stack.py",
        "class _ViewOrderingState:\n"
        "    \"\"\"Per-view sequencing state, discarded on every view "
        "change.\"\"\"\n\n"
        "    def __init__(self):\n"
        "        self.sent = 0  # this process's Data count in the view\n"
        "        # Sequencer side.\n"
        "        self.next_assign = 1\n"
        "        self.run = []  # (payload, sender) pairs awaiting the flush\n"
        "        self.expected = {}  # sender -> the Data.n it may order next\n",
        "EXPECTED = {}  # sender -> the Data.n it may order next\n\n\n"
        "class _ViewOrderingState:\n"
        "    \"\"\"Per-view sequencing state, discarded on every view "
        "change.\"\"\"\n\n"
        "    def __init__(self):\n"
        "        self.sent = 0  # this process's Data count in the view\n"
        "        # Sequencer side.\n"
        "        self.next_assign = 1\n"
        "        self.run = []  # (payload, sender) pairs awaiting the flush\n"
        "        self.expected = EXPECTED\n",
        "every sequencer counts `Data` in one module-level dict",
        "tests/apps/test_kv_store.py::"
        "TestPartitionedCluster::test_minority_write_stalls_then_applies",
        retired=frozenset({"DVS010"}),
    ),
    Mutant(
        "class_level_run", "gcs/vs_stack.py",
        "    def __init__(self):\n"
        "        self.sent = 0  # this process's Data count in the view\n"
        "        # Sequencer side.\n"
        "        self.next_assign = 1\n"
        "        self.run = []  # (payload, sender) pairs awaiting the flush\n",
        "    run = []  # (payload, sender) pairs awaiting the flush\n\n"
        "    def __init__(self):\n"
        "        self.sent = 0  # this process's Data count in the view\n"
        "        # Sequencer side.\n"
        "        self.next_assign = 1\n",
        "every view's first run starts in one class-level list",
        "tests/apps/test_kv_store.py::"
        "TestPartitionedCluster::test_minority_write_stalls_then_applies",
        retired=frozenset({"DVS011"}),
    ),
    # -- the quorum (experiment E7) --------------------------------------
    # What ``NoMajorityDvsLayer`` (``repro chaos --broken``) hosts on
    # purpose, as an edit to the shipped layer.
    Mutant(
        "no_majority_quorum", "gcs/dvs_layer.py",
        "return rules.majority_of_use(self, view)",
        "return rules.intersects_use(self, view)",
        "`DvsLayer` attempts a view that merely intersects `use`",
        "tests/apps/test_kv_store.py::"
        "TestPartitionedCluster::test_minority_write_stalls_then_applies",
    ),

)

BY_NAME = {mutant.name: mutant for mutant in MUTANTS}


class AnchorDrift(RuntimeError):
    """The mutant's ``original`` no longer occurs exactly once."""


def mutate(mutant, source):
    """``source`` (the text of ``mutant.file``) with the edit applied."""
    count = source.count(mutant.original)
    if count != 1:
        raise AnchorDrift("{0}: anchor occurs {1} times in {2}".format(
            mutant.name, count, mutant.file))
    return source.replace(mutant.original, mutant.replacement)


def mutated_tree(mutant, root):
    """Copy ``src/`` under ``root`` with ``mutant`` applied; return the
    copy's ``src`` directory."""
    src = os.path.join(root, "src")
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    path = os.path.join(src, "repro", mutant.file)
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(mutate(mutant, source))
    return src


def _absolute(arg):
    """A suite argument with its repository path made absolute (the
    suite runs from a scratch directory); node ids in ``--deselect``
    stay relative to the rootdir, as pytest compares them."""
    if arg.startswith("--ignore="):
        return "--ignore=" + os.path.join(REPO, arg[len("--ignore="):])
    if arg.startswith("-"):
        return arg
    path, sep, rest = arg.partition("::")
    return os.path.join(REPO, path) + sep + rest


def first_failure(output, cwd):
    """The first ``FAILED`` / ``ERROR`` line in the short test summary
    of a run from ``cwd``, as ``(node id, line)``: the node id relative
    to the repository, and the line with that id; ``(None, None)`` if
    there is none."""
    _, marker, summary = output.partition("short test summary info")
    for line in summary.splitlines() if marker else ():
        for tag in ("FAILED ", "ERROR "):
            if line.startswith(tag):
                node, dash, reason = line[len(tag):].partition(" - ")
                path, sep, rest = node.strip().partition("::")
                path = os.path.normpath(os.path.join(cwd, path))
                killer = os.path.relpath(path, REPO) + sep + rest
                return killer, tag + killer + dash + reason
    return None, None


def measure(mutant, suite=SUITE):
    """Run ``suite`` on a mutated copy of ``src/``: ``(killer, line)``,
    the first failing test's node id and its ``-rfE`` summary line (why
    it failed), or ``(None, None)`` if the suite passes."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as root:
        src = mutated_tree(mutant, root)
        # From the scratch directory, so that nothing the run writes
        # (pytest's cache, Hypothesis' example database) lands in the
        # repository.
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-rfE",
             "-p", "no:cacheprovider", "--rootdir", REPO]
            + [_absolute(arg) for arg in suite],
            # Wide enough that each summary line keeps its reason.
            cwd=root, env=dict(os.environ, PYTHONPATH=src, COLUMNS="1000",
                               PYTHONHASHSEED=HASH_SEED),
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
    if proc.returncode == 0:
        return None, None
    killer, line = first_failure(proc.stdout, root)
    if killer is None:
        raise RuntimeError("{0}: pytest exited {1} with no failing test\n"
                           "{2}".format(mutant.name, proc.returncode,
                                        proc.stdout[-2000:]))
    return killer, line


def verdict(killer):
    return "survives" if killer is None else "killed by " + killer


def render_table():
    """DESIGN.md section 8's kill matrix, one row per mutant."""
    rows = [
        "| mutant | file | change | retired rules | tier-1 dynamic suite |",
        "|---|---|---|---|---|",
    ]
    for mutant in MUTANTS:
        rows.append("| `{0}` | `{1}` | {2} | {3} | {4} |".format(
            mutant.name, mutant.file, mutant.what,
            ", ".join(sorted(mutant.retired)) or "none",
            "**survives**" if mutant.killer is None
            else "killed by `{0}`".format(mutant.killer),
        ))
    return "\n".join(rows) + "\n"


def main(names=None, suite=SUITE, out=sys.stdout):
    """Measure ``names`` (default: every mutant) and compare with the
    registry; 0 if every verdict and killer is as recorded.  A changed
    verdict that is a kill also prints the killer's summary line, so a
    flaky kill can be told from a real one."""
    names = list(names or ()) or [mutant.name for mutant in MUTANTS]
    unknown = [name for name in names if name not in BY_NAME]
    if unknown:
        out.write("unknown mutant(s): {0}\n".format(", ".join(unknown)))
        return 2
    changed = []
    for name in names:
        mutant = BY_NAME[name]
        got, line = measure(mutant, suite)
        same = got == mutant.killer
        out.write("{0:<22} {1}{2}\n".format(
            name, verdict(got),
            "" if same else "   (recorded: {0})".format(
                verdict(mutant.killer))))
        if not same:
            changed.append(name)
            if line is not None:
                out.write("  {0}\n".format(line))
        out.flush()
    if changed:
        out.write("verdict changed: {0}\n".format(", ".join(changed)))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
